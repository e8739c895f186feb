#include "serve/durable_session.h"

#include <stdexcept>
#include <utility>

#include "core/checkpoint.h"
#include "core/frame.h"
#include "obs/obs.h"

namespace cdbp::serve {

namespace {

/// v2: the session state carries only live items (see
/// InteractiveSession::save_state). v1 files, which carried every item
/// ever offered, are refused by name (read_sealed_file).
constexpr std::string_view kCkptMagic("CDBPCKP2", 8);

obs::Counter& g_offers =
    obs::MetricsRegistry::global().counter("serve.offers");
obs::Counter& g_checkpoints =
    obs::MetricsRegistry::global().counter("serve.checkpoints");
obs::Counter& g_replayed =
    obs::MetricsRegistry::global().counter("serve.recovery_replayed");
obs::Counter& g_poisoned =
    obs::MetricsRegistry::global().counter("serve.sessions_poisoned");
obs::Histogram& g_ckpt_bytes =
    obs::MetricsRegistry::global().histogram("serve.checkpoint_bytes");

/// A poisoned session is a terminal event worth a mark in the trace
/// timeline, not just a counter bump.
void note_poisoned() {
  g_poisoned.add();
  obs::Tracer::global().instant("serve.poisoned", "serve");
}

AlgorithmPtr require_algo(AlgorithmPtr algo) {
  if (!algo) throw std::invalid_argument("DurableSession: null algorithm");
  return algo;
}

}  // namespace

DurableSession::DurableSession(AlgorithmPtr algo, std::string algo_name,
                               DurableSessionConfig config)
    : algo_(require_algo(std::move(algo))),
      algo_name_(std::move(algo_name)),
      config_(std::move(config)),
      session_(*algo_) {
  checkpointable_ = dynamic_cast<Checkpointable*>(algo_.get());
  SegmentedWal::Options opts;
  opts.policy = config_.fsync;
  opts.segment_bytes = config_.wal_segment_bytes;
  opts.group_commit = config_.group_commit;
  opts.env = config_.env;
  if (config_.resume) {
    const SegmentedWalScan scan = recover();
    wal_ = std::make_unique<SegmentedWal>(config_.wal_path, std::move(opts),
                                          /*truncate=*/false, &scan);
  } else {
    // A fresh session must not leave a stale checkpoint behind: a later
    // --resume would pair it with the new WAL and restore garbage. The
    // unlink must be durable — a crash right after start could otherwise
    // resurface the stale file.
    io::Env& env = io::env_or_posix(config_.env);
    int err = 0;
    if (env.unlink(config_.checkpoint_path, err) == 0)
      io::sync_parent_dir(env, config_.checkpoint_path);
    env.unlink(config_.checkpoint_path + ".tmp", err);
    wal_ = std::make_unique<SegmentedWal>(config_.wal_path, std::move(opts),
                                          /*truncate=*/true);
  }
}

void DurableSession::replay(const WalRecord& rec, std::uint64_t from_seq) {
  if (rec.seq < from_seq) return;
  if (rec.seq != seq_)
    throw std::runtime_error("recovery: WAL sequence gap (expected " +
                             std::to_string(seq_) + ", found " +
                             std::to_string(rec.seq) + ")");
  const BinId bin = session_.offer(rec.arrival, rec.departure, rec.size);
  if (bin != rec.bin)
    throw std::runtime_error(
        "recovery: replay diverged at seq " + std::to_string(rec.seq) +
        " (log says bin " + std::to_string(rec.bin) + ", " + algo_name_ +
        " chose " + std::to_string(bin) + ") — wrong --algo?");
  ++seq_;
  note_stream_index(rec.stream_index, rec.tenant);
  ++recovery_.replayed;
  g_replayed.add();
}

SegmentedWalScan DurableSession::recover() {
  // Pass 1: validate every segment, counting records without keeping any.
  SegmentedWalScan scan = validate_segmented_wal(
      config_.wal_path, config_.recovery_pool, config_.env);
  recovery_.wal_existed = scan.exists;
  recovery_.torn = scan.torn;
  recovery_.tail_error = scan.tail_error;
  recovery_.records = scan.record_count;
  recovery_.first_seq = scan.first_seq;
  recovery_.segments_scanned = scan.segments_scanned;
  recovery_.dropped_records = scan.dropped_records;
  recovery_.unknown_records = scan.unknown_records;
  // Repair in place: everything past the global intact prefix is a torn
  // write (or a segment made unreachable by one) from the crash.
  recovery_.truncated_bytes =
      repair_segmented_wal(config_.wal_path, scan, config_.env);

  const std::uint64_t log_end = scan.first_seq + scan.record_count;
  std::uint64_t from_seq = 0;
  std::string payload;
  if (checkpointable_ &&
      read_sealed_file(io::env_or_posix(config_.env), config_.checkpoint_path,
                       kCkptMagic, payload)) {
    StateReader r(payload);
    const std::string name = r.str();
    const std::uint64_t ckpt_seq = r.u64();
    const std::uint64_t ckpt_stream = r.u64();
    // Per-tenant resume marks: the checkpoint must carry them because
    // compaction deletes the WAL records they were derived from.
    const std::uint64_t tenant_count = r.u64();
    std::map<std::string, std::uint64_t, std::less<>> marks;
    for (std::uint64_t t = 0; t < tenant_count; ++t) {
      std::string tenant = r.str();
      const std::uint64_t mark = r.u64();
      marks.emplace(std::move(tenant), mark);
    }
    const bool has_algo_state = r.u8() != 0;
    // Use the checkpoint only when it describes this algorithm, reaches at
    // least the compacted-away prefix, and does not claim offers the
    // (possibly truncated) WAL no longer holds — a checkpoint ahead of a
    // torn log would skip records we cannot verify.
    if (name == algo_name_ && has_algo_state && ckpt_seq >= scan.first_seq &&
        ckpt_seq <= log_end) {
      session_.load_state(r);
      checkpointable_->load_state(r);
      if (!r.at_end())
        throw std::runtime_error("checkpoint: trailing bytes in '" +
                                 config_.checkpoint_path + "'");
      seq_ = ckpt_seq;
      last_stream_index_ = ckpt_stream;
      tenant_marks_ = std::move(marks);
      from_seq = ckpt_seq;
      recovery_.used_checkpoint = true;
      recovery_.checkpoint_seq = ckpt_seq;
    }
  }
  // A compacted log's early records are GONE — only a checkpoint covering
  // the missing prefix can stand in for them. Without one, replaying the
  // tail alone would silently serve from a wrong state.
  if (!recovery_.used_checkpoint && scan.first_seq > 0)
    throw std::runtime_error(
        "recovery: WAL was compacted to seq " +
        std::to_string(scan.first_seq) +
        " but no usable checkpoint covers the missing prefix ('" +
        config_.checkpoint_path + "')");
  // Pass 2: re-read the repaired prefix, applying each record as soon as
  // its frame is decoded and CRC-checked again.
  stream_segmented_wal(
      config_.wal_path, scan, from_seq,
      [&](const WalRecord& rec) { replay(rec, from_seq); }, config_.env);
  return scan;
}

WalRecord DurableSession::make_record(Time arrival, Time departure, Load size,
                                      std::uint64_t stream_index, BinId bin,
                                      std::string_view tenant) {
  WalRecord rec;
  rec.seq = seq_;
  rec.stream_index = stream_index;
  rec.arrival = arrival;
  rec.departure = departure;
  rec.size = size;
  rec.bin = bin;
  rec.tenant = std::string(tenant);
  return rec;
}

void DurableSession::note_stream_index(std::uint64_t stream_index,
                                       std::string_view tenant) {
  if (stream_index == 0) return;  // 0 = unknown position, never a dedup key
  if (stream_index > last_stream_index_) last_stream_index_ = stream_index;
  const auto it = tenant_marks_.find(tenant);
  if (it == tenant_marks_.end())
    tenant_marks_.emplace(std::string(tenant), stream_index);
  else if (stream_index > it->second)
    it->second = stream_index;
}

void DurableSession::check_usable() const {
  if (failed_)
    throw std::runtime_error(
        "DurableSession: poisoned by an earlier WAL failure — in-memory "
        "state and durable log may disagree; restart with --resume");
  if (!wal_) throw std::logic_error("DurableSession: offer after close");
}

BinId DurableSession::offer_deferred(Time arrival, Time departure, Load size,
                                     std::uint64_t stream_index,
                                     std::string_view tenant) {
  check_usable();
  const BinId bin = session_.offer(arrival, departure, size);
  try {
    wal_->append(
        make_record(arrival, departure, size, stream_index, bin, tenant));
  } catch (...) {
    // The session already applied the offer the log will never hold:
    // poison rather than let state and log diverge silently.
    failed_ = true;
    note_poisoned();
    throw;
  }
  ++seq_;
  note_stream_index(stream_index, tenant);
  g_offers.add();
  if (config_.checkpoint_every > 0 && checkpointable_ &&
      seq_ % config_.checkpoint_every == 0)
    checkpoint_now();
  return bin;
}

BinId DurableSession::offer(Time arrival, Time departure, Load size,
                            std::uint64_t stream_index,
                            std::string_view tenant) {
  const BinId bin =
      offer_deferred(arrival, departure, size, stream_index, tenant);
  commit();
  return bin;
}

void DurableSession::commit() {
  if (failed_)
    throw std::runtime_error(
        "DurableSession: poisoned by an earlier WAL failure");
  if (!wal_) return;
  try {
    wal_->commit();
  } catch (...) {
    // An fsync failure leaves durability indeterminate (the kernel may
    // have dropped the dirty pages): never ack, never retry.
    failed_ = true;
    note_poisoned();
    throw;
  }
}

bool DurableSession::checkpoint_now() {
  if (!checkpointable_) return false;
  // WAL first: the checkpoint's seq must never exceed the durable log, or
  // recovery would trust state it cannot cross-check against records.
  if (wal_) {
    try {
      wal_->sync_file();
    } catch (...) {
      failed_ = true;
      note_poisoned();
      throw;
    }
  }
  StateWriter w;
  w.str(algo_name_);
  w.u64(seq_);
  w.u64(last_stream_index_);
  // Per-tenant resume marks, sorted (std::map order) so checkpoint bytes
  // are deterministic. Compaction below deletes the records these came
  // from, so recovery can only learn them from here.
  w.u64(tenant_marks_.size());
  for (const auto& [tenant, mark] : tenant_marks_) {
    w.str(tenant);
    w.u64(mark);
  }
  w.u8(1);
  session_.save_state(w);
  checkpointable_->save_state(w);
  // A failed publish here leaves the previous checkpoint (or none) intact —
  // the WAL still covers everything, so a throw does NOT poison the session.
  // Its dir fsync keeps a power loss from pairing the OLD checkpoint (or
  // none) with a WAL already compacted past it.
  write_sealed_file(io::env_or_posix(config_.env), config_.checkpoint_path,
                    kCkptMagic, w.buffer());
  g_checkpoints.add();
  g_ckpt_bytes.record(w.size());
  obs::Tracer::global().instant(
      "serve.checkpoint", "serve",
      {{"seq", seq_}, {"bytes", static_cast<std::uint64_t>(w.size())}});
  // Every record up to seq_ is captured by the checkpoint just written:
  // sealed segments wholly below it are dead weight.
  if (wal_) compacted_segments_ += wal_->compact(seq_);
  return true;
}

void DurableSession::close() {
  if (!wal_) return;
  wal_->close();
  wal_.reset();
}

CheckpointInfo read_checkpoint_info(const std::string& path, io::Env* env) {
  std::string payload;
  if (!read_sealed_file(io::env_or_posix(env), path, kCkptMagic, payload))
    throw std::runtime_error("checkpoint: no such file '" + path + "'");
  StateReader r(payload);
  CheckpointInfo info;
  info.algo_name = r.str();
  info.seq = r.u64();
  return info;
}

}  // namespace cdbp::serve
