#include "serve/wal.h"

#include <array>
#include <bit>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.h"
#include "core/frame.h"
#include "obs/obs.h"

namespace cdbp::serve {

namespace {

constexpr std::string_view kWalMagic("CDBPWAL3", 8);
constexpr std::uint8_t kRecordOffer = 1;
// Offer-record payload before the tenant bytes: type + seq + stream_index
// + 3 doubles + bin + tenant_len.
constexpr std::size_t kOfferPayload = 1 + 8 + 8 + 8 + 8 + 8 + 8 + 8;

// Namespace-scope references: no initialization-guard load per append.
obs::Counter& g_appends =
    obs::MetricsRegistry::global().counter("wal.appends");
obs::Counter& g_fsyncs = obs::MetricsRegistry::global().counter("wal.fsyncs");
obs::Counter& g_unknown_frames =
    obs::MetricsRegistry::global().counter("wal.unknown_frames");
obs::Histogram& g_fsync_us =
    obs::MetricsRegistry::global().histogram("wal.fsync_us");

std::uint64_t read_u64_le(const char* p) {
  return load_u32_le(p) | std::uint64_t{load_u32_le(p + 4)} << 32;
}

void put_u64_le(std::string& out, std::uint64_t v) {
  char bytes[8];
  for (std::size_t i = 0; i < 8; ++i)
    bytes[i] = static_cast<char>(v >> (8 * i));
  out.append(bytes, sizeof(bytes));
}

// io::sync_file (EINTR-retrying) wrapped with the fsync metrics.
void fsync_file(io::File& f, const std::string& path) {
  const auto t0 = std::chrono::steady_clock::now();
  io::sync_file(f, path);
  const auto dt = std::chrono::steady_clock::now() - t0;
  g_fsyncs.add();
  g_fsync_us.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(dt).count()));
}

}  // namespace

std::string to_string(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kEvery:
      return "every";
  }
  return "?";
}

FsyncPolicy parse_fsync_policy(const std::string& s) {
  if (s == "none") return FsyncPolicy::kNone;
  if (s == "every") return FsyncPolicy::kEvery;
  throw std::invalid_argument("fsync policy must be none|every, got '" + s +
                              "'");
}

void fsync_parent_dir(const std::string& path, io::Env* env) {
  io::sync_parent_dir(io::env_or_posix(env), path);
}

WalWriter::WalWriter(std::string path, FsyncPolicy policy, bool truncate,
                     std::uint64_t base_seq, io::Env* env)
    : path_(std::move(path)), policy_(policy), env_(&io::env_or_posix(env)) {
  file_ = io::open_file(*env_, path_,
                        truncate ? io::OpenMode::kTruncate
                                 : io::OpenMode::kAppend);
  int err = 0;
  const std::int64_t size = file_->size(err);
  if (size < 0)
    throw std::runtime_error("wal: stat failed for '" + path_ + "'");
  bytes_ = static_cast<std::uint64_t>(size);
  if (size == 0) {
    StateWriter seq;
    seq.u64(base_seq);
    std::string header;
    append_frame(header, seq.buffer());
    io::write_all(*file_, kWalMagic.data(), kWalMagic.size(), path_);
    io::write_all(*file_, header.data(), header.size(), path_);
    bytes_ = kSegmentHeaderBytes;
    // An empty-but-created log must itself survive power loss under
    // kEvery, or recovery after a crash-before-first-append would see
    // "missing file" where the writer saw "created".
    if (policy_ == FsyncPolicy::kEvery) {
      fsync_file(*file_, path_);
      io::sync_parent_dir(*env_, path_);
    }
  }
}

WalWriter::~WalWriter() {
  try {
    close();
  } catch (...) {
    // Destructor path: the process is going away; close() throwing on a
    // final fsync would terminate it. Callers that need the durability
    // guarantee call close() explicitly.
  }
}

void WalWriter::append(const WalRecord& rec) {
  if (!file_) throw std::logic_error("wal: append after close");
  // The payload (see the file comment) is encoded in place, inside its
  // frame at the buffer's end.
  const std::size_t frame = begin_frame(pending_);
  pending_.push_back(static_cast<char>(kRecordOffer));
  put_u64_le(pending_, rec.seq);
  put_u64_le(pending_, rec.stream_index);
  put_u64_le(pending_, std::bit_cast<std::uint64_t>(rec.arrival));
  put_u64_le(pending_, std::bit_cast<std::uint64_t>(rec.departure));
  put_u64_le(pending_, std::bit_cast<std::uint64_t>(rec.size));
  put_u64_le(pending_, static_cast<std::uint64_t>(rec.bin));
  put_u64_le(pending_, rec.tenant.size());
  pending_.append(rec.tenant);
  seal_frame(pending_, frame);
  bytes_ += pending_.size() - frame;
  ++appended_;
  ++unsynced_;
  g_appends.add();
}

void WalWriter::flush() {
  if (pending_.empty()) return;
  // On a hard write failure (e.g. ENOSPC after a short write) this throws
  // with part of the batch on disk — a torn tail that recovery truncates.
  // The batch is dropped either way, so no later flush writes it again.
  try {
    io::write_all(*file_, pending_.data(), pending_.size(), path_);
  } catch (...) {
    pending_.clear();
    throw;
  }
  pending_.clear();
}

void WalWriter::sync() {
  if (!file_) return;
  flush();
  fsync_file(*file_, path_);
  unsynced_ = 0;
}

void WalWriter::close() {
  if (!file_) return;
  flush();
  if (policy_ == FsyncPolicy::kEvery && unsynced_ > 0) sync();
  int err = 0;
  const int rc = file_->close(err);
  file_.reset();
  if (rc != 0)
    throw std::runtime_error("wal: close failed for '" + path_ +
                             "': " + std::strerror(err));
}

WalFileScan stream_wal(const std::string& path, const WalRecordVisitor& visit,
                       io::Env* env) {
  WalFileScan out;
  const std::unique_ptr<io::File> file =
      io::open_existing(io::env_or_posix(env), path);
  if (!file) return out;  // missing file: empty log, not an error
  out.exists = true;
  const auto tear = [&out](const char* why) {
    out.torn = true;
    out.tail_error = why;
  };

  // Another version's header is intact, not torn: refuse before any repair.
  const std::string magic = read_magic(*file, path);
  refuse_other_version(magic, kWalMagic, path);
  FrameDecoder in(kMaxFramePayload);
  std::string_view payload;
  const auto next = [&] { return in.next(*file, path, payload); };
  const FrameStatus head =
      magic == kWalMagic ? next() : FrameStatus::kNeedMore;
  if (head != FrameStatus::kFrame || payload.size() != 8) {
    // A header cut short (or junk) vs. a whole one that fails its CRC.
    tear(head == FrameStatus::kNeedMore ? "missing or corrupt WAL header"
                                        : "corrupt segment header");
    return out;
  }
  out.base_seq = read_u64_le(payload.data());
  std::uint64_t pos = kSegmentHeaderBytes;
  out.valid_bytes = pos;

  std::array<std::uint64_t, 256> type_counts{};
  WalRecord rec;  // decoded in place: no allocation per frame
  for (;;) {
    const FrameStatus st = next();
    if (st == FrameStatus::kNeedMore) {
      if (in.pending_bytes() >= kFrameHeaderBytes)
        tear("partial frame payload");
      else if (in.pending_bytes() > 0)
        tear("partial frame header");
      break;
    }
    if (st == FrameStatus::kBad) {
      tear(in.error_code() == FrameError::kBadCrc ? "frame CRC mismatch"
                                                  : "bad frame length");
      break;
    }
    const auto type = static_cast<std::uint8_t>(payload[0]);
    if (type == kRecordOffer) {
      // Body, past the type byte: u64 seq | u64 stream_index | f64 x3
      // | i64 bin | u64 tenant_len | tenant, little-endian. The tenant
      // must consume the remainder of the payload exactly.
      const char* body = payload.data() + 1;
      if (payload.size() < kOfferPayload ||
          read_u64_le(body + 48) != payload.size() - kOfferPayload) {
        tear("bad offer frame length");
        break;
      }
      if (out.record_count++ == 0) out.first_record_seq = read_u64_le(body);
      if (visit) {  // a counting pass skips the decode
        rec.seq = read_u64_le(body);
        rec.stream_index = read_u64_le(body + 8);
        rec.arrival = std::bit_cast<double>(read_u64_le(body + 16));
        rec.departure = std::bit_cast<double>(read_u64_le(body + 24));
        rec.size = std::bit_cast<double>(read_u64_le(body + 32));
        rec.bin = static_cast<BinId>(read_u64_le(body + 40));
        rec.tenant.assign(payload.substr(kOfferPayload));
        visit(rec);
      }
    } else {
      // Envelope-valid frame of a type this reader does not know: a newer
      // writer's record kind. Skip it — the CRC already proved it is not
      // torn-tail garbage.
      ++out.unknown_records;
      g_unknown_frames.add();
    }
    // Counted only once the frame is fully accepted (an offer frame with a
    // bad length is torn tail, not a frame of that type).
    ++type_counts[type];
    pos += kFrameHeaderBytes + payload.size();
    out.valid_bytes = pos;
  }
  for (unsigned type = 0; type < type_counts.size(); ++type)
    if (type_counts[type] > 0) out.frame_type_counts[type] = type_counts[type];
  return out;
}

WalReadResult read_wal(const std::string& path, io::Env* env) {
  WalReadResult out;
  static_cast<WalFileScan&>(out) = stream_wal(
      path, [&out](const WalRecord& rec) { out.records.push_back(rec); },
      env);
  return out;
}

void truncate_wal(const std::string& path, std::uint64_t size, io::Env* env) {
  io::Env& e = io::env_or_posix(env);
  std::unique_ptr<io::File> f = io::open_file(e, path, io::OpenMode::kWrite);
  io::truncate_file(*f, size, path);
  // The new length is inode metadata: fsync the file so the repair itself
  // survives power loss, then the parent so a fresh directory entry does.
  io::sync_file(*f, path);
  int err = 0;
  if (f->close(err) != 0)
    throw std::runtime_error("wal: close failed for '" + path +
                             "': " + std::strerror(err));
  io::sync_parent_dir(e, path);
}

}  // namespace cdbp::serve
