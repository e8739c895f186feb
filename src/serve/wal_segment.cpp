#include "serve/wal_segment.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <set>
#include <stdexcept>

#include "core/checkpoint.h"
#include "core/frame.h"
#include "obs/obs.h"
#include "parallel/thread_pool.h"

namespace cdbp::serve {

namespace {

constexpr std::string_view kManifestMagic("CDBPMAN1", 8);
constexpr std::uint32_t kManifestVersion = 1;

obs::Counter& g_rotations =
    obs::MetricsRegistry::global().counter("wal.rotations");
obs::Counter& g_compacted =
    obs::MetricsRegistry::global().counter("wal.segments_compacted");
obs::Counter& g_orphans =
    obs::MetricsRegistry::global().counter("wal.orphan_segments_removed");
obs::Histogram& g_scan_segments =
    obs::MetricsRegistry::global().histogram("wal.recovery_segments");

[[noreturn]] void throw_err(const std::string& what, const std::string& path,
                            int err) {
  throw std::runtime_error("wal: " + what + " failed for '" + path +
                           "': " + std::strerror(err));
}

std::string name_of(const std::string& base) {
  const std::size_t slash = base.find_last_of('/');
  return slash == std::string::npos ? base : base.substr(slash + 1);
}

std::string manifest_path(const std::string& base) {
  return base + ".manifest";
}

/// Removes a file if present, durably (dir fsync). ENOENT is fine — a
/// crashed earlier attempt may have gotten part-way.
bool remove_file_durable(io::Env& env, const std::string& path) {
  int err = 0;
  if (env.unlink(path, err) != 0) {
    if (err == ENOENT) return false;
    throw_err("unlink", path, err);
  }
  io::sync_parent_dir(env, path);
  return true;
}

std::uint64_t file_size_or_zero(io::Env& env, const std::string& path) {
  const std::int64_t size = env.file_size(path);
  return size < 0 ? 0 : static_cast<std::uint64_t>(size);
}

/// Orphan sweep: removes `.seg` files for `base` that `listed` does not
/// name — left by a kill during rotation (file created, manifest not yet
/// updated) or compaction (manifest updated, unlink not reached) — and a
/// stale manifest `.tmp`. Returns the bytes removed.
std::uint64_t sweep_orphans(io::Env& e, const std::string& base,
                            const std::vector<WalManifest::Entry>& listed) {
  std::set<std::string> keep;
  for (const WalManifest::Entry& entry : listed) keep.insert(entry.file);
  std::uint64_t removed_bytes = 0;
  const std::string dir = io::parent_dir(base);
  const std::string prefix = name_of(base) + ".";
  for (const std::string& file : e.list_dir(dir)) {
    if (file.rfind(prefix, 0) != 0) continue;
    const bool is_segment = file.size() > 4 &&
                            file.compare(file.size() - 4, 4, ".seg") == 0;
    const bool is_stale_tmp = file == name_of(base) + ".manifest.tmp";
    if ((is_segment && keep.count(file) == 0) || is_stale_tmp) {
      const std::string path = dir + "/" + file;
      removed_bytes += file_size_or_zero(e, path);
      remove_file_durable(e, path);
      if (is_segment) g_orphans.add();
    }
  }
  return removed_bytes;
}

}  // namespace

std::optional<WalManifest> read_wal_manifest(const std::string& base,
                                             io::Env* env) {
  const std::string path = manifest_path(base);
  std::string payload;
  if (!read_sealed_file(io::env_or_posix(env), path, kManifestMagic, payload))
    return std::nullopt;

  StateReader r(payload);
  if (r.u32() != kManifestVersion)
    throw std::runtime_error("wal: unsupported manifest version in '" + path +
                             "'");
  WalManifest m;
  m.next_segment_id = r.u64();
  const std::uint64_t count = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    WalManifest::Entry entry;
    entry.file = r.str();
    entry.base_seq = r.u64();
    m.segments.push_back(std::move(entry));
  }
  if (!r.at_end())
    throw std::runtime_error("wal: trailing bytes in manifest '" + path +
                             "'");
  return m;
}

void write_wal_manifest(const std::string& base, const WalManifest& m,
                        io::Env* env) {
  StateWriter payload;
  payload.u32(kManifestVersion);
  payload.u64(m.next_segment_id);
  payload.u64(m.segments.size());
  for (const WalManifest::Entry& entry : m.segments) {
    payload.str(entry.file);
    payload.u64(entry.base_seq);
  }
  write_sealed_file(io::env_or_posix(env), manifest_path(base),
                    kManifestMagic, payload.buffer());
}

std::string wal_segment_path(const std::string& base, std::uint64_t id) {
  char suffix[24];
  std::snprintf(suffix, sizeof(suffix), ".%06llu.seg",
                static_cast<unsigned long long>(id));
  return base + suffix;
}

namespace {

/// Scans every segment the manifest lists (in parallel on `pool`) and
/// assembles the global intact prefix. With `collected` set, each
/// segment's records land in (*collected)[i]; otherwise they are only
/// counted.
SegmentedWalScan scan_chain(const std::string& base,
                            parallel::ThreadPool* pool, io::Env* env,
                            std::vector<std::vector<WalRecord>>* collected) {
  SegmentedWalScan out;
  io::Env& e = io::env_or_posix(env);
  std::optional<WalManifest> manifest = read_wal_manifest(base, &e);
  if (!manifest) {
    // A bare file at the base path is a single-file log from before
    // segments (CDBPWAL1): refused by name, and left as it is.
    if (e.exists(base)) {
      (void)stream_wal(base, {}, &e);
      throw std::runtime_error("wal: '" + base +
                               "' is a bare file with no manifest; this "
                               "build reads segmented logs only");
    }
    return out;
  }
  out.manifest = std::move(*manifest);
  out.exists = true;
  if (out.manifest.segments.empty()) return out;
  out.first_seq = out.manifest.segments.front().base_seq;

  const std::string dir = io::parent_dir(base);
  const std::size_t n = out.manifest.segments.size();
  if (collected != nullptr) collected->assign(n, {});
  const auto scan_one = [&](std::size_t i) -> WalFileScan {
    const std::string path = dir + "/" + out.manifest.segments[i].file;
    if (collected == nullptr) return stream_wal(path, {}, &e);
    WalReadResult seg = read_wal(path, &e);
    (*collected)[i] = std::move(seg.records);
    return seg;
  };
  std::vector<WalFileScan> scans;
  if (pool != nullptr && n > 1) {
    scans = parallel::parallel_map<WalFileScan>(*pool, n, scan_one);
  } else {
    scans.reserve(n);
    for (std::size_t i = 0; i < n; ++i) scans.push_back(scan_one(i));
  }
  out.segments_scanned = n;
  g_scan_segments.record(n);

  // Assemble the global prefix: stop at the first torn, missing, or
  // chain-breaking segment; everything after it is unreachable.
  std::uint64_t expected_seq = out.first_seq;
  for (std::size_t i = 0; i < n; ++i) {
    const WalFileScan& seg = scans[i];
    const std::uint64_t declared = out.manifest.segments[i].base_seq;
    const auto tear = [&](const std::string& why, std::uint64_t valid,
                          std::size_t first_dropped) {
      out.torn = true;
      out.tail_error = why;
      out.torn_segment = i;
      out.torn_valid_bytes = valid;
      for (std::size_t j = first_dropped; j < n; ++j)
        out.dropped_records += scans[j].record_count;
    };
    if (!seg.exists) {
      tear("missing segment file " + out.manifest.segments[i].file, 0, i);
      break;
    }
    if (seg.base_seq != declared) {
      tear("segment base seq mismatch in " + out.manifest.segments[i].file,
           0, i);
      break;
    }
    if (declared != expected_seq) {
      tear("segment chain gap at " + out.manifest.segments[i].file, 0, i);
      break;
    }
    if (seg.record_count > 0 && seg.first_record_seq != declared) {
      tear("segment first record seq mismatch in " +
               out.manifest.segments[i].file,
           0, i);
      break;
    }
    out.unknown_records += seg.unknown_records;
    out.record_count += seg.record_count;
    out.segment_records.push_back(seg.record_count);
    out.segment_frame_types.push_back(seg.frame_type_counts);
    if (seg.torn) {
      // Keep this segment's intact prefix, drop its tail and every later
      // segment (their seqs would gap past the lost records).
      tear(seg.tail_error, seg.valid_bytes, i + 1);
      break;
    }
    expected_seq = declared + seg.record_count;
  }
  return out;
}

}  // namespace

SegmentedWalScan scan_segmented_wal(const std::string& base,
                                    parallel::ThreadPool* pool,
                                    io::Env* env) {
  std::vector<std::vector<WalRecord>> per_segment;
  SegmentedWalScan out = scan_chain(base, pool, env, &per_segment);
  out.records.reserve(out.record_count);
  for (std::size_t i = 0; i < out.segment_records.size(); ++i)
    out.records.insert(out.records.end(), per_segment[i].begin(),
                       per_segment[i].end());
  return out;
}

SegmentedWalScan validate_segmented_wal(const std::string& base,
                                        parallel::ThreadPool* pool,
                                        io::Env* env) {
  return scan_chain(base, pool, env, nullptr);
}

void stream_segmented_wal(const std::string& base,
                          const SegmentedWalScan& scan, std::uint64_t from_seq,
                          const WalRecordVisitor& visit, io::Env* env) {
  const std::string dir = io::parent_dir(base);
  for (std::size_t i = 0; i < scan.segment_records.size(); ++i) {
    const WalManifest::Entry& entry = scan.manifest.segments[i];
    const std::uint64_t expected = scan.segment_records[i];
    if (entry.base_seq + expected <= from_seq) continue;  // all covered
    // Only the records pass 1 counted are visited, and a segment that has
    // lost records since refuses the pass instead of replaying a
    // different log.
    const std::string path = dir + "/" + entry.file;
    std::uint64_t seen = 0;
    stream_wal(
        path,
        [&](const WalRecord& rec) {
          if (seen++ < expected) visit(rec);
        },
        env);
    if (seen < expected)
      throw std::runtime_error("wal: segment '" + path + "' holds " +
                               std::to_string(seen) + " records, " +
                               std::to_string(expected) +
                               " when it was validated");
  }
}

std::uint64_t repair_segmented_wal(const std::string& base,
                                   SegmentedWalScan& scan, io::Env* env) {
  io::Env& e = io::env_or_posix(env);
  std::uint64_t removed_bytes = 0;
  const std::string dir = io::parent_dir(base);
  if (scan.torn && scan.torn_segment != static_cast<std::size_t>(-1)) {
    const bool keep_torn =
        scan.torn_segment < scan.segment_records.size();
    std::vector<WalManifest::Entry> survivors(
        scan.manifest.segments.begin(),
        scan.manifest.segments.begin() +
            static_cast<std::ptrdiff_t>(scan.torn_segment +
                                        (keep_torn ? 1 : 0)));
    // Drop segments past the tear from the manifest FIRST (durable), so a
    // crash mid-repair leaves orphan files, never a manifest pointing at
    // repaired-away data.
    if (survivors.size() != scan.manifest.segments.size()) {
      WalManifest repaired = scan.manifest;
      repaired.segments = survivors;
      write_wal_manifest(base, repaired, &e);
      for (std::size_t i = survivors.size();
           i < scan.manifest.segments.size(); ++i) {
        const std::string path = dir + "/" + scan.manifest.segments[i].file;
        removed_bytes += file_size_or_zero(e, path);
        remove_file_durable(e, path);
      }
      scan.manifest.segments = std::move(survivors);
    }
    // Truncate the torn segment back to its intact prefix.
    if (keep_torn) {
      const std::string path =
          dir + "/" + scan.manifest.segments[scan.torn_segment].file;
      const std::uint64_t size = file_size_or_zero(e, path);
      if (size > scan.torn_valid_bytes)
        removed_bytes += size - scan.torn_valid_bytes;
      truncate_wal(path, scan.torn_valid_bytes, &e);
    }
    scan.torn_segment = static_cast<std::size_t>(-1);
  }

  return removed_bytes + sweep_orphans(e, base, scan.manifest.segments);
}

SegmentedWal::SegmentedWal(std::string base, Options opts, bool truncate,
                           const SegmentedWalScan* scan)
    : base_(std::move(base)),
      opts_(std::move(opts)),
      env_(&io::env_or_posix(opts_.env)) {
  if (truncate) {
    // Fresh log: durably clear every trace of the old one first, or a
    // crash mid-start could pair new segments with stale ones. Only the
    // manifest says which files those are; no record needs reading.
    if (const std::optional<WalManifest> old = read_wal_manifest(base_, env_))
      for (const WalManifest::Entry& entry : old->segments)
        remove_file_durable(*env_, full_path(entry.file));
    sweep_orphans(*env_, base_, {});
    remove_file_durable(*env_, manifest_path(base_));
    manifest_.next_segment_id = 1;
    const std::uint64_t id = manifest_.next_segment_id++;
    manifest_.segments.push_back(
        {name_of(wal_segment_path(base_, id)), 0});
    open_active(0, /*create=*/true);
    write_wal_manifest(base_, manifest_, env_);
    return;
  }

  SegmentedWalScan own;
  if (scan == nullptr) {
    own = validate_segmented_wal(base_, nullptr, env_);
    repair_segmented_wal(base_, own, env_);
    scan = &own;
  }
  manifest_ = scan->manifest;
  if (manifest_.segments.empty()) {
    const std::uint64_t id = manifest_.next_segment_id++;
    manifest_.segments.push_back(
        {name_of(wal_segment_path(base_, id)), 0});
    open_active(0, /*create=*/true);
    write_wal_manifest(base_, manifest_, env_);
    return;
  }
  open_active(manifest_.segments.back().base_seq, /*create=*/false);
  records_in_active_ = scan->segment_records.empty()
                           ? 0
                           : scan->segment_records.back();
}

SegmentedWal::~SegmentedWal() {
  try {
    close();
  } catch (...) {
    // Destructor path: owners needing the final-sync guarantee call
    // close() themselves.
  }
}

std::string SegmentedWal::full_path(const std::string& file) const {
  return io::parent_dir(base_) + "/" + file;
}

void SegmentedWal::open_active(std::uint64_t base_seq, bool create) {
  writer_ = std::make_unique<WalWriter>(
      full_path(manifest_.segments.back().file), opts_.policy,
      /*truncate=*/create, base_seq, env_);
  records_in_active_ = 0;
}

void SegmentedWal::maybe_rotate(std::uint64_t next_seq) {
  if (opts_.segment_bytes == 0) return;
  if (records_in_active_ == 0) return;  // every segment holds >= 1 record
  if (writer_->file_bytes() < opts_.segment_bytes) return;

  // Seal: the old segment's bytes must be durable before the manifest
  // stops calling it "active" (its tail would otherwise be repair fodder).
  writer_->sync();
  writer_->close();
  const std::uint64_t id = manifest_.next_segment_id++;
  manifest_.segments.push_back(
      {name_of(wal_segment_path(base_, id)), next_seq});
  open_active(next_seq, /*create=*/true);
  write_wal_manifest(base_, manifest_, env_);
  ++rotations_;
  g_rotations.add();
}

void SegmentedWal::append(const WalRecord& rec) {
  maybe_rotate(rec.seq);
  writer_->append(rec);
  ++appended_;
  ++records_in_active_;
}

void SegmentedWal::commit() {
  if (!writer_) return;
  if (opts_.policy != FsyncPolicy::kEvery) {
    writer_->flush();
    return;
  }
  if (writer_->unsynced() == 0) return;
  // sync_file() writes the buffered frames, then fsyncs them.
  if (opts_.group_commit != nullptr)
    opts_.group_commit->sync_and_wait(*this);
  else
    writer_->sync();
}

void SegmentedWal::sync_file() {
  if (writer_) writer_->sync();
}

std::size_t SegmentedWal::compact(std::uint64_t covered_seq) {
  // A sealed segment is dead once the NEXT segment's base_seq is within
  // the checkpoint's coverage — every record it holds replays to a state
  // the checkpoint already captures. The active segment never dies.
  std::size_t dead = 0;
  while (dead + 1 < manifest_.segments.size() &&
         manifest_.segments[dead + 1].base_seq <= covered_seq)
    ++dead;
  if (dead == 0) return 0;

  WalManifest compacted = manifest_;
  compacted.segments.erase(compacted.segments.begin(),
                           compacted.segments.begin() +
                               static_cast<std::ptrdiff_t>(dead));
  // Manifest first: a kill after this leaves orphan files (swept on next
  // open), never a manifest naming deleted data.
  write_wal_manifest(base_, compacted, env_);
  for (std::size_t i = 0; i < dead; ++i)
    remove_file_durable(*env_, full_path(manifest_.segments[i].file));
  manifest_ = std::move(compacted);
  g_compacted.add(dead);
  return dead;
}

void SegmentedWal::close() {
  if (writer_) {
    writer_->close();
    writer_.reset();
  }
}

std::string SegmentedWal::active_segment_path() const {
  return full_path(manifest_.segments.back().file);
}

}  // namespace cdbp::serve
