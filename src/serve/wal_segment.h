// Segmented WAL: the shard log as an ordered chain of bounded segment
// files plus a tiny CRC'd manifest, instead of one unbounded file.
//
//   <base>.manifest             CDBPMAN1 sealed file (core/frame.h)
//       payload := u32 version | u64 next_segment_id | u64 count
//                | count x (str filename | u64 base_seq)
//   <base>.000001.seg ...       "CDBPWAL3" segment files (wal.h frames)
//
// A bare file at <base> (a CDBPWAL1 single-file log) is refused, never
// adopted or deleted.
//
// Why segments: (1) checkpoint-anchored *compaction* — segments whose
// every record is covered by the latest checkpoint are deleted, so the log
// stops growing without bound; (2) *segment-parallel recovery* — the
// CRC validation of each segment is independent and fans out over a
// ThreadPool before the (inherently sequential) streamed replay; (3) bounded
// torn-tail repair — a tear truncates one segment, not a giant file.
//
// Crash consistency (every step is fsync-ordered, docs/SERVING.md):
//   rotation    = seal old segment (fsync) -> create new segment file
//                 (header fsync + dir fsync) -> manifest rewrite
//                 (tmp + fsync + rename + dir fsync).
//   compaction  = manifest rewrite first, then unlink dead segments, then
//                 dir fsync. A kill between the steps leaves orphan .seg
//                 files the next open removes; the manifest is always a
//                 consistent view.
//   global prefix rule: the log's intact prefix ends at the first torn or
//                 chain-breaking segment; later segments are unreachable
//                 (their seqs would gap) and repair drops them.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "serve/group_commit.h"
#include "serve/wal.h"

namespace cdbp::parallel {
class ThreadPool;
}

namespace cdbp::serve {

/// The manifest: ordered live segments plus the next rotation id.
struct WalManifest {
  struct Entry {
    std::string file;            ///< filename relative to the base's dir
    std::uint64_t base_seq = 0;  ///< seq of the segment's first record
    friend bool operator==(const Entry&, const Entry&) = default;
  };
  std::uint64_t next_segment_id = 1;
  std::vector<Entry> segments;
};

/// Reads `<base>.manifest`. Absent file -> nullopt; a present-but-invalid
/// or unreadable one throws std::runtime_error (manifests are written via
/// tmp + rename, so a corrupt one is damage, not a crash artifact).
[[nodiscard]] std::optional<WalManifest> read_wal_manifest(
    const std::string& base, io::Env* env = nullptr);

/// Durably writes `<base>.manifest` (tmp + fsync + rename + dir fsync).
/// Every step flows through `env`, so each of the four ops is a scheduled
/// fault point for torn-rename / power-loss testing.
void write_wal_manifest(const std::string& base, const WalManifest& m,
                        io::Env* env = nullptr);

/// `<base>.NNNNNN.seg` path for a segment id (full path, 6-digit id).
[[nodiscard]] std::string wal_segment_path(const std::string& base,
                                           std::uint64_t id);

/// Result of scanning a whole segmented log.
struct SegmentedWalScan {
  bool exists = false;  ///< a manifest was present
  WalManifest manifest;
  /// Global intact prefix, in seq order — filled by scan_segmented_wal
  /// only; validate_segmented_wal leaves it empty and just counts.
  std::vector<WalRecord> records;
  std::uint64_t record_count = 0;  ///< records in the global intact prefix
  std::uint64_t first_seq = 0;     ///< base_seq of the first live segment
  bool torn = false;
  std::string tail_error;
  /// Index into manifest.segments where the prefix ended (SIZE_MAX = no
  /// tear). Repair truncates this segment to torn_valid_bytes and drops
  /// every later segment.
  std::size_t torn_segment = static_cast<std::size_t>(-1);
  std::uint64_t torn_valid_bytes = 0;
  std::uint64_t dropped_records = 0;  ///< records in segments past the tear
  std::uint64_t unknown_records = 0;  ///< skipped unknown-type frames
  std::size_t segments_scanned = 0;
  /// Per-surviving-segment record counts (parallel to manifest.segments up
  /// to and including torn_segment); the writer resumes from the last one.
  std::vector<std::uint64_t> segment_records;
  /// Per-surviving-segment intact-frame counts by record type (parallel to
  /// segment_records) — `cdbp wal-dump` footer material.
  std::vector<std::map<unsigned, std::uint64_t>> segment_frame_types;
};

/// CRC-scans every segment (in parallel on `pool` when given and there is
/// more than one) and assembles the global intact prefix, collecting its
/// records. Read-only.
[[nodiscard]] SegmentedWalScan scan_segmented_wal(
    const std::string& base, parallel::ThreadPool* pool = nullptr,
    io::Env* env = nullptr);

/// Recovery pass 1: the same scan — every frame CRC-checked, every field
/// filled — except that records are counted, not kept (`records` stays
/// empty), so its memory does not grow with the log. Read-only.
[[nodiscard]] SegmentedWalScan validate_segmented_wal(
    const std::string& base, parallel::ThreadPool* pool = nullptr,
    io::Env* env = nullptr);

/// Recovery pass 2: streams the intact prefix that `scan` (from
/// validate_segmented_wal, possibly repaired since) describes through
/// `visit`, in seq order, one segment at a time, re-checking every CRC.
/// Segments whose records all precede `from_seq` are not read. Throws
/// std::runtime_error if a segment no longer holds the records `scan`
/// counted in it.
void stream_segmented_wal(const std::string& base,
                          const SegmentedWalScan& scan, std::uint64_t from_seq,
                          const WalRecordVisitor& visit,
                          io::Env* env = nullptr);

/// Applies the repair a scan prescribed: truncates the torn segment,
/// deletes segments past the tear and any orphan `.seg` files the manifest
/// does not list, and rewrites the manifest when segments were dropped.
/// Mutates `scan` to describe the repaired log. Returns bytes removed.
std::uint64_t repair_segmented_wal(const std::string& base,
                                   SegmentedWalScan& scan,
                                   io::Env* env = nullptr);

/// Append-side handle over the segment chain. Not thread-safe (one shard
/// worker).
///
/// Write path: append() buffers, commit() writes and makes durable. An
/// acknowledgement may only follow the commit() that covers its record.
class SegmentedWal final : public WalSyncable {
 public:
  struct Options {
    FsyncPolicy policy = FsyncPolicy::kEvery;
    /// Rotate to a new segment once the active one reaches this size.
    /// 0 = never rotate (single growing segment).
    std::uint64_t segment_bytes = 0;
    /// When set and policy == kEvery, commit() goes through the shared
    /// coordinator instead of a private fsync.
    GroupCommitCoordinator* group_commit = nullptr;
    /// I/O environment for every byte this log touches (segments, manifest,
    /// repairs). nullptr = the real filesystem; a test `io::Env` can
    /// schedule faults against any operation.
    io::Env* env = nullptr;
  };

  /// truncate=true starts a fresh log: every segment the old manifest
  /// lists, orphan `.seg` files, and the manifest for `base` are removed —
  /// reading only the manifest, never a record — and segment 1 is created.
  /// truncate=false resumes: `scan` should be the (repaired) scan the
  /// caller replayed from — pass nullptr to let the writer validate +
  /// repair itself.
  SegmentedWal(std::string base, Options opts, bool truncate,
               const SegmentedWalScan* scan = nullptr);
  ~SegmentedWal() override;

  SegmentedWal(const SegmentedWal&) = delete;
  SegmentedWal& operator=(const SegmentedWal&) = delete;

  /// Buffers one record in the active segment's writer, rotating to a new
  /// segment first when the active one is full. Makes no system call
  /// unless it rotates (a rotation writes and seals the old segment).
  void append(const WalRecord& rec);

  /// The durability point. It writes every record appended since the last
  /// commit with one write(2) to the active segment; under kEvery it then
  /// makes them durable with one fsync (through the group-commit
  /// coordinator when configured). The shard worker calls this once per
  /// drained queue, then acks everything it drained.
  void commit();

  /// Unconditional direct write and fsync of the active segment, whatever
  /// the policy. The group-commit coordinator calls it (WalSyncable), and
  /// so does a checkpoint, to order the WAL before the checkpoint.
  void sync_file() override;

  /// Deletes sealed segments whose every record the checkpoint at
  /// `covered_seq` covers. Returns the number of segments removed.
  std::size_t compact(std::uint64_t covered_seq);

  /// Seal + close. Idempotent; destructor calls it swallowing errors.
  void close();

  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }
  [[nodiscard]] std::uint64_t rotations() const noexcept {
    return rotations_;
  }
  [[nodiscard]] const WalManifest& manifest() const noexcept {
    return manifest_;
  }
  [[nodiscard]] const std::string& base() const noexcept { return base_; }
  /// Full path of the segment currently being appended to.
  [[nodiscard]] std::string active_segment_path() const;

 private:
  void open_active(std::uint64_t base_seq, bool create);
  void maybe_rotate(std::uint64_t next_seq);
  [[nodiscard]] std::string full_path(const std::string& file) const;

  std::string base_;
  Options opts_;
  io::Env* env_ = nullptr;  ///< resolved (never null after construction)
  WalManifest manifest_;
  std::unique_ptr<WalWriter> writer_;  ///< active (last) segment
  std::uint64_t appended_ = 0;
  std::uint64_t records_in_active_ = 0;
  std::uint64_t rotations_ = 0;
};

}  // namespace cdbp::serve
