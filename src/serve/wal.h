// Write-ahead log for the streaming packing service: an append-only file of
// CRC-framed placement records, one per acknowledged offer. The WAL is the
// shard's source of truth — recovery replays it (from the last checkpoint,
// or from the beginning) to rebuild the exact session state.
//
// Segment layout (docs/SERVING.md has the full spec; every frame is a
// core/frame.h frame: u32 payload_len | u32 crc32(payload) | payload):
//   segment := "CDBPWAL3" | header frame | record frame*
//   header frame payload := u64 base_seq   (seq of the segment's first
//                                           record, see wal_segment.h)
//   record frame payload := u8 type | type-specific body
//   type 1 (offer), all little-endian, doubles as bit patterns:
//     u64 seq | u64 stream_index | f64 arrival | f64 departure
//     | f64 size | i64 bin | u64 tenant_len | tenant bytes
//   The tenant ("" for the shard-global id space) keys resume
//   de-duplication per (tenant, stream_index) — independent tenants sharing
//   a shard have uncoordinated id spaces, so a shard-global high-water mark
//   would silently skip one tenant's offers once another tenant pushed a
//   larger id.
//
// Readers validate the frame envelope first and only then dispatch on the
// record type. A frame whose CRC checks out but whose type is unknown is
// *skipped*, not fatal — newer writers may add record kinds that an older
// reader replays through.
//
// Any other "CDBPWAL*" magic (CDBPWAL1 single files, CDBPWAL2 segments) is
// refused by name: repairing it as a torn tail would destroy the file.
//
// Torn-write semantics: a reader accepts the longest prefix of intact
// frames and reports everything after it (a partial frame from a crash, or
// a corrupted one) as a torn tail. Recovery truncates the file back to the
// intact prefix; under FsyncPolicy::kEvery the lost records were never
// acknowledged, and the resume path re-feeds them (stream_index
// de-duplication, see shard_router.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/io_env.h"
#include "core/time_types.h"

namespace cdbp::serve {

/// When appended records are made durable. Appends never sync; the commit
/// that follows them (SegmentedWal::commit) is the durability point.
///  * kEvery  — every commit fsyncs before it returns, so a placement acked
///              after its commit survives kill -9 and loss of the page
///              cache. One fsync covers every record appended since the
///              last one (a shard worker commits once per drained batch).
///  * kNone   — never fsync; the OS flushes when it pleases (tests and
///              benchmarks).
enum class FsyncPolicy { kNone, kEvery };

[[nodiscard]] std::string to_string(FsyncPolicy policy);
/// Parses "none" | "every"; throws std::invalid_argument.
[[nodiscard]] FsyncPolicy parse_fsync_policy(const std::string& s);

/// Fsyncs the directory containing `path`, making a just-completed
/// rename/unlink/creat in it durable. Throws std::runtime_error on failure.
/// (A file fsync persists the file's bytes; the *directory entry* pointing
/// at them lives in the parent directory and needs its own fsync, or a
/// power loss can forget an "acked" rename.) `env` = nullptr uses the real
/// filesystem; a FaultInjectingEnv makes this a scheduled fault point.
void fsync_parent_dir(const std::string& path, io::Env* env = nullptr);

/// One logged placement decision.
struct WalRecord {
  std::uint64_t seq = 0;           ///< per-shard offer sequence number
  std::uint64_t stream_index = 0;  ///< tenant's input-stream position
  Time arrival = 0.0;
  Time departure = 0.0;
  Load size = 0.0;
  BinId bin = kNoBin;
  /// Owner of stream_index's id space ("" = the shard-global space, e.g.
  /// tenant-less tools driving a DurableSession directly).
  std::string tenant;

  friend bool operator==(const WalRecord&, const WalRecord&) = default;
};

/// Append-side handle for one segment file. Not thread-safe: each
/// shard's WAL is written only by that shard's worker (the group-commit
/// committer thread only calls sync() while the owner is blocked waiting on
/// it). Throws std::runtime_error on I/O failure.
class WalWriter {
 public:
  /// Opens (creating if needed) `path`. `truncate` starts a fresh segment
  /// whose header carries `base_seq`; otherwise appends to the existing
  /// file (which must carry a valid header — recovery truncates torn tails
  /// before reopening).
  /// The policy decides only two fsyncs: under kEvery a newly created
  /// header is fsynced (file + parent directory) so an empty-but-created
  /// log survives power loss, and close() syncs an unsynced tail.
  /// All I/O flows through `env` (nullptr = the real filesystem), so a
  /// FaultInjectingEnv can schedule short writes, ENOSPC, and fsync faults
  /// against every byte this writer emits.
  WalWriter(std::string path, FsyncPolicy policy, bool truncate,
            std::uint64_t base_seq = 0, io::Env* env = nullptr);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Writes one framed record. Never syncs: the record is durable only
  /// after a later sync() (or close() under kEvery).
  void append(const WalRecord& rec);

  /// Forces an fsync now, whatever the policy and even with nothing
  /// unsynced (callers use this to seal a segment or to order a checkpoint
  /// after its WAL prefix).
  void sync();

  /// Fsync (under kEvery, when anything is unsynced) + close. Idempotent;
  /// the destructor calls it, swallowing errors.
  void close();

  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Current file size in bytes (header + all appended frames).
  [[nodiscard]] std::uint64_t file_bytes() const noexcept { return bytes_; }
  /// Durability watermark: bytes guaranteed on disk as of the last fsync.
  /// (Crash simulators truncate to this to model losing the page cache.)
  [[nodiscard]] std::uint64_t synced_bytes() const noexcept {
    return synced_bytes_;
  }
  [[nodiscard]] std::size_t unsynced() const noexcept { return unsynced_; }

 private:
  std::string path_;
  FsyncPolicy policy_;
  io::Env* env_;
  std::unique_ptr<io::File> file_;
  std::size_t unsynced_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t synced_bytes_ = 0;
  std::string frame_;  ///< encode buffer, reused across appends
};

/// Envelope sanity bound: no legitimate record is this large, so a length
/// beyond it is torn-tail garbage, not a future record type.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;
/// Bytes before the first record: magic + the base_seq header frame.
inline constexpr std::size_t kSegmentHeaderBytes = 8 + 8 + 8;

/// What one pass over a WAL file found, apart from the records themselves.
struct WalFileScan {
  std::uint64_t record_count = 0;  ///< offer records in the intact prefix
  std::uint64_t first_record_seq = 0;  ///< seq of the first (if any)
  std::uint64_t valid_bytes = 0;   ///< file offset where the prefix ends
  std::uint64_t base_seq = 0;      ///< from the segment header
  std::uint64_t unknown_records = 0;  ///< intact frames of unknown type
  /// Intact frames by on-disk record type (offer = 1), including the
  /// unknown ones — `cdbp wal-dump` reports this per segment.
  std::map<unsigned, std::uint64_t> frame_type_counts;
  bool exists = false;             ///< the file was present
  bool torn = false;               ///< bytes beyond valid_bytes were dropped
  std::string tail_error;          ///< why the tail was rejected (when torn)
};

/// Result of scanning a WAL file with its records collected.
struct WalReadResult : WalFileScan {
  std::vector<WalRecord> records;  ///< longest intact prefix
};

/// Receives each intact offer record in file order. The reference is valid
/// only for the call: the reader decodes every frame into one record.
using WalRecordVisitor = std::function<void(const WalRecord&)>;

/// The WAL frame reader. Streams the segment at `path` through a
/// core/frame.h decoder in kReadBlockBytes reads and hands each record of
/// the longest intact frame prefix (see file comment) to `visit`, which
/// may be empty to only count. A missing file yields an empty, non-torn
/// result; a bad or short header yields torn with valid_bytes = 0; the
/// caller decides whether to truncate (recovery does). A read error or
/// another "CDBPWAL*" magic throws std::runtime_error: neither is torn.
WalFileScan stream_wal(const std::string& path, const WalRecordVisitor& visit,
                       io::Env* env = nullptr);

/// stream_wal collecting every record.
[[nodiscard]] WalReadResult read_wal(const std::string& path,
                                     io::Env* env = nullptr);

/// Truncates `path` to `size` bytes (recovery's torn-tail repair) and makes
/// the new size durable (file fsync + parent directory fsync).
/// Throws std::runtime_error on failure.
void truncate_wal(const std::string& path, std::uint64_t size,
                  io::Env* env = nullptr);

}  // namespace cdbp::serve
