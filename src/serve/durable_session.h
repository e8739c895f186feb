// DurableSession: an InteractiveSession whose every placement decision is
// written ahead to a segmented WAL and periodically checkpointed, so a
// crashed shard restarts from `last checkpoint + WAL tail replay` and
// continues bit-identically with the session that died.
//
// Write path — offer_deferred() per offer, then commit():
//   1. apply the offer to the in-memory session (algorithm decides a bin);
//   2. append the framed record to the WAL's buffer (no system call);
//   3. every `checkpoint_every` offers, snapshot session + algorithm state
//      to the checkpoint file (WAL written and fsynced first, so the
//      checkpoint never claims records the log might not hold), then
//      compact away WAL segments the checkpoint fully covers;
//   4. commit(): one write(2) hands every record appended since the last
//      commit to the kernel, and under kEvery one fsync (a group commit
//      when a coordinator is configured) makes them durable. Only then may
//      any of those offers be acknowledged.
// The shard worker runs 1-3 for each offer it drained and 4 once for all
// of them; offer() is the one-offer case, offer_deferred() followed by
// commit(). A crash before (4) returns loses only unacknowledged offers —
// exactly the log-before-ack contract. If a WAL write or fsync FAILS
// (ENOSPC, EIO — at (4), or at a rotation or checkpoint in (2)/(3)), the
// in-memory state has diverged from the durable log and the session
// poisons itself: every further offer throws, and the failed batch is
// never written again. Retrying would acknowledge an offer the log may
// never hold (the Postgres fsync-gate lesson).
//
// Recovery path (resume=true) — two streamed passes over the segment
// chain, each reading a segment through one fixed-size frame buffer, so
// recovery memory does not grow with the size of the log (no WalRecord
// container exists on this path):
//   1. pass 1 CRC-validates every WAL segment (in parallel on
//      `recovery_pool` when given), counting records only; the global
//      intact prefix it finds is repaired in place — the torn segment
//      truncated, unreachable later segments dropped. A read error (EIO)
//      is not a torn tail: it throws before any file is touched;
//   2. if a valid checkpoint exists for this algorithm covering at least
//      the compacted-away prefix (first_seq <= checkpoint_seq <= the log
//      end pass 1 counted): restore session and algorithm state from it;
//      otherwise (no checkpoint was due yet) start from scratch. A
//      compacted log (first_seq > 0) REQUIRES a usable checkpoint;
//      recovery throws rather than silently serving from a truncated
//      history;
//   3. pass 2 re-reads the repaired prefix from the checkpoint's seq,
//      re-checking every CRC, and replays each record as soon as it is
//      decoded. Every replayed decision is verified against the logged
//      bin; a mismatch (non-deterministic algorithm, wrong --algo) aborts
//      recovery with std::runtime_error rather than serving from a
//      diverged state.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "core/algorithm.h"
#include "core/session.h"
#include "serve/wal.h"
#include "serve/wal_segment.h"

namespace cdbp::parallel {
class ThreadPool;
}

namespace cdbp::serve {

/// What recovery found and did (surfaced by `cdbp recover` and ShardStats).
struct RecoveryReport {
  bool wal_existed = false;
  bool torn = false;               ///< a torn tail was truncated away
  std::uint64_t truncated_bytes = 0;
  std::string tail_error;          ///< reader's reason, when torn
  bool used_checkpoint = false;
  std::uint64_t checkpoint_seq = 0;  ///< offers covered by the checkpoint
  std::uint64_t records = 0;         ///< intact WAL records found
  std::uint64_t replayed = 0;        ///< records replayed through the algo
  std::uint64_t first_seq = 0;       ///< seq of the oldest surviving record
  std::size_t segments_scanned = 0;  ///< WAL segments CRC-scanned
  std::uint64_t dropped_records = 0;  ///< records in segments past a tear
  std::uint64_t unknown_records = 0;  ///< skipped unknown-type frames
};

struct DurableSessionConfig {
  std::string wal_path;  ///< segment-chain base (see wal_segment.h)
  std::string checkpoint_path;
  FsyncPolicy fsync = FsyncPolicy::kEvery;
  /// Checkpoint every N offers; 0 disables periodic checkpoints.
  std::uint64_t checkpoint_every = 0;
  /// false: start fresh (removing any existing log + checkpoint durably).
  /// true: recover.
  bool resume = false;
  /// Rotate to a new WAL segment once the active one reaches this size;
  /// 0 keeps a single growing segment (no rotation, no compaction).
  std::uint64_t wal_segment_bytes = 0;
  /// Shared group-commit coordinator for kEvery durability (one fsync
  /// round amortized over all shards). nullptr = private fsyncs.
  GroupCommitCoordinator* group_commit = nullptr;
  /// Pool for segment-parallel recovery scans. nullptr = sequential.
  parallel::ThreadPool* recovery_pool = nullptr;
  /// I/O environment every durability-critical byte flows through (WAL
  /// segments, manifest, checkpoint file). nullptr = the real filesystem;
  /// a test `io::Env` can schedule faults against it.
  io::Env* env = nullptr;
};

class DurableSession {
 public:
  /// Takes ownership of the algorithm. `algo_name` is the stable CLI name
  /// stored in checkpoints (a resume with a different name rejects the
  /// checkpoint and replays the full WAL). Throws std::invalid_argument,
  /// before it touches any file, when the algorithm is not Checkpointable;
  /// throws std::runtime_error when resume finds an unrecoverable log or a
  /// diverging replay.
  DurableSession(AlgorithmPtr algo, std::string algo_name,
                 DurableSessionConfig config);

  /// Applies one offer, appends it to the WAL, maybe checkpoints. Returns
  /// the chosen bin. The record is NOT yet guaranteed on disk: the caller
  /// MUST call commit() before acknowledging it. `stream_index` is the
  /// caller's position in `tenant`'s input stream (1-based; 0 = unknown)
  /// and `tenant` names the id space it belongs to ("" = the shard-global
  /// space); together they key resume de-duplication — see
  /// last_stream_index(tenant).
  /// Propagates std::invalid_argument from InteractiveSession::offer
  /// without logging anything. A WAL failure poisons the session (see
  /// failed()) and rethrows.
  BinId offer_deferred(Time arrival, Time departure, Load size,
                       std::uint64_t stream_index,
                       std::string_view tenant = {});

  /// offer_deferred() then commit(): when it returns, the offer is durable
  /// per the fsync policy.
  BinId offer(Time arrival, Time departure, Load size,
              std::uint64_t stream_index, std::string_view tenant = {});

  /// Writes every appended offer to the WAL (one write) and makes it
  /// durable per the fsync policy (one group commit under kEvery). A
  /// failure poisons the session and rethrows.
  void commit();

  /// Writes a checkpoint now, then compacts WAL segments it covers.
  void checkpoint_now();

  /// Syncs and closes the WAL. Further offers throw. Idempotent.
  void close();

  /// Drains remaining departures and returns the final MinUsageTime cost.
  /// (Does not close the WAL — departures are derived, not logged.)
  [[nodiscard]] Cost finish() { return session_.finish(); }

  [[nodiscard]] const RecoveryReport& recovery() const noexcept {
    return recovery_;
  }
  /// Offers applied over the session's lifetime, including recovered ones.
  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }
  /// Highest stream_index applied across ALL tenants (0 when none carried
  /// one). A summary statistic, not a dedup key: independent tenants have
  /// uncoordinated id spaces, so resume must compare against the per-tenant
  /// mark below.
  [[nodiscard]] std::uint64_t last_stream_index() const noexcept {
    return last_stream_index_;
  }
  /// Highest stream_index applied for `tenant`'s id space (0 when unseen).
  /// Rebuilt on recovery from the WAL's tenant records and the checkpoint,
  /// so `stream_index <= last_stream_index(tenant)` is the resume
  /// de-duplication test.
  [[nodiscard]] std::uint64_t last_stream_index(
      std::string_view tenant) const noexcept {
    const auto it = tenant_marks_.find(tenant);
    return it == tenant_marks_.end() ? 0 : it->second;
  }
  /// True after a WAL write/sync failure: in-memory state and durable log
  /// may disagree, so the session refuses all further offers.
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] const InteractiveSession& session() const noexcept {
    return session_;
  }
  [[nodiscard]] const std::string& algo_name() const noexcept {
    return algo_name_;
  }
  /// The underlying segment chain (null after close()).
  [[nodiscard]] const SegmentedWal* wal() const noexcept {
    return wal_.get();
  }
  /// WAL segments deleted by checkpoint-anchored compaction so far.
  [[nodiscard]] std::uint64_t compacted_segments() const noexcept {
    return compacted_segments_;
  }

 private:
  SegmentedWalScan recover();
  void replay(const WalRecord& rec, std::uint64_t from_seq);
  [[nodiscard]] WalRecord make_record(Time arrival, Time departure, Load size,
                                      std::uint64_t stream_index, BinId bin,
                                      std::string_view tenant);
  void note_stream_index(std::uint64_t stream_index, std::string_view tenant);
  void check_usable() const;

  AlgorithmPtr algo_;
  std::string algo_name_;
  Checkpointable& checkpointable_;  // algo_ viewed as the capability
  DurableSessionConfig config_;
  InteractiveSession session_;
  std::unique_ptr<SegmentedWal> wal_;
  RecoveryReport recovery_;
  std::uint64_t seq_ = 0;
  std::uint64_t last_stream_index_ = 0;
  /// Per-tenant resume high-water marks ("" = the tenant-less space).
  /// Ordered map: checkpoint serialization iterates it, and sorted order
  /// keeps checkpoint bytes deterministic across runs.
  std::map<std::string, std::uint64_t, std::less<>> tenant_marks_;
  std::uint64_t compacted_segments_ = 0;
  bool failed_ = false;
};

/// Reads a checkpoint file header without restoring anything: returns
/// {algo_name, checkpoint_seq} or throws std::runtime_error when missing or
/// invalid. Used by `cdbp recover` reporting.
struct CheckpointInfo {
  std::string algo_name;
  std::uint64_t seq = 0;
};
[[nodiscard]] CheckpointInfo read_checkpoint_info(const std::string& path,
                                                  io::Env* env = nullptr);

}  // namespace cdbp::serve
