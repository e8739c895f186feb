// Group commit: every writer waiting on one WAL shares one fsync, instead
// of one fsync per acknowledged record.
//
// Under FsyncPolicy::kEvery each offer must be durable before it is
// acknowledged, which naively costs one fsync per record and makes the
// safe mode disk-bound. Writers buffer their frames, then call
// sync_and_wait(), whose sync_file() writes them with one write(2) and
// fsyncs. There is no committer thread: the caller runs the target's
// sync_file() itself, so distinct shard WALs fsync
// concurrently on their own workers. A caller that finds an fsync of its
// target already in flight waits for it, and then one follow-up fsync,
// started by the first of them to wake, covers every waiter that arrived
// meanwhile (the in-flight fsync is the batching window).
//
// Ordering guarantee: sync_and_wait() returns only after an fsync of the
// target that *started after* the call did, so an acknowledged offer is
// always on disk.
//
// Failure: if a target's fsync fails, every current and future
// sync_and_wait() on that target rethrows the stored error (fsync failure
// leaves durability indeterminate — the owning session must poison
// itself, not retry). The failure lives in the target, so it ends with it.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>

namespace cdbp::serve {

/// A log file the coordinator can force to disk. Implemented by
/// SegmentedWal (fsync of the active segment). sync_file() runs on a
/// thread inside sync_and_wait() on this target, never two at once, while
/// every owner of pending frames is blocked there, so implementations
/// need no extra locking against the append path.
class WalSyncable {
 public:
  virtual ~WalSyncable() = default;
  virtual void sync_file() = 0;

 private:
  friend class GroupCommitCoordinator;
  // Commit state, guarded by the mutex of the one coordinator this target
  // is used with. fsyncs started and finished; one is in flight while
  // they differ.
  std::uint64_t started_ = 0;
  std::uint64_t finished_ = 0;
  std::exception_ptr failure_;
  std::condition_variable fsync_done_;
};

class GroupCommitCoordinator {
 public:
  /// Runs or joins an fsync of `target` that starts after this call, and
  /// blocks until it has finished. Rethrows the target's fsync error, if
  /// any. Thread-safe; callable from many threads at once.
  void sync_and_wait(WalSyncable& target);

  /// fsyncs started so far, one per target per commit round.
  [[nodiscard]] std::uint64_t rounds() const;
  /// fsyncs that succeeded (the amortization win is syncs() << waiters
  /// served).
  [[nodiscard]] std::uint64_t syncs() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t rounds_ = 0;
  std::uint64_t syncs_ = 0;
};

}  // namespace cdbp::serve
