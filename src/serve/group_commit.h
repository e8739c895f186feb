// Group commit: one fsync round amortized over every shard WAL with
// pending frames, instead of one fsync per acknowledged record.
//
// Under FsyncPolicy::kEvery each offer must be durable before it is
// acknowledged, which naively costs one fsync per record and makes the
// safe mode disk-bound. The coordinator collapses that: writers append
// their frames (plain write(2), cheap), then call sync_and_wait(). All
// waiters that arrive before the committer thread starts the next round
// are released by one round, which issues a single fsync per *distinct
// dirty file* — so N shards with M pending offers each pay N fsyncs per
// round, not N*M.
// The architecture mirrors an async-IO submission queue (cf. FlashGraph's
// libsafs, see ROADMAP): producers enqueue, one committer drains.
//
// Ordering guarantee: a round only releases waiters whose frames were
// written before the round's fsync was issued — sync_and_wait() returns
// only after a commit round that *started after* the registration
// completed, so an acknowledged offer is always on disk.
//
// Failure: if a target's fsync fails, every current and future
// sync_and_wait() on that target rethrows the stored error (fsync failure
// leaves durability indeterminate — the owning session must poison
// itself, not retry).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <set>
#include <thread>

namespace cdbp::serve {

/// A log file the coordinator can force to disk. Implemented by
/// SegmentedWal (fsync of the active segment). sync_file() is called from
/// the committer thread only while every owner of pending frames is blocked
/// in sync_and_wait(), so implementations need no extra locking against the
/// append path.
class WalSyncable {
 public:
  virtual ~WalSyncable() = default;
  virtual void sync_file() = 0;
};

class GroupCommitCoordinator {
 public:
  /// Starts the committer thread. It commits as soon as it wakes; waiters
  /// arriving while an fsync round is in flight batch into the next round
  /// (the fsync itself is the batching window).
  GroupCommitCoordinator();
  ~GroupCommitCoordinator();

  GroupCommitCoordinator(const GroupCommitCoordinator&) = delete;
  GroupCommitCoordinator& operator=(const GroupCommitCoordinator&) = delete;

  /// Marks `target` dirty and blocks until a commit round that started
  /// after this call has fsynced it. Rethrows the round's error for this
  /// target, if any. Thread-safe; callable from many threads at once.
  void sync_and_wait(WalSyncable& target);

  /// Commit rounds completed so far.
  [[nodiscard]] std::uint64_t rounds() const;
  /// Individual file fsyncs issued across all rounds (<= one per dirty
  /// target per round; the amortization win is syncs() << waiters served).
  [[nodiscard]] std::uint64_t syncs() const;

 private:
  void committer_loop();

  mutable std::mutex mutex_;
  std::condition_variable committer_cv_;
  std::condition_variable waiters_cv_;
  std::set<WalSyncable*> pending_;
  /// Round the current pending_ set will be committed in.
  std::uint64_t next_round_ = 1;
  std::uint64_t completed_round_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t syncs_ = 0;
  /// Per-target sticky failure: once a target's fsync failed, every later
  /// sync_and_wait on it rethrows this without touching the file again.
  std::map<WalSyncable*, std::exception_ptr> failed_;
  bool stopping_ = false;
  std::thread committer_;
};

}  // namespace cdbp::serve
