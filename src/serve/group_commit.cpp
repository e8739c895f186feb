#include "serve/group_commit.h"

#include <chrono>

#include "obs/obs.h"

namespace cdbp::serve {

namespace {

obs::Counter& g_rounds =
    obs::MetricsRegistry::global().counter("wal.group_commit.rounds");
obs::Counter& g_target_syncs =
    obs::MetricsRegistry::global().counter("wal.group_commit.syncs");
obs::Histogram& g_wait_us =
    obs::MetricsRegistry::global().histogram("wal.group_commit.wait_us");

}  // namespace

void GroupCommitCoordinator::sync_and_wait(WalSyncable& target) {
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  // An fsync already in flight may have started before this caller's
  // frames were written, so only the one after it counts.
  const std::uint64_t needed = target.started_ + 1;
  // Sticky failure: after one fsync failure the kernel may have silently
  // dropped the dirty pages, so "retry and succeed" would be a lie. The
  // target never syncs again; its owner must poison itself.
  while (target.finished_ < needed && !target.failure_) {
    if (target.started_ != target.finished_) {
      target.fsync_done_.wait(lock);
      continue;
    }
    const std::uint64_t mine = ++target.started_;
    ++rounds_;
    lock.unlock();
    g_rounds.add();
    std::exception_ptr error;
    try {
      target.sync_file();
      g_target_syncs.add();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    target.finished_ = mine;
    if (error)
      target.failure_ = error;
    else
      ++syncs_;
    target.fsync_done_.notify_all();
  }
  const std::exception_ptr error = target.failure_;
  lock.unlock();
  if (error) std::rethrow_exception(error);
  const auto dt = std::chrono::steady_clock::now() - t0;
  g_wait_us.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(dt).count()));
}

std::uint64_t GroupCommitCoordinator::rounds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rounds_;
}

std::uint64_t GroupCommitCoordinator::syncs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return syncs_;
}

}  // namespace cdbp::serve
