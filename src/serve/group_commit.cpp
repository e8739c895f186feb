#include "serve/group_commit.h"

#include <chrono>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace cdbp::serve {

namespace {

obs::Counter& g_rounds =
    obs::MetricsRegistry::global().counter("wal.group_commit.rounds");
obs::Counter& g_target_syncs =
    obs::MetricsRegistry::global().counter("wal.group_commit.syncs");
obs::Histogram& g_round_targets =
    obs::MetricsRegistry::global().histogram("wal.group_commit.targets");
obs::Histogram& g_wait_us =
    obs::MetricsRegistry::global().histogram("wal.group_commit.wait_us");

}  // namespace

GroupCommitCoordinator::GroupCommitCoordinator()
    : committer_([this] { committer_loop(); }) {}

GroupCommitCoordinator::~GroupCommitCoordinator() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  committer_cv_.notify_all();
  committer_.join();
}

void GroupCommitCoordinator::sync_and_wait(WalSyncable& target) {
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopping_)
    throw std::logic_error("group commit: sync after coordinator shutdown");
  // Sticky failure: after one fsync failure the kernel may have silently
  // dropped the dirty pages, so "retry and succeed" would be a lie. The
  // target is dead to the coordinator; its owner must poison itself.
  if (const auto it = failed_.find(&target); it != failed_.end()) {
    const std::exception_ptr error = it->second;
    lock.unlock();
    std::rethrow_exception(error);
  }
  pending_.insert(&target);
  const std::uint64_t my_round = next_round_;
  committer_cv_.notify_one();
  waiters_cv_.wait(lock, [&] { return completed_round_ >= my_round; });
  if (const auto it = failed_.find(&target); it != failed_.end()) {
    const std::exception_ptr error = it->second;
    lock.unlock();
    std::rethrow_exception(error);
  }
  lock.unlock();
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

void GroupCommitCoordinator::committer_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    committer_cv_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
    if (pending_.empty()) break;  // stopping, nothing left to flush
    std::vector<WalSyncable*> batch;
    for (WalSyncable* target : pending_)
      if (failed_.count(target) == 0) batch.push_back(target);
    pending_.clear();
    const std::uint64_t round = next_round_++;
    lock.unlock();

    std::vector<std::pair<WalSyncable*, std::exception_ptr>> errors;
    for (WalSyncable* target : batch) {
      try {
        target->sync_file();
        g_target_syncs.add();
      } catch (...) {
        errors.emplace_back(target, std::current_exception());
      }
    }
    g_rounds.add();
    g_round_targets.record(batch.size());

    lock.lock();
    rounds_ = round;
    syncs_ += batch.size() - errors.size();
    for (auto& [target, error] : errors)
      failed_[target] = std::move(error);
    completed_round_ = round;
    waiters_cv_.notify_all();
  }
}

}  // namespace cdbp::serve
