// Group-commit semantics: one fsync round serves many waiters, failures
// are sticky, and — the durability contract the whole design rides on — an
// offer acknowledged under fsync=every survives a crash that drops every
// byte the kernel had not yet been told to sync.
#include "serve/group_commit.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_env.h"
#include "cli/cli.h"
#include "serve/durable_session.h"

namespace cdbp::serve {
namespace {

namespace fs = std::filesystem;

/// A syncable whose sync_file() blocks until released, so a test can hold
/// a commit round open while more waiters pile up.
class GatedSync final : public WalSyncable {
 public:
  void sync_file() override {
    std::unique_lock<std::mutex> lock(mutex_);
    ++syncs_;
    entered_.notify_all();
    gate_.wait(lock, [&] { return open_; });
  }

  void wait_until_syncing() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_.wait(lock, [&] { return syncs_ > 0; });
  }

  void open_gate() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    gate_.notify_all();
  }

  [[nodiscard]] int syncs() {
    std::lock_guard<std::mutex> lock(mutex_);
    return syncs_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable entered_;
  std::condition_variable gate_;
  int syncs_ = 0;
  bool open_ = false;
};

class ThrowingSync final : public WalSyncable {
 public:
  void sync_file() override {
    ++attempts;
    throw std::runtime_error("simulated fsync failure");
  }
  std::atomic<int> attempts{0};
};

TEST(GroupCommitTest, OneRoundReleasesAllWaitersThatArrivedDuringAFsync) {
  GroupCommitCoordinator gc;
  GatedSync target;

  // Waiter A enters round 1, whose fsync we hold open at the gate.
  std::thread a([&] { gc.sync_and_wait(target); });
  target.wait_until_syncing();

  // B, C, D register while round 1's fsync is in flight: they must all be
  // served by ONE follow-up round — the fsync itself is the batching
  // window.
  std::atomic<int> done{0};
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i)
    waiters.emplace_back([&] {
      gc.sync_and_wait(target);
      ++done;
    });
  // Registration is the first thing sync_and_wait does; give the three
  // threads ample time to get there before releasing the gate.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(done.load(), 0) << "no waiter may be released before its fsync";

  target.open_gate();
  a.join();
  for (std::thread& t : waiters) t.join();
  EXPECT_EQ(done.load(), 3);
  // Round 1 (waiter A) + one merged round for B, C, D.
  EXPECT_EQ(target.syncs(), 2) << "3 concurrent waiters must share a round";
  EXPECT_EQ(gc.syncs(), 2u);
  EXPECT_GE(gc.rounds(), 2u);
}

TEST(GroupCommitTest, FsyncFailureIsStickyAndNeverRetried) {
  GroupCommitCoordinator gc;
  ThrowingSync target;
  EXPECT_THROW(gc.sync_and_wait(target), std::runtime_error);
  EXPECT_EQ(target.attempts.load(), 1);
  // The first failure may have lost dirty pages: the coordinator must
  // rethrow without touching the file again, not "retry and succeed".
  EXPECT_THROW(gc.sync_and_wait(target), std::runtime_error);
  EXPECT_EQ(target.attempts.load(), 1);
}

TEST(GroupCommitTest, NewTargetAtAFailedTargetsAddressStartsClean) {
  // A shard WAL that failed and was destroyed must not poison whatever is
  // built next at its address: the failure belongs to the dead target.
  GroupCommitCoordinator gc;
  alignas(ThrowingSync) alignas(GatedSync) unsigned char
      storage[std::max(sizeof(ThrowingSync), sizeof(GatedSync))];
  auto* dead = new (storage) ThrowingSync;
  EXPECT_THROW(gc.sync_and_wait(*dead), std::runtime_error);
  dead->~ThrowingSync();

  auto* fresh = new (storage) GatedSync;
  ASSERT_EQ(static_cast<void*>(fresh), static_cast<void*>(storage));
  fresh->open_gate();
  EXPECT_NO_THROW(gc.sync_and_wait(*fresh));
  EXPECT_EQ(fresh->syncs(), 1);
  fresh->~GatedSync();
}

TEST(GroupCommitTest, IndependentTargetsCommitInOneRound) {
  GroupCommitCoordinator gc;
  GatedSync blocker;
  std::thread a([&] { gc.sync_and_wait(blocker); });
  blocker.wait_until_syncing();

  // Two different shards' WALs dirty while a round is in flight: the next
  // round fsyncs each exactly once.
  GatedSync s1, s2;
  s1.open_gate();
  s2.open_gate();
  std::thread b([&] { gc.sync_and_wait(s1); });
  std::thread c([&] { gc.sync_and_wait(s2); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  blocker.open_gate();
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(s1.syncs(), 1);
  EXPECT_EQ(s2.syncs(), 1);
}

// The acceptance-criteria crash test, in-process: every offer ACKED under
// fsync=every (through the group-commit path) must survive a power loss —
// io::FaultInjectingEnv::simulate_power_loss, which drops every byte not
// fsynced and every directory entry not dir-fsynced. kNone, as a control,
// loses data under the same model, proving the model has teeth.
class GroupCommitDurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdbp_group_commit_test_" +
            std::to_string(
                ::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Runs a session over `env` in the fresh directory `run`, offers
  /// `offers` items (offer() returning IS the acknowledgement), cuts the
  /// power, and recovers through the same env.
  static std::unique_ptr<DurableSession> crash_and_recover(
      DurableSessionConfig cfg, const fs::path& run, std::uint64_t offers,
      io::FaultInjectingEnv& env) {
    fs::create_directories(run);
    cfg.env = &env;
    cfg.wal_path = (run / "s.wal").string();
    cfg.checkpoint_path = (run / "s.ckpt").string();
    {
      DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
      for (std::uint64_t i = 0; i < offers; ++i)
        s.offer(0.5 * static_cast<double>(i),
                0.5 * static_cast<double>(i) + 4.0, 0.25, i + 1);
      env.simulate_power_loss();
    }
    cfg.resume = true;
    return std::make_unique<DurableSession>(cli::make_algorithm("ff"), "ff",
                                            cfg);
  }

  fs::path dir_;
};

TEST_F(GroupCommitDurabilityTest, AckedOfferSurvivesDroppedUnsyncedBytes) {
  GroupCommitCoordinator gc;
  DurableSessionConfig group;
  group.fsync = FsyncPolicy::kEvery;
  group.group_commit = &gc;
  // The second input sets nothing: the default config must keep the
  // contract on its own (private fsyncs, no coordinator).
  for (DurableSessionConfig cfg : {group, DurableSessionConfig{}}) {
    const std::string name = cfg.group_commit != nullptr ? "group" : "default";
    SCOPED_TRACE(name);
    cfg.wal_segment_bytes = 256;  // cross rotation boundaries too
    for (std::uint64_t acked = 1; acked <= 20; ++acked) {
      io::FaultInjectingEnv env;
      const std::unique_ptr<DurableSession> rec = crash_and_recover(
          cfg, dir_ / (name + std::to_string(acked)), acked, env);
      EXPECT_EQ(rec->seq(), acked)
          << "offer " << acked << " was acked but did not survive the crash";
      EXPECT_EQ(rec->last_stream_index(), acked);
    }
  }
}

TEST_F(GroupCommitDurabilityTest, ControlWithoutFsyncLosesUnsyncedBytes) {
  DurableSessionConfig cfg;
  cfg.fsync = FsyncPolicy::kNone;
  io::FaultInjectingEnv env;
  const std::unique_ptr<DurableSession> rec =
      crash_and_recover(cfg, dir_ / "lossy", 8, env);
  EXPECT_LT(rec->seq(), 8u)
      << "the power-loss simulation failed to drop unsynced bytes — the "
         "durability assertions above prove nothing";
}

}  // namespace
}  // namespace cdbp::serve
