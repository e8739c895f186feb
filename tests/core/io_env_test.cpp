// FaultInjectingEnv model tests: the deterministic fault scheduler, the
// bounded transient-retry helpers, and the pessimal power-loss durability
// image (file data to last fsync, entries to last parent-dir fsync, torn
// renames, resurrected unlinks). The chaos matrices (fault_matrix_test.cpp)
// build on every property verified here.
#include "core/io_env.h"

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_env.h"

namespace cdbp::io {
namespace {

namespace fs = std::filesystem;

class IoEnvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdbp_io_env_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

/// Creates `p` through `env` with `content` fully durable (data fsynced,
/// entry dir-fsynced) — the baseline most power-loss tests mutate from.
void write_durable(Env& env, const std::string& p, const std::string& content) {
  auto f = open_file(env, p, OpenMode::kTruncate);
  write_all(*f, content.data(), content.size(), p);
  sync_file(*f, p);
  int err = 0;
  ASSERT_EQ(f->close(err), 0);
  sync_parent_dir(env, p);
}

std::string read_or_die(Env& env, const std::string& p) {
  std::string out;
  EXPECT_TRUE(read_file(env, p, out)) << p;
  return out;
}

TEST_F(IoEnvTest, PosixRoundTrip) {
  Env& env = Env::posix();
  const std::string p = path("round.bin");
  write_durable(env, p, "hello io");
  EXPECT_TRUE(env.exists(p));
  EXPECT_EQ(env.file_size(p), 8);
  EXPECT_EQ(read_or_die(env, p), "hello io");

  const std::string q = path("renamed.bin");
  int err = 0;
  ASSERT_EQ(env.rename(p, q, err), 0);
  EXPECT_FALSE(env.exists(p));
  EXPECT_EQ(read_or_die(env, q), "hello io");

  const std::vector<std::string> names = env.list_dir(dir_.string());
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "renamed.bin");

  ASSERT_EQ(env.unlink(q, err), 0);
  EXPECT_FALSE(env.exists(q));
  std::string out;
  EXPECT_FALSE(read_file(env, q, out));  // ENOENT -> false, not a throw
}

TEST_F(IoEnvTest, PosixMissingFileErrors) {
  Env& env = Env::posix();
  int err = 0;
  EXPECT_EQ(env.open(path("nope"), OpenMode::kRead, err), nullptr);
  EXPECT_EQ(err, ENOENT);
  EXPECT_EQ(env.file_size(path("nope")), -1);
  EXPECT_EQ(env.unlink(path("nope"), err), -1);
  EXPECT_EQ(err, ENOENT);
  EXPECT_THROW((void)open_file(env, path("nope"), OpenMode::kRead),
               std::runtime_error);
}

TEST_F(IoEnvTest, ParentDirOfPath) {
  EXPECT_EQ(parent_dir("/a/b/c.wal"), "/a/b");
  EXPECT_EQ(parent_dir("c.wal"), ".");
  EXPECT_EQ(parent_dir("/top"), "/");
}

TEST_F(IoEnvTest, ShortWritesAreLoopedOver) {
  FaultInjectingEnv env(Env::posix());
  // Every write from the 0th on is cut to at most 3 bytes: write_all must
  // keep looping until the frame is complete, without error.
  FaultRule rule;
  rule.ops = kOpWrite;
  rule.kind = FaultKind::kShortWrite;
  rule.param = 3;
  rule.repeat = true;
  env.add_rule(rule);
  const std::string p = path("short.bin");
  auto f = open_file(env, p, OpenMode::kTruncate);
  const std::string payload = "twelve bytes";
  write_all(*f, payload.data(), payload.size(), p);
  int err = 0;
  ASSERT_EQ(f->close(err), 0);
  EXPECT_EQ(read_or_die(env, p), payload);
  EXPECT_GE(env.faults_injected(), 4u);  // ceil(12 / 3) short writes
}

TEST_F(IoEnvTest, EintrStormIsTransparentlyRetried) {
  FaultInjectingEnv env(Env::posix());
  FaultRule rule;
  rule.ops = kOpWrite | kOpFsync;
  rule.kind = FaultKind::kEintr;
  rule.after = 1;
  rule.param = 3;  // ops 1,2,3 fail EINTR, then normal service resumes
  env.add_rule(rule);
  const std::string p = path("eintr.bin");
  auto f = open_file(env, p, OpenMode::kTruncate);
  write_all(*f, "abc", 3, p);   // write op 0: clean
  write_all(*f, "def", 3, p);   // absorbs the storm
  sync_file(*f, p);             // and any tail of it
  int err = 0;
  ASSERT_EQ(f->close(err), 0);
  EXPECT_EQ(read_or_die(env, p), "abcdef");
  EXPECT_EQ(env.faults_injected(), 3u);
}

TEST_F(IoEnvTest, UnboundedEintrExhaustsTheRetryBudget) {
  FaultInjectingEnv env(Env::posix());
  FaultRule rule;
  rule.ops = kOpWrite;
  rule.kind = FaultKind::kEintr;
  rule.repeat = true;  // never stops: a genuinely wedged fd
  env.add_rule(rule);
  const std::string p = path("wedged.bin");
  auto f = open_file(env, p, OpenMode::kTruncate);
  // The fixed budget: 128 retries with backoff capped at 2 ms, ~0.25 s.
  EXPECT_THROW(write_all(*f, "abc", 3, p), std::runtime_error);
  EXPECT_EQ(env.faults_injected(), 129u);
}

TEST_F(IoEnvTest, TransientFsyncRetriesStickyDoesNot) {
  FaultInjectingEnv env(Env::posix());
  FaultRule rule;
  rule.ops = kOpFsync;
  rule.kind = FaultKind::kTransientFsync;
  rule.param = 2;  // two EINTRs, then the fsync goes through
  env.add_rule(rule);
  const std::string p = path("fsync.bin");
  auto f = open_file(env, p, OpenMode::kTruncate);
  write_all(*f, "abc", 3, p);
  sync_file(*f, p);  // transparently survives the transient failures
  EXPECT_EQ(env.durable_bytes(p), 3u);

  // Sticky: the first failure drops the dirty pages; every later fsync of
  // the same file must keep failing rather than report false durability.
  FaultInjectingEnv env2(Env::posix());
  FaultRule sticky;
  sticky.ops = kOpFsync;
  sticky.kind = FaultKind::kStickyFsync;
  env2.add_rule(sticky);
  const std::string q = path("sticky.bin");
  auto g = open_file(env2, q, OpenMode::kTruncate);
  write_all(*g, "abc", 3, q);
  EXPECT_THROW(sync_file(*g, q), std::runtime_error);
  EXPECT_THROW(sync_file(*g, q), std::runtime_error);  // still poisoned
  EXPECT_EQ(env2.durable_bytes(q), 0u) << "dropped pages never became durable";
}

TEST_F(IoEnvTest, EnospcShortWriteThenHardFailure) {
  FaultInjectingEnv env(Env::posix());
  FaultRule rule;
  rule.ops = kOpWrite;
  rule.kind = FaultKind::kEnospc;
  rule.after = 1;
  rule.param = 2;  // match 1 accepts 2 bytes, every later write fails
  env.add_rule(rule);
  const std::string p = path("enospc.bin");
  auto f = open_file(env, p, OpenMode::kTruncate);
  write_all(*f, "aaaa", 4, p);  // match 0: clean
  EXPECT_THROW(write_all(*f, "bbbb", 4, p), std::runtime_error);
  int err = 0;
  ASSERT_EQ(f->close(err), 0);
  // The torn tail a full disk leaves behind: 4 clean + 2 accepted bytes.
  EXPECT_EQ(read_or_die(env, p), "aaaabb");
}

TEST_F(IoEnvTest, DiskBudgetExhausts) {
  FaultInjectingEnv env(Env::posix());
  env.set_disk_budget(6);
  const std::string p = path("budget.bin");
  auto f = open_file(env, p, OpenMode::kTruncate);
  write_all(*f, "aaaa", 4, p);
  EXPECT_THROW(write_all(*f, "bbbb", 4, p), std::runtime_error);  // 2 fit
  env.clear_disk_budget();
  write_all(*f, "cc", 2, p);  // space freed: writes work again
  int err = 0;
  ASSERT_EQ(f->close(err), 0);
  EXPECT_EQ(read_or_die(env, p), "aaaabbcc");
}

TEST_F(IoEnvTest, PowerLossKeepsOnlyFsyncedBytes) {
  FaultInjectingEnv env(Env::posix());
  const std::string p = path("data.bin");
  write_durable(env, p, "durable!");
  {
    auto f = open_file(env, p, OpenMode::kAppend);
    write_all(*f, " lost", 5, p);  // never fsynced
    int err = 0;
    ASSERT_EQ(f->close(err), 0);
  }
  EXPECT_EQ(read_or_die(env, p), "durable! lost");  // live view
  env.simulate_power_loss();
  EXPECT_EQ(read_or_die(env, p), "durable!");  // rebooted view
}

TEST_F(IoEnvTest, PowerLossDropsUndirsyncedCreation) {
  FaultInjectingEnv env(Env::posix());
  // Entry durable but data never fsynced: survives as an empty file. This
  // half runs first — a directory fsync persists EVERY entry in the dir,
  // so it must happen before the never-dirsynced file below is created.
  const std::string q = path("no_datasync.bin");
  {
    auto f = open_file(env, q, OpenMode::kTruncate);
    write_all(*f, "abc", 3, q);
    int err = 0;
    ASSERT_EQ(f->close(err), 0);
    sync_parent_dir(env, q);
  }
  // Data fsynced but the directory entry never was: the pessimal model
  // loses the whole file.
  const std::string p = path("no_dirsync.bin");
  {
    auto f = open_file(env, p, OpenMode::kTruncate);
    write_all(*f, "abc", 3, p);
    sync_file(*f, p);
    int err = 0;
    ASSERT_EQ(f->close(err), 0);
  }
  env.simulate_power_loss();
  EXPECT_FALSE(env.exists(p));
  ASSERT_TRUE(env.exists(q));
  EXPECT_EQ(env.file_size(q), 0);
}

TEST_F(IoEnvTest, TornRenameRevertsWithoutDirFsync) {
  FaultInjectingEnv env(Env::posix());
  const std::string dst = path("target.bin");
  const std::string tmp = path("target.bin.tmp");
  write_durable(env, dst, "old");
  {
    auto f = open_file(env, tmp, OpenMode::kTruncate);
    write_all(*f, "new!", 4, tmp);
    sync_file(*f, tmp);
    int err = 0;
    ASSERT_EQ(f->close(err), 0);
  }
  int err = 0;
  ASSERT_EQ(env.rename(tmp, dst, err), 0);
  EXPECT_EQ(read_or_die(env, dst), "new!");  // live view sees the rename
  env.simulate_power_loss();                 // ...but it was never dirsynced
  EXPECT_EQ(read_or_die(env, dst), "old") << "torn rename must revert";
  EXPECT_FALSE(env.exists(tmp)) << "tmp entry was never durable";
}

TEST_F(IoEnvTest, DirsyncedRenameSurvivesPowerLoss) {
  FaultInjectingEnv env(Env::posix());
  const std::string dst = path("target.bin");
  const std::string tmp = path("target.bin.tmp");
  write_durable(env, dst, "old");
  {
    auto f = open_file(env, tmp, OpenMode::kTruncate);
    write_all(*f, "new!", 4, tmp);
    sync_file(*f, tmp);
    int err = 0;
    ASSERT_EQ(f->close(err), 0);
  }
  int err = 0;
  ASSERT_EQ(env.rename(tmp, dst, err), 0);
  sync_parent_dir(env, dst);  // the step that makes the publish atomic
  env.simulate_power_loss();
  EXPECT_EQ(read_or_die(env, dst), "new!");
}

TEST_F(IoEnvTest, UndirsyncedUnlinkResurrects) {
  FaultInjectingEnv env(Env::posix());
  const std::string p = path("ghost.bin");
  write_durable(env, p, "back from the dead");
  int err = 0;
  ASSERT_EQ(env.unlink(p, err), 0);
  EXPECT_FALSE(env.exists(p));
  env.simulate_power_loss();  // unlink entry never dirsynced
  ASSERT_TRUE(env.exists(p));
  EXPECT_EQ(read_or_die(env, p), "back from the dead");

  ASSERT_EQ(env.unlink(p, err), 0);
  sync_parent_dir(env, p);  // now the removal is durable
  env.simulate_power_loss();
  EXPECT_FALSE(env.exists(p));
}

TEST_F(IoEnvTest, PowerCutFailsEverythingUntilReboot) {
  FaultInjectingEnv env(Env::posix());
  const std::string p = path("cut.bin");
  write_durable(env, p, "safe");
  // `after` counts matches from arming: the next op (the open) is match 0
  // and stays clean; the write is match 1 and hits the cut.
  env.arm_power_cut(1);
  auto f = open_file(env, p, OpenMode::kAppend);  // op before the cut: fine
  EXPECT_THROW(write_all(*f, "xx", 2, p), std::runtime_error);
  EXPECT_TRUE(env.powered_off());
  int err = 0;
  EXPECT_EQ(env.open(p, OpenMode::kRead, err), nullptr);  // still dark
  EXPECT_EQ(err, EIO);
  env.simulate_power_loss();  // reboot
  EXPECT_FALSE(env.powered_off());
  EXPECT_EQ(read_or_die(env, p), "safe");
}

TEST_F(IoEnvTest, HandlesAreDeadAfterPowerLoss) {
  FaultInjectingEnv env(Env::posix());
  const std::string p = path("dead.bin");
  auto f = open_file(env, p, OpenMode::kTruncate);
  write_all(*f, "abc", 3, p);
  env.simulate_power_loss();
  int err = 0;
  EXPECT_EQ(f->write("x", 1, err), -1);
  EXPECT_EQ(err, EIO);
  EXPECT_EQ(f->sync(err), -1);
  EXPECT_EQ(f->close(err), 0) << "close is never a fault point";
}

TEST_F(IoEnvTest, PreexistingFilesAreAdoptedAsDurable) {
  // A file written outside the env (the previous process's output) is
  // adopted fully durable on first touch: power loss must not eat state
  // that a real reboot already persisted.
  const std::string p = path("adopted.bin");
  write_durable(Env::posix(), p, "previous run");
  FaultInjectingEnv env(Env::posix());
  EXPECT_EQ(read_or_die(env, p), "previous run");
  env.simulate_power_loss();
  EXPECT_EQ(read_or_die(env, p), "previous run");
}

TEST_F(IoEnvTest, LatencyRuleDelaysButSucceeds) {
  FaultInjectingEnv env(Env::posix());
  FaultRule rule;
  rule.ops = kOpWrite;
  rule.kind = FaultKind::kLatency;
  rule.param = 100;  // 100us: enough to exercise the path, not the clock
  rule.repeat = true;
  env.add_rule(rule);
  const std::string p = path("slow.bin");
  auto f = open_file(env, p, OpenMode::kTruncate);
  write_all(*f, "abc", 3, p);
  int err = 0;
  ASSERT_EQ(f->close(err), 0);
  EXPECT_EQ(read_or_die(env, p), "abc");
}

TEST_F(IoEnvTest, ChaosScheduleIsDeterministicInSeed) {
  const auto run = [&](std::uint64_t seed, const std::string& tag) {
    FaultInjectingEnv env(Env::posix());
    ChaosProfile profile;
    profile.seed = seed;
    profile.short_write_rate = 0.4;
    profile.eintr_rate = 0.3;
    env.enable_chaos(profile);
    env.set_record_history(true);
    const std::string p = path("chaos_" + tag + ".bin");
    auto f = open_file(env, p, OpenMode::kTruncate);
    for (int i = 0; i < 32; ++i) write_all(*f, "0123456789abcdef", 16, p);
    sync_file(*f, p);
    int err = 0;
    EXPECT_EQ(f->close(err), 0);
    EXPECT_EQ(read_or_die(env, p).size(), 32u * 16u)
        << "chaos noise must never corrupt completed writes";
    std::vector<bool> faulted;
    for (const OpRecord& rec : env.history()) faulted.push_back(rec.faulted);
    return faulted;
  };
  const auto a = run(7, "a1");
  const auto b = run(7, "a2");
  const auto c = run(8, "b");
  EXPECT_EQ(a, b) << "same seed, same schedule";
  EXPECT_NE(a, c) << "different seed, different schedule";
  EXPECT_GT(std::count(a.begin(), a.end(), true), 0)
      << "a 40%/30% profile over ~40 ops should fault at least once";
}

TEST_F(IoEnvTest, HistoryCountsEveryFaultableOp) {
  FaultInjectingEnv env(Env::posix());
  env.set_record_history(true);
  const std::string p = path("hist.bin");
  write_durable(env, p, "x");
  int err = 0;
  ASSERT_EQ(env.rename(p, path("hist2.bin"), err), 0);
  ASSERT_EQ(env.unlink(path("hist2.bin"), err), 0);
  const std::vector<OpRecord> hist = env.history();
  ASSERT_EQ(hist.size(), env.ops_seen());
  // open + write + fsync + dir fsync + rename + unlink, indices 0..N.
  ASSERT_GE(hist.size(), 6u);
  for (std::size_t i = 0; i < hist.size(); ++i)
    EXPECT_EQ(hist[i].index, i);
  EXPECT_EQ(hist[0].op, kOpOpen);
  EXPECT_EQ(hist.back().op, kOpUnlink);
  // Metadata reads are not counted.
  (void)env.exists(p);
  (void)env.file_size(p);
  (void)env.list_dir(dir_.string());
  EXPECT_EQ(env.ops_seen(), hist.size());
}

}  // namespace
}  // namespace cdbp::io
