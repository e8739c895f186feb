// The chaos matrices in tier-1. The disk matrix sweeps deterministic fault
// schedules over the serve plane's I/O op stream, checking that every acked
// offer survives power loss, that recovery reproduces the reference outcome
// (or refuses cleanly), and that transient noise is absorbed; the network
// matrix faults a live loopback listener's sockets. Both run on fixed seeds
// here; DISABLED_RandomizedSoak runs the disk matrix on fresh ones.
#include "chaos/chaos_matrix.h"

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ack_log.h"
#include "chaos/fault_env.h"
#include "chaos/net_chaos.h"
#include "cli/cli.h"
#include "serve/durable_session.h"
#include "serve/shard_router.h"
#include "serve/stats_exporter.h"
#include "workloads/general_random.h"

namespace cdbp::serve {
namespace {

namespace fs = std::filesystem;

class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdbp_fault_matrix_test_" +
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

Instance instance_for(std::uint64_t seed, int n) {
  std::mt19937_64 rng(seed);
  workloads::GeneralConfig cfg;
  cfg.target_items = n;
  cfg.log2_mu = 5;
  cfg.horizon = 64.0;
  return workloads::make_general_random(cfg, rng);
}

ChaosConfig matrix_config(const std::string& dir, const std::string& algo) {
  ChaosConfig cfg;
  cfg.dir = dir;
  cfg.make_algo = [algo] { return cli::make_algorithm(algo); };
  cfg.algo_name = algo;
  return cfg;
}

void expect_no_violations(const ChaosReport& report) {
  for (const ChaosFailure& f : report.failures)
    ADD_FAILURE() << "chaos violation: seed " << f.seed << " fault "
                  << f.fault << " at op " << f.op << ": " << f.detail;
}

TEST_F(FaultMatrixTest, MatrixPassesOnFixedSeeds) {
  struct Row {
    const char* algo;
    std::vector<std::uint64_t> seeds;
    std::size_t offers;
    std::uint64_t checkpoint_every;
    std::size_t max_points;
    // Expected report: cases, cells whose fault fired, crashes recovered,
    // transient cells absorbed.
    std::uint64_t cases, faulted, recoveries, transparent;
  };
  // 512-byte segments throughout, so every run rotates its WAL.
  const Row rows[] = {
      {"ff", {1, 2}, 32, 10, 10, 140, 120, 100, 40},
      {"ha", {1, 2, 3}, 48, 16, 12, 252, 216, 180, 72},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.algo);
    ChaosConfig cfg = matrix_config(path(row.algo), row.algo);
    cfg.seeds = row.seeds;
    cfg.offers = row.offers;
    cfg.checkpoint_every = row.checkpoint_every;
    cfg.wal_segment_bytes = 512;
    cfg.max_points_per_kind = row.max_points;
    const ChaosReport report = run_chaos_matrix(cfg);
    EXPECT_EQ(report.cases, row.cases);
    EXPECT_EQ(report.faulted, row.faulted);
    EXPECT_EQ(report.recoveries, row.recoveries);
    EXPECT_EQ(report.transparent, row.transparent);
    expect_no_violations(report);
  }
}

// Fresh seeds every run widen the disk matrix's coverage over time; the
// fixed rows above keep tier-1 deterministic. CI runs this test with
// --gtest_also_run_disabled_tests. Both 64-bit matrix seeds are hashed from
// gtest's random seed (1-99999: the clock's, unless --gtest_random_seed
// names it), so the printed line replays the run. gtest draws that seed
// only under --gtest_shuffle.
TEST_F(FaultMatrixTest, DISABLED_RandomizedSoak) {
  const int gtest_seed = ::testing::UnitTest::GetInstance()->random_seed();
  ASSERT_NE(gtest_seed, 0) << "run the soak with --gtest_shuffle";
  std::mt19937_64 hash(static_cast<std::uint64_t>(gtest_seed));
  ChaosConfig cfg = matrix_config(path("soak"), "ha");
  cfg.seeds = {hash(), hash()};
  cfg.offers = 32;
  cfg.max_points_per_kind = 8;
  const std::string reproduce =
      "reproduce: cdbp_tests --gtest_also_run_disabled_tests --gtest_shuffle "
      "--gtest_filter=FaultMatrixTest.DISABLED_RandomizedSoak "
      "--gtest_random_seed=" +
      std::to_string(gtest_seed);
  std::cout << "soak: matrix seeds " << cfg.seeds[0] << " " << cfg.seeds[1]
            << "\n"
            << reproduce << std::endl;
  SCOPED_TRACE(reproduce);
  const ChaosReport report = run_chaos_matrix(cfg);
  EXPECT_GT(report.faulted, 0u);
  EXPECT_GT(report.recoveries, 0u);
  EXPECT_GT(report.transparent, 0u);
  expect_no_violations(report);
}

TEST_F(FaultMatrixTest, NetworkMatrixPassesOnFixedSeeds) {
  net::NetChaosConfig cfg;
  cfg.dir = path("net");
  cfg.seeds = {1, 2, 3};
  cfg.make_algo = [] { return cli::make_algorithm("ff"); };
  cfg.algo_name = "ff";
  cfg.offers = 48;
  const net::NetChaosReport report = net::run_net_chaos(cfg);
  // Per seed: the fault-free baseline, four transient storms and four hard
  // EIOs. Which EIOs fire depends on thread timing, so `faulted` is not
  // pinned.
  EXPECT_EQ(report.cases, 27u);
  EXPECT_GT(report.faulted, 0u);
  EXPECT_EQ(report.transparent, 12u);
  for (const net::NetChaosFailure& f : report.failures)
    ADD_FAILURE() << "net chaos violation: seed " << f.seed << " fault "
                  << f.fault << ": " << f.detail;
}

TEST_F(FaultMatrixTest, MatrixRejectsBadConfig) {
  ChaosConfig cfg;
  cfg.dir = path("bad");
  EXPECT_THROW((void)run_chaos_matrix(cfg), std::invalid_argument);  // no algo
  cfg.make_algo = [] { return cli::make_algorithm("ff"); };
  cfg.seeds.clear();
  EXPECT_THROW((void)run_chaos_matrix(cfg), std::invalid_argument);
}

/// Sweeps a power cut over every operation touching `path_contains` (the
/// publish window of a tmp -> fsync -> rename -> dir-fsync sequence) and
/// checks recover-and-continue lands on the reference outcome each time.
/// This is the torn-rename acceptance: at no cut point may the published
/// file pair inconsistently with the WAL.
void sweep_power_cut_over(const std::string& scratch,
                          const std::string& path_contains,
                          std::uint64_t segment_bytes,
                          std::uint64_t checkpoint_every) {
  const Instance instance = instance_for(21, 24);
  const auto session_config = [&](const std::string& dir, bool resume,
                                  io::Env* env) {
    DurableSessionConfig sc;
    sc.wal_path = dir + "/t.wal";
    sc.checkpoint_path = dir + "/t.ckpt";
    sc.fsync = FsyncPolicy::kEvery;
    sc.checkpoint_every = checkpoint_every;
    sc.wal_segment_bytes = segment_bytes;
    sc.resume = resume;
    sc.env = env;
    return sc;
  };

  // Reference run + profile of how many ops touch the publish window.
  const std::string ref_dir = scratch + "/ref";
  fs::create_directories(ref_dir);
  std::vector<BinId> ref_bins;
  Cost ref_cost = 0.0;
  std::uint64_t window_ops = 0;
  {
    io::FaultInjectingEnv env(io::Env::posix());
    env.set_record_history(true);
    DurableSession s(cli::make_algorithm("ff"), "ff",
                     session_config(ref_dir, false, &env));
    for (std::size_t i = 0; i < instance.size(); ++i) {
      const Item& it = instance[i];
      ref_bins.push_back(s.offer(it.arrival, it.departure, it.size, i + 1));
    }
    ref_cost = s.finish();
    s.close();
    for (const io::OpRecord& rec : env.history())
      if (rec.path.find(path_contains) != std::string::npos) ++window_ops;
  }
  ASSERT_GT(window_ops, 0u) << "no ops touched '" << path_contains
                            << "' — the sweep would be vacuous";

  for (std::uint64_t cut = 0; cut < window_ops; ++cut) {
    const std::string dir = scratch + "/cut";
    fs::remove_all(dir);
    fs::create_directories(dir);
    io::FaultInjectingEnv env(io::Env::posix());
    io::FaultRule rule;
    rule.ops = io::kOpAll;
    rule.path_contains = path_contains;
    rule.after = cut;
    rule.kind = io::FaultKind::kPowerCut;
    env.add_rule(rule);

    std::size_t acked = 0;
    try {
      DurableSession s(cli::make_algorithm("ff"), "ff",
                       session_config(dir, false, &env));
      for (std::size_t i = 0; i < instance.size(); ++i) {
        const Item& it = instance[i];
        ASSERT_EQ(s.offer(it.arrival, it.departure, it.size, i + 1),
                  ref_bins[i])
            << "acked placement diverged before the cut (cut " << cut << ")";
        ++acked;
      }
      (void)s.finish();
      s.close();
    } catch (const std::exception&) {
      // Crashed inside (or downstream of) the publish window — expected.
    }
    env.clear_rules();
    env.simulate_power_loss();

    DurableSession rec(cli::make_algorithm("ff"), "ff",
                       session_config(dir, true, &env));
    ASSERT_GE(rec.seq(), acked) << "acked offer lost at cut " << cut;
    for (std::size_t i = 0; i < instance.size(); ++i) {
      if (i + 1 <= rec.last_stream_index()) continue;
      const Item& it = instance[i];
      ASSERT_EQ(rec.offer(it.arrival, it.departure, it.size, i + 1),
                ref_bins[i])
          << "post-recovery placement diverged at cut " << cut;
    }
    EXPECT_EQ(rec.finish(), ref_cost)
        << "post-recovery cost diverged at cut " << cut;
    rec.close();
  }
}

TEST_F(FaultMatrixTest, PowerCutAtEveryCheckpointPublishStep) {
  // checkpoint_every=8 over 24 offers: three publishes, each a full
  // tmp -> write -> fsync -> rename sequence on the .ckpt path.
  sweep_power_cut_over(path("ckpt"), ".ckpt", /*segment_bytes=*/0,
                       /*checkpoint_every=*/8);
}

TEST_F(FaultMatrixTest, PowerCutAtEveryManifestUpdateStep) {
  // Tiny segments force rotations (and, with checkpoints, compaction):
  // every manifest rewrite's tmp/fsync/rename steps get a cut.
  sweep_power_cut_over(path("manifest"), ".manifest", /*segment_bytes=*/256,
                       /*checkpoint_every=*/8);
}

TEST_F(FaultMatrixTest, DegradedShardRejectsWhileHealthyShardsServe) {
  io::FaultInjectingEnv env(io::Env::posix());
  RouterConfig cfg;
  cfg.wal_dir = path("router");
  cfg.shards = 2;
  cfg.queue_capacity = 64;
  cfg.admission = AdmissionPolicy::kBlock;
  cfg.fsync = FsyncPolicy::kEvery;
  cfg.env = &env;
  ShardRouter router(cfg, [] { return cli::make_algorithm("ff"); }, "ff");
  const testutil::AckLog acks(router);

  // Find one tenant per shard.
  std::string sick_tenant, healthy_tenant;
  for (int i = 0; sick_tenant.empty() || healthy_tenant.empty(); ++i) {
    const std::string t = "tenant-" + std::to_string(i);
    (router.shard_of(t) == 0 ? sick_tenant : healthy_tenant) = t;
    ASSERT_LT(i, 1000);
  }

  // Rule added AFTER construction so shard creation I/O stays clean: from
  // now on every fsync of a shard-0 file fails EIO and stays poisoned.
  io::FaultRule rule;
  rule.ops = io::kOpFsync;
  rule.path_contains = "shard-0";
  rule.kind = io::FaultKind::kStickyFsync;
  rule.repeat = true;
  env.add_rule(rule);

  const auto request = [](const std::string& tenant, std::uint64_t idx) {
    ServeRequest req;
    req.tenant = tenant;
    req.stream_index = idx;
    req.arrival = static_cast<double>(idx);
    req.departure = static_cast<double>(idx) + 8.0;
    req.size = 0.25;
    return req;
  };

  // First wave: shard 0's first commit hits the poisoned fsync and flips
  // the shard; shard 1 keeps serving.
  std::uint64_t idx = 1;
  for (int i = 0; i < 8; ++i) {
    (void)router.try_submit(request(sick_tenant, idx++));
    ASSERT_EQ(router.try_submit(request(healthy_tenant, idx++)),
              SubmitStatus::kAccepted);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (router.degraded_shards() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_EQ(router.degraded_shards(), 1u)
      << "sticky fsync failure must degrade shard 0";

  // Degraded shard rejects distinctly — and does NOT block, even under
  // kBlock admission; the healthy shard is untouched.
  EXPECT_EQ(router.try_submit(request(sick_tenant, idx++)),
            SubmitStatus::kShardDegraded);
  EXPECT_FALSE(router.submit(request(sick_tenant, idx++)));
  EXPECT_EQ(router.try_submit(request(healthy_tenant, idx++)),
            SubmitStatus::kAccepted);

  // stop() must not throw: the failure was absorbed as degradation.
  router.stop();
  const ShardStats& sick = router.stats(0);
  const ShardStats& healthy = router.stats(1);
  EXPECT_TRUE(sick.degraded);
  EXPECT_FALSE(sick.degrade_reason.empty());
  EXPECT_EQ(sick.applied, 0u) << "nothing was acked after the first "
                                 "commit failed";
  EXPECT_FALSE(healthy.degraded);
  EXPECT_GT(healthy.applied, 0u);
  EXPECT_EQ(acks.applied().size(), healthy.applied);
  for (const ServeResult& r : acks.applied())
    EXPECT_EQ(r.shard, 1u) << "only healthy-shard acks may be visible";
}

TEST_F(FaultMatrixTest, StatsExporterSweepsStaleTmpAndSurvivesRenameFaults) {
  const std::string base = path("stats");
  // Stale tmp files from a "previous crashed run".
  {
    io::Env& posix = io::Env::posix();
    for (const char* ext : {".prom.tmp", ".json.tmp"}) {
      auto f = io::open_file(posix, base + ext, io::OpenMode::kTruncate);
      io::write_all(*f, "stale", 5, base + ext);
      int err = 0;
      ASSERT_EQ(f->close(err), 0);
    }
  }
  io::FaultInjectingEnv env(io::Env::posix());
  io::FaultRule rule;
  rule.ops = io::kOpRename;
  rule.path_contains = ".prom";
  rule.kind = io::FaultKind::kEio;
  rule.repeat = true;
  env.add_rule(rule);

  StatsExporterConfig cfg;
  cfg.out_base = base;
  cfg.interval_ms = 0;  // only explicit dumps
  cfg.env = &env;
  {
    StatsExporter exporter(cfg);
    EXPECT_FALSE(env.exists(base + ".prom.tmp")) << "stale tmp not swept";
    EXPECT_FALSE(env.exists(base + ".json.tmp")) << "stale tmp not swept";
    // Direct dump propagates the publish failure to the caller...
    EXPECT_THROW(exporter.dump_now(), std::runtime_error);
    // ...but never leaks the tmp page next to the dead rename.
    EXPECT_FALSE(env.exists(base + ".prom.tmp"))
        << "failed rename must unlink its tmp";
    env.clear_rules();
    exporter.dump_now();
    EXPECT_TRUE(env.exists(base + ".prom"));
    EXPECT_TRUE(env.exists(base + ".json"));
  }
}

TEST_F(FaultMatrixTest, StatsExporterLoopAbsorbsDumpFailures) {
  io::FaultInjectingEnv env(io::Env::posix());
  io::FaultRule rule;
  rule.ops = io::kOpOpen | io::kOpWrite | io::kOpRename;
  rule.path_contains = "stats";
  rule.kind = io::FaultKind::kEio;
  rule.repeat = true;
  env.add_rule(rule);

  StatsExporterConfig cfg;
  cfg.out_base = path("stats");
  cfg.interval_ms = 1;  // dump as fast as the poll tick allows
  cfg.env = &env;
  StatsExporter exporter(cfg);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // Pre-fix, the first background dump's exception escaped the loop thread
  // and std::terminate'd the process. Now it is counted and absorbed.
  while (exporter.dump_errors() == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(exporter.dump_errors(), 0u);
  env.clear_rules();
  EXPECT_NO_THROW(exporter.stop());  // final dump succeeds, faults cleared
  EXPECT_GT(exporter.dumps(), 0u);
}

/// EINTR-storm regression for the audited call sites (satellite: every raw
/// write/fsync/read path must retry EINTR): a storm across every retryable
/// op class while a session runs must be fully transparent.
TEST_F(FaultMatrixTest, EintrStormAcrossSessionIsTransparent) {
  const Instance instance = instance_for(5, 20);
  const auto run = [&](io::Env* env, const std::string& tag) {
    DurableSessionConfig sc;
    sc.wal_path = path(tag) + "/s.wal";
    sc.checkpoint_path = path(tag) + "/s.ckpt";
    sc.fsync = FsyncPolicy::kEvery;
    sc.checkpoint_every = 6;
    sc.wal_segment_bytes = 256;
    sc.env = env;
    fs::create_directories(path(tag));
    DurableSession s(cli::make_algorithm("ff"), "ff", sc);
    for (std::size_t i = 0; i < instance.size(); ++i) {
      const Item& it = instance[i];
      (void)s.offer(it.arrival, it.departure, it.size, i + 1);
    }
    const Cost cost = s.finish();
    s.close();
    return cost;
  };
  const Cost ref = run(nullptr, "ref");

  io::FaultInjectingEnv env(io::Env::posix());
  io::ChaosProfile profile;
  profile.seed = 11;
  profile.eintr_rate = 0.35;
  profile.short_write_rate = 0.25;
  env.enable_chaos(profile);
  EXPECT_EQ(run(&env, "storm"), ref);
  EXPECT_GT(env.faults_injected(), 0u) << "the storm must actually fire";
}

}  // namespace
}  // namespace cdbp::serve
