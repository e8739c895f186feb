#include "serve/shard_router.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ack_log.h"
#include "algos/any_fit.h"
#include "algos/hybrid.h"
#include "chaos/fault_env.h"
#include "cli/cli.h"
#include "core/session.h"
#include "serve/request_stream.h"
#include "test_util.h"

namespace cdbp::serve {
namespace {

namespace fs = std::filesystem;

class ShardRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdbp_router_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] RouterConfig config(std::size_t shards) const {
    RouterConfig rc;
    rc.wal_dir = dir_.string();
    rc.shards = shards;
    rc.fsync = FsyncPolicy::kNone;
    return rc;
  }

  static std::function<AlgorithmPtr()> ff_factory() {
    return [] { return cli::make_algorithm("ff"); };
  }

  fs::path dir_;
};

TEST_F(ShardRouterTest, TenantHashIsStableAcrossRuns) {
  // FNV-1a 64 with the standard offset basis and prime: pinned values, so
  // shard assignment survives library upgrades and restarts.
  EXPECT_EQ(tenant_hash(""), 14695981039346656037ULL);
  EXPECT_EQ(tenant_hash("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(tenant_hash("tenant-7"), tenant_hash("tenant-7"));
  EXPECT_NE(tenant_hash("tenant-7"), tenant_hash("tenant-8"));
}

TEST_F(ShardRouterTest, SingleShardMatchesInteractiveSession) {
  const std::vector<ServeRequest> stream =
      generate_stream(StreamGenConfig{120, 4, 21, 5, 64.0});
  ShardRouter router(config(1), ff_factory(), "ff");
  const testutil::AckLog acks(router);
  for (const ServeRequest& req : stream) EXPECT_TRUE(router.submit(req));
  router.stop();

  algos::FirstFit ff;
  InteractiveSession session(ff);
  const std::vector<ServeResult> results = acks.applied();
  ASSERT_EQ(results.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const ServeRequest& req = stream[i];
    EXPECT_EQ(results[i].bin,
              session.offer(req.arrival, req.departure, req.size))
        << "request " << i;
    EXPECT_EQ(results[i].stream_index, req.stream_index);
  }
  EXPECT_EQ(router.total_cost(), session.finish());
  EXPECT_EQ(router.stats(0).applied, stream.size());
}

TEST_F(ShardRouterTest, RoutesEachTenantToOneShard) {
  const std::vector<ServeRequest> stream =
      generate_stream(StreamGenConfig{200, 16, 3, 5, 64.0});
  ShardRouter router(config(4), ff_factory(), "ff");
  const testutil::AckLog acks(router);
  for (const ServeRequest& req : stream) EXPECT_TRUE(router.submit(req));
  router.stop();

  std::uint64_t applied = 0;
  for (std::size_t i = 0; i < 4; ++i) applied += router.stats(i).applied;
  EXPECT_EQ(applied, stream.size());
  EXPECT_EQ(acks.applied().size(), stream.size());
  for (const ServeResult& r : acks.applied())
    EXPECT_EQ(r.shard, router.shard_of(r.tenant));
}

// The TSan stress target: multiple producers, multiple shards, all
// requests at one arrival time so per-shard ordering can never reject.
TEST_F(ShardRouterTest, MultiProducerMultiShardStress) {
  RouterConfig rc = config(4);
  rc.queue_capacity = 32;  // small queue: exercise blocking backpressure
  ShardRouter router(rc, ff_factory(), "ff");
  const testutil::AckLog acks(router);

  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 500;
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&router, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ServeRequest req;
        req.tenant = "p" + std::to_string(p) + "-t" + std::to_string(i % 13);
        req.stream_index = 0;  // unordered feed: no resume bookkeeping
        req.arrival = 0.0;
        req.departure = 1.0 + static_cast<double>(i % 7);
        req.size = 0.05;
        ASSERT_TRUE(router.submit(req));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  router.stop();

  std::uint64_t applied = 0, invalid = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    applied += router.stats(i).applied;
    invalid += router.stats(i).invalid;
  }
  EXPECT_EQ(applied, kProducers * kPerProducer);
  EXPECT_EQ(invalid, 0u);
  EXPECT_EQ(acks.applied().size(), kProducers * kPerProducer);
}

TEST_F(ShardRouterTest, RejectPolicyRefusesWhenQueueIsFull) {
  RouterConfig rc = config(1);
  rc.queue_capacity = 4;
  rc.admission = AdmissionPolicy::kReject;
  rc.worker_delay_us = 2000;  // slow consumer: the queue must fill
  ShardRouter router(rc, ff_factory(), "ff");

  std::uint64_t accepted = 0, rejected = 0;
  for (std::size_t i = 0; i < 64; ++i) {
    ServeRequest req;
    req.tenant = "t";
    req.arrival = 0.0;
    req.departure = 1.0;
    req.size = 0.01;
    if (router.submit(req))
      ++accepted;
    else
      ++rejected;
  }
  router.stop();
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(router.stats(0).applied, accepted);
  EXPECT_EQ(router.stats(0).shed, 0u);
}

TEST_F(ShardRouterTest, ShedPolicyDropsOldestButAcceptsAll) {
  RouterConfig rc = config(1);
  rc.queue_capacity = 4;
  rc.admission = AdmissionPolicy::kShed;
  rc.worker_delay_us = 2000;
  ShardRouter router(rc, ff_factory(), "ff");

  for (std::size_t i = 0; i < 64; ++i) {
    ServeRequest req;
    req.tenant = "t";
    req.arrival = 0.0;
    req.departure = 1.0;
    req.size = 0.01;
    EXPECT_TRUE(router.submit(req)) << "shed policy never refuses";
  }
  router.stop();
  const ShardStats& s = router.stats(0);
  EXPECT_GT(s.shed, 0u);
  EXPECT_EQ(s.applied + s.shed, 64u);
  EXPECT_LE(s.queue_peak, 4u);
}

TEST_F(ShardRouterTest, InvalidRequestsAreCountedNotFatal) {
  ShardRouter router(config(1), ff_factory(), "ff");
  ServeRequest ok;
  ok.tenant = "t";
  ok.arrival = 5.0;
  ok.departure = 6.0;
  ok.size = 0.5;
  EXPECT_TRUE(router.submit(ok));
  ServeRequest stale = ok;
  stale.arrival = 1.0;  // behind the shard clock once `ok` is applied
  stale.departure = 2.0;
  EXPECT_TRUE(router.submit(stale));
  ServeRequest degenerate = ok;
  degenerate.arrival = 7.0;
  degenerate.departure = 7.0;  // departure <= arrival
  EXPECT_TRUE(router.submit(degenerate));
  router.stop();
  EXPECT_EQ(router.stats(0).applied, 1u);
  EXPECT_EQ(router.stats(0).invalid, 2u);
}

// Regression (fixed seed): a file-fed row whose size is out of range used
// to reach the algorithm — HA bumped its type load and opened a bin — and
// the ledger's capacity logic_error then degraded the whole shard. A
// negative size was applied and overfilled its bin. Every such row must
// be counted invalid while the shard keeps serving the rest of the stream
// exactly as if those rows had never been sent.
TEST_F(ShardRouterTest, OutOfRangeSizesInAFileFeedAreInvalidNotDegrading) {
  std::vector<ServeRequest> rows =
      generate_stream(StreamGenConfig{80, 3, 17, 5, 64.0});
  ASSERT_GT(rows.size(), 40u);
  rows[10].size = 1.5;
  rows[20].size = -0.5;
  rows[30].size = 1.0 + 1e-6;
  const std::string csv = (dir_.parent_path() /
                           (dir_.filename().string() + ".csv"))
                              .string();
  write_stream_csv(rows, csv);
  const std::vector<ServeRequest> stream = read_stream_csv(csv);
  fs::remove(csv);
  ASSERT_EQ(stream.size(), rows.size());

  ShardRouter router(config(1), [] { return cli::make_algorithm("ha"); },
                     "ha");
  for (const ServeRequest& req : stream) EXPECT_TRUE(router.submit(req));
  router.stop();

  algos::Hybrid ha;
  InteractiveSession clean(ha);
  for (std::size_t i = 0; i < stream.size(); ++i)
    if (i != 10 && i != 20 && i != 30)
      clean.offer(stream[i].arrival, stream[i].departure, stream[i].size);
  const ShardStats& s = router.stats(0);
  EXPECT_FALSE(s.degraded) << s.degrade_reason;
  EXPECT_EQ(s.invalid, 3u);
  EXPECT_EQ(s.degraded_dropped, 0u);
  EXPECT_EQ(s.applied, stream.size() - 3);
  EXPECT_EQ(router.total_cost(), clean.finish());
}

// Resume dedup must key on (tenant, stream_index), not a shard-global
// high-water mark: tenant "a" pushes its ids to 6 before the restart;
// tenant "b" (same shard — there is only one) first appears AFTER the
// restart with ids 1..3, all below a's mark. Every one of b's offers must
// be applied — a shard-global mark would falsely ack them kSkipped without
// ever placing them.
TEST_F(ShardRouterTest, ResumeDedupIsPerTenantNotPerShard) {
  const RouterConfig rc = config(1);
  const auto offer = [](ShardRouter& router, const std::string& tenant,
                        std::uint64_t idx, double arrival) {
    ServeRequest req;
    req.tenant = tenant;
    req.stream_index = idx;
    req.arrival = arrival;
    req.departure = arrival + 3.0;
    req.size = 0.1;
    ASSERT_TRUE(router.submit(req));
  };
  {
    ShardRouter router(rc, ff_factory(), "ff");
    for (std::uint64_t i = 1; i <= 6; ++i)
      offer(router, "a", i, static_cast<double>(i));
    router.stop();
    EXPECT_EQ(router.stats(0).applied, 6u);
  }

  RouterConfig resumed = rc;
  resumed.resume = true;
  ShardRouter router(resumed, ff_factory(), "ff");
  std::mutex mu;
  std::map<std::pair<std::string, std::uint64_t>, AckKind> acks;
  router.set_on_ack([&](const ServeResult& r, AckKind kind) {
    const std::lock_guard<std::mutex> lock(mu);
    acks[{r.tenant, r.stream_index}] = kind;
  });
  for (std::uint64_t i = 1; i <= 6; ++i)  // a's replayed prefix
    offer(router, "a", i, static_cast<double>(i));
  for (std::uint64_t i = 1; i <= 3; ++i)  // b's ids overlap a's, below 6
    offer(router, "b", i, 6.0 + static_cast<double>(i));
  offer(router, "a", 7, 10.0);  // a's genuinely new suffix
  router.stop();

  for (std::uint64_t i = 1; i <= 6; ++i)
    EXPECT_EQ((acks[{"a", i}]), AckKind::kSkipped) << "a id " << i;
  for (std::uint64_t i = 1; i <= 3; ++i)
    EXPECT_EQ((acks[{"b", i}]), AckKind::kApplied) << "b id " << i;
  EXPECT_EQ((acks[{"a", 7}]), AckKind::kApplied);
  EXPECT_EQ(router.stats(0).skipped, 6u);
  EXPECT_EQ(router.stats(0).applied, 4u);
}

// The default RouterConfig keeps the durability contract: every offer
// acked kApplied survives a power loss that drops each byte not yet
// fsynced. Ten offers stay below any record count an fsync cadence could
// wait for.
TEST_F(ShardRouterTest, DefaultConfigAckedOffersSurvivePowerLoss) {
  io::FaultInjectingEnv env(io::Env::posix());
  RouterConfig rc;  // every durability setting at its default
  rc.wal_dir = dir_.string();
  rc.env = &env;
  constexpr std::size_t kOffers = 10;
  std::mutex mu;
  std::condition_variable all_acked;
  std::vector<std::uint64_t> acked;
  std::size_t shard = 0;
  {
    ShardRouter router(rc, ff_factory(), "ff");
    shard = router.shard_of("t");
    router.set_on_ack([&](const ServeResult& r, AckKind kind) {
      if (kind != AckKind::kApplied) return;
      const std::lock_guard<std::mutex> lock(mu);
      acked.push_back(r.stream_index);
      all_acked.notify_all();
    });
    for (std::uint64_t i = 1; i <= kOffers; ++i) {
      ServeRequest req;
      req.tenant = "t";
      req.stream_index = i;
      req.arrival = static_cast<double>(i);
      req.departure = static_cast<double>(i) + 4.0;
      req.size = 0.25;
      ASSERT_TRUE(router.submit(req));
    }
    {
      std::unique_lock<std::mutex> lock(mu);
      ASSERT_TRUE(all_acked.wait_for(lock, std::chrono::seconds(30), [&] {
        return acked.size() == kOffers;
      }));
    }
    // Every offer is acked, so the worker is idle: cut the power, then
    // stop (closing the dead files may degrade the shard; that is fine).
    env.simulate_power_loss();
    router.stop();
  }

  DurableSessionConfig sc;
  sc.wal_path = (dir_ / ("shard-" + std::to_string(shard) + ".wal")).string();
  sc.checkpoint_path =
      (dir_ / ("shard-" + std::to_string(shard) + ".ckpt")).string();
  sc.resume = true;
  DurableSession rec(cli::make_algorithm("ff"), "ff", sc);
  for (const std::uint64_t idx : acked)
    EXPECT_LE(idx, rec.last_stream_index("t"))
        << "offer " << idx << " was acked but did not survive power loss";
}

// One stream through queues of 1, 7 and 1024 slots, with a slow worker so
// the larger queues fill: the drained batches differ, the log does not.
// Segments (rotating), manifests and checkpoints are byte-identical, and
// recovering them lands on the same cost bits.
TEST_F(ShardRouterTest, BatchingNeverChangesTheLog) {
  const std::vector<ServeRequest> stream =
      generate_stream(StreamGenConfig{300, 5, 8, 5, 64.0});
  std::map<std::string, std::string> first_files;
  std::uint64_t first_cost = 0;
  for (const std::size_t capacity : {1u, 7u, 1024u}) {
    SCOPED_TRACE("queue capacity " + std::to_string(capacity));
    fs::remove_all(dir_);
    RouterConfig rc = config(2);
    rc.queue_capacity = capacity;
    rc.worker_delay_us = 20;
    rc.wal_segment_bytes = 2048;
    rc.checkpoint_every = 64;
    std::uint64_t queue_peak = 0;
    {
      ShardRouter router(rc, ff_factory(), "ff");
      for (const ServeRequest& req : stream) ASSERT_TRUE(router.submit(req));
      router.stop();
      for (std::size_t i = 0; i < 2; ++i)
        queue_peak = std::max(queue_peak, router.stats(i).queue_peak);
    }
    if (capacity > 1) {
      EXPECT_GT(queue_peak, 1u);
    }
    const std::map<std::string, std::string> files =
        testutil::dir_bytes(dir_);
    rc.resume = true;
    rc.worker_delay_us = 0;
    ShardRouter recovered(rc, ff_factory(), "ff");
    recovered.stop();
    const auto cost = std::bit_cast<std::uint64_t>(recovered.total_cost());
    if (capacity == 1) {
      first_files = files;
      first_cost = cost;
      continue;
    }
    ASSERT_EQ(files.size(), first_files.size());
    for (const auto& [name, bytes] : files) {
      ASSERT_TRUE(first_files.count(name) != 0) << name;
      EXPECT_TRUE(bytes == first_files.at(name)) << name << " differs";
    }
    EXPECT_EQ(cost, first_cost);
  }
}

// A held worker comes back to a full queue (the default 1024 slots) and
// drains all of it: one commit — one segment write — covers every queued
// offer.
TEST_F(ShardRouterTest, WorkerDrainsItsWholeQueueIntoOneCommit) {
  io::FaultInjectingEnv env(io::Env::posix());
  env.set_record_history(true);
  RouterConfig rc = config(1);
  rc.env = &env;
  std::mutex mu;
  std::condition_variable cv;
  std::size_t acked = 0;
  bool released = false;
  ShardRouter router(rc, ff_factory(), "ff");
  router.set_on_ack([&](const ServeResult&, AckKind kind) {
    if (kind != AckKind::kApplied) return;
    std::unique_lock<std::mutex> lock(mu);
    ++acked;
    cv.notify_all();
    // The first offer's ack holds the worker until the queue is full.
    cv.wait(lock, [&] { return released; });
  });
  const auto submit = [&](std::uint64_t i) {
    ServeRequest req;
    req.tenant = "t";
    req.stream_index = i;
    req.arrival = static_cast<double>(i);
    req.departure = static_cast<double>(i) + 4.0;
    req.size = 0.05;
    return router.submit(req);
  };
  ASSERT_TRUE(submit(1));
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return acked == 1; });
  }
  const std::size_t writes = testutil::ops_on(env, io::kOpWrite, ".seg");
  for (std::uint64_t i = 2; i <= 1 + rc.queue_capacity; ++i)
    ASSERT_TRUE(submit(i));
  {
    const std::lock_guard<std::mutex> lock(mu);
    released = true;
  }
  cv.notify_all();
  router.stop();
  EXPECT_EQ(acked, 1 + rc.queue_capacity);
  EXPECT_EQ(router.stats(0).queue_peak, rc.queue_capacity);
  EXPECT_EQ(router.stats(0).wal_records, 1 + rc.queue_capacity);
  EXPECT_EQ(testutil::ops_on(env, io::kOpWrite, ".seg"), writes + 1);
}

TEST_F(ShardRouterTest, LifecycleGuards) {
  auto router = std::make_unique<ShardRouter>(config(2), ff_factory(), "ff");
  EXPECT_THROW((void)router->stats(0), std::logic_error);
  router->stop();
  router->stop();  // idempotent
  ServeRequest req;
  req.tenant = "t";
  req.arrival = 0.0;
  req.departure = 1.0;
  req.size = 0.1;
  EXPECT_THROW((void)router->submit(req), std::logic_error);

  RouterConfig bad = config(0);
  EXPECT_THROW(ShardRouter(bad, ff_factory(), "ff"), std::invalid_argument);
  bad = config(1);
  bad.queue_capacity = 0;
  EXPECT_THROW(ShardRouter(bad, ff_factory(), "ff"), std::invalid_argument);
}

}  // namespace
}  // namespace cdbp::serve
