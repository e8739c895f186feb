// ShardRouter admission under concurrent producers — the TSan targets for
// the serve plane's front door:
//   - kBlock: blocked producers are woken losslessly and each producer's
//     own submission order survives into the apply/ack order;
//   - kReject / kShed: the refusal and shed counters are exact (every
//     submitted request is accounted, none double-counted) when many
//     threads race on one full queue;
//   - kShardDegraded: degradation propagates to racing producers without
//     losing an ack — accepted requests terminate as exactly one of
//     applied/dropped, and healthy shards never notice.
#include "serve/shard_router.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "core/io_env.h"

namespace cdbp::serve {
namespace {

namespace fs = std::filesystem;

class RouterAdmissionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdbp_admission_test_" +
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

  static ServeRequest request(const std::string& tenant, std::uint64_t idx) {
    ServeRequest req;
    req.tenant = tenant;
    req.stream_index = idx;
    req.arrival = 0.0;  // one instant: per-shard time order can never trip
    req.departure = 1.0;
    req.size = 0.01;
    return req;
  }

  fs::path dir_;
};

// kBlock with a queue far smaller than the offered load: every producer
// must eventually be woken and admitted (no lost wakeup wedging a thread),
// and each producer's submissions must be APPLIED in its submission order —
// pop order is queue order, so a reordering here would mean push() raced.
TEST_F(RouterAdmissionTest, BlockWakesEveryProducerInSubmissionOrder) {
  RouterConfig rc = config(1);
  rc.queue_capacity = 8;     // deep contention: ~all producers park
  rc.worker_delay_us = 100;  // slow consumer so the queue is usually full
  ShardRouter router(rc, ff_factory(), "ff");

  constexpr std::size_t kProducers = 6;
  constexpr std::uint64_t kPerProducer = 250;
  std::mutex mu;
  std::map<std::string, std::vector<std::uint64_t>> acked_order;
  router.set_on_ack([&](const ServeResult& r, AckKind kind) {
    EXPECT_EQ(kind, AckKind::kApplied);
    std::lock_guard<std::mutex> lock(mu);
    acked_order[r.tenant].push_back(r.stream_index);
  });

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&router, p] {
      const std::string tenant = "producer-" + std::to_string(p);
      for (std::uint64_t i = 1; i <= kPerProducer; ++i) {
        // stream_index encodes (producer, seq): unique, locally increasing.
        ASSERT_EQ(router.try_submit(request(tenant, p * 100000 + i)),
                  SubmitStatus::kAccepted)
            << "kBlock must never refuse a healthy shard";
      }
    });
  }
  for (std::thread& t : producers) t.join();
  router.stop();

  EXPECT_EQ(router.stats(0).applied, kProducers * kPerProducer);
  EXPECT_EQ(router.stats(0).shed, 0u);
  ASSERT_EQ(acked_order.size(), kProducers);
  for (const auto& [tenant, order] : acked_order) {
    ASSERT_EQ(order.size(), kPerProducer) << tenant;
    for (std::size_t i = 1; i < order.size(); ++i)
      ASSERT_LT(order[i - 1], order[i])
          << tenant << " acked out of submission order at position " << i;
  }
}

// kReject under racing producers: accepted + rejected must equal the
// attempts exactly, and the router's applied count must equal the accepted
// count — a lost refusal (accepted but never applied) or a double-count
// (applied without acceptance) both fail the arithmetic.
TEST_F(RouterAdmissionTest, RejectCountersAreExactUnderContention) {
  RouterConfig rc = config(1);
  rc.queue_capacity = 4;
  rc.admission = AdmissionPolicy::kReject;
  rc.worker_delay_us = 500;
  ShardRouter router(rc, ff_factory(), "ff");

  constexpr std::size_t kProducers = 6;
  constexpr std::uint64_t kPerProducer = 200;
  std::atomic<std::uint64_t> accepted{0}, rejected{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const SubmitStatus st = router.try_submit(request("t", 0));
        if (st == SubmitStatus::kAccepted)
          accepted.fetch_add(1, std::memory_order_relaxed);
        else {
          ASSERT_EQ(st, SubmitStatus::kQueueFull);
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  router.stop();

  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_GT(rejected.load(), 0u) << "a 4-deep queue cannot absorb this load";
  EXPECT_EQ(router.stats(0).applied, accepted.load());
  EXPECT_EQ(router.stats(0).shed, 0u);
}

// kShed never refuses: the exact law is submits == applied + shed, and the
// ack stream sees every applied request. Shed victims are counted in `shed`
// (kDropped acks are reserved for degradation).
TEST_F(RouterAdmissionTest, ShedCountersAreExactUnderContention) {
  RouterConfig rc = config(1);
  rc.queue_capacity = 4;
  rc.admission = AdmissionPolicy::kShed;
  rc.worker_delay_us = 500;
  ShardRouter router(rc, ff_factory(), "ff");

  std::atomic<std::uint64_t> applied_acks{0};
  router.set_on_ack([&](const ServeResult&, AckKind kind) {
    if (kind == AckKind::kApplied)
      applied_acks.fetch_add(1, std::memory_order_relaxed);
  });

  constexpr std::size_t kProducers = 6;
  constexpr std::uint64_t kPerProducer = 200;
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i)
        ASSERT_EQ(router.try_submit(request("t", 0)),
                  SubmitStatus::kAccepted)
            << "shed admission never refuses";
    });
  }
  for (std::thread& t : producers) t.join();
  router.stop();

  const ShardStats& s = router.stats(0);
  EXPECT_GT(s.shed, 0u);
  EXPECT_EQ(s.applied + s.shed, kProducers * kPerProducer);
  EXPECT_EQ(applied_acks.load(), s.applied);
  EXPECT_LE(s.queue_peak, 4u);
}

// The degradation race: producers hammer both shards while shard 0's
// durability path is poisoned mid-run. Checked invariants, all racing:
//   - refusals seen by producers are kShardDegraded only (never a silent
//     drop), and only for the sick shard's tenant;
//   - every ACCEPTED sick-shard request terminates exactly once — applied
//     before the flip or dropped by it: accepted == applied + dropped;
//   - the healthy shard applies its full load, untouched.
// Run under TSan this exercises the degraded-flag release/acquire pair and
// the ack-callback paths from both the worker and the drain loop.
TEST_F(RouterAdmissionTest, DegradedShardPropagatesCleanlyUnderRace) {
  io::FaultInjectingEnv env(io::Env::posix());
  RouterConfig rc = config(2);
  rc.queue_capacity = 32;
  rc.fsync = FsyncPolicy::kEvery;  // commit touches fsync: the fault point
  rc.env = &env;
  ShardRouter router(rc, ff_factory(), "ff");

  std::string sick_tenant, healthy_tenant;
  for (int i = 0; sick_tenant.empty() || healthy_tenant.empty(); ++i) {
    const std::string t = "tenant-" + std::to_string(i);
    (router.shard_of(t) == 0 ? sick_tenant : healthy_tenant) = t;
    ASSERT_LT(i, 1000);
  }

  std::atomic<std::uint64_t> sick_applied{0}, sick_dropped{0};
  std::atomic<std::uint64_t> healthy_applied{0};
  router.set_on_ack([&](const ServeResult& r, AckKind kind) {
    if (r.shard != 0) {
      if (kind == AckKind::kApplied)
        healthy_applied.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (kind == AckKind::kApplied)
      sick_applied.fetch_add(1, std::memory_order_relaxed);
    else if (kind == AckKind::kDropped)
      sick_dropped.fetch_add(1, std::memory_order_relaxed);
  });

  // Poison shard 0's fsync AFTER construction (setup I/O stays clean): the
  // first committed batch flips it while producers are mid-flight.
  io::FaultRule rule;
  rule.ops = io::kOpFsync;
  rule.path_contains = "shard-0";
  rule.kind = io::FaultKind::kStickyFsync;
  rule.repeat = true;
  env.add_rule(rule);

  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 300;
  std::atomic<std::uint64_t> sick_accepted{0}, sick_refused{0};
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::uint64_t i = 1; i <= kPerProducer; ++i) {
        const std::uint64_t idx = (p + 1) * 100000 + i;
        const SubmitStatus sick_st =
            router.try_submit(request(sick_tenant, idx));
        if (sick_st == SubmitStatus::kAccepted)
          sick_accepted.fetch_add(1, std::memory_order_relaxed);
        else {
          ASSERT_EQ(sick_st, SubmitStatus::kShardDegraded)
              << "kBlock admission refuses only by degradation";
          sick_refused.fetch_add(1, std::memory_order_relaxed);
        }
        ASSERT_EQ(router.try_submit(request(healthy_tenant, idx)),
                  SubmitStatus::kAccepted)
            << "a sibling's degradation must not leak";
      }
    });
  }
  for (std::thread& t : producers) t.join();
  router.stop();

  EXPECT_EQ(router.degraded_shards(), 1u);
  const ShardStats& sick = router.stats(0);
  const ShardStats& healthy = router.stats(1);
  EXPECT_TRUE(sick.degraded);
  EXPECT_FALSE(sick.degrade_reason.empty());
  EXPECT_FALSE(healthy.degraded);
  EXPECT_EQ(healthy.applied, kProducers * kPerProducer);
  // With fsync=every the first commit already fails, so nothing on the
  // sick shard is ever acked applied; every accepted request was dropped.
  EXPECT_EQ(sick_applied.load(), sick.applied);
  EXPECT_EQ(sick_dropped.load(), sick.degraded_dropped);
  EXPECT_EQ(sick_accepted.load(), sick.applied + sick.degraded_dropped)
      << "an accepted request must terminate exactly once";
  EXPECT_GT(sick_refused.load(), 0u)
      << "degradation never became visible to producers";
  EXPECT_EQ(sick_applied.load(), 0u)
      << "only healthy-shard placements may survive";
  EXPECT_EQ(healthy_applied.load(), healthy.applied);
}

}  // namespace
}  // namespace cdbp::serve
