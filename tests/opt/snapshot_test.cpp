// The snapshot layer of the OPT_R pipeline: commutative incremental
// multiset keys, kLoadEps-quantized deduplication, the documented
// distinct_snapshots / cache_hits counters, and the parallel solve path.
#include "opt/snapshot.h"

#include <cmath>

#include <gtest/gtest.h>

#include "opt/bin_packing.h"
#include "opt/exact_repacking.h"
#include "oracles/opt_reference.h"
#include "test_util.h"

namespace cdbp {
namespace {

using testutil::make_instance;

TEST(SnapshotKey, CommutativeAndInvertible) {
  const std::int64_t a = opt::quantize_load(0.3);
  const std::int64_t b = opt::quantize_load(0.5);
  const std::int64_t c = opt::quantize_load(0.7);

  opt::SnapshotKey k1;
  k1.insert(a);
  k1.insert(b);
  k1.insert(c);
  k1.erase(b);

  opt::SnapshotKey k2;
  k2.insert(c);  // different insertion order
  k2.insert(a);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(opt::SnapshotKeyHash{}(k1), opt::SnapshotKeyHash{}(k2));

  k2.insert(a);  // multiplicity matters
  EXPECT_FALSE(k1 == k2);
}

TEST(SnapshotKey, QuantizationMergesUlpNeighbours) {
  const double s = 0.4;
  const double s_ulp = std::nextafter(s, 1.0);
  ASSERT_NE(s, s_ulp);
  EXPECT_EQ(opt::quantize_load(s), opt::quantize_load(s_ulp));
  // But genuinely different sizes stay apart.
  EXPECT_NE(opt::quantize_load(0.4), opt::quantize_load(0.4 + 1e-3));
}

TEST(Snapshot, UlpPerturbedDuplicateCollapses) {
  // Two single-item epochs whose sizes differ by one ulp: the old
  // exact-double std::map memo counted two distinct multisets and solved
  // twice; the quantized key recognizes the duplicate. (This is the test
  // that fails against the exact-double key.)
  const double s = 0.4;
  const Instance in = make_instance({
      {0.0, 1.0, s},
      {2.0, 3.0, std::nextafter(s, 1.0)},
  });
  const auto ref = oracles::exact_opt_repacking_reference(in);
  const auto pipe = opt::exact_opt_repacking(in);
  ASSERT_TRUE(ref.has_value());
  ASSERT_TRUE(pipe.has_value());
  EXPECT_EQ(ref->distinct_snapshots, 2u);
  EXPECT_EQ(ref->cache_hits, 0u);
  EXPECT_EQ(pipe->distinct_snapshots, 1u);
  EXPECT_EQ(pipe->cache_hits, 1u);
  EXPECT_EQ(pipe->snapshots, 1u);
  EXPECT_EQ(ref->cost, pipe->cost);
}

TEST(Snapshot, CountersOnPeriodicInstance) {
  // Twelve back-to-back unit epochs of the same multiset {0.4}: one
  // distinct snapshot, eleven hash hits, every interval accounted.
  Instance in;
  for (int k = 0; k < 12; ++k)
    in.add(static_cast<Time>(k), static_cast<Time>(k) + 1.0, 0.4);
  in.finalize();

  const auto sweep = opt::collect_snapshots(in, 24);
  ASSERT_TRUE(sweep.has_value());
  EXPECT_EQ(sweep->snapshots.size(), 1u);
  EXPECT_EQ(sweep->cache_hits, 11u);
  EXPECT_EQ(sweep->intervals.size(), 12u);
  EXPECT_EQ(sweep->max_active, 1u);
  EXPECT_DOUBLE_EQ(sweep->snapshots[0].dwell, 12.0);

  for (auto* run : {&opt::exact_opt_repacking,
                    &oracles::exact_opt_repacking_reference}) {
    const auto r = (*run)(in, opt::ExactRepackingOptions{});
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->distinct_snapshots, 1u);
    EXPECT_EQ(r->cache_hits, 11u);
    EXPECT_EQ(r->snapshots, 1u);
    EXPECT_EQ(r->max_active, 1u);
    EXPECT_DOUBLE_EQ(r->cost, 12.0);
  }
}

TEST(Snapshot, MaxActiveCountsEveryInterval) {
  // max_active must track the peak over *all* intervals, including ones
  // whose multiset was a cache hit.
  const Instance in = make_instance({
      {0.0, 4.0, 0.2},
      {1.0, 2.0, 0.2},  // peak of 2 in the middle
      {5.0, 6.0, 0.2},  // cache hit of the {0.2} snapshot
  });
  const auto r = opt::exact_opt_repacking(in);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->max_active, 2u);
  EXPECT_GE(r->cache_hits, 1u);
}

TEST(Snapshot, ChainHintsRecorded) {
  // Staircase arrivals: each event adds one item, so consecutive distinct
  // snapshots form an arrivals-only chain the solver can bracket.
  Instance in;
  for (int k = 0; k < 6; ++k)
    in.add(static_cast<Time>(k), 10.0, 0.1 + 0.05 * k);
  in.finalize();
  const auto sweep = opt::collect_snapshots(in, 24);
  ASSERT_TRUE(sweep.has_value());
  ASSERT_EQ(sweep->snapshots.size(), 6u);
  for (std::size_t k = 1; k < 6; ++k) {
    EXPECT_EQ(sweep->snapshots[k].prev, static_cast<std::int64_t>(k - 1));
    EXPECT_EQ(sweep->snapshots[k].delta, opt::SnapshotDelta::kArrivals);
    EXPECT_EQ(sweep->snapshots[k].delta_count, 1u);
  }
}

TEST(Snapshot, ParallelSolveMatchesSequential) {
  // Many distinct snapshots solved on a 4-thread pool through the shared
  // BpCache — the instance the TSan job leans on.
  Instance in;
  for (int k = 0; k < 20; ++k)
    in.add(static_cast<Time>(k), static_cast<Time>(k) + 5.0,
           0.05 + 0.01 * k);
  in.finalize();

  opt::ExactRepackingOptions seq;
  opt::ExactRepackingOptions par;
  par.threads = 4;
  const auto r_seq = opt::exact_opt_repacking(in, seq);
  const auto r_par = opt::exact_opt_repacking(in, par);
  ASSERT_TRUE(r_seq.has_value());
  ASSERT_TRUE(r_par.has_value());
  EXPECT_EQ(r_seq->cost, r_par->cost);
  EXPECT_EQ(r_seq->distinct_snapshots, r_par->distinct_snapshots);

  // A shared cross-call cache never changes results, only work.
  opt::BpCache cache;
  opt::ExactRepackingOptions cached = par;
  cached.cache = &cache;
  const auto first = opt::exact_opt_repacking(in, cached);
  const auto second = opt::exact_opt_repacking(in, cached);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->cost, r_seq->cost);
  EXPECT_EQ(second->cost, r_seq->cost);
  EXPECT_EQ(second->snapshots, 0u);  // everything came from the cache
}

}  // namespace
}  // namespace cdbp
