#include "opt/exact.h"

#include <map>
#include <random>

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "core/simulator.h"
#include "opt/bounds.h"
#include "opt/offline_ffd.h"
#include "oracles/opt_reference.h"
#include "test_util.h"
#include "workloads/general_random.h"

namespace cdbp {
namespace {

using testutil::make_instance;

TEST(Exact, SingleItem) {
  const Instance in = make_instance({{0.0, 4.0, 0.5}});
  const auto r = opt::exact_opt_nonrepacking(in);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->cost, 4.0);
  EXPECT_EQ(r->assignment, (std::vector<int>{0}));
}

TEST(Exact, TwoItemsThatShare) {
  const Instance in = make_instance({{0.0, 4.0, 0.5}, {1.0, 3.0, 0.5}});
  const auto r = opt::exact_opt_nonrepacking(in);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->cost, 4.0);
  EXPECT_EQ(r->assignment[0], r->assignment[1]);
}

TEST(Exact, TwoItemsThatCannotShare) {
  const Instance in = make_instance({{0.0, 4.0, 0.7}, {1.0, 3.0, 0.7}});
  const auto r = opt::exact_opt_nonrepacking(in);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->cost, 4.0 + 2.0);
  EXPECT_NE(r->assignment[0], r->assignment[1]);
}

TEST(Exact, SharingCanBeSuboptimal) {
  // A short item can ride in the long item's bin for free, but pairing two
  // long items with a gap would cost more than separate bins never would.
  const Instance in = make_instance({
      {0.0, 10.0, 0.5},  // long
      {0.0, 1.0, 0.5},   // short, fits the long's bin
      {2.0, 3.0, 0.6},   // must go alone (0.6 + 0.5 > 1)
  });
  const auto r = opt::exact_opt_nonrepacking(in);
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->cost, 10.0 + 1.0);
  EXPECT_EQ(r->assignment[0], r->assignment[1]);
  EXPECT_NE(r->assignment[0], r->assignment[2]);
}

TEST(Exact, RefusesOversizeInstances) {
  Instance in;
  for (int k = 0; k < 20; ++k) in.add(k, k + 1.0, 0.5);
  in.finalize();
  EXPECT_FALSE(opt::exact_opt_nonrepacking(in).has_value());
}

TEST(Exact, NodeLimitAborts) {
  // Staircase heavies: no two overlapping items share a bin, the greedy
  // seed lands strictly above the certified lower bound, and the admissible
  // lookahead cannot prune the root — both engines must actually search,
  // so a 5-node budget aborts. (The old all-overlapping instance is now
  // solved outright by the seed + lower-bound floor.)
  Instance in;
  for (int k = 0; k < 10; ++k)
    in.add(static_cast<Time>(k), static_cast<Time>(k) + 3.0, 0.6);
  in.finalize();
  opt::ExactOptions opts;
  opts.node_limit = 5;
  EXPECT_FALSE(opt::exact_opt_nonrepacking(in, opts).has_value());
  EXPECT_FALSE(oracles::exact_opt_nonrepacking_reference(in, opts).has_value());
}

TEST(Exact, GreedySeedDoesNotBillGaps) {
  // Regression: the historical seed skipped the span-overlap guard, so the
  // second item joined the first bin across the [2,5] gap and the
  // telescoped accounting billed the whole [0,7] span (cost 7) for a
  // packing that only occupies 4 time units. The guarded seed opens a new
  // bin and its cost is exactly the summed support measures.
  const Instance in = make_instance({{0.0, 2.0, 0.3}, {5.0, 7.0, 0.3}});
  const opt::GreedySeed seed = opt::greedy_nonrepacking_seed(in);
  EXPECT_DOUBLE_EQ(seed.cost, 4.0);
  EXPECT_NE(seed.assignment[0], seed.assignment[1]);
  const auto exact = opt::exact_opt_nonrepacking(in);
  ASSERT_TRUE(exact.has_value());
  EXPECT_DOUBLE_EQ(exact->cost, 4.0);
}

TEST(Exact, GreedySeedCostMatchesItsOwnPacking) {
  // Property: on random instances the seed's telescoped cost equals the
  // recomputed support measure of the bins it reports — the invariant the
  // unguarded seed violated.
  for (std::uint64_t s = 0; s < 6; ++s) {
    std::mt19937_64 rng(s);
    workloads::GeneralConfig cfg;
    cfg.target_items = 14;
    cfg.log2_mu = 4;
    cfg.horizon = 12.0;
    cfg.size_max = 0.7;
    const Instance in = workloads::make_general_random(cfg, rng);
    const opt::GreedySeed seed = opt::greedy_nonrepacking_seed(in);
    std::map<int, StepFunction> busy;
    for (std::size_t k = 0; k < in.size(); ++k)
      busy[seed.assignment[k]].add(in[k].arrival, in[k].departure, 1.0);
    double recomputed = 0.0;
    for (auto& [bin, f] : busy) recomputed += f.support_measure(0.5);
    EXPECT_NEAR(seed.cost, recomputed, 1e-9) << "seed " << s;
  }
}

TEST(Exact, EmptyInstanceCostsZero) {
  const auto r = opt::exact_opt_nonrepacking(Instance{});
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(r->cost, 0.0);
}

class ExactRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactRandom, SandwichedByBoundsAndOnlineCosts) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 9;
  cfg.log2_mu = 4;
  cfg.horizon = 12.0;
  cfg.size_max = 0.7;
  const Instance in = workloads::make_general_random(cfg, rng);
  const auto exact = opt::exact_opt_nonrepacking(in);
  ASSERT_TRUE(exact.has_value());

  // LB <= OPT_NR.
  const opt::Bounds b = opt::compute_bounds(in);
  EXPECT_GE(exact->cost, b.lower() - 1e-9);

  // OPT_NR <= any feasible offline packing (FFD).
  EXPECT_LE(exact->cost, opt::offline_ffd_by_length(in).cost + 1e-9);

  // OPT_NR <= any online algorithm's cost.
  for (auto& f : testutil::online_factories()) {
    auto algo = f.make();
    EXPECT_LE(exact->cost, run_cost(in, *algo) + 1e-9)
        << f.name << " beat exact OPT on seed " << GetParam();
  }

  // The reported assignment must itself be feasible and have that cost.
  std::map<int, std::vector<std::size_t>> bins;
  for (std::size_t k = 0; k < in.size(); ++k)
    bins[exact->assignment[static_cast<std::size_t>(k)]].push_back(k);
  double cost = 0.0;
  for (const auto& [bin, members] : bins) {
    StepFunction load, busy;
    for (std::size_t m : members) {
      load.add(in[m].arrival, in[m].departure, in[m].size);
      busy.add(in[m].arrival, in[m].departure, 1.0);
    }
    EXPECT_LE(load.max_value(), 1.0 + 2 * kLoadEps);
    cost += busy.support_measure(0.5);
  }
  EXPECT_NEAR(cost, exact->cost, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactRandom,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace cdbp
