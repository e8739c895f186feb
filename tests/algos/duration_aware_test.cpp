#include "algos/duration_aware.h"

#include <random>

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/simulator.h"
#include "core/validation.h"
#include "opt/bounds.h"
#include "test_util.h"
#include "workloads/cloud_gaming.h"
#include "workloads/general_random.h"

namespace cdbp {
namespace {

using algos::DurationAwareFit;
using algos::DurationPolicy;
using testutil::make_instance;

TEST(DurationAware, Names) {
  EXPECT_EQ(DurationAwareFit{}.name(), "DurationAware(MinExtension)");
  EXPECT_EQ(DurationAwareFit{DurationPolicy::kNoExtensionFirst}.name(),
            "DurationAware(NoExtensionFirst)");
}

TEST(DurationAware, PrefersBinWhoseHorizonCoversTheItem) {
  // Bin A: horizon 10 (long item). Bin B: horizon 2. A short item fits
  // both; placing it in A costs 0 extra usage time, in B it would extend.
  const Instance in = make_instance({
      {0.0, 10.0, 0.6},  // bin A
      {0.0, 2.0, 0.6},   // bin B
      {1.0, 4.0, 0.3},   // covered by A's horizon; extends B by 2
  });
  DurationAwareFit dfit;
  const RunResult r = Simulator{}.run(in, dfit);
  EXPECT_EQ(r.placements[2], r.placements[0]);
  EXPECT_TRUE(validate_run(in, r).ok());
}

TEST(DurationAware, MinExtensionPicksCheapestExtension) {
  // No zero-cost bin: horizons 2 and 3, item departs at 5 -> extending
  // the horizon-3 bin costs 2, the horizon-2 bin costs 3, new bin costs 4.
  const Instance in = make_instance({
      {0.0, 2.0, 0.5},   // bin 0, horizon 2
      {0.0, 3.0, 0.5},   // bin 1, horizon 3
      {1.0, 5.0, 0.3},   // extension costs: 3 vs 2; new = 4
  });
  DurationAwareFit dfit;
  const RunResult r = Simulator{}.run(in, dfit);
  EXPECT_EQ(r.placements[2], 1);
}

TEST(DurationAware, OpensNewBinWhenCheaper) {
  // Extending any open bin would cost more than the item's own length.
  const Instance in = make_instance({
      {0.0, 2.0, 0.5},    // horizon 2
      {1.5, 12.0, 0.3},   // extension cost 10 > own length 10.5? no:
                          // own length 10.5, extension 10 -> extends
  });
  DurationAwareFit dfit;
  const RunResult r1 = Simulator{}.run(in, dfit);
  EXPECT_EQ(r1.bins_opened, 1u);  // extension (10) < new bin (10.5)

  const Instance in2 = make_instance({
      {0.0, 2.0, 0.5},
      {1.9, 3.0, 0.3},  // extension 1.0 < own length 1.1 -> shares
      {1.95, 2.0, 0.8},  // does not fit bin 0 -> new bin
  });
  const RunResult r2 = Simulator{}.run(in2, dfit);
  EXPECT_EQ(r2.bins_opened, 2u);
}

TEST(DurationAware, NoExtensionFirstPrefersFullestCoveredBin) {
  // Two bins whose horizons cover the item; policy picks the fuller one.
  // (Sizes chosen so the first two items cannot share a bin.)
  const Instance in = make_instance({
      {0.0, 10.0, 0.55},  // bin 0
      {0.0, 10.0, 0.60},  // bin 1 (fuller)
      {1.0, 5.0, 0.3},
  });
  DurationAwareFit ne(DurationPolicy::kNoExtensionFirst);
  const RunResult r = Simulator{}.run(in, ne);
  EXPECT_EQ(r.placements[2], 1);

  // MinExtension (tie at cost 0) keeps the earliest-opened bin instead.
  DurationAwareFit me(DurationPolicy::kMinExtension);
  const RunResult r2 = Simulator{}.run(in, me);
  EXPECT_EQ(r2.placements[2], 0);
}

TEST(DurationAware, HorizonTracksDepartures) {
  DurationAwareFit dfit;
  InteractiveSession session(dfit);
  const BinId b = session.offer(0.0, 10.0, 0.3);
  session.offer(0.0, 4.0, 0.3);  // same bin (covered)
  EXPECT_DOUBLE_EQ(dfit.horizon_of(b), 10.0);
  session.advance_to(5.0);  // the 4-departure leaves
  EXPECT_DOUBLE_EQ(dfit.horizon_of(b), 10.0);
  session.finish();
}

TEST(DurationAware, HorizonShrinksWhenDefinerWasNeverTheMax) {
  DurationAwareFit dfit;
  InteractiveSession session(dfit);
  const BinId b = session.offer(0.0, 4.0, 0.3);
  EXPECT_DOUBLE_EQ(dfit.horizon_of(b), 4.0);
  const BinId b2 = session.offer(0.0, 10.0, 0.9);  // cannot fit? 0.9+0.3
  EXPECT_NE(b, b2);
  session.finish();
}

// The checkpoint layout docs/SERVING.md gives: the open-bin count, then per
// bin (ascending id) its id, its count and its departures in multiset
// order. A restore brings every horizon back.
TEST(DurationAware, StateListsEachOpenBinsDeparturesInOrder) {
  DurationAwareFit dfit;
  InteractiveSession session(dfit);
  const BinId a = session.offer(0.0, 10.0, 0.6);
  const BinId b = session.offer(0.0, 2.0, 0.6);  // does not fit bin a
  ASSERT_EQ(session.offer(1.0, 4.0, 0.3), a);    // a's horizon covers it
  StateWriter w;
  dfit.save_state(w);
  StateWriter expected;
  expected.u64(2);
  expected.i64(a);
  expected.u64(2);
  expected.f64(4.0);
  expected.f64(10.0);
  expected.i64(b);
  expected.u64(1);
  expected.f64(2.0);
  EXPECT_EQ(w.buffer(), expected.buffer());

  DurationAwareFit restored;
  StateReader r(w.buffer());
  restored.load_state(r);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(restored.horizon_of(a), 10.0);
  EXPECT_EQ(restored.horizon_of(b), 2.0);
}

TEST(DurationAware, BeatsFirstFitOnRiderTraps) {
  // The two-phase family: a light long rider after each heavy short item.
  // First-Fit lets riders contaminate short bins; MinExtension refuses the
  // costly extension and groups riders.
  std::mt19937_64 rng(3);
  workloads::GeneralConfig cfg;
  cfg.shape = workloads::GeneralShape::kTwoPhase;
  cfg.log2_mu = 8;
  cfg.target_items = 200;
  cfg.horizon = 64.0;
  const Instance in = workloads::make_general_random(cfg, rng);
  DurationAwareFit dfit;
  algos::FirstFit ff;
  EXPECT_LT(run_cost(in, dfit), run_cost(in, ff));
}

class DurationAwareRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DurationAwareRandom, ValidAndAboveLowerBound) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 150;
  cfg.log2_mu = 7;
  cfg.shape = GetParam() % 2 == 0 ? workloads::GeneralShape::kLogUniform
                                  : workloads::GeneralShape::kGeometricBursts;
  const Instance in = workloads::make_general_random(cfg, rng);
  for (auto policy : {DurationPolicy::kMinExtension,
                      DurationPolicy::kNoExtensionFirst}) {
    DurationAwareFit dfit(policy);
    const RunResult r = Simulator{}.run(in, dfit);
    EXPECT_TRUE(validate_run(in, r).ok()) << to_string(policy);
    EXPECT_GE(r.cost, opt::compute_bounds(in).lower() - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DurationAwareRandom,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(DurationAware, ResetClearsState) {
  const Instance in = make_instance({{0.0, 5.0, 0.5}});
  DurationAwareFit dfit;
  const RunResult r1 = Simulator{}.run(in, dfit);
  const RunResult r2 = Simulator{}.run(in, dfit);
  EXPECT_DOUBLE_EQ(r1.cost, r2.cost);
}

}  // namespace
}  // namespace cdbp
