#include "adversary/lower_bound.h"
#include "adversary/sigma_star.h"

#include <cmath>

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "algos/classify.h"
#include "algos/hybrid.h"
#include "analysis/ratio.h"
#include "core/validation.h"
#include "test_util.h"

namespace cdbp {
namespace {

TEST(SigmaStar, LadderShape) {
  const auto ladder = adversary::sigma_star_ladder(4);
  ASSERT_EQ(ladder.size(), 5u);
  EXPECT_DOUBLE_EQ(ladder[0].length, 1.0);
  EXPECT_DOUBLE_EQ(ladder[4].length, 16.0);
  for (const auto& rel : ladder) EXPECT_DOUBLE_EQ(rel.load, 0.5);
}

TEST(SigmaStar, LoadCappedAtOne) {
  const auto ladder = adversary::sigma_star_ladder(1);
  EXPECT_DOUBLE_EQ(ladder[0].load, 1.0);
}

TEST(SigmaStar, RejectsBadN) {
  EXPECT_THROW((void)adversary::sigma_star_ladder(0), std::invalid_argument);
  EXPECT_THROW((void)adversary::sigma_star_ladder(31), std::invalid_argument);
}

TEST(Adversary, ForcesTargetBinsEveryBurst) {
  algos::FirstFit ff;
  adversary::AdversaryConfig cfg;
  cfg.n = 9;
  cfg.rounds = 32;
  const auto out = adversary::run_lower_bound_adversary(cfg, ff);
  EXPECT_EQ(out.target_bins,
            static_cast<std::size_t>(std::ceil(std::sqrt(9.0))));
  EXPECT_EQ(out.bursts_reaching_target, static_cast<std::size_t>(32));
  EXPECT_GT(out.items, 0u);
}

TEST(Adversary, ConstructedInstanceIsWellFormed) {
  algos::FirstFit ff;
  adversary::AdversaryConfig cfg;
  cfg.n = 6;
  cfg.rounds = 16;
  const auto out = adversary::run_lower_bound_adversary(cfg, ff);
  out.instance.validate();
  EXPECT_EQ(out.instance.size(), out.items);
  EXPECT_LE(out.instance.mu(), pow2(6));
  EXPECT_GT(out.online_cost, 0.0);
}

TEST(Adversary, InstanceIsTheOfferedSequence) {
  // sigma is recorded as the adversary offers it: every burst at t = i is
  // a prefix of the ladder (shortest to longest), in offer order, with
  // each item's interval and load exactly as released.
  algos::FirstFit ff;
  adversary::AdversaryConfig cfg;
  cfg.n = 5;
  cfg.rounds = 12;
  const auto out = adversary::run_lower_bound_adversary(cfg, ff);
  const auto ladder = adversary::sigma_star_ladder(cfg.n);
  ASSERT_EQ(out.instance.size(), out.items);
  std::size_t k = 0;
  std::size_t bursts = 0;
  for (int t = 0; t < cfg.rounds; ++t) {
    std::size_t rung = 0;
    for (; k < out.instance.size() &&
           out.instance[k].arrival == static_cast<Time>(t);
         ++k, ++rung) {
      const Item& it = out.instance[k];
      ASSERT_LT(rung, ladder.size()) << "t=" << t;
      EXPECT_EQ(it.id, static_cast<ItemId>(k));
      EXPECT_EQ(it.departure, static_cast<Time>(t) + ladder[rung].length);
      EXPECT_EQ(it.size, ladder[rung].load);
    }
    if (rung > 0) ++bursts;
  }
  EXPECT_EQ(k, out.instance.size()) << "items outside the burst times";
  EXPECT_EQ(bursts, out.bursts);
}

TEST(Adversary, OnlineCostMatchesReplay) {
  // Re-running the constructed instance through a fresh copy of the same
  // algorithm must reproduce the interactive cost (the adversary adapts to
  // state, but the final instance is a fixed input).
  algos::FirstFit live, replay;
  adversary::AdversaryConfig cfg;
  cfg.n = 7;
  cfg.rounds = 24;
  const auto out = adversary::run_lower_bound_adversary(cfg, live);
  EXPECT_NEAR(out.online_cost, run_cost(out.instance, replay), 1e-9);
}

struct NamedCase {
  const char* label;
  std::function<AlgorithmPtr()> make;
};

class AdversaryHurts : public ::testing::TestWithParam<int> {};

TEST_P(AdversaryHurts, EveryAlgorithmPaysMoreThanOpt) {
  const int n = GetParam();
  const std::vector<testutil::NamedFactory> cases =
      testutil::online_factories();
  for (const auto& c : cases) {
    auto algo = c.make();
    adversary::AdversaryConfig cfg;
    cfg.n = n;
    cfg.rounds = std::min<int>(64, static_cast<int>(pow2(n)));
    const auto out = adversary::run_lower_bound_adversary(cfg, *algo);
    const auto m = analysis::measure_ratio_with_cost(
        out.instance, c.name, out.online_cost, /*tight_upper=*/true);
    // Certified: cost exceeds the OPT upper bound (strictly, for n >= 9).
    if (n >= 9) {
      EXPECT_GT(m.ratio_vs_upper(), 1.0) << c.name << " n=" << n;
    }
    EXPECT_GE(m.ratio_vs_lower(), m.ratio_vs_upper());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, AdversaryHurts, ::testing::Values(4, 9, 12));

TEST(Adversary, ForcedRatioGrowsWithMu) {
  // The certified ratio against First-Fit must increase from n=4 to n=16.
  auto run = [](int n) {
    algos::FirstFit ff;
    adversary::AdversaryConfig cfg;
    cfg.n = n;
    cfg.rounds = 48;
    const auto out = adversary::run_lower_bound_adversary(cfg, ff);
    return analysis::measure_ratio_with_cost(out.instance, "FF",
                                             out.online_cost)
        .ratio_vs_upper();
  };
  EXPECT_GT(run(16), run(4));
}

}  // namespace
}  // namespace cdbp
