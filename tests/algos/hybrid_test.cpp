#include "algos/hybrid.h"

#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/simulator.h"
#include "core/validation.h"
#include "test_util.h"

namespace cdbp {
namespace {

using algos::Hybrid;
using algos::kHybridGroupCD;
using algos::kHybridGroupGN;
using testutil::make_instance;

TEST(Hybrid, PaperThresholdFormula) {
  EXPECT_DOUBLE_EQ(Hybrid::paper_threshold(1), 0.5);
  EXPECT_DOUBLE_EQ(Hybrid::paper_threshold(4), 0.25);
  EXPECT_NEAR(Hybrid::paper_threshold(16), 0.125, 1e-12);
}

TEST(Hybrid, LightTypeGoesToGN) {
  // One small item of class i=1: load 0.2 <= 1/(2*sqrt(1)) = 0.5 -> GN.
  const Instance in = make_instance({{0.0, 2.0, 0.2}});
  Hybrid ha;
  const RunResult r = Simulator{}.run(in, ha);
  ASSERT_EQ(r.bins.size(), 1u);
  EXPECT_EQ(r.bins[0].group, kHybridGroupGN);
}

TEST(Hybrid, HeavyTypeOpensCdBin) {
  // Class i=1 threshold is 0.5: a 0.6 item exceeds it immediately -> CD.
  const Instance in = make_instance({{0.0, 2.0, 0.6}});
  Hybrid ha;
  const RunResult r = Simulator{}.run(in, ha);
  ASSERT_EQ(r.bins.size(), 1u);
  EXPECT_EQ(r.bins[0].group, kHybridGroupCD);
}

TEST(Hybrid, AccumulatedTypeLoadTriggersSwitch) {
  // Three 0.2-items of the same type (i=1, c=0): loads 0.2, 0.4, 0.6.
  // The third pushes the type load over 0.5 and must open a CD bin.
  const Instance in = make_instance({
      {0.0, 2.0, 0.2},
      {0.0, 2.0, 0.2},
      {0.0, 2.0, 0.2},
  });
  Hybrid ha;
  const RunResult r = Simulator{}.run(in, ha);
  ASSERT_EQ(r.bins.size(), 2u);
  EXPECT_EQ(r.bins[0].group, kHybridGroupGN);
  EXPECT_EQ(r.bins[1].group, kHybridGroupCD);
  ASSERT_EQ(r.placements.size(), 3u);
  EXPECT_EQ(r.placements[0], 0);
  EXPECT_EQ(r.placements[1], 0);
  EXPECT_EQ(r.placements[2], 1);
}

TEST(Hybrid, OnceCdExistsTypeStaysCd) {
  // After the switch, later same-type items go to the CD bin even though
  // they would fit in GN bins.
  const Instance in = make_instance({
      {0.0, 2.0, 0.3},
      {0.0, 2.0, 0.3},  // load 0.6 > 0.5 -> CD bin
      {0.0, 2.0, 0.1},  // same type, load 0.7: stays with CD
  });
  Hybrid ha;
  const RunResult r = Simulator{}.run(in, ha);
  ASSERT_EQ(r.bins.size(), 2u);
  EXPECT_EQ(r.placements[1], r.placements[2]);
  EXPECT_EQ(r.bins[1].group, kHybridGroupCD);
}

TEST(Hybrid, CdBinsAreTypePrivate) {
  // Two heavy types (different duration classes) never share CD bins.
  const Instance in = make_instance({
      {0.0, 2.0, 0.6},    // type (1, 0) -> CD
      {0.0, 32.0, 0.2},   // type (5, 0): 0.2 > 1/(2*sqrt(5))=0.2236? no ->
                          // GN
      {0.0, 32.0, 0.2},   // type (5, 0) load 0.4 > 0.2236 -> CD
  });
  Hybrid ha;
  const RunResult r = Simulator{}.run(in, ha);
  ASSERT_EQ(r.bins.size(), 3u);
  EXPECT_NE(r.placements[0], r.placements[2]);
}

TEST(Hybrid, DepartureReleasesTypeLoad) {
  // Type load decays on departures, so a later same-type item goes GN again
  // (the CD bin has closed).
  const Instance in = make_instance({
      {0.0, 1.5, 0.4},
      {0.0, 1.5, 0.4},  // 0.8 > 0.5 -> CD
      {2.0, 3.5, 0.3},  // same class, new phase c, load 0.3 -> GN
  });
  Hybrid ha;
  const RunResult r = Simulator{}.run(in, ha);
  ASSERT_EQ(r.bins.size(), 3u);
  EXPECT_EQ(r.bins[static_cast<std::size_t>(r.placements[2])].group,
            kHybridGroupGN);
}

TEST(Hybrid, CdOverflowOpensSecondCdBin) {
  // Type goes CD, then more same-type items than one bin can hold.
  const Instance in = make_instance({
      {0.0, 2.0, 0.6},  // CD bin 1
      {0.0, 2.0, 0.6},  // does not fit -> CD bin 2
      {0.0, 2.0, 0.3},  // first-fit among CD bins -> bin 1
  });
  Hybrid ha;
  const RunResult r = Simulator{}.run(in, ha);
  ASSERT_EQ(r.bins.size(), 2u);
  EXPECT_EQ(r.placements[2], r.placements[0]);
  EXPECT_EQ(r.bins[0].group, kHybridGroupCD);
  EXPECT_EQ(r.bins[1].group, kHybridGroupCD);
}

TEST(Hybrid, GnBinBoundLemma33) {
  // Lemma 3.3: GN_t <= 2 + 4*sqrt(log mu). Stress with many light types.
  Hybrid ha;
  InteractiveSession session(ha);
  const int n = 10;  // classes 1..10, mu = 2^10
  std::size_t peak_gn = 0;
  for (int i = 1; i <= n; ++i) {
    // Fill type (i, 0) right up to its threshold with small items.
    const double thr = Hybrid::paper_threshold(i);
    const int count = static_cast<int>(thr / 0.02);
    for (int k = 0; k < count; ++k) {
      session.offer(0.0, pow2(i), 0.02);
      peak_gn = std::max(peak_gn, ha.gn_open_count());
    }
  }
  const double bound = 2.0 + 4.0 * std::sqrt(static_cast<double>(n));
  EXPECT_LE(static_cast<double>(peak_gn), bound);
  session.finish();
}

TEST(Hybrid, AdaptsWithoutKnowingMu) {
  // Feeding progressively longer items must not break anything; type
  // indices simply grow.
  Instance in;
  for (int i = 1; i <= 20; ++i) in.add(0.0, pow2(i), 0.01);
  in.finalize();
  Hybrid ha;
  const RunResult r = Simulator{}.run(in, ha);
  EXPECT_TRUE(validate_run(in, r).ok());
  EXPECT_EQ(r.bins_opened, 1u);  // all light, all fit in one GN bin
}

TEST(Hybrid, CustomThresholdChangesBehaviour) {
  // threshold = 0: every item opens/joins CD immediately (pure classify).
  Hybrid pure_cd([](int) { return 0.0; }, "CD-only");
  const Instance in = make_instance({{0.0, 2.0, 0.1}, {0.0, 4.0, 0.1}});
  const RunResult r = Simulator{}.run(in, pure_cd);
  EXPECT_EQ(r.bins_opened, 2u);  // different classes -> different CD bins
  for (const auto& bin : r.bins) EXPECT_EQ(bin.group, kHybridGroupCD);
  EXPECT_EQ(pure_cd.name(), "CD-only");

  // threshold = +inf: pure First-Fit over GN bins.
  Hybrid pure_ff([](int) { return 1e18; }, "FF-only");
  const RunResult r2 = Simulator{}.run(in, pure_ff);
  EXPECT_EQ(r2.bins_opened, 1u);
  EXPECT_EQ(r2.bins[0].group, kHybridGroupGN);
}

TEST(Hybrid, ActiveLoadQueries) {
  Hybrid ha;
  InteractiveSession session(ha);
  session.offer(0.0, 2.0, 0.2);
  session.offer(0.0, 2.0, 0.15);
  EXPECT_NEAR(ha.active_load(DurationType{1, 0}), 0.35, 1e-12);
  EXPECT_DOUBLE_EQ(ha.active_load(DurationType{2, 0}), 0.0);
  session.advance_to(3.0);
  EXPECT_DOUBLE_EQ(ha.active_load(DurationType{1, 0}), 0.0);
  session.finish();
}

TEST(Hybrid, Footnote1AnyFitRulesAllWork) {
  // Paper footnote 1: "using any Any-Fit approach towards packing items
  // into the GN-type bins or the CD-type bins will work just as well."
  Instance in;
  std::mt19937_64 rng(11);
  std::uniform_real_distribution<double> size(0.05, 0.5);
  std::uniform_real_distribution<double> arr(0.0, 30.0);
  std::uniform_int_distribution<int> cls(0, 5);
  for (int k = 0; k < 150; ++k) {
    const Time a = arr(rng);
    in.add(a, a + pow2(cls(rng)), size(rng));
  }
  in.finalize();
  for (auto rule : {algos::FitRule::kFirst, algos::FitRule::kBest,
                    algos::FitRule::kWorst}) {
    Hybrid ha(&Hybrid::paper_threshold, "HA-" + to_string(rule), rule);
    const RunResult r = Simulator{}.run(in, ha);
    EXPECT_TRUE(validate_run(in, r).ok()) << to_string(rule);
    // The GN bound of Lemma 3.3 is rule-independent.
    InteractiveSession session(ha);
    std::size_t peak = 0;
    for (const Item& item : in.items()) {
      session.offer(item.arrival, item.departure, item.size);
      peak = std::max(peak, ha.gn_open_count());
    }
    session.finish();
    EXPECT_LE(static_cast<double>(peak), 2.0 + 4.0 * std::sqrt(6.0))
        << to_string(rule);
  }
}

TEST(Hybrid, RejectsNullThreshold) {
  EXPECT_THROW(Hybrid(Hybrid::Threshold{}), std::invalid_argument);
}

TEST(Hybrid, ValidOnMixedWorkload) {
  Instance in;
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> size(0.05, 0.6);
  std::uniform_real_distribution<double> arr(0.0, 50.0);
  std::uniform_int_distribution<int> cls(0, 6);
  for (int k = 0; k < 200; ++k) {
    const Time a = arr(rng);
    in.add(a, a + pow2(cls(rng)), size(rng));
  }
  in.finalize();
  Hybrid ha;
  const RunResult r = Simulator{}.run(in, ha);
  EXPECT_TRUE(validate_run(in, r).ok());
}

}  // namespace
}  // namespace cdbp
