#include "algos/classify.h"

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "core/validation.h"
#include "test_util.h"

namespace cdbp {
namespace {

using testutil::make_instance;

TEST(Classify, ClassOfBase2) {
  const algos::ClassifyByDuration cbd(2.0);
  EXPECT_EQ(cbd.class_of(1.0), 0);
  EXPECT_EQ(cbd.class_of(2.0), 1);
  EXPECT_EQ(cbd.class_of(3.0), 2);
  EXPECT_EQ(cbd.class_of(4.0), 2);
  EXPECT_EQ(cbd.class_of(1024.0), 10);
  EXPECT_EQ(cbd.class_of(0.5), -1);
  EXPECT_THROW((void)cbd.class_of(0.0), std::invalid_argument);
}

TEST(Classify, ClassOfLargeBase) {
  const algos::ClassifyByDuration cbd(10.0);
  EXPECT_EQ(cbd.class_of(1.0), 0);
  EXPECT_EQ(cbd.class_of(10.0), 1);
  EXPECT_EQ(cbd.class_of(11.0), 2);
  EXPECT_EQ(cbd.class_of(100.0), 2);
}

TEST(Classify, RejectsBadBase) {
  EXPECT_THROW(algos::ClassifyByDuration(1.0), std::invalid_argument);
  EXPECT_THROW(algos::ClassifyByDuration(0.5), std::invalid_argument);
}

TEST(Classify, DifferentClassesNeverShareBins) {
  const Instance in = make_instance({
      {0.0, 1.0, 0.1},    // class 0
      {0.0, 8.0, 0.1},    // class 3
      {0.0, 1.0, 0.1},    // class 0 again
      {0.0, 7.0, 0.1},    // class 3 again
  });
  algos::ClassifyByDuration cbd(2.0);
  const RunResult r = Simulator{}.run(in, cbd);
  EXPECT_EQ(r.bins_opened, 2u);
  EXPECT_EQ(r.placements[0], r.placements[2]);
  EXPECT_EQ(r.placements[1], r.placements[3]);
  EXPECT_NE(r.placements[0], r.placements[1]);
  EXPECT_TRUE(validate_run(in, r).ok());
}

TEST(Classify, FirstFitWithinClass) {
  const Instance in = make_instance({
      {0.0, 1.0, 0.7},
      {0.0, 1.0, 0.7},  // second class-0 bin
      {0.0, 1.0, 0.2},  // joins the first class-0 bin
  });
  algos::ClassifyByDuration cbd(2.0);
  const RunResult r = Simulator{}.run(in, cbd);
  EXPECT_EQ(r.placements[2], r.placements[0]);
}

TEST(Classify, ClosedClassBinsForgotten) {
  const Instance in = make_instance({
      {0.0, 1.0, 0.5},
      {2.0, 3.0, 0.5},  // same class, but the earlier bin closed
  });
  algos::ClassifyByDuration cbd(2.0);
  const RunResult r = Simulator{}.run(in, cbd);
  EXPECT_EQ(r.bins_opened, 2u);
}

TEST(Classify, BinGroupEncodesClass) {
  const Instance in = make_instance({{0.0, 8.0, 0.5}});
  algos::ClassifyByDuration cbd(2.0);
  const RunResult r = Simulator{}.run(in, cbd);
  ASSERT_EQ(r.bins.size(), 1u);
  EXPECT_EQ(r.bins[0].group, 3);  // length 8 -> class 3
}

TEST(Classify, NameIncludesBase) {
  EXPECT_EQ(algos::ClassifyByDuration(2.0).name(), "CBD(base=2)");
}

TEST(Classify, ShiftSlidesClassBoundaries) {
  // shift 0.5: boundaries at 2^{k+0.5} = ..., 1.41, 2.83, 5.66, ...
  const algos::ClassifyByDuration cbd(2.0, algos::FitRule::kFirst, 0.5);
  EXPECT_EQ(cbd.class_of(1.0), 0);
  EXPECT_EQ(cbd.class_of(1.4), 0);
  EXPECT_EQ(cbd.class_of(1.5), 1);
  EXPECT_EQ(cbd.class_of(2.82), 1);   // just under 2^{1.5} = 2.8284
  EXPECT_EQ(cbd.class_of(2.9), 2);
  EXPECT_NE(cbd.name().find("shift=0.5"), std::string::npos);
}

TEST(Classify, ShiftValidation) {
  EXPECT_THROW(algos::ClassifyByDuration(2.0, algos::FitRule::kFirst, 1.0),
               std::invalid_argument);
  EXPECT_THROW(algos::ClassifyByDuration(2.0, algos::FitRule::kFirst, -0.1),
               std::invalid_argument);
}

TEST(Classify, ShiftDodgesBoundaryAdversarialLengths) {
  // Lengths just above every power of two: shift-0 classify almost doubles
  // each class window; shift-0.5 classifies them tightly.
  Instance in;
  for (int k = 1; k <= 8; ++k)
    for (int j = 0; j < 4; ++j) in.add(0.0, pow2(k) * 1.01, 0.05);
  in.finalize();
  algos::ClassifyByDuration plain(2.0);
  algos::ClassifyByDuration shifted(2.0, algos::FitRule::kFirst, 0.5);
  // Same bins per class either way (one per class, items are tiny), but
  // the class index differs: plain puts 2^k*1.01 into class k+1.
  EXPECT_EQ(plain.class_of(2.02), 2);
  EXPECT_EQ(shifted.class_of(2.02), 1);
  // Both runs are valid.
  const RunResult r1 = Simulator{}.run(in, plain);
  const RunResult r2 = Simulator{}.run(in, shifted);
  EXPECT_TRUE(validate_run(in, r1).ok());
  EXPECT_TRUE(validate_run(in, r2).ok());
}

TEST(RandomizedClassify, RedrawsShiftPerRun) {
  algos::RandomizedClassify rand(42);
  const double s1 = rand.shift();
  rand.reset();
  const double s2 = rand.shift();
  rand.reset();
  const double s3 = rand.shift();
  EXPECT_TRUE(s1 != s2 || s2 != s3);  // astronomically unlikely otherwise
  for (double s : {s1, s2, s3}) {
    EXPECT_GE(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
}

TEST(RandomizedClassify, DeterministicForFixedSeed) {
  algos::RandomizedClassify a(7), b(7);
  const Instance in = make_instance({{0.0, 3.0, 0.5}, {0.0, 5.0, 0.5}});
  EXPECT_DOUBLE_EQ(run_cost(in, a), run_cost(in, b));
  EXPECT_NE(algos::RandomizedClassify(1).name().find("RandCBD"),
            std::string::npos);
}

TEST(RandomizedClassify, ValidAcrossRuns) {
  algos::RandomizedClassify rand(99);
  Instance in;
  for (int k = 0; k < 60; ++k)
    in.add(static_cast<Time>(k % 5), static_cast<Time>(k % 5) + 1.0 + k % 9,
           0.15);
  in.finalize();
  for (int run = 0; run < 5; ++run) {
    const RunResult r = Simulator{}.run(in, rand);
    EXPECT_TRUE(validate_run(in, r).ok()) << "run " << run;
  }
}

TEST(RenEtAlBase, MatchesFormula) {
  // mu = 2^16: log mu = 16, log log mu = 4 -> n = 4, base = 2^4 = 16.
  EXPECT_NEAR(algos::ren_et_al_base(65536.0), 16.0, 1e-9);
  // Small mu degenerates to base 2.
  EXPECT_DOUBLE_EQ(algos::ren_et_al_base(2.0), 2.0);
  // Base is always > 1.
  for (double mu : {4.0, 64.0, 1e6, 1e12})
    EXPECT_GT(algos::ren_et_al_base(mu), 1.0);
}

TEST(Classify, RenBaseBeatsBase2OnGeometricLadders) {
  // Repeated full ladders of durations: base-2 CBD opens one bin per
  // duration class, the coarser Ren base opens ~log mu / log log mu.
  Instance in;
  const int n = 12;
  for (int burst = 0; burst < 4; ++burst) {
    const Time t = static_cast<Time>(burst) * 4096.0;
    for (int i = 0; i <= n; ++i) in.add(t, t + pow2(i), 0.05);
  }
  in.finalize();
  algos::ClassifyByDuration cbd2(2.0);
  algos::ClassifyByDuration cbdren(algos::ren_et_al_base(pow2(n)));
  const Cost c2 = run_cost(in, cbd2);
  const Cost cren = run_cost(in, cbdren);
  EXPECT_LT(cren, c2);
}

}  // namespace
}  // namespace cdbp
