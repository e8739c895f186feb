#include "algos/harmonic.h"

#include <random>

#include <gtest/gtest.h>

#include "algos/classify.h"
#include "core/simulator.h"
#include "core/validation.h"
#include "test_util.h"
#include "workloads/general_random.h"

namespace cdbp {
namespace {

using algos::HarmonicFit;
using testutil::make_instance;

TEST(Harmonic, ClassOf) {
  const HarmonicFit h(4);
  EXPECT_EQ(h.class_of(0.9), 1);    // (1/2, 1]
  EXPECT_EQ(h.class_of(0.51), 1);
  EXPECT_EQ(h.class_of(0.5), 2);    // (1/3, 1/2]
  EXPECT_EQ(h.class_of(0.3), 3);    // (1/4, 1/3]
  EXPECT_EQ(h.class_of(0.25), 4);   // catch-all (0, 1/4]
  EXPECT_EQ(h.class_of(0.01), 4);
  EXPECT_THROW((void)h.class_of(0.0), std::invalid_argument);
  EXPECT_THROW((void)h.class_of(1.5), std::invalid_argument);
}

TEST(Harmonic, RejectsBadClassCount) {
  EXPECT_THROW(HarmonicFit(0), std::invalid_argument);
}

TEST(Harmonic, ClassesNeverShareBins) {
  const Instance in = make_instance({
      {0.0, 4.0, 0.6},   // class 1
      {0.0, 4.0, 0.4},   // class 2
      {0.0, 4.0, 0.1},   // catch-all
  });
  HarmonicFit h(4);
  const RunResult r = Simulator{}.run(in, h);
  EXPECT_EQ(r.bins_opened, 3u);
  EXPECT_NE(r.placements[0], r.placements[1]);
  EXPECT_NE(r.placements[1], r.placements[2]);
  EXPECT_TRUE(validate_run(in, r).ok());
}

TEST(Harmonic, ClassKBinsHoldKItems) {
  // Three (1/3, 1/2] items: two share a bin, the third opens another.
  const Instance in = make_instance({
      {0.0, 4.0, 0.4}, {0.0, 4.0, 0.4}, {0.0, 4.0, 0.4},
  });
  HarmonicFit h(4);
  const RunResult r = Simulator{}.run(in, h);
  EXPECT_EQ(r.bins_opened, 2u);
  EXPECT_EQ(r.placements[0], r.placements[1]);
}

TEST(Harmonic, BinGroupEncodesClass) {
  const Instance in = make_instance({{0.0, 2.0, 0.7}});
  HarmonicFit h(4);
  const RunResult r = Simulator{}.run(in, h);
  EXPECT_EQ(r.bins[0].group, 1);
}

TEST(Harmonic, ClosedBinsForgotten) {
  const Instance in = make_instance({{0.0, 1.0, 0.4}, {2.0, 3.0, 0.4}});
  HarmonicFit h(4);
  const RunResult r = Simulator{}.run(in, h);
  EXPECT_EQ(r.bins_opened, 2u);
}

class HarmonicRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HarmonicRandom, ValidOnRandomWorkloads) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 150;
  cfg.log2_mu = 6;
  cfg.size_max = 0.95;
  const Instance in = workloads::make_general_random(cfg, rng);
  for (int classes : {1, 3, 8}) {
    HarmonicFit h(classes);
    const RunResult r = Simulator{}.run(in, h);
    EXPECT_TRUE(validate_run(in, r).ok()) << classes;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HarmonicRandom,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(Harmonic, SizeClassificationCannotContainDurationMixing) {
  // Same sizes, wildly different durations: Harmonic mixes a mu-length
  // item into a bin with ephemeral ones and pays for it, while
  // duration-classify isolates the long item.
  Instance in;
  in.add(0.0, 256.0, 0.3);  // long
  for (int k = 0; k < 30; ++k)
    in.add(static_cast<Time>(k), static_cast<Time>(k) + 1.0, 0.3);
  in.finalize();
  HarmonicFit h(4);
  algos::ClassifyByDuration cbd(2.0);
  EXPECT_GT(run_cost(in, h), 0.0);
  // Not asserting an ordering here — both are heuristics — but the runs
  // must be valid and the costs finite.
  const RunResult rh = Simulator{}.run(in, h);
  const RunResult rc = Simulator{}.run(in, cbd);
  EXPECT_TRUE(validate_run(in, rh).ok());
  EXPECT_TRUE(validate_run(in, rc).ok());
}

}  // namespace
}  // namespace cdbp
