#include "algos/cdff.h"

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "core/session.h"
#include "core/simulator.h"
#include "core/validation.h"
#include "test_util.h"
#include "workloads/aligned_random.h"

namespace cdbp {
namespace {

using algos::Cdff;
using testutil::make_instance;

TEST(Cdff, RejectsUnalignedInput) {
  // Length-4 item (bucket 2) at t=6 is not aligned.
  const Instance in = make_instance({{6.0, 10.0, 0.5}});
  Cdff cdff;
  EXPECT_THROW(Simulator{}.run(in, cdff), std::invalid_argument);
}

TEST(Cdff, RejectsFractionalArrival) {
  const Instance in = make_instance({{0.5, 1.5, 0.5}});
  Cdff cdff;
  EXPECT_THROW(Simulator{}.run(in, cdff), std::invalid_argument);
}

TEST(Cdff, SingleItem) {
  const Instance in = make_instance({{0.0, 8.0, 0.5}});
  Cdff cdff;
  const RunResult r = Simulator{}.run(in, cdff);
  EXPECT_EQ(r.bins_opened, 1u);
  EXPECT_DOUBLE_EQ(r.cost, 8.0);
}

TEST(Cdff, RowsSeparateBucketsAtSegmentStart) {
  // At t=0 each duration bucket gets its own row.
  const Instance in = make_instance({
      {0.0, 8.0, 0.2},  // bucket 3
      {0.0, 4.0, 0.2},  // bucket 2
      {0.0, 1.0, 0.2},  // bucket 0
  });
  Cdff cdff;
  const RunResult r = Simulator{}.run(in, cdff);
  EXPECT_EQ(r.bins_opened, 3u);
  // Groups encode the delta row key == bucket at segment start.
  EXPECT_EQ(r.bins[0].group, 3);
  EXPECT_EQ(r.bins[1].group, 2);
  EXPECT_EQ(r.bins[2].group, 0);
}

TEST(Cdff, DynamicRowMappingSharesTopRow) {
  // sigma_8-style: the length-8 item at t=0 goes to the top row; at t=2,
  // m_t = 1, so the length-2 item also maps to the top row (delta = 3) and
  // shares the bin (loads permitting) — the essence of Algorithm 2.
  const Instance in = make_instance({
      {0.0, 8.0, 0.2},  // bucket 3, t=0 -> delta 3
      {2.0, 4.0, 0.2},  // bucket 1, t=2: m=1 -> delta = 1 + (3-1) = 3
  });
  Cdff cdff;
  const RunResult r = Simulator{}.run(in, cdff);
  EXPECT_EQ(r.bins_opened, 1u);
  EXPECT_EQ(r.placements[0], r.placements[1]);
}

TEST(Cdff, FirstFitWithinRow) {
  const Instance in = make_instance({
      {0.0, 1.0, 0.7},  // row 0 bin 1
      {0.0, 1.0, 0.7},  // row 0 bin 2
      {0.0, 1.0, 0.2},  // fits row 0 bin 1
  });
  Cdff cdff;
  const RunResult r = Simulator{}.run(in, cdff);
  EXPECT_EQ(r.bins_opened, 2u);
  EXPECT_EQ(r.placements[2], r.placements[0]);
}

TEST(Cdff, SegmentationSplitsDisjointBlocks) {
  // Block A: lengths <= 2 around t=0 (mu_0 = 2). Block B starts at t=8.
  const Instance in = make_instance({
      {0.0, 2.0, 0.5},
      {1.0, 2.0, 0.5},
      {8.0, 16.0, 0.5},
      {8.0, 9.0, 0.4},
  });
  Cdff cdff;
  const RunResult r = Simulator{}.run(in, cdff);
  EXPECT_TRUE(validate_run(in, r).ok());
  EXPECT_EQ(cdff.segment_count(), 2u);
}

TEST(Cdff, SegmentHorizonGrowsDuringOpeningInstant) {
  // The first item at t=0 is short; a longer one at the same instant must
  // raise the segment horizon, keeping the t=4 item in the same segment.
  const Instance in = make_instance({
      {0.0, 1.0, 0.3},   // bucket 0 first
      {0.0, 8.0, 0.3},   // bucket 3 raises n to 3
      {4.0, 8.0, 0.3},   // still inside [0, 8)
  });
  Cdff cdff;
  const RunResult r = Simulator{}.run(in, cdff);
  EXPECT_TRUE(validate_run(in, r).ok());
  EXPECT_EQ(cdff.segment_count(), 1u);
  EXPECT_EQ(cdff.segment_exponent(), 3);
}

TEST(Cdff, RowBinsCloseAndReindex) {
  // Bucket-0 items at consecutive integers: each bin closes before the
  // next arrival (the row empties in between).
  const Instance in = make_instance({
      {0.0, 1.0, 0.9},
      {1.0, 2.0, 0.9},
      {2.0, 3.0, 0.9},
  });
  Cdff cdff;
  const RunResult r = Simulator{}.run(in, cdff);
  EXPECT_EQ(r.bins_opened, 3u);
  EXPECT_DOUBLE_EQ(r.cost, 3.0);
}

TEST(Cdff, NonPow2LengthsClassifiedByBucket) {
  // Length 3 is bucket 2 -> arrives at multiples of 4, departs within.
  const Instance in = make_instance({
      {0.0, 3.0, 0.5},
      {4.0, 7.0, 0.5},
  });
  Cdff cdff;
  const RunResult r = Simulator{}.run(in, cdff);
  EXPECT_TRUE(validate_run(in, r).ok());
  EXPECT_EQ(r.bins_opened, 2u);
}

TEST(Cdff, ArrivalOrderWithinInstantDoesNotChangeBinCount) {
  std::mt19937_64 rng(42);
  workloads::AlignedConfig cfg;
  cfg.n = 5;
  cfg.max_bucket = 5;
  cfg.arrivals_per_slot = 0.8;
  Instance base = workloads::make_aligned_random(cfg, rng);

  Cdff a;
  const RunResult r1 = Simulator{}.run(base, a);

  // Reverse the presentation order within each arrival instant.
  std::vector<Item> items = base.items();
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& x, const Item& y) {
                     return x.arrival < y.arrival;
                   });
  std::vector<Item> reversed;
  std::size_t i = 0;
  while (i < items.size()) {
    std::size_t j = i;
    while (j < items.size() && items[j].arrival == items[i].arrival) ++j;
    for (std::size_t k = j; k > i; --k) reversed.push_back(items[k - 1]);
    i = j;
  }
  Instance perm{reversed};
  Cdff b;
  const RunResult r2 = Simulator{}.run(perm, b);
  // Costs may differ slightly (First-Fit inside a row is order-dependent),
  // but both runs must be valid and segment identically.
  EXPECT_TRUE(validate_run(perm, r2).ok());
  EXPECT_EQ(a.segment_count(), b.segment_count());
}

TEST(Cdff, RowQueriesDuringRun) {
  Cdff cdff;
  InteractiveSession session(cdff);
  const BinId top = session.offer(0.0, 8.0, 0.5);
  const BinId low = session.offer(0.0, 1.0, 0.5);
  EXPECT_EQ(cdff.row_of(top), 3);
  EXPECT_EQ(cdff.paper_row_of(top), 0);  // longest items sit in paper row 0
  EXPECT_EQ(cdff.row_of(low), 0);
  EXPECT_EQ(cdff.paper_row_of(low), 3);
  EXPECT_EQ(cdff.row_bins(3).size(), 1u);
  EXPECT_EQ(cdff.row_bins(7).size(), 0u);
  EXPECT_EQ(cdff.row_of(999), -1);
  session.finish();
}

TEST(Cdff, ValidOnRandomAlignedInputs) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    std::mt19937_64 rng(seed);
    workloads::AlignedConfig cfg;
    cfg.n = 6;
    cfg.max_bucket = 6;
    cfg.arrivals_per_slot = 1.2;
    cfg.pow2_lengths = (seed % 2 == 0);
    const Instance in = workloads::make_aligned_random(cfg, rng);
    ASSERT_TRUE(in.is_aligned());
    Cdff cdff;
    const RunResult r = Simulator{}.run(in, cdff);
    EXPECT_TRUE(validate_run(in, r).ok()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cdbp
