#include "core/instance.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace cdbp {
namespace {

using testutil::make_instance;

/// The union measure by the copy-and-sort sweep span() used to run: every
/// interval copied, the copies sorted by (arrival, departure), then swept.
double span_by_copy_and_sort(const Instance& in) {
  if (in.empty()) return 0.0;
  std::vector<std::pair<Time, Time>> iv;
  for (const Item& r : in.items()) iv.emplace_back(r.arrival, r.departure);
  std::sort(iv.begin(), iv.end());
  double acc = 0.0;
  Time lo = iv[0].first, hi = iv[0].second;
  for (std::size_t i = 1; i < iv.size(); ++i) {
    if (iv[i].first <= hi) {
      hi = std::max(hi, iv[i].second);
    } else {
      acc += hi - lo;
      lo = iv[i].first;
      hi = iv[i].second;
    }
  }
  return acc + (hi - lo);
}

TEST(Instance, FinalizeSortsByArrivalStable) {
  Instance in;
  in.add(5.0, 6.0, 0.1);
  in.add(1.0, 2.0, 0.2);
  in.add(1.0, 3.0, 0.3);  // same arrival: must stay after the 0.2 item
  in.finalize();
  ASSERT_EQ(in.size(), 3u);
  EXPECT_DOUBLE_EQ(in[0].size, 0.2);
  EXPECT_DOUBLE_EQ(in[1].size, 0.3);
  EXPECT_DOUBLE_EQ(in[2].size, 0.1);
  EXPECT_EQ(in[0].id, 0);
  EXPECT_EQ(in[1].id, 1);
  EXPECT_EQ(in[2].id, 2);
}

TEST(Instance, FinalizeKeepsOrderedInputWithTiedArrivals) {
  // Already ordered by arrival, with ties: finalize skips the sort, and the
  // result is what the stable sort gives — ties in insertion order, ids
  // renumbered 0, 1, 2, ... whatever they were.
  const Instance in(std::vector<Item>{{7, 0.0, 2.0, 0.1},
                                      {3, 0.0, 1.0, 0.2},
                                      {9, 1.0, 3.0, 0.3},
                                      {9, 1.0, 2.0, 0.4},
                                      {0, 1.0, 4.0, 0.5}});
  ASSERT_EQ(in.size(), 5u);
  const double sizes[] = {0.1, 0.2, 0.3, 0.4, 0.5};
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(in[i].id, static_cast<ItemId>(i));
    EXPECT_EQ(in[i].size, sizes[i]);
  }
}

TEST(Instance, ValidationRejectsMalformedItems) {
  {
    Instance in;
    in.add(0.0, 1.0, 0.0);  // zero size
    EXPECT_THROW(in.finalize(), std::invalid_argument);
  }
  {
    Instance in;
    in.add(0.0, 1.0, 1.5);  // oversize
    EXPECT_THROW(in.finalize(), std::invalid_argument);
  }
  {
    Instance in;
    in.add(2.0, 2.0, 0.5);  // empty interval
    EXPECT_THROW(in.finalize(), std::invalid_argument);
  }
}

TEST(Instance, PaperQuantitiesOnKnownInput) {
  const Instance in = make_instance({
      {0.0, 4.0, 0.5},   // length 4
      {2.0, 3.0, 0.25},  // length 1
      {6.0, 8.0, 1.0},   // length 2, disjoint block
  });
  EXPECT_DOUBLE_EQ(in.mu(), 4.0);
  EXPECT_DOUBLE_EQ(in.min_length(), 1.0);
  EXPECT_DOUBLE_EQ(in.max_length(), 4.0);
  EXPECT_DOUBLE_EQ(in.total_demand(), 0.5 * 4 + 0.25 * 1 + 1.0 * 2);
  EXPECT_DOUBLE_EQ(in.span(), 4.0 + 2.0);
  EXPECT_DOUBLE_EQ(in.horizon_start(), 0.0);
  EXPECT_DOUBLE_EQ(in.horizon_end(), 8.0);
  EXPECT_EQ(in.max_concurrency(), 2u);
  EXPECT_FALSE(in.is_contiguous());
  EXPECT_TRUE(in.has_integer_times());
}

// span() sweeps the finalized items in place. Arrivals on a coarse grid
// tie often, long items nest short ones, and jumps leave gaps no item
// covers; the sum must match the copy-and-sort sweep bit for bit.
TEST(Instance, SpanSweepsInPlaceBitForBit) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    Instance in;
    Time block = 0.0;
    const std::uint64_t n = 1 + rng() % 200;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (rng() % 16 == 0) block += 50.0 + 10.0 * unit(rng);  // a gap
      const Time arrival = block + 0.25 * static_cast<double>(rng() % 41);
      const Time length =
          rng() % 8 == 0 ? 5.0 + 20.0 * unit(rng) : 0.1 + unit(rng);
      in.add(arrival, arrival + length, 0.5);
    }
    in.finalize();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(in.span()),
              std::bit_cast<std::uint64_t>(span_by_copy_and_sort(in)))
        << "seed " << seed;
  }
}

TEST(Instance, LoadProfileMatchesDemandIntegral) {
  const Instance in = make_instance({
      {0.0, 10.0, 0.3},
      {5.0, 9.0, 0.6},
      {1.0, 2.0, 0.9},
  });
  EXPECT_NEAR(in.load_profile().integral(), in.total_demand(), 1e-12);
  EXPECT_NEAR(in.load_profile().support_measure(), in.span(), 1e-12);
}

TEST(Instance, EmptyInstanceQuantities) {
  const Instance in;
  EXPECT_DOUBLE_EQ(in.mu(), 1.0);
  EXPECT_DOUBLE_EQ(in.span(), 0.0);
  EXPECT_DOUBLE_EQ(in.total_demand(), 0.0);
  EXPECT_EQ(in.max_concurrency(), 0u);
  EXPECT_TRUE(in.is_contiguous());
  EXPECT_TRUE(in.is_aligned());
}

TEST(Instance, AlignedPredicate) {
  // Length-4 item (bucket 2) at t=8: aligned. At t=6: not aligned.
  EXPECT_TRUE(make_instance({{8.0, 12.0, 0.5}}).is_aligned());
  EXPECT_FALSE(make_instance({{6.0, 10.0, 0.5}}).is_aligned());
  // Length-1 items at any integer: aligned.
  EXPECT_TRUE(make_instance({{3.0, 4.0, 0.5}}).is_aligned());
  EXPECT_FALSE(make_instance({{2.5, 3.5, 0.5}}).is_aligned());
}

TEST(Instance, ContiguityDetectsTouchingIntervals) {
  EXPECT_TRUE(
      make_instance({{0.0, 2.0, 0.1}, {2.0, 4.0, 0.1}}).is_contiguous());
  EXPECT_FALSE(
      make_instance({{0.0, 2.0, 0.1}, {2.5, 4.0, 0.1}}).is_contiguous());
}

TEST(Instance, MaxConcurrencyCountsDeparturesBeforeArrivals) {
  // One departs exactly when the next arrives: concurrency stays 1.
  const Instance in =
      make_instance({{0.0, 1.0, 0.5}, {1.0, 2.0, 0.5}, {2.0, 3.0, 0.5}});
  EXPECT_EQ(in.max_concurrency(), 1u);
}

TEST(AlignedBucket, Buckets) {
  EXPECT_EQ(aligned_bucket(1.0), 0);
  EXPECT_EQ(aligned_bucket(0.75), 0);
  EXPECT_EQ(aligned_bucket(2.0), 1);
  EXPECT_EQ(aligned_bucket(3.0), 2);
  EXPECT_EQ(aligned_bucket(4.0), 2);
  EXPECT_THROW((void)aligned_bucket(0.0), std::invalid_argument);
}

TEST(Instance, SummaryMentionsKeyNumbers) {
  const Instance in = make_instance({{0.0, 8.0, 0.5}, {0.0, 1.0, 0.5}});
  const std::string s = in.summary();
  EXPECT_NE(s.find("n=2"), std::string::npos);
  EXPECT_NE(s.find("mu=8"), std::string::npos);
}

}  // namespace
}  // namespace cdbp
