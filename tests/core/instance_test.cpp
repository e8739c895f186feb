#include "core/instance.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace cdbp {
namespace {

using testutil::make_instance;

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
