#include "core/item.h"

#include <limits>

#include <gtest/gtest.h>

namespace cdbp {
namespace {

TEST(Item, BasicAccessors) {
  const Item r{7, 2.0, 10.0, 0.25};
  EXPECT_DOUBLE_EQ(r.length(), 8.0);
  EXPECT_DOUBLE_EQ(r.demand(), 2.0);
  EXPECT_TRUE(r.active_at(2.0));
  EXPECT_TRUE(r.active_at(10.0));  // closed interval per the paper
  EXPECT_FALSE(r.active_at(1.9));
  EXPECT_FALSE(r.active_at(10.1));
}

TEST(Item, OverlapsIsOpenIntervalIntersection) {
  const Item a{0, 0.0, 2.0, 0.5};
  const Item b{1, 2.0, 4.0, 0.5};  // touch at a point only
  const Item c{2, 1.0, 3.0, 0.5};
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_TRUE(c.overlaps(b));
}

TEST(DurationClass, PowerOfTwoBoundariesAreInclusive) {
  // l in (2^{i-1}, 2^i] -> class i.
  EXPECT_EQ(duration_class(2.0), 1);
  EXPECT_EQ(duration_class(2.0001), 2);
  EXPECT_EQ(duration_class(4.0), 2);
  EXPECT_EQ(duration_class(4.0001), 3);
  EXPECT_EQ(duration_class(1024.0), 10);
}

TEST(DurationClass, LengthOneClampsToClassOne) {
  // Documented deviation: the paper's classes start at i = 1 and length 1
  // falls outside all (2^{i-1}, 2^i]; we clamp it to class 1.
  EXPECT_EQ(duration_class(1.0), 1);
  EXPECT_EQ(duration_class(1.5), 1);
}

TEST(DurationClass, RejectsSubUnitLengths) {
  EXPECT_THROW((void)duration_class(0.5), std::invalid_argument);
  EXPECT_THROW((void)duration_class(0.0), std::invalid_argument);
  EXPECT_THROW((void)duration_class(-3.0), std::invalid_argument);
}

TEST(PhaseIndex, HalfOpenPhaseWindows) {
  // arrival in ((c-1) 2^i, c 2^i] -> phase c.
  EXPECT_EQ(phase_index(0.0, 3), 0);
  EXPECT_EQ(phase_index(0.0001, 3), 1);
  EXPECT_EQ(phase_index(8.0, 3), 1);
  EXPECT_EQ(phase_index(8.0001, 3), 2);
  EXPECT_EQ(phase_index(16.0, 3), 2);
}

TEST(PhaseIndex, RejectsNegativeArrival) {
  EXPECT_THROW((void)phase_index(-1.0, 2), std::invalid_argument);
}

TEST(DurationType, FullTypeOfAnItem) {
  const Item r{0, 9.0, 9.0 + 7.0, 0.1};  // length 7 -> i = 3; 9 in (8, 16]
  const DurationType t = duration_type(r);
  EXPECT_EQ(t.i, 3);
  EXPECT_EQ(t.c, 2);
  EXPECT_EQ(t.to_string(), "(3,2)");
}

TEST(DurationType, AtMostTwoPhasesAliveSimultaneously) {
  // Two items of the same class i are simultaneously active only if their
  // phases differ by at most 1. Exhaustive check over a small grid.
  const int i = 2;  // window 4
  for (double a1 = 0.0; a1 <= 40.0; a1 += 1.0) {
    for (double a2 = a1; a2 <= 40.0; a2 += 1.0) {
      const Item r1{0, a1, a1 + 4.0, 0.1};
      const Item r2{1, a2, a2 + 4.0, 0.1};
      if (!r1.overlaps(r2)) continue;
      const auto t1 = duration_type(r1);
      const auto t2 = duration_type(r2);
      ASSERT_EQ(t1.i, i);
      EXPECT_LE(std::abs(t1.c - t2.c), 1)
          << "a1=" << a1 << " a2=" << a2;
    }
  }
}

TEST(DurationType, HashAndEquality) {
  const DurationType a{3, 5}, b{3, 5}, c{3, 6};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(std::hash<DurationType>{}(a), std::hash<DurationType>{}(b));
}

TEST(TimeTypes, FitsInBinRespectsTolerance) {
  EXPECT_TRUE(fits_in_bin(0.5, 0.5));
  EXPECT_TRUE(fits_in_bin(0.5, 0.5 + 0.5 * kLoadEps));
  EXPECT_FALSE(fits_in_bin(0.5, 0.51));
}

TEST(TimeTypes, ValidItemSizeDomain) {
  EXPECT_TRUE(valid_item_size(0.0));
  EXPECT_TRUE(valid_item_size(-0.0));
  EXPECT_TRUE(valid_item_size(0.5));
  EXPECT_TRUE(valid_item_size(kBinCapacity));
  EXPECT_TRUE(valid_item_size(kBinCapacity + 0.5 * kLoadEps));
  EXPECT_FALSE(valid_item_size(kBinCapacity + 1e-6));
  EXPECT_FALSE(valid_item_size(1.5));
  EXPECT_FALSE(valid_item_size(-0.5));
  EXPECT_FALSE(valid_item_size(-std::numeric_limits<double>::denorm_min()));
  EXPECT_FALSE(valid_item_size(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(valid_item_size(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(valid_item_size(-std::numeric_limits<double>::infinity()));
}

TEST(TimeTypes, Log2Helpers) {
  EXPECT_EQ(floor_log2(1.0), 0);
  EXPECT_EQ(floor_log2(2.0), 1);
  EXPECT_EQ(floor_log2(3.0), 1);
  EXPECT_EQ(ceil_log2(1.0), 0);
  EXPECT_EQ(ceil_log2(2.0), 1);
  EXPECT_EQ(ceil_log2(3.0), 2);
  EXPECT_EQ(ceil_log2(1024.0), 10);
  EXPECT_EQ(floor_log2_u64(1), 0);
  EXPECT_EQ(floor_log2_u64(1024), 10);
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(65));
  EXPECT_EQ(trailing_zeros(40), 3);
  EXPECT_TRUE(is_multiple_of_pow2(24.0, 3));
  EXPECT_FALSE(is_multiple_of_pow2(20.0, 3));
  EXPECT_TRUE(is_multiple_of_pow2(0.0, 10));
}

}  // namespace
}  // namespace cdbp
