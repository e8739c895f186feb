// Core scalar types and the single numeric-tolerance policy for libcdbp.
//
// Times are IEEE doubles. Every generator in this repository emits *dyadic*
// times (integer multiples of a power of two), which are exactly
// representable, so event ordering and aligned-input arithmetic are exact.
// Loads (item sizes) are doubles in [0, 1]; all capacity comparisons go
// through the helpers below so the tolerance lives in exactly one place.
#pragma once

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>

namespace cdbp {

/// Simulation time. Generators emit dyadic rationals; see file comment.
using Time = double;

/// An item size or a bin load, in [0, 1] (sums of sizes may exceed 1).
using Load = double;

/// Accumulated usage time (MinUsageTime cost).
using Cost = double;

/// Identifier of a bin within a Ledger. Assigned in opening order, so
/// comparing BinIds compares opening times (First-Fit scans ascending ids).
using BinId = std::int64_t;

/// Identifier of an item within an Instance (its index).
using ItemId = std::int64_t;

/// Sentinel for "no bin".
inline constexpr BinId kNoBin = -1;

/// Bin capacity. The problem statement fixes it to 1; kept symbolic so the
/// tolerance helpers read naturally.
inline constexpr Load kBinCapacity = 1.0;

/// Global absolute tolerance for load arithmetic. Applied on the permissive
/// side of capacity checks and the strict side of algorithm thresholds.
inline constexpr Load kLoadEps = 1e-9;

/// Absolute tolerance for time comparisons in *derived* quantities
/// (integrals, spans). Raw event times are compared exactly.
inline constexpr double kTimeEps = 1e-9;

/// True when a bin currently at `load` can also accept `size`.
[[nodiscard]] inline bool fits_in_bin(Load load, Load size) noexcept {
  return load + size <= kBinCapacity + kLoadEps;
}

/// True when `size` is a legal item size: finite, non-negative, and
/// admitted by an empty bin (NaN fails the first comparison, +inf the
/// second). Entry points that take untrusted sizes check this up front.
[[nodiscard]] inline bool valid_item_size(Load size) noexcept {
  return size >= 0.0 && fits_in_bin(0.0, size);
}

/// True when `a` exceeds `b` beyond tolerance (strict compare for
/// algorithm thresholds such as HA's 1/(2*sqrt(i))).
[[nodiscard]] inline bool definitely_greater(double a, double b) noexcept {
  return a > b + kLoadEps;
}

/// True when |a - b| is within load tolerance.
[[nodiscard]] inline bool approx_equal(double a, double b,
                                       double eps = kLoadEps) noexcept {
  return std::fabs(a - b) <= eps;
}

/// floor(log2(x)) for x >= 1, computed on the exact double representation.
[[nodiscard]] inline int floor_log2(double x) noexcept {
  assert(x >= 1.0);
  int exp = 0;
  const double frac = std::frexp(x, &exp);  // x = frac * 2^exp, frac in [0.5,1)
  (void)frac;
  return exp - 1;
}

/// Smallest i with 2^i >= x, for x >= 1.
[[nodiscard]] inline int ceil_log2(double x) noexcept {
  assert(x >= 1.0);
  const int f = floor_log2(x);
  return std::ldexp(1.0, f) == x ? f : f + 1;
}

/// floor(log2(n)) for integral n >= 1.
[[nodiscard]] inline int floor_log2_u64(std::uint64_t n) noexcept {
  assert(n >= 1);
  return 63 - std::countl_zero(n);
}

/// True when n is a power of two (n >= 1).
[[nodiscard]] inline bool is_power_of_two(std::uint64_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Number of trailing zero bits of n (n >= 1).
[[nodiscard]] inline int trailing_zeros(std::uint64_t n) noexcept {
  assert(n >= 1);
  return std::countr_zero(n);
}

/// 2^i as a double (i may be negative).
[[nodiscard]] inline double pow2(int i) noexcept { return std::ldexp(1.0, i); }

/// True when t is an integer multiple of 2^i (t >= 0, dyadic t).
[[nodiscard]] inline bool is_multiple_of_pow2(Time t, int i) noexcept {
  const double q = t / pow2(i);
  return q == std::floor(q);
}

inline constexpr double kInfTime = std::numeric_limits<double>::infinity();

}  // namespace cdbp
