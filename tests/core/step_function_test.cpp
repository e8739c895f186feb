#include "core/step_function.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cdbp {
namespace {

::testing::AssertionResult same_bits(double got, double want) {
  if (std::bit_cast<std::uint64_t>(got) == std::bit_cast<std::uint64_t>(want))
    return ::testing::AssertionSuccess();
  std::ostringstream os;
  os << std::setprecision(17) << got << " vs map " << want;
  return ::testing::AssertionFailure() << os.str();
}

/// The representation StepFunction's header says it matches: one map entry
/// per breakpoint, each delta summed into it in insertion order, values
/// summed in ascending time order.
class MapStep {
 public:
  void add(Time from, Time to, double value) {
    if (!(from < to) || value == 0.0) return;
    deltas_[from] += value;
    deltas_[to] += -value;
  }

  [[nodiscard]] std::vector<StepFunction::Sample> samples() const {
    std::vector<StepFunction::Sample> out;
    double value = 0.0;
    for (const auto& [time, delta] : deltas_) {
      value += delta;
      out.push_back({time, value});
    }
    return out;
  }

  [[nodiscard]] double at(Time t) const {
    double value = 0.0;
    for (const StepFunction::Sample& s : samples())
      if (s.time <= t) value = s.value;
    return value;
  }

  [[nodiscard]] double integral() const {
    const auto s = samples();
    double acc = 0.0;
    for (std::size_t k = 1; k < s.size(); ++k)
      acc += s[k - 1].value * (s[k].time - s[k - 1].time);
    return acc;
  }

  [[nodiscard]] double ceil_integral() const {
    const auto s = samples();
    double acc = 0.0;
    for (std::size_t k = 1; k < s.size(); ++k)
      if (s[k - 1].value > kLoadEps)
        acc += std::ceil(s[k - 1].value - kLoadEps) *
               (s[k].time - s[k - 1].time);
    return acc;
  }

  [[nodiscard]] double support_measure() const {
    const auto s = samples();
    double acc = 0.0;
    for (std::size_t k = 1; k < s.size(); ++k)
      if (s[k - 1].value > kLoadEps) acc += s[k].time - s[k - 1].time;
    return acc;
  }

  [[nodiscard]] double max_value() const {
    double best = 0.0;
    for (const StepFunction::Sample& s : samples())
      best = std::max(best, s.value);
    return best;
  }

 private:
  std::map<Time, double> deltas_;
};

/// Every query of `f` against the map reference, bit for bit, at every
/// breakpoint, just left of it, and at a few random points.
void expect_matches(const StepFunction& f, const MapStep& ref,
                    std::mt19937_64& rng) {
  const auto got = f.samples();
  const auto want = ref.samples();
  ASSERT_EQ(got.size(), want.size());
  std::vector<Time> probes;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_TRUE(same_bits(got[k].time, want[k].time)) << "sample " << k;
    EXPECT_TRUE(same_bits(got[k].value, want[k].value)) << "sample " << k;
    probes.push_back(want[k].time);
    probes.push_back(std::nextafter(want[k].time, -kInfTime));
  }
  std::uniform_real_distribution<double> anywhere(-1.0, 21.0);
  for (int i = 0; i < 4; ++i) probes.push_back(anywhere(rng));
  for (const Time t : probes)
    EXPECT_TRUE(same_bits(f.at(t), ref.at(t))) << "at(" << t << ")";
  EXPECT_TRUE(same_bits(f.integral(), ref.integral()));
  EXPECT_TRUE(same_bits(f.ceil_integral(), ref.ceil_integral()));
  EXPECT_TRUE(same_bits(f.support_measure(), ref.support_measure()));
  EXPECT_TRUE(same_bits(f.max_value(), ref.max_value()));
}

TEST(StepFunction, EmptyFunctionIsZeroEverywhere) {
  StepFunction f;
  EXPECT_DOUBLE_EQ(f.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(f.integral(), 0.0);
  EXPECT_DOUBLE_EQ(f.ceil_integral(), 0.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 0.0);
  EXPECT_DOUBLE_EQ(f.support_measure(), 0.0);
  EXPECT_TRUE(f.samples().empty());
}

TEST(StepFunction, SingleIntervalBasics) {
  StepFunction f;
  f.add(1.0, 3.0, 0.5);
  EXPECT_DOUBLE_EQ(f.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(f.at(1.0), 0.5);  // right-continuous
  EXPECT_DOUBLE_EQ(f.at(2.9), 0.5);
  EXPECT_DOUBLE_EQ(f.at(3.0), 0.0);
  EXPECT_DOUBLE_EQ(f.integral(), 1.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 0.5);
  EXPECT_DOUBLE_EQ(f.support_measure(), 2.0);
}

TEST(StepFunction, CeilIntegralRoundsUpFractionalLoads) {
  StepFunction f;
  f.add(0.0, 4.0, 0.25);  // ceil = 1 over 4 time units
  EXPECT_DOUBLE_EQ(f.ceil_integral(), 4.0);
  f.add(1.0, 2.0, 1.0);  // total 1.25 -> ceil 2 over [1,2)
  EXPECT_DOUBLE_EQ(f.ceil_integral(), 3.0 * 1.0 + 1.0 * 2.0);
}

TEST(StepFunction, CeilIntegralToleratesEpsilonBelowInteger) {
  StepFunction f;
  f.add(0.0, 1.0, 1.0 + 0.5 * kLoadEps);  // within tolerance of 1
  EXPECT_DOUBLE_EQ(f.ceil_integral(), 1.0);
}

TEST(StepFunction, OverlappingIntervalsAccumulate) {
  StepFunction f;
  f.add(0.0, 10.0, 0.3);
  f.add(5.0, 15.0, 0.4);
  EXPECT_DOUBLE_EQ(f.at(4.0), 0.3);
  EXPECT_DOUBLE_EQ(f.at(5.0), 0.7);
  EXPECT_DOUBLE_EQ(f.at(12.0), 0.4);
  EXPECT_DOUBLE_EQ(f.integral(), 0.3 * 10 + 0.4 * 10);
  EXPECT_DOUBLE_EQ(f.max_value(), 0.7);
  EXPECT_DOUBLE_EQ(f.support_measure(), 15.0);
}

TEST(StepFunction, NegativeIncrementsSupported) {
  StepFunction f;
  f.add(0.0, 10.0, 1.0);
  f.add(2.0, 4.0, -1.0);
  EXPECT_DOUBLE_EQ(f.at(3.0), 0.0);
  EXPECT_DOUBLE_EQ(f.support_measure(), 8.0);
}

TEST(StepFunction, ZeroLengthAndZeroValueAddsIgnored) {
  StepFunction f;
  f.add(1.0, 1.0, 5.0);
  f.add(2.0, 1.0, 5.0);
  f.add(1.0, 2.0, 0.0);
  EXPECT_TRUE(f.samples().empty());
}

TEST(StepFunction, SamplesReportRightOpenValues) {
  StepFunction f;
  f.add(0.0, 2.0, 1.0);
  f.add(2.0, 3.0, 2.0);
  const auto samples = f.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[0].time, 0.0);
  EXPECT_DOUBLE_EQ(samples[0].value, 1.0);
  EXPECT_DOUBLE_EQ(samples[1].time, 2.0);
  EXPECT_DOUBLE_EQ(samples[1].value, 2.0);
  EXPECT_DOUBLE_EQ(samples[2].time, 3.0);
  EXPECT_DOUBLE_EQ(samples[2].value, 0.0);
}

TEST(StepFunction, AdjacentIntervalsMergeInSupport) {
  StepFunction f;
  f.add(0.0, 1.0, 0.5);
  f.add(1.0, 2.0, 0.5);
  EXPECT_DOUBLE_EQ(f.support_measure(), 2.0);
  EXPECT_DOUBLE_EQ(f.integral(), 1.0);
}

TEST(StepFunction, AtIsRightContinuousAtEveryBreakpoint) {
  // Contract (docs/ALGORITHMS.md): at(t) includes the deltas that fire AT
  // t, i.e. the function is right-continuous — at(t) = lim_{s->t+} f(s).
  // This is the StepFunction-level mirror of the simulator's
  // departures-before-arrivals rule: the value at a boundary is the
  // post-event value.
  StepFunction f;
  f.add(0.0, 2.0, 1.0);
  f.add(2.0, 4.0, 3.0);
  EXPECT_DOUBLE_EQ(f.at(2.0), 3.0);                 // not 1.0, not 4.0
  EXPECT_DOUBLE_EQ(f.at(std::nextafter(2.0, 0.0)), 1.0);  // left limit
  EXPECT_DOUBLE_EQ(f.at(4.0), 0.0);                 // final drop included
  EXPECT_DOUBLE_EQ(f.at(std::nextafter(4.0, 0.0)), 3.0);
  EXPECT_DOUBLE_EQ(f.at(0.0), 1.0);                 // first rise included
  EXPECT_DOUBLE_EQ(f.at(std::nextafter(0.0, -1.0)), 0.0);
}

TEST(StepFunction, CoincidentDeltasCollapseToOneBreakpoint) {
  // Several intervals meeting at the same instant produce ONE breakpoint
  // whose value is the net of all deltas — a query at that instant must
  // never observe a partial sum.
  StepFunction f;
  f.add(0.0, 5.0, 1.0);
  f.add(5.0, 9.0, 2.0);   // -1 and +2 both at t=5
  f.add(5.0, 7.0, 4.0);   // +4 also at t=5
  EXPECT_DOUBLE_EQ(f.at(5.0), 6.0);
  const auto samples = f.samples();
  std::size_t hits = 0;
  for (const auto& s : samples)
    if (s.time == 5.0) ++hits;
  EXPECT_EQ(hits, 1u);
}

TEST(StepFunction, AddAfterQueryReFinalizes) {
  // Queries finalize the lazy event buffer; later add() calls must fold
  // into subsequent queries exactly as if all adds happened up front.
  StepFunction f;
  f.add(0.0, 2.0, 1.0);
  EXPECT_DOUBLE_EQ(f.integral(), 2.0);  // forces finalization
  f.add(1.0, 3.0, 2.0);                 // straddles existing breakpoints
  EXPECT_DOUBLE_EQ(f.at(1.5), 3.0);
  EXPECT_DOUBLE_EQ(f.integral(), 2.0 + 4.0);
  EXPECT_DOUBLE_EQ(f.max_value(), 3.0);
  f.add(0.5, 1.0, -1.0);
  EXPECT_DOUBLE_EQ(f.at(0.75), 0.0);
  EXPECT_DOUBLE_EQ(f.support_measure(), 2.5);
}

TEST(StepFunction, QueryIsLogarithmicNotLinear) {
  // Smoke-check the finalized representation: 200k breakpoints, then many
  // point queries. With the O(n)-per-at() map walk this takes seconds;
  // with binary search it is instant. Keeps the complexity claim honest
  // without a timing assertion.
  StepFunction f;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    f.add(static_cast<double>(i), static_cast<double>(i) + 1.5, 1.0);
  double acc = 0.0;
  for (int q = 0; q < 200000; ++q)
    acc += f.at(static_cast<double>(q % n) + 0.25);
  // Every probed point is covered by 1 or 2 intervals.
  EXPECT_GE(acc, static_cast<double>(n));
  EXPECT_EQ(f.samples().size(), 2u * n);
}

TEST(StepFunction, RandomAddsAndQueriesMatchMapReference) {
  // Rounds of adds on a coarse time grid (so endpoints coincide), some of
  // zero length, some negative, each round followed by every query: round
  // 0's queries sort the adds in place, later rounds' merge new adds into
  // the breakpoints.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> adds(1, 30), grid(0, 80), length(0, 12);
    std::uniform_real_distribution<double> magnitude(0.01, 1.5);
    std::bernoulli_distribution negative(0.3);
    StepFunction f;
    MapStep ref;
    for (int round = 0; round < 4; ++round) {
      for (int n = adds(rng); n > 0; --n) {
        const Time from = grid(rng) * 0.25;
        const Time to = from + length(rng) * 0.25;
        const double value = negative(rng) ? -magnitude(rng) : magnitude(rng);
        f.add(from, to, value);
        ref.add(from, to, value);
      }
      expect_matches(f, ref, rng);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(StepFunction, ManyIntervalsIntegralMatchesClosedForm) {
  StepFunction f;
  double expect = 0.0;
  for (int i = 0; i < 100; ++i) {
    const double a = i * 0.5;
    const double b = a + 2.0;
    f.add(a, b, 0.01 * i);
    expect += 2.0 * 0.01 * i;
  }
  EXPECT_NEAR(f.integral(), expect, 1e-9);
}

}  // namespace
}  // namespace cdbp
