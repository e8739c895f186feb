// Statistics helpers for bench_suite: exact percentiles over raw samples,
// the highest percentile a sample supports, the backlog-growth test behind
// the sustained-rate rule, and the rate bisection that applies it.
//
// Everything here is exact — samples are sorted, never bucketed — so a
// reported p99 is one of the measured values, not a histogram edge. The
// bench keeps its own statistics rather than the library's, so a change to
// the program under test cannot change how it is measured.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace cdbp::bench_suite {

/// Nearest-rank percentile (p in [0, 100]) of an ascending-sorted sample:
/// the smallest value with at least p% of the sample at or below it.
/// Returns 0 for an empty sample.
template <typename T>
[[nodiscard]] double percentile_sorted(const std::vector<T>& sorted,
                                       double p) {
  if (sorted.empty()) return 0.0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(clamped / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

/// percentile_sorted on a sorted copy.
template <typename T>
[[nodiscard]] double percentile(std::vector<T> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, p);
}

/// Median with the usual even-count midpoint rule (used for "median over
/// reps", where the count is small and the midpoint is the fair summary).
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99, 99.999
/// with at least `min_tail` samples strictly beyond it in a sample of `n`;
/// 0 when even the median lacks that support.
[[nodiscard]] inline double supportable_percentile(std::size_t n,
                                                   std::size_t min_tail = 10) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    const double beyond = static_cast<double>(n) * (1.0 - p / 100.0);
    if (beyond + 1e-9 >= static_cast<double>(min_tail)) best = p;
  }
  return best;
}

/// No growing backlog: acks completed during the second half of an
/// open-loop phase kept up with the offers scheduled in that half, to
/// within `min_fraction`. A server that falls behind acks at its own
/// (lower) rate while the schedule keeps arriving, so the ratio drops.
[[nodiscard]] inline bool backlog_ok(std::uint64_t offered_second_half,
                                     std::uint64_t acked_second_half,
                                     double min_fraction = 0.99) {
  if (offered_second_half == 0) return false;
  return static_cast<double>(acked_second_half) >=
         min_fraction * static_cast<double>(offered_second_half);
}

struct BisectResult {
  /// Highest probed rate that passed; 0 when none did.
  double best = 0.0;
  std::vector<std::pair<double, bool>> probes;  ///< (rate, passed) in order
};

/// Bisects [lo, hi] for the highest rate `pass` accepts, spending exactly
/// `probes` probes. `lo` is assumed to pass and is not probed; each probe
/// tests the midpoint and keeps the half that still brackets the boundary.
[[nodiscard]] inline BisectResult bisect_max_rate(
    double lo, double hi, int probes,
    const std::function<bool(double)>& pass) {
  BisectResult r;
  for (int i = 0; i < probes; ++i) {
    const double mid = 0.5 * (lo + hi);
    const bool ok = pass(mid);
    r.probes.emplace_back(mid, ok);
    if (ok) {
      r.best = std::max(r.best, mid);
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return r;
}

}  // namespace cdbp::bench_suite
