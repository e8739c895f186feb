// Piecewise-constant ("step") functions of time, the calculus behind the
// paper's load profile S_t(sigma) and the OPT bounds of Section 3:
//   d(sigma)        = integral of S_t
//   integral of ceil(S_t)  (repacking lower bound)
//   span(sigma)     = measure of the support of S_t.
//
// Representation: add() appends raw (time, delta) events; the first query
// finalizes them into a flat sorted breakpoint array with prefixed values,
// so at() is an O(log n) binary search and every aggregate (integral,
// ceil_integral, support_measure, max_value) is one cache-friendly pass.
// The first finalization sorts the pending events in place; further add()s
// re-dirty the cache and are merged with the breakpoints, O(n log n)
// amortized over the adds each finalization absorbs. Equal-time deltas
// accumulate in insertion order and breakpoints accumulate in ascending
// time order, matching the former std::map-based implementation bit for
// bit.
//
// The lazy cache makes const queries non-reentrant: do not query one
// instance from multiple threads while it has pending adds (call
// finalize() first to make subsequent const queries safe to share).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "core/time_types.h"

namespace cdbp {

/// A right-open piecewise-constant function R -> R built from interval
/// increments. Value is 0 outside all added intervals.
class StepFunction {
 public:
  StepFunction() = default;

  /// Adds `value` over [from, to). No-op when from >= to.
  void add(Time from, Time to, double value);

  /// Merges pending adds into the sorted representation. Called
  /// automatically by every query; exposed so a fully built function can
  /// be made safe for shared concurrent reads.
  void finalize() const;

  /// Point evaluation (right-continuous: the value on [t_k, t_{k+1}) is
  /// returned for every t in that window, including the breakpoint t_k
  /// itself — a breakpoint's delta is part of the value *at* it).
  [[nodiscard]] double at(Time t) const;

  /// Integral of the function over all time.
  [[nodiscard]] double integral() const;

  /// Integral of ceil(max(f, 0)) over all time; a tolerance is applied so
  /// values within kLoadEps below an integer do not spill to the next one.
  [[nodiscard]] double ceil_integral() const;

  /// Maximum value attained (0 if empty).
  [[nodiscard]] double max_value() const;

  /// Measure of { t : f(t) > eps }.
  [[nodiscard]] double support_measure(double eps = kLoadEps) const;

  /// Returns the function as (time, value) samples: the value on
  /// [time_k, time_{k+1}). The last sample has value 0.
  struct Sample {
    Time time;
    double value;
  };
  [[nodiscard]] std::vector<Sample> samples() const;

 private:
  // Events not yet merged, in insertion order.
  mutable std::vector<std::pair<Time, double>> pending_;
  // Finalized: times_ sorted unique; deltas_[k] the summed increment at
  // times_[k]; values_[k] the value on [times_[k], times_[k+1]).
  mutable std::vector<Time> times_;
  mutable std::vector<double> deltas_;
  mutable std::vector<double> values_;
};

}  // namespace cdbp
