// Flat per-bin load/occupancy envelopes for the offline packing routines.
//
// offline_ffd and local_search used to answer "does item r fit bin b?" by
// copying the bin's StepFunction, adding r, and scanning every breakpoint
// (O(|members| log |members|) per probe), and recomputed full spans the
// same way around every candidate relocation. BinProfile keeps the same
// information in flat arrays rebuilt lazily after mutations:
//
//   * load_max(from, to)  — range max of the summed member sizes, O(1)
//     after rebuild via a sparse table over the StepFunction's samples;
//   * span()              — cached measure of {t : occupancy > 0};
//   * zero_measure/one_measure(from, to) — prefix-summed measures of the
//     instants where *no* member (resp. exactly one member) is active,
//     which turn relocation span deltas into O(log m) lookups: removing an
//     item shrinks the span by one_measure over its interval, inserting it
//     grows the span by zero_measure over its interval.
//
// Occupancy deltas are +/-1.0, so occupancy values and the span arithmetic
// are exact; load values reproduce the StepFunction's accumulation and
// feed the usual kLoadEps-tolerant capacity checks. The StepFunction-copy
// probes survive only as the equivalence oracles in tests/oracles
// (offline_ffd_by_length_reference, improve_packing_reference).
#pragma once

#include <cstddef>
#include <vector>

#include "core/instance.h"
#include "core/step_function.h"

namespace cdbp::opt {

/// Mutable bin contents with lazily rebuilt flat envelopes. Copyable;
/// `items` must outlive the profile.
class BinProfile {
 public:
  BinProfile() = default;
  explicit BinProfile(const std::vector<Item>* items) : items_(items) {}

  void add(std::size_t item_index);
  /// Removes the first occurrence (must be present).
  void remove(std::size_t item_index);

  [[nodiscard]] const std::vector<std::size_t>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] bool empty() const noexcept { return members_.empty(); }
  [[nodiscard]] std::vector<std::size_t>& members() noexcept {
    dirty_ = true;  // caller may mutate
    return members_;
  }

  /// Max of the summed member sizes over [from, to); 0 where nothing is
  /// active. O(1) after rebuild.
  [[nodiscard]] double load_max(Time from, Time to) const;

  /// Capacity probe with the historical semantics: the probe StepFunction's
  /// global max had to stay within capacity, i.e. the load over I(r) plus
  /// s(r) AND the bin's own peak anywhere must both fit. The second clause
  /// only matters for externally supplied (tolerance-slack) seeds.
  [[nodiscard]] bool fits(const Item& r) const {
    return load_max(r.arrival, r.departure) + r.size <=
               kBinCapacity + kLoadEps &&
           max_load() <= kBinCapacity + kLoadEps;
  }

  /// Global max load (feasibility validation).
  [[nodiscard]] double max_load() const;

  /// Measure of {t : at least one member active}. Cached.
  [[nodiscard]] double span() const;

  /// Measure of {t in [from, to) : no member active}. O(log m).
  [[nodiscard]] double zero_measure(Time from, Time to) const;

  /// Measure of {t in [from, to) : exactly one member active}. O(log m).
  [[nodiscard]] double one_measure(Time from, Time to) const;

 private:
  void rebuild() const;

  const std::vector<Item>* items_ = nullptr;
  std::vector<std::size_t> members_;

  // Lazily rebuilt flat state. `times_` holds segment starts; segment k
  // spans [times_[k], times_[k+1]) and the last sample (value 0) closes
  // the coverage, so queries outside [times_.front(), times_.back()) see
  // empty bins.
  mutable bool dirty_ = true;
  mutable std::vector<Time> times_;
  mutable std::vector<double> load_;   ///< summed sizes per segment
  mutable std::vector<double> occ_;    ///< member count per segment (exact)
  mutable std::vector<std::vector<double>> load_sparse_;  ///< range-max table
  mutable std::vector<double> zero_prefix_;  ///< measure{occ == 0} before seg k
  mutable std::vector<double> one_prefix_;   ///< measure{occ == 1} before seg k
  mutable double span_ = 0.0;
  mutable double max_load_ = 0.0;
};

}  // namespace cdbp::opt
