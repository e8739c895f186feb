// An Instance is an ordered multiset of items: the input sigma of the paper.
// Arrival order is significant — items sharing an arrival time are presented
// to the online algorithm in the order they appear here (paper §2 / Def 2.1).
#pragma once

#include <initializer_list>
#include <string>
#include <vector>

#include "core/item.h"
#include "core/step_function.h"
#include "core/time_types.h"

namespace cdbp {

/// The input sequence sigma. Items are stored in presentation order; ids are
/// their indices. Construction validates basic sanity (sizes in (0,1],
/// departure > arrival) and `finalize()` re-sorts by (arrival, insertion
/// order) so the simulator can stream it.
class Instance {
 public:
  Instance() = default;
  explicit Instance(std::vector<Item> items);
  Instance(std::initializer_list<Item> items);

  /// Appends an item; its id is overwritten with its index.
  void add(Time arrival, Time departure, Load size);

  /// Sorts stably by arrival (preserving same-time presentation order) and
  /// reassigns ids to match the final order. Call after the last add().
  void finalize();

  [[nodiscard]] const std::vector<Item>& items() const noexcept {
    return items_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
  [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
  [[nodiscard]] const Item& operator[](std::size_t i) const {
    return items_[i];
  }

  // --- Paper quantities -------------------------------------------------

  /// mu = max/min interval-length ratio (1 for empty/singleton inputs).
  [[nodiscard]] double mu() const;

  /// Shortest / longest item interval length.
  [[nodiscard]] Time min_length() const;
  [[nodiscard]] Time max_length() const;

  /// d(sigma) = sum of size * length.
  [[nodiscard]] double total_demand() const;

  /// span(sigma) = measure of the union of all item intervals. Valid after
  /// finalize() (every constructor and producer calls it): the sweep reads
  /// the items in arrival order, without a copy.
  [[nodiscard]] double span() const;

  /// The load profile S_t(sigma) as a step function.
  [[nodiscard]] StepFunction load_profile() const;

  /// Earliest arrival / latest departure (0 for empty instances).
  [[nodiscard]] Time horizon_start() const;
  [[nodiscard]] Time horizon_end() const;

  /// Maximum number of simultaneously active items.
  [[nodiscard]] std::size_t max_concurrency() const;

  // --- Structural predicates --------------------------------------------

  /// Definition 2.1: every item of duration class i (length in
  /// (2^{i-1}, 2^i], with length exactly 1 forming class 0) arrives at an
  /// integer multiple of 2^i.
  [[nodiscard]] bool is_aligned() const;

  /// True when all arrivals/departures are integers.
  [[nodiscard]] bool has_integer_times() const;

  /// True when the active intervals form one contiguous block (no gap with
  /// zero active items strictly inside the horizon).
  [[nodiscard]] bool is_contiguous() const;

  /// Throws std::invalid_argument with a description when malformed.
  void validate() const;

  /// Human-readable one-line summary.
  [[nodiscard]] std::string summary() const;

 private:
  std::vector<Item> items_;
};

/// Duration class for *aligned-input* bucketing: length in (2^{i-1}, 2^i]
/// with class 0 reserved for length <= 1 (the paper's "(1/2, 1] holds only
/// length-1 items"). Differs from duration_class(), which clamps to >= 1.
[[nodiscard]] int aligned_bucket(Time length);

}  // namespace cdbp
