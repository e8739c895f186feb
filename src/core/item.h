// Item model: a request with an active interval [arrival, departure] and a
// size in [0, 1], plus the duration-type arithmetic (i, c) used by the
// paper's Hybrid Algorithm (Section 3) and the sigma -> sigma' reduction.
#pragma once

#include <compare>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/time_types.h"

namespace cdbp {

/// One packing request. `id` is the item's index within its Instance.
struct Item {
  ItemId id = 0;
  Time arrival = 0.0;
  Time departure = 0.0;
  Load size = 0.0;

  /// Interval length l(I(r)).
  [[nodiscard]] Time length() const noexcept { return departure - arrival; }

  /// Space-time demand s(r) * l(I(r)).
  [[nodiscard]] double demand() const noexcept { return size * length(); }

  /// True when the item is active at time t (closed interval per the paper).
  [[nodiscard]] bool active_at(Time t) const noexcept {
    return arrival <= t && t <= departure;
  }

  /// True when the two items' intervals intersect in more than a point.
  [[nodiscard]] bool overlaps(const Item& o) const noexcept {
    return arrival < o.departure && o.arrival < departure;
  }

  friend bool operator==(const Item&, const Item&) = default;
};

/// The duration/phase type T = (i, c) from Section 3: l(I(r)) in
/// (2^{i-1}, 2^i] and arrival in ((c-1)*2^i, c*2^i]. For a fixed i at most
/// two values of c can be alive at any moment.
struct DurationType {
  int i = 1;           ///< duration class, >= 1
  std::int64_t c = 0;  ///< phase index within classes of width 2^i

  friend bool operator==(const DurationType&, const DurationType&) = default;
  friend auto operator<=>(const DurationType&, const DurationType&) = default;

  [[nodiscard]] std::string to_string() const {
    std::string out = "(";
    out.append(std::to_string(i)).append(",").append(std::to_string(c));
    out += ')';
    return out;
  }
};

/// Duration class of a length: smallest i >= 1 with length <= 2^i.
/// The paper assumes min length >= 1 and i in {1..log mu}; lengths in [1, 2]
/// map to i = 1 (documented deviation for length exactly 1, DESIGN.md §2).
[[nodiscard]] inline int duration_class(Time length) {
  if (length <= 0.0) throw std::invalid_argument("duration_class: length <= 0");
  // Tolerate round-off: (arrival + 1.0) - arrival can fall one ulp below 1.
  if (length < 1.0 - kTimeEps)
    throw std::invalid_argument(
        "duration_class: length < 1 (normalize the instance so the shortest "
        "item has length >= 1)");
  if (length <= 2.0) return 1;
  return ceil_log2(length);
}

/// Phase index: the c with arrival in ((c-1)*2^i, c*2^i]; c = 0 iff
/// arrival == 0 (arrival must be >= 0).
[[nodiscard]] inline std::int64_t phase_index(Time arrival, int i) {
  if (arrival < 0.0) throw std::invalid_argument("phase_index: arrival < 0");
  const double w = pow2(i);
  return static_cast<std::int64_t>(std::ceil(arrival / w));
}

/// Full Section-3 type of an item.
[[nodiscard]] inline DurationType duration_type(const Item& r) {
  const int i = duration_class(r.length());
  return DurationType{i, phase_index(r.arrival, i)};
}

}  // namespace cdbp

// Hash support so algorithms can key unordered maps by type.
template <>
struct std::hash<cdbp::DurationType> {
  std::size_t operator()(const cdbp::DurationType& t) const noexcept {
    const std::uint64_t a = static_cast<std::uint64_t>(t.i);
    const std::uint64_t b = static_cast<std::uint64_t>(t.c);
    return std::hash<std::uint64_t>{}(a * 0x9e3779b97f4a7c15ULL ^ b);
  }
};
