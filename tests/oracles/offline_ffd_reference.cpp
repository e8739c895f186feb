#include "oracles/opt_reference.h"

#include <algorithm>
#include <numeric>

#include "core/step_function.h"

namespace cdbp::oracles {

namespace {

/// Reference bin: per-probe StepFunction copies (the historical engine).
struct OfflineBin {
  StepFunction load;
  Time lo = kInfTime, hi = -kInfTime;
  std::vector<std::size_t> members;

  [[nodiscard]] bool fits(const Item& r) const {
    // Max load over I(r): conservative check via the step function.
    // Break the check early using the bin's own breakpoints.
    StepFunction probe = load;
    probe.add(r.arrival, r.departure, r.size);
    return probe.max_value() <= kBinCapacity + kLoadEps;
  }

  void add(const Item& r, std::size_t index) {
    load.add(r.arrival, r.departure, r.size);
    lo = std::min(lo, r.arrival);
    hi = std::max(hi, r.departure);
    members.push_back(index);
  }

  [[nodiscard]] Cost span(const std::vector<Item>& items) const {
    StepFunction s;
    for (std::size_t m : members) {
      const Item& x = items[m];
      s.add(x.arrival, x.departure, 1.0);
    }
    return s.support_measure(0.5);
  }
};

/// The FFD order of opt/offline_ffd.cpp: length descending, then arrival,
/// then index.
std::vector<std::size_t> ffd_order(const std::vector<Item>& items) {
  std::vector<std::size_t> order(items.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (items[a].length() != items[b].length())
      return items[a].length() > items[b].length();
    if (items[a].arrival != items[b].arrival)
      return items[a].arrival < items[b].arrival;
    return a < b;
  });
  return order;
}

opt::OfflineResult ffd_reference(const std::vector<Item>& items,
                                 const std::vector<std::size_t>& order) {
  std::vector<OfflineBin> bins;
  opt::OfflineResult result;
  result.assignment.assign(items.size(), -1);
  for (std::size_t idx : order) {
    const Item& r = items[idx];
    bool placed = false;
    for (std::size_t b = 0; b < bins.size() && !placed; ++b)
      if (bins[b].fits(r)) {
        bins[b].add(r, idx);
        result.assignment[idx] = static_cast<int>(b);
        placed = true;
      }
    if (!placed) {
      bins.emplace_back();
      bins.back().add(r, idx);
      result.assignment[idx] = static_cast<int>(bins.size()) - 1;
    }
  }
  result.bins = bins.size();
  for (const OfflineBin& b : bins) result.cost += b.span(items);
  return result;
}

}  // namespace

opt::OfflineResult offline_ffd_by_length_reference(const Instance& instance) {
  const std::vector<Item>& items = instance.items();
  return ffd_reference(items, ffd_order(items));
}

}  // namespace cdbp::oracles
