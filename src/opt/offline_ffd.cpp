#include "opt/offline_ffd.h"

#include <algorithm>
#include <numeric>

#include "opt/bounds.h"
#include "opt/exact.h"
#include "opt/load_envelope.h"
#include "opt/repack.h"

namespace cdbp::opt {

namespace {

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

OfflineResult ffd_envelope(const std::vector<Item>& items,
                           const std::vector<std::size_t>& order) {
  std::vector<BinProfile> bins;
  OfflineResult result;
  result.assignment.assign(items.size(), -1);
  for (std::size_t idx : order) {
    const Item& r = items[idx];
    bool placed = false;
    for (std::size_t b = 0; b < bins.size() && !placed; ++b)
      if (bins[b].fits(r)) {
        bins[b].add(idx);
        result.assignment[idx] = static_cast<int>(b);
        placed = true;
      }
    if (!placed) {
      bins.emplace_back(&items);
      bins.back().add(idx);
      result.assignment[idx] = static_cast<int>(bins.size()) - 1;
    }
  }
  result.bins = bins.size();
  // Occupancy deltas are exactly +/-1, so BinProfile::span() reproduces
  // the reference support_measure sum bit for bit.
  for (const BinProfile& b : bins) result.cost += b.span();
  return result;
}

}  // namespace

OfflineResult offline_ffd_by_length(const Instance& instance) {
  const std::vector<Item>& items = instance.items();
  return ffd_envelope(items, ffd_order(items));
}

double best_opt_upper_bound(const Instance& instance) {
  const Bounds b = compute_bounds(instance);
  double ub = std::min(b.upper_ceil(), b.upper_linear());
  ub = std::min(ub, repack_witness(instance).cost);
  return ub;
}

double best_opt_nr_upper_bound(const Instance& instance) {
  double ub = offline_ffd_by_length(instance).cost;
  if (instance.size() <= 12)
    if (const auto exact = exact_opt_nonrepacking(instance))
      ub = std::min(ub, exact->cost);
  return ub;
}

}  // namespace cdbp::opt
