#include "oracles/opt_reference.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "core/step_function.h"

namespace cdbp::oracles {

namespace {

/// Reference bin state: members + load profile, span recomputed on demand
/// via fresh StepFunctions (the historical engine).
struct LsBin {
  std::vector<std::size_t> members;

  [[nodiscard]] StepFunction load(const std::vector<Item>& items) const {
    StepFunction f;
    for (std::size_t m : members)
      f.add(items[m].arrival, items[m].departure, items[m].size);
    return f;
  }

  [[nodiscard]] double span(const std::vector<Item>& items) const {
    StepFunction f;
    for (std::size_t m : members)
      f.add(items[m].arrival, items[m].departure, 1.0);
    return f.support_measure(0.5);
  }

  [[nodiscard]] bool fits(const std::vector<Item>& items,
                          const Item& r) const {
    StepFunction f = load(items);
    f.add(r.arrival, r.departure, r.size);
    return f.max_value() <= kBinCapacity + kLoadEps;
  }
};

opt::LocalSearchResult improve_reference(const std::vector<Item>& items,
                                         std::vector<LsBin> bins,
                                         std::vector<int> assignment,
                                         const opt::LocalSearchOptions& options) {
  opt::LocalSearchResult result;
  auto bin_span = [&](std::size_t b) { return bins[b].span(items); };

  bool improved = true;
  while (improved && result.rounds < options.max_rounds &&
         result.moves < options.max_moves) {
    improved = false;
    ++result.rounds;
    for (std::size_t k = 0; k < items.size(); ++k) {
      const auto from = static_cast<std::size_t>(assignment[k]);
      // Cost of removing k from its bin.
      const double span_from_before = bin_span(from);
      auto& from_members = bins[from].members;
      from_members.erase(
          std::find(from_members.begin(), from_members.end(), k));
      const double span_from_after = bin_span(from);
      const double gain = span_from_before - span_from_after;

      // Best target: the bin whose span grows least.
      std::size_t best_to = from;
      double best_delta = span_from_before - span_from_after;  // back home
      for (std::size_t to = 0; to < bins.size(); ++to) {
        if (to == from) continue;
        if (!bins[to].fits(items, items[k])) continue;
        const double before = bin_span(to);
        bins[to].members.push_back(k);
        const double after = bin_span(to);
        bins[to].members.pop_back();
        const double delta = after - before;
        if (delta < best_delta - 1e-9) {
          best_delta = delta;
          best_to = to;
        }
      }
      bins[best_to].members.push_back(k);
      assignment[k] = static_cast<int>(best_to);
      if (best_to != from && best_delta < gain - 1e-12) {
        ++result.moves;
        improved = true;
        if (result.moves >= options.max_moves) break;
      }
    }
    // Drop emptied bins (compact indices).
    std::vector<LsBin> kept;
    std::vector<int> remap(bins.size(), -1);
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bins[b].members.empty()) continue;
      remap[b] = static_cast<int>(kept.size());
      kept.push_back(std::move(bins[b]));
    }
    bins = std::move(kept);
    for (std::size_t k = 0; k < items.size(); ++k)
      assignment[k] = remap[static_cast<std::size_t>(assignment[k])];
  }

  result.assignment = assignment;
  result.cost = 0.0;
  for (std::size_t b = 0; b < bins.size(); ++b) result.cost += bin_span(b);
  return result;
}

}  // namespace

opt::LocalSearchResult improve_packing_reference(
    const Instance& instance, const std::vector<int>& seed_assignment,
    const opt::LocalSearchOptions& options) {
  const std::vector<Item>& items = instance.items();
  if (seed_assignment.size() != items.size())
    throw std::invalid_argument("improve_packing: assignment size mismatch");

  // Build bins from the seed (compacted, first-use order).
  std::map<int, std::vector<std::size_t>> by_id;
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (seed_assignment[k] < 0)
      throw std::invalid_argument("improve_packing: unassigned item");
    by_id[seed_assignment[k]].push_back(k);
  }
  std::vector<std::vector<std::size_t>> groups;
  std::vector<int> assignment(items.size(), -1);
  for (auto& [id, members] : by_id) {
    (void)id;
    for (std::size_t m : members)
      assignment[m] = static_cast<int>(groups.size());
    groups.push_back(std::move(members));
  }

  std::vector<LsBin> bins;
  bins.reserve(groups.size());
  for (auto& g : groups) bins.push_back(LsBin{std::move(g)});
  for (const LsBin& bin : bins)
    if (bin.load(items).max_value() > kBinCapacity + 2 * kLoadEps)
      throw std::invalid_argument("improve_packing: infeasible seed");
  return improve_reference(items, std::move(bins), std::move(assignment),
                           options);
}

opt::LocalSearchResult local_search_opt_nr_reference(
    const Instance& instance, const opt::LocalSearchOptions& options) {
  const opt::OfflineResult seed = offline_ffd_by_length_reference(instance);
  return improve_packing_reference(instance, seed.assignment, options);
}

}  // namespace cdbp::oracles
