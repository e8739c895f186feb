#include "opt/local_search.h"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "opt/load_envelope.h"
#include "opt/offline_ffd.h"

namespace cdbp::opt {

namespace {

/// Single-item relocations. Span deltas come from BinProfile measure
/// queries instead of full profile rebuilds — removing k shrinks its bin's
/// span by exactly the time k is the only member, inserting it grows the
/// target by exactly the time the target is idle inside I(k).
LocalSearchResult improve_envelope(const std::vector<Item>& items,
                                   std::vector<BinProfile> bins,
                                   std::vector<int> assignment,
                                   const LocalSearchOptions& options) {
  LocalSearchResult result;

  bool improved = true;
  while (improved && result.rounds < options.max_rounds &&
         result.moves < options.max_moves) {
    improved = false;
    ++result.rounds;
    for (std::size_t k = 0; k < items.size(); ++k) {
      const auto from = static_cast<std::size_t>(assignment[k]);
      const Item& item = items[k];
      // Removing k frees exactly the instants where it was alone.
      const double gain =
          bins[from].one_measure(item.arrival, item.departure);
      bins[from].remove(k);

      std::size_t best_to = from;
      double best_delta = gain;  // back home restores what removal freed
      for (std::size_t to = 0; to < bins.size(); ++to) {
        if (to == from) continue;
        if (!bins[to].fits(item)) continue;
        const double delta =
            bins[to].zero_measure(item.arrival, item.departure);
        if (delta < best_delta - 1e-9) {
          best_delta = delta;
          best_to = to;
        }
      }
      bins[best_to].add(k);
      assignment[k] = static_cast<int>(best_to);
      if (best_to != from && best_delta < gain - 1e-12) {
        ++result.moves;
        improved = true;
        if (result.moves >= options.max_moves) break;
      }
    }
    std::vector<BinProfile> kept;
    std::vector<int> remap(bins.size(), -1);
    for (std::size_t b = 0; b < bins.size(); ++b) {
      if (bins[b].empty()) continue;
      remap[b] = static_cast<int>(kept.size());
      kept.push_back(std::move(bins[b]));
    }
    bins = std::move(kept);
    for (std::size_t k = 0; k < items.size(); ++k)
      assignment[k] = remap[static_cast<std::size_t>(assignment[k])];
  }

  result.assignment = assignment;
  result.cost = 0.0;
  for (std::size_t b = 0; b < bins.size(); ++b) result.cost += bins[b].span();
  return result;
}

}  // namespace

LocalSearchResult improve_packing(const Instance& instance,
                                  const std::vector<int>& seed_assignment,
                                  const LocalSearchOptions& options) {
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

  std::vector<BinProfile> bins;
  bins.reserve(groups.size());
  for (auto& g : groups) {
    bins.emplace_back(&items);
    bins.back().members() = std::move(g);
  }
  for (const BinProfile& bin : bins)
    if (bin.max_load() > kBinCapacity + 2 * kLoadEps)
      throw std::invalid_argument("improve_packing: infeasible seed");
  return improve_envelope(items, std::move(bins), std::move(assignment),
                          options);
}

LocalSearchResult local_search_opt_nr(const Instance& instance,
                                      const LocalSearchOptions& options) {
  const OfflineResult seed = offline_ffd_by_length(instance);
  return improve_packing(instance, seed.assignment, options);
}

}  // namespace cdbp::opt
