#include "oracles/opt_reference.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "opt/bin_packing.h"

namespace cdbp::oracles {

std::optional<opt::ExactRepackingResult> exact_opt_repacking_reference(
    const Instance& instance, const opt::ExactRepackingOptions& options) {
  // Event sweep with departures-before-arrivals at equal times. Between
  // events the active multiset is constant. Memoized on the exact-double
  // sorted multiset — the pre-pipeline behaviour, kept as the oracle.
  struct Ev {
    Time time;
    bool arrival;
    ItemId item;
  };
  std::vector<Ev> events;
  events.reserve(instance.size() * 2);
  for (const Item& r : instance.items()) {
    events.push_back(Ev{r.arrival, true, r.id});
    events.push_back(Ev{r.departure, false, r.id});
  }
  std::sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.arrival != b.arrival) return !a.arrival;
    return a.item < b.item;
  });

  std::multiset<Load> active;
  std::map<std::vector<Load>, int> cache;
  opt::ExactRepackingResult result;
  const std::vector<Item>& items = instance.items();

  std::size_t e = 0;
  Time prev = events.empty() ? 0.0 : events.front().time;
  while (e < events.size()) {
    const Time t = events[e].time;
    // Account for [prev, t) with the previous active set.
    if (t > prev && !active.empty()) {
      std::vector<Load> sizes(active.begin(), active.end());
      if (sizes.size() > options.max_active) return std::nullopt;
      const auto [it, fresh] = cache.try_emplace(sizes, 0);
      if (fresh) {
        const auto solved = opt::bp_exact(
            sizes, opt::BinPackingOptions{options.node_limit_per_snapshot});
        if (!solved) {
          cache.erase(it);
          return std::nullopt;
        }
        it->second = *solved;
        ++result.snapshots;
        ++result.distinct_snapshots;
      } else {
        ++result.cache_hits;
      }
      result.cost += static_cast<double>(it->second) * (t - prev);
      result.bins_over_time.add(prev, t, static_cast<double>(it->second));
      result.max_active = std::max(result.max_active, sizes.size());
    }
    // Apply all events at time t.
    while (e < events.size() && events[e].time == t) {
      const Item& r = items[static_cast<std::size_t>(events[e].item)];
      if (events[e].arrival) {
        active.insert(r.size);
      } else {
        active.erase(active.find(r.size));
      }
      ++e;
    }
    prev = t;
  }
  return result;
}

}  // namespace cdbp::oracles
