#include "opt/exact_repacking.h"

#include <algorithm>
#include <numeric>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "opt/bin_packing.h"
#include "opt/snapshot.h"
#include "parallel/thread_pool.h"

namespace cdbp::opt {

namespace {

#ifndef CDBP_OBS_OFF
struct RepackingMetrics {
  obs::Counter& distinct;
  obs::Counter& hits;
  obs::Counter& nodes;
  obs::Counter& dominance;
  obs::Histogram& collect_us;
  obs::Histogram& solve_us;
  obs::Histogram& integrate_us;
  static RepackingMetrics& get() {
    auto& reg = obs::MetricsRegistry::global();
    static RepackingMetrics m{reg.counter("opt.snapshots_distinct"),
                              reg.counter("opt.snapshot_cache_hits"),
                              reg.counter("opt.bp_nodes"),
                              reg.counter("opt.bp_dominance_hits"),
                              reg.histogram("opt.repacking_collect_us"),
                              reg.histogram("opt.repacking_solve_us"),
                              reg.histogram("opt.repacking_integrate_us")};
    return m;
  }
};
#endif

/// One solve of a distinct snapshot: chain hints from the neighbouring
/// snapshot (if its value is already in the cache) bracket the optimum
/// within the event delta; hints only shrink the search, never the result.
std::optional<int> solve_snapshot(const Snapshot& snap,
                                  const std::vector<Snapshot>& all,
                                  BpCache& cache, std::size_t node_limit,
                                  BpStats* stats) {
  BinPackingOptions opts;
  opts.node_limit = node_limit;
  opts.cache = &cache;
  opts.stats = stats;
  if (snap.prev >= 0 && snap.delta != SnapshotDelta::kMixed &&
      snap.delta != SnapshotDelta::kNone) {
    if (const auto v =
            cache.lookup(all[static_cast<std::size_t>(snap.prev)].key)) {
      const int d = static_cast<int>(snap.delta_count);
      if (snap.delta == SnapshotDelta::kArrivals) {
        // Superset of prev: opt in [v, v + d].
        opts.known_lower = *v;
        opts.incumbent = *v + d;
      } else {
        // Subset of prev: opt in [v - d, v].
        opts.known_lower = std::max(0, *v - d);
        opts.incumbent = *v;
      }
    }
  }
  return bp_exact(snap.sizes, opts);
}

}  // namespace

std::optional<ExactRepackingResult> exact_opt_repacking(
    const Instance& instance, const ExactRepackingOptions& options) {
#ifndef CDBP_OBS_OFF
  auto& metrics = RepackingMetrics::get();
#endif

  // ---- Phase 1: collect distinct snapshots -----------------------------
  std::optional<SnapshotSweep> sweep;
  {
#ifndef CDBP_OBS_OFF
    obs::ScopedTimer timer(metrics.collect_us);
#endif
    sweep = collect_snapshots(instance, options.max_active);
  }
  if (!sweep) return std::nullopt;

  ExactRepackingResult result;
  result.distinct_snapshots = sweep->snapshots.size();
  result.cache_hits = sweep->cache_hits;
  result.max_active = sweep->max_active;

  // ---- Phase 2: solve distinct snapshots, longest dwell first ----------
  BpCache local_cache;
  BpCache& cache = options.cache ? *options.cache : local_cache;
  std::vector<std::size_t> order(sweep->snapshots.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Snapshot& sa = sweep->snapshots[a];
    const Snapshot& sb = sweep->snapshots[b];
    if (sa.dwell != sb.dwell) return sa.dwell > sb.dwell;
    return a < b;
  });

  std::vector<int> solved(sweep->snapshots.size(), -1);
  {
#ifndef CDBP_OBS_OFF
    obs::ScopedTimer timer(metrics.solve_us);
#endif
    const std::size_t threads =
        options.threads == 0
            ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
            : options.threads;
    struct Outcome {
      std::optional<int> value;
      BpStats stats;
    };
    std::vector<Outcome> outcomes;
    if (threads <= 1 || order.size() <= 1) {
      outcomes.resize(order.size());
      for (std::size_t rank = 0; rank < order.size(); ++rank) {
        const Snapshot& snap = sweep->snapshots[order[rank]];
        outcomes[rank].value =
            solve_snapshot(snap, sweep->snapshots, cache,
                           options.node_limit_per_snapshot,
                           &outcomes[rank].stats);
      }
    } else {
      parallel::ThreadPool pool(threads);
      outcomes = parallel::parallel_map<Outcome>(
          pool, order.size(), [&](std::size_t rank) {
            Outcome out;
            const Snapshot& snap = sweep->snapshots[order[rank]];
            out.value = solve_snapshot(snap, sweep->snapshots, cache,
                                       options.node_limit_per_snapshot,
                                       &out.stats);
            return out;
          });
    }
    // Sequential mop-up: a snapshot that hit the node limit gets one retry
    // with the now fully-populated cache (maximal chain hints) — node
    // budgets go where the integral weight is, the stragglers inherit the
    // tightest brackets.
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      Outcome& out = outcomes[rank];
      if (!out.value) {
        const Snapshot& snap = sweep->snapshots[order[rank]];
        out.stats = BpStats{};
        out.value = solve_snapshot(snap, sweep->snapshots, cache,
                                   options.node_limit_per_snapshot,
                                   &out.stats);
      }
      if (!out.value) return std::nullopt;
      solved[order[rank]] = *out.value;
      if (!out.stats.from_cache) ++result.snapshots;
      result.bp_nodes += out.stats.nodes;
      if (out.stats.from_cache) ++result.cache_hits;
#ifndef CDBP_OBS_OFF
      if (out.stats.dominance_hit) metrics.dominance.add();
#endif
    }
  }

  // ---- Phase 3: integrate in time order (reference accumulation order) --
  {
#ifndef CDBP_OBS_OFF
    obs::ScopedTimer timer(metrics.integrate_us);
#endif
    for (const SnapshotSweep::Interval& iv : sweep->intervals) {
      const int bins = solved[iv.snapshot];
      result.cost += static_cast<double>(bins) * (iv.to - iv.from);
      result.bins_over_time.add(iv.from, iv.to, static_cast<double>(bins));
    }
  }

#ifndef CDBP_OBS_OFF
  metrics.distinct.add(result.distinct_snapshots);
  metrics.hits.add(result.cache_hits);
  metrics.nodes.add(result.bp_nodes);
#endif
  return result;
}

}  // namespace cdbp::opt
