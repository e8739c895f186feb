// Exact OPT_R — the repacking optimum. Because the model charges only bin
// usage time and allows free repacking at any moment (paper §2), the
// optimum decomposes: between consecutive events the active set is fixed,
// and OPT_R keeps exactly the minimum number of bins that can hold it —
// a classical bin-packing number. Hence
//
//   OPT_R(sigma) = sum over event intervals [t_k, t_{k+1})
//                  of binpacking(active sizes) * (t_{k+1} - t_k),
//
// computable exactly whenever every snapshot is small enough for the
// exact bin-packing solver.
//
// Pipeline (exact_opt_repacking): (1) one sweep collects the *distinct*
// active multisets with their dwell time (opt/snapshot.h — quantized,
// O(1)-incremental hashing, so repeated snapshots cost one hash probe);
// (2) the distinct snapshots are solved longest-dwell first, optionally in
// parallel on a ThreadPool, through the bp_exact kernel with chain hints
// (a neighbouring snapshot's optimum brackets this one's within the event
// delta) and a shared BpCache; (3) a sequential pass integrates the bin
// counts over the interval list in time order — the same accumulation
// order as the sequential reference, so costs agree bit for bit.
//
// The original sequential algorithm (exact-double std::map memo,
// solve-on-first-use) is the equivalence oracle in
// tests/oracles/opt_reference.h.
#pragma once

#include <cstddef>
#include <optional>

#include "core/instance.h"
#include "core/step_function.h"

namespace cdbp::opt {

class BpCache;

struct ExactRepackingResult {
  Cost cost = 0.0;
  /// Multisets solved fresh by this call. Without an external cache this
  /// equals distinct_snapshots; with one it can be smaller. (Historically
  /// this field only counted cache-fresh solves while max_active tracked
  /// every interval — both are now documented and counted explicitly.)
  std::size_t snapshots = 0;
  std::size_t distinct_snapshots = 0;  ///< distinct active multisets seen
  /// Non-empty event intervals whose multiset was already collected
  /// (within this call) or already solved (external cache).
  std::size_t cache_hits = 0;
  /// Largest active set over *all* intervals, cache hits included.
  std::size_t max_active = 0;
  std::size_t bp_nodes = 0;  ///< branch & bound nodes across fresh solves
  StepFunction bins_over_time;  ///< the optimal open-bin count
};

struct ExactRepackingOptions {
  std::size_t max_active = 24;  ///< refuse bigger snapshots
  std::size_t node_limit_per_snapshot = 2'000'000;
  /// Solver threads for the distinct-snapshot phase: 1 = solve on the
  /// calling thread (default, no pool spin-up), 0 = hardware concurrency.
  std::size_t threads = 1;
  /// Optional cross-call transposition cache (thread-safe); results are
  /// exact, so sharing a cache across instances never changes outputs.
  BpCache* cache = nullptr;
};

/// Computes OPT_R exactly, or nullopt if some snapshot exceeds max_active
/// or its bin-packing search hits the node limit.
[[nodiscard]] std::optional<ExactRepackingResult> exact_opt_repacking(
    const Instance& instance, const ExactRepackingOptions& options = {});

}  // namespace cdbp::opt
