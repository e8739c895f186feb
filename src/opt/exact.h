// Exact OPT_NR (offline, non-repacking optimum) by branch-and-bound over
// set partitions of the items into capacity-feasible bins, minimizing the
// summed bin spans. Exponential (Bell-number) search, but with an
// admissible lookahead bound it certifies instances up to the ~18-item
// default (the pre-optimization ceiling was ~13).
//
// The search takes three invariants-driven shortcuts, none of which can
// change the optimum or the reported assignment (every pruned subtree
// provably contains no improving leaf, so the incumbent-update sequence is
// the plain search's):
//   * items are placed in arrival order, so a bin's load on
//     [r.arrival, inf) is non-increasing — the capacity probe collapses to
//     one lookup at r.arrival, answered in O(log m) from a
//     departure-sorted member array with suffix load sums;
//   * an admissible node bound: any completion must still cover the part
//     of the remaining items' interval union that no current bin span
//     covers, so cost + uncovered-measure is a valid lower bound on every
//     descendant leaf (suffix unions are precomputed once);
//   * a global floor: once the incumbent is within tolerance of
//     compute_bounds().lower(), no strict improvement can exist and the
//     search stops.
//
// The original search without these shortcuts is the equivalence oracle,
// oracles::exact_opt_nonrepacking_reference in tests/oracles.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/instance.h"

namespace cdbp::opt {

struct ExactResult {
  Cost cost = 0.0;
  std::vector<int> assignment;  ///< item index -> bin index (0-based)
  std::size_t nodes_explored = 0;
};

struct ExactOptions {
  std::size_t max_items = 18;            ///< refuse larger instances
  std::size_t node_limit = 200'000'000;  ///< safety valve
};

/// Computes OPT_NR exactly. Returns nullopt if the instance exceeds
/// max_items or the node limit is hit (never silently approximates).
[[nodiscard]] std::optional<ExactResult> exact_opt_nonrepacking(
    const Instance& instance, const ExactOptions& options = {});

/// First-fit by arrival with the span-overlap guard: an item only joins a
/// bin whose current span its interval touches (otherwise the telescoped
/// span accounting would bill the gap between them — the historical seed
/// skipped the guard and could overstate its own cost). The returned cost
/// is therefore exactly the summed support measure of the produced bins —
/// the incumbent the search starts from (the reference search in
/// tests/oracles keeps the historical seed, verbatim).
struct GreedySeed {
  Cost cost = 0.0;
  std::vector<int> assignment;
};
[[nodiscard]] GreedySeed greedy_nonrepacking_seed(const Instance& instance);

}  // namespace cdbp::opt
