// Offline local search over non-repacking packings: start from any
// feasible assignment (default: FFD-by-length) and greedily relocate items
// between bins while the total usage time strictly decreases. The result
// is a feasible packing, so its cost is a tighter certified upper bound on
// OPT_NR than the seed — used wherever ratio denominators matter.
//
// Span deltas and capacity probes are answered from BinProfile envelopes
// (opt/load_envelope.h) in O(log m). The historical full-rebuild
// StepFunction scans are the equivalence oracle in tests/oracles
// (oracles::improve_packing_reference, local_search_opt_nr_reference).
#pragma once

#include <cstddef>
#include <vector>

#include "core/instance.h"

namespace cdbp::opt {

struct LocalSearchResult {
  Cost cost = 0.0;
  std::vector<int> assignment;  ///< item index -> bin index (compacted)
  std::size_t moves = 0;        ///< accepted relocations
  std::size_t rounds = 0;       ///< full passes over the items
};

struct LocalSearchOptions {
  std::size_t max_rounds = 16;   ///< full improvement passes
  std::size_t max_moves = 5000;  ///< accepted-move budget
};

/// Improves `seed_assignment` (item -> bin; -1 entries are invalid) by
/// single-item relocations. Throws std::invalid_argument if the seed is
/// infeasible.
[[nodiscard]] LocalSearchResult improve_packing(
    const Instance& instance, const std::vector<int>& seed_assignment,
    const LocalSearchOptions& options = {});

/// Convenience: seed with offline FFD-by-length, then improve.
[[nodiscard]] LocalSearchResult local_search_opt_nr(
    const Instance& instance, const LocalSearchOptions& options = {});

}  // namespace cdbp::opt
