// Offline non-repacking First-Fit-Decreasing-by-duration — our substitute
// for the Dual Coloring 4-approximation of Ren & Tang (SPAA 2016), which
// Theorem 4.3 uses only to bridge OPT_R and OPT_NR (DESIGN.md §5).
//
// Items are sorted by interval length (descending, ties by arrival then id)
// and packed First-Fit into offline bins; an item fits a bin when at every
// instant of its interval the bin's load stays within capacity. Longest-
// first is the classical O(1)-approximation recipe for busy-time/interval
// packing. The result is a *feasible non-repacking packing*, so its cost is
// a certified upper bound on OPT_NR.
#pragma once

#include <vector>

#include "core/instance.h"

namespace cdbp::opt {

struct OfflineResult {
  Cost cost = 0.0;
  std::size_t bins = 0;
  std::vector<int> assignment;  ///< item id -> bin index
};

/// FFD by duration, see file comment. A probe is O(log |members|) after an
/// amortized rebuild per placement (opt/load_envelope.h); the historical
/// O(n^2 * max-bin-size) StepFunction scans are the equivalence oracle,
/// oracles::offline_ffd_by_length_reference in tests/oracles.
[[nodiscard]] OfflineResult offline_ffd_by_length(const Instance& instance);

/// Best certified upper bound on OPT_R available in this repo:
/// min(repack witness, 2*ceil-integral, 2d + 2span). Also >= LB trivially.
[[nodiscard]] double best_opt_upper_bound(const Instance& instance);

/// Best certified upper bound on OPT_NR (non-repacking): min of
/// offline FFD and exact OPT when small enough.
[[nodiscard]] double best_opt_nr_upper_bound(const Instance& instance);

}  // namespace cdbp::opt
