// Reference implementations of the OPT routines in src/opt: the original
// engines, kept verbatim as equivalence oracles for the tests and the E17
// before/after benchmark. Each returns bit for bit what its src/opt twin
// returns (checked by the PipelineEquivalence suite), by a slower path.
#pragma once

#include <optional>
#include <vector>

#include "core/instance.h"
#include "opt/exact.h"
#include "opt/exact_repacking.h"
#include "opt/local_search.h"
#include "opt/offline_ffd.h"

namespace cdbp::oracles {

/// opt::exact_opt_nonrepacking by the original branch and bound: O(m^2)
/// capacity probes, no lookahead bound, the historical greedy seed.
/// Returns nullopt above options.max_items or at the node limit, and an
/// empty result for an empty instance.
[[nodiscard]] std::optional<opt::ExactResult> exact_opt_nonrepacking_reference(
    const Instance& instance, const opt::ExactOptions& options = {});

/// opt::exact_opt_repacking by the original sequential event sweep
/// (exact-double std::map memo, solve-on-first-use). Ignores
/// options.threads and options.cache.
[[nodiscard]] std::optional<opt::ExactRepackingResult>
exact_opt_repacking_reference(const Instance& instance,
                              const opt::ExactRepackingOptions& options = {});

/// opt::offline_ffd_by_length with per-probe StepFunction copies.
[[nodiscard]] opt::OfflineResult offline_ffd_by_length_reference(
    const Instance& instance);

/// opt::improve_packing with spans recomputed from fresh StepFunctions.
/// Throws std::invalid_argument if the seed is malformed or infeasible.
[[nodiscard]] opt::LocalSearchResult improve_packing_reference(
    const Instance& instance, const std::vector<int>& seed_assignment,
    const opt::LocalSearchOptions& options = {});

/// opt::local_search_opt_nr seeded with offline_ffd_by_length_reference.
[[nodiscard]] opt::LocalSearchResult local_search_opt_nr_reference(
    const Instance& instance, const opt::LocalSearchOptions& options = {});

}  // namespace cdbp::oracles
