// Event-driven replay of an Instance through an online Algorithm.
//
// Event semantics follow the paper exactly:
//  * at every time t, departures are processed first (the paper's t^-),
//    then arrivals (t^+);
//  * arrivals sharing a time are presented in the Instance's order, one at
//    a time (Def. 2.1: "each item must be handled before the next arrives").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/algorithm.h"
#include "core/instance.h"
#include "core/item_source.h"
#include "core/ledger.h"

namespace cdbp {

/// The outcome of a complete run.
struct RunResult {
  Cost cost = 0.0;              ///< MinUsageTime: sum of bin spans
  std::size_t bins_opened = 0;  ///< total bins ever opened
  std::size_t max_open = 0;     ///< peak simultaneously-open bins
  std::size_t items = 0;        ///< items replayed
  /// Item -> bin: entry i is the bin of item i (ids are arrival order).
  /// The run's only record of which items each bin held (see
  /// items_by_bin).
  std::vector<BinId> placements;
  std::vector<BinRecord> bins;  ///< every bin's life, indexed by id
};

/// RunResult::placements grouped by bin, each group in placement order:
/// bin b's items are items[offsets[b] .. offsets[b + 1]).
struct ItemsByBin {
  std::vector<std::size_t> offsets;
  std::vector<ItemId> items;
  /// The items placed in `bin`; empty for an id that is no bin of the run.
  [[nodiscard]] std::span<const ItemId> of(BinId bin) const;
};

/// Groups `result.placements` by bin in one pass, leaving out any that
/// names no bin of `result.bins` (validate_run reports those).
[[nodiscard]] ItemsByBin items_by_bin(const RunResult& result);

/// Options controlling a run.
struct SimulatorOptions {
  /// When true (default), record each placement and keep every bin's life
  /// in the result (open_bins_profile(result.bins, ...) derives the
  /// open-bins profile from them). Disable for throughput benchmarks on
  /// multi-million-item instances.
  bool keep_history = true;
  /// Ledger backend; identical costs/placements either way (see ledger.h).
  LedgerStorage storage = LedgerStorage::kReference;
};

class Simulator {
 public:
  explicit Simulator(SimulatorOptions opts = {}) : opts_(opts) {}

  /// Replays `instance` through `algo` (reset() is called first).
  /// Throws std::logic_error if the algorithm misbehaves (returned a bin it
  /// did not place into, skipped a placement, overflowed a bin, ...), or
  /// if the items' ids are not 0, 1, 2, ... in arrival order.
  RunResult run(const Instance& instance, Algorithm& algo) const;

  /// Replays a pull-based item stream (e.g. an on-disk .cdbpi instance)
  /// without materializing it: without history, peak memory is O(open
  /// bins + active items), independent of stream length. Same semantics,
  /// contract checks and results as run().
  RunResult run_source(ItemSource& source, Algorithm& algo) const;

 private:
  SimulatorOptions opts_;
};

/// Convenience wrapper: run and return just the cost.
[[nodiscard]] Cost run_cost(const Instance& instance, Algorithm& algo);

}  // namespace cdbp
