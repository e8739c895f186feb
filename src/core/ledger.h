// The bin ledger: ground truth for every packing run. Algorithms open bins
// and place items through it; it enforces the capacity invariant, tracks
// open/close times, and accumulates the MinUsageTime cost
//   sum over bins of (close_time - open_time).
// Bins close automatically when their last item departs and are never
// reused (w.l.o.g. per paper §2). Its surface is what the paper's
// algorithms need: open a bin, place and remove items, pick a fitting bin
// within a selection pool, and the cost; plus per-bin probes, live
// counters, records() for reports, and checkpoints.
//
// Two storage backends sit behind one API (see docs/ALGORITHMS.md):
//
//  * LedgerStorage::kReference — the original layout: one BinRecord struct
//    per bin ever opened plus a node-based hash map of active items. Kept
//    as the bit-identical oracle the equivalence tests compare against.
//  * LedgerStorage::kSoa — structure-of-arrays over *open* bins only: each
//    open bin's group/opened/load/count/pool/slot state sits in one row of
//    flat columns, found through a flat BinId -> row map; a closed bin's
//    row is reused by the next bin opened, and a pool's capacity index is
//    released with its last open bin. Active items live in a flat
//    open-addressing map (core/flat_map.h). Memory is O(open bins + active
//    items), however many bins were ever opened — what lets a streamed
//    1e7-item run and a long-lived serve shard stay small. With item
//    tracking on, each bin's group and open/close times are also appended
//    to a bin-life log (O(bins ever opened)), which records() reads.
//
// Neither layout records which items a bin held: the simulator logs each
// placement once, in RunResult::placements.
//
// Both backends execute the same floating-point operations in the same
// order, so costs, loads, and serialized checkpoints are bit-identical —
// locked in by the StorageEquivalence test matrix.
#pragma once

#include <cstdint>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/bin_index.h"
#include "core/checkpoint.h"
#include "core/flat_map.h"
#include "core/item.h"
#include "core/step_function.h"
#include "core/time_types.h"

namespace cdbp {

/// Algorithm-defined bin grouping (e.g. HA's GN vs CD bins, CDFF's rows).
/// Group 0 is the default; the ledger only stores it for queries/reporting.
using BinGroup = std::int64_t;

/// Key of the capacity index a bin is selectable from (see first_fit &c.).
/// Defaults to the bin's group; algorithms that need finer selection pools
/// than their reporting groups (HA's per-type CD bins) pass one explicitly.
using PoolId = std::int64_t;

/// Which in-memory layout a Ledger uses. Same API, same bit-exact results.
enum class LedgerStorage : std::uint8_t {
  kReference,  ///< original AoS layout; the equivalence oracle
  kSoa,        ///< flat columns + flat active-item map; the fast data plane
};

[[nodiscard]] const char* to_string(LedgerStorage storage) noexcept;

/// Immutable record of one bin's life, available after (or during) a run.
/// The items it held are not kept here; RunResult::placements lists them.
struct BinRecord {
  BinId id = kNoBin;
  BinGroup group = 0;
  Time opened = 0.0;
  Time closed = kInfTime;  ///< +inf while still open
  Load load = 0.0;         ///< current load (last load before closing)
  std::size_t active_items = 0;

  [[nodiscard]] bool is_open() const noexcept { return closed == kInfTime; }
  [[nodiscard]] Cost usage(Time now) const noexcept {
    return (is_open() ? now : closed) - opened;
  }
};

/// Step function: number of open bins over time, from records() (bins
/// still open are cut off at `now`).
[[nodiscard]] StepFunction open_bins_profile(const std::vector<BinRecord>& bins,
                                             Time now);

/// See file comment. All mutators take the current simulation time, which
/// must be non-decreasing across calls (enforced).
class Ledger {
 public:
  Ledger() = default;

  /// `track_items` decides only whether the SoA layout keeps closed bins'
  /// lives, so that records() can report them; the reference layout keeps
  /// every bin's record either way, and neither logs placements. Off is
  /// throughput mode for multi-million-item runs and long-lived sessions
  /// that only need costs and live state.
  explicit Ledger(LedgerStorage storage, bool track_items = true)
      : storage_(storage), track_items_(track_items) {}

  /// Opens a new bin; returns its id (ids are dense and increase with time,
  /// so ascending id order == opening order, as First-Fit requires). The
  /// bin joins selection pool `group`.
  BinId open_bin(Time now, BinGroup group = 0);

  /// Opens a new bin in an explicit selection pool (reporting group and
  /// pool decoupled).
  BinId open_bin(Time now, BinGroup group, PoolId pool);

  /// Places item `id` of size `size` into `bin`.
  /// Throws std::logic_error on overflow, closed bin, or double placement.
  void place(ItemId id, Load size, BinId bin, Time now);

  /// Removes item `id` (at its departure); closes its bin if now empty.
  /// Returns the bin the item was in.
  BinId remove(ItemId id, Time now);

  // Per-bin queries, one contract for both layouts: fits, load and
  // is_open answer for every id ever issued (a closed bin: false / 0.0 /
  // false); pool_of answers for open bins only. Any other id throws
  // std::out_of_range. A bin's group and its closed life are reported by
  // records().

  /// True when `bin` is open and `size` fits (capacity 1, tolerance policy
  /// in time_types.h).
  [[nodiscard]] bool fits(BinId bin, Load size) const;

  [[nodiscard]] Load load(BinId bin) const;
  [[nodiscard]] bool is_open(BinId bin) const;
  [[nodiscard]] BinId bin_of(ItemId id) const;  ///< kNoBin if not active

  /// Open bins in opening order.
  [[nodiscard]] const std::set<BinId>& open_bins() const noexcept {
    return open_;
  }
  [[nodiscard]] std::size_t open_count() const noexcept {
    return open_.size();
  }

  // --- O(log B) capacity-indexed selection (incrementally maintained by
  // open_bin/place/remove; see core/bin_index.h). Tie-breaking matches the
  // seed linear scan in tests/oracles/select.h bit for bit.

  /// Earliest-opened open bin in `pool` admitting `size`; kNoBin if none.
  [[nodiscard]] BinId first_fit(PoolId pool, Load size) const;
  /// Highest-load open bin in `pool` admitting `size` (ties: earliest
  /// opened); kNoBin if none.
  [[nodiscard]] BinId best_fit(PoolId pool, Load size) const;
  /// Lowest-load open bin in `pool` admitting `size` (ties: earliest
  /// opened); kNoBin if none.
  [[nodiscard]] BinId worst_fit(PoolId pool, Load size) const;
  /// Most recently opened bin of `pool` still open; kNoBin if none.
  [[nodiscard]] BinId newest_open_in_pool(PoolId pool) const;
  /// Selection pool of an open bin (see the per-bin query contract above).
  [[nodiscard]] PoolId pool_of(BinId bin) const;

  /// Total MinUsageTime cost accumulated so far (open bins counted up to
  /// `now`).
  [[nodiscard]] Cost total_usage(Time now) const;

  /// Number of bins ever opened (the id the next bin gets).
  [[nodiscard]] std::size_t bins_opened() const noexcept {
    return static_cast<std::size_t>(next_bin_);
  }

  /// Peak number of simultaneously open bins.
  [[nodiscard]] std::size_t max_open() const noexcept { return max_open_; }

  /// Number of currently placed (active) items.
  [[nodiscard]] std::size_t active_items() const noexcept {
    return storage_ == LedgerStorage::kSoa ? soa_active_.size()
                                           : active_.size();
  }

  /// Records of every bin ever opened, indexed by id: a full copy, built
  /// per call (the reporting path; take it once, at the end of a run). The
  /// SoA layout needs item tracking for this (std::logic_error otherwise).
  [[nodiscard]] std::vector<BinRecord> records() const&;
  /// The same records from a ledger that is done: the reference layout
  /// hands over its own, so the ledger answers no per-bin query after.
  [[nodiscard]] std::vector<BinRecord> records() &&;

  /// Latest time passed to any mutator.
  [[nodiscard]] Time clock() const noexcept { return clock_; }

  /// Serializes the ledger's decision state: the next bin id, the open
  /// bins in ascending id (group, opening time, bit-exact load, active
  /// count, pool), the active placements, and the usage accumulators.
  /// Closed bins are NOT included, so a checkpoint is O(open bins + active
  /// items) and works with or without item tracking. Both storage backends
  /// write byte-identical buffers, and either backend can restore a buffer
  /// the other wrote.
  /// `load_state` restores into a *fresh* ledger (throws std::logic_error
  /// otherwise), rebuilding the per-pool capacity indexes from id order so
  /// that every subsequent first/best/worst-fit query answers exactly as
  /// it would have on the uninterrupted ledger. It checks the buffer
  /// before changing any state (ids ascending and below the next id,
  /// placements only into listed bins, each bin's active count equal to
  /// its placements) and throws std::runtime_error on a violation. What a
  /// checkpoint does not carry comes back blank: a bin closed before the
  /// checkpoint has a placeholder record (group 0, opened = closed = 0)
  /// where the layout keeps one.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  void advance_clock(Time now);
  /// Throws std::out_of_range unless `bin` was ever issued.
  void check_issued(BinId bin) const;
  BinRecord& mutable_record(BinId bin);

  struct ActivePlacement {
    BinId bin;
    Load size;
  };

  /// Where a bin lives inside the capacity indexes.
  struct IndexRef {
    PoolId pool = 0;
    std::size_t slot = 0;
  };
  [[nodiscard]] const BinCapacityIndex* pool_index(PoolId pool) const;

  /// A live selection pool of the SoA layout.
  struct SoaPool {
    PoolId id = 0;
    BinCapacityIndex index;
  };
  /// Open bin -> its row in the SoA columns.
  struct BinRow {
    BinId id = kFlatMapEmptyKey;
    std::uint32_t row = 0;
  };
  /// One bin's life, kept when tracking items (SoA history log).
  struct BinHistory {
    BinGroup group = 0;
    Time opened = 0.0;
    Time closed = 0.0;
  };

  // SoA helpers.
  /// Row of an open bin; nullptr when `bin` is closed (or never issued).
  [[nodiscard]] const std::uint32_t* soa_row(BinId bin) const {
    const BinRow* r = soa_rows_.find(bin);
    return r ? &r->row : nullptr;
  }
  [[nodiscard]] std::uint32_t soa_add_row(BinId bin, BinGroup group,
                                          Time opened, PoolId pool);
  void soa_close_row(BinId bin, std::uint32_t row);
  [[nodiscard]] std::uint32_t soa_pool_index(PoolId pool);  // find-or-create
  [[nodiscard]] const BinCapacityIndex* soa_pool_find(PoolId pool) const;
  // Open bins only.
  [[nodiscard]] Time opened_of(BinId bin) const noexcept {
    return storage_ == LedgerStorage::kSoa
               ? soa_opened_[*soa_row(bin)]
               : bins_[static_cast<std::size_t>(bin)].opened;
  }

  LedgerStorage storage_ = LedgerStorage::kReference;
  bool track_items_ = true;

  // --- Shared across backends --------------------------------------------
  BinId next_bin_ = 0;
  std::set<BinId> open_;
  Cost closed_usage_ = 0.0;
  std::size_t max_open_ = 0;
  Time clock_ = -kInfTime;

  // --- kReference backend: per bin ever opened ---------------------------
  std::vector<BinRecord> bins_;
  std::vector<IndexRef> index_ref_;  // parallel to bins_
  std::unordered_map<PoolId, BinCapacityIndex> pools_;
  std::unordered_map<ItemId, ActivePlacement> active_;

  // --- kSoa backend: one row per open bin, one column per field ----------
  FlatMap<BinRow> soa_rows_;
  std::vector<BinGroup> soa_group_;
  std::vector<Time> soa_opened_;
  std::vector<Load> soa_load_;
  std::vector<std::uint32_t> soa_active_count_;
  std::vector<std::uint32_t> soa_pool_idx_;  // index into soa_pools_
  std::vector<std::uint32_t> soa_slot_;      // slot inside its pool's index
  std::vector<std::uint32_t> soa_free_rows_;  // rows of closed bins
  std::vector<SoaPool> soa_pools_;
  std::vector<std::uint32_t> soa_free_pools_;  // released soa_pools_ entries
  std::vector<std::pair<PoolId, std::uint32_t>> soa_pool_ids_;  // sorted
  FlatItemMap soa_active_;
  /// Tracking only: every bin's life by id (see records()).
  std::vector<BinHistory> soa_history_;
};

}  // namespace cdbp
