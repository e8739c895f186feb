// The bin ledger: ground truth for every packing run. Algorithms open bins
// and place items through it; it enforces the capacity invariant, tracks
// open/close times, and accumulates the MinUsageTime cost
//   sum over bins of (close_time - open_time).
// Bins close automatically when their last item departs and are never
// reused (w.l.o.g. per paper §2).
//
// Two storage backends sit behind one API (see docs/ALGORITHMS.md):
//
//  * LedgerStorage::kReference — the original layout: one BinRecord struct
//    per bin plus a node-based hash map of active items. Kept verbatim as
//    the bit-identical oracle the equivalence tests compare against.
//  * LedgerStorage::kSoa — structure-of-arrays: bin opened/closed/load/
//    group/pool state in parallel flat columns, active items in a flat
//    open-addressing map (core/flat_item_map.h), placements in one
//    append-only log. Cache-dense and allocation-free per item on the hot
//    path; memory is O(bins) + O(peak active items), which is what lets a
//    streamed 1e7-item run fit in a fraction of the in-RAM footprint.
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
#include "core/flat_item_map.h"
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
struct BinRecord {
  BinId id = kNoBin;
  BinGroup group = 0;
  Time opened = 0.0;
  Time closed = kInfTime;  ///< +inf while still open
  Load load = 0.0;         ///< current load (last load before closing)
  std::size_t active_items = 0;
  std::vector<ItemId> all_items;  ///< every item ever placed here

  [[nodiscard]] bool is_open() const noexcept { return closed == kInfTime; }
  [[nodiscard]] Cost usage(Time now) const noexcept {
    return (is_open() ? now : closed) - opened;
  }
};

/// See file comment. All mutators take the current simulation time, which
/// must be non-decreasing across calls (enforced).
class Ledger {
 public:
  Ledger() = default;

  /// `track_items = false` drops the per-item placement log (all_items in
  /// records() stays empty): throughput mode for multi-million-item runs
  /// and long-lived sessions that only need costs and live state.
  explicit Ledger(LedgerStorage storage, bool track_items = true)
      : storage_(storage), track_items_(track_items) {}

  [[nodiscard]] LedgerStorage storage() const noexcept { return storage_; }
  [[nodiscard]] bool tracks_items() const noexcept { return track_items_; }

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

  /// True when `bin` is open and `size` fits (capacity 1, tolerance policy
  /// in time_types.h).
  [[nodiscard]] bool fits(BinId bin, Load size) const;

  [[nodiscard]] Load load(BinId bin) const;
  [[nodiscard]] BinGroup group_of(BinId bin) const;
  [[nodiscard]] bool is_open(BinId bin) const;
  [[nodiscard]] BinId bin_of(ItemId id) const;  ///< kNoBin if not active

  /// Open bins in opening order.
  [[nodiscard]] const std::set<BinId>& open_bins() const noexcept {
    return open_;
  }
  [[nodiscard]] std::size_t open_count() const noexcept {
    return open_.size();
  }
  /// open_bins() copied into a caller-owned buffer (cleared first) — the
  /// no-allocation variant for per-arrival scan paths.
  void open_bins_into(std::vector<BinId>& out) const;

  /// Open bins of one group, in opening order.
  [[nodiscard]] std::vector<BinId> open_bins_in_group(BinGroup g) const;
  void open_bins_in_group_into(BinGroup g, std::vector<BinId>& out) const;
  [[nodiscard]] std::size_t open_count_in_group(BinGroup g) const;

  // --- O(log B) capacity-indexed selection (incrementally maintained by
  // open_bin/place/remove; see core/bin_index.h). Tie-breaking matches the
  // seed linear scans of algos::pick_bin bit for bit.

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

  /// Open bins of one pool, in opening order. O(bins ever opened in the
  /// pool) — reporting / linear-reference use only.
  [[nodiscard]] std::vector<BinId> open_bins_in_pool(PoolId pool) const;
  void open_bins_in_pool_into(PoolId pool, std::vector<BinId>& out) const;
  /// O(1).
  [[nodiscard]] std::size_t open_count_in_pool(PoolId pool) const;
  /// Selection pool of a bin (any bin ever opened).
  [[nodiscard]] PoolId pool_of(BinId bin) const;

  /// Total MinUsageTime cost accumulated so far (open bins counted up to
  /// `now`).
  [[nodiscard]] Cost total_usage(Time now) const;

  /// Number of bins ever opened.
  [[nodiscard]] std::size_t bins_opened() const noexcept {
    return storage_ == LedgerStorage::kSoa ? soa_opened_.size() : bins_.size();
  }

  /// Peak number of simultaneously open bins.
  [[nodiscard]] std::size_t max_open() const noexcept { return max_open_; }

  /// Number of currently placed (active) items.
  [[nodiscard]] std::size_t active_items() const noexcept {
    return storage_ == LedgerStorage::kSoa ? soa_active_.size()
                                           : active_.size();
  }

  /// Full record of bin `bin` (any bin ever opened). In SoA mode records
  /// are materialized from the columns on demand (reporting path); the
  /// returned reference stays valid until the next mutation.
  [[nodiscard]] const BinRecord& record(BinId bin) const;
  [[nodiscard]] const std::vector<BinRecord>& records() const;

  /// Step function: number of open bins over time (derived from the open/
  /// close log; still-open bins are cut off at `now`).
  [[nodiscard]] StepFunction open_bins_profile(Time now) const;

  /// Latest time passed to any mutator.
  [[nodiscard]] Time clock() const noexcept { return clock_; }

  /// Currently placed item ids, ascending. O(active items log active items).
  [[nodiscard]] std::vector<ItemId> active_item_ids() const;
  /// Same, into a caller-owned buffer (cleared first): no per-call
  /// allocation once the buffer has warmed up.
  void active_item_ids_into(std::vector<ItemId>& out) const;

  /// Serializes the ledger's decision state: the per-bin fields (group,
  /// open/close times, bit-exact load, active count, pool, index slot), the
  /// active placements, and the usage accumulators. The per-item placement
  /// log is NOT included, so a checkpoint is O(bins + active items) and
  /// works with or without item tracking; a restored ledger's all_items
  /// lists start empty. Both storage backends write byte-identical
  /// buffers, and either backend can restore a buffer the other wrote.
  /// `load_state` restores into a *fresh* ledger (throws std::logic_error
  /// otherwise), rebuilding the per-pool capacity indexes so that every
  /// subsequent first/best/worst-fit query answers exactly as it would
  /// have on the uninterrupted ledger.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  void advance_clock(Time now);
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

  // SoA helpers.
  void soa_check(BinId bin) const;
  [[nodiscard]] std::uint32_t soa_pool_index(PoolId pool);  // find-or-create
  [[nodiscard]] const BinCapacityIndex* soa_pool_find(PoolId pool) const;
  void soa_materialize() const;
  [[nodiscard]] Time opened_of(BinId bin) const noexcept {
    return storage_ == LedgerStorage::kSoa
               ? soa_opened_[static_cast<std::size_t>(bin)]
               : bins_[static_cast<std::size_t>(bin)].opened;
  }
  [[nodiscard]] BinGroup group_of_unchecked(BinId bin) const noexcept {
    return storage_ == LedgerStorage::kSoa
               ? soa_group_[static_cast<std::size_t>(bin)]
               : bins_[static_cast<std::size_t>(bin)].group;
  }

  LedgerStorage storage_ = LedgerStorage::kReference;
  bool track_items_ = true;

  // --- Shared across backends (per-bin, not per-item, so cheap) ----------
  std::set<BinId> open_;
  Cost closed_usage_ = 0.0;
  std::size_t max_open_ = 0;
  Time clock_ = -kInfTime;

  // --- kReference backend ------------------------------------------------
  std::vector<BinRecord> bins_;
  std::vector<IndexRef> index_ref_;  // parallel to bins_
  std::unordered_map<PoolId, BinCapacityIndex> pools_;
  std::unordered_map<ItemId, ActivePlacement> active_;

  // --- kSoa backend: one column per BinRecord field, indexed by BinId ----
  std::vector<BinGroup> soa_group_;
  std::vector<Time> soa_opened_;
  std::vector<Time> soa_closed_;
  std::vector<Load> soa_load_;
  std::vector<std::uint32_t> soa_active_count_;
  std::vector<PoolId> soa_pool_;            // pool id of each bin
  std::vector<std::uint32_t> soa_pool_idx_; // dense index into soa_pools_
  std::vector<std::uint32_t> soa_slot_;     // slot inside its pool's index
  std::vector<BinCapacityIndex> soa_pools_;
  std::vector<std::pair<PoolId, std::uint32_t>> soa_pool_ids_;  // sorted
  FlatItemMap soa_active_;
  /// Append-only (item, bin) log in placement order; per-bin item lists are
  /// a stable partition of it (see soa_materialize). Empty when
  /// track_items_ is false.
  std::vector<std::pair<ItemId, BinId>> soa_placements_;
  // Lazily materialized BinRecord view for record()/records() (reporting).
  mutable std::vector<BinRecord> soa_records_;
  mutable std::uint64_t soa_records_version_ = ~std::uint64_t{0};
  std::uint64_t soa_version_ = 0;
};

}  // namespace cdbp
