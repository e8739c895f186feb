// Remaining-capacity index over one pool of bins: the data structure behind
// the ledger's O(log B) first-fit / best-fit / worst-fit selection.
//
// Two structures are maintained incrementally, both keyed off a dense
// *slot* number assigned in opening order (so slot order == opening order
// == ascending BinId within the pool):
//
//  * a tournament (min-)tree over slot loads — answers "leftmost slot whose
//    load admits `size`" (First-Fit), "leftmost slot at the minimum load"
//    (Worst-Fit) and "rightmost open slot" (Next-Fit) in O(log B). The
//    descent relies on fits_in_bin being monotone in load: if the subtree
//    minimum admits the size, some leaf in it does.
//  * an ordered set of (load, bin) pairs — answers "maximum load admitting
//    `size`, smallest bin id among ties" (Best-Fit) in O(log B): its
//    comparator places a size after every load admitting it and before
//    the rest (a partition, as fits_in_bin is monotone in load), so
//    upper_bound finds the boundary. The set is built lazily on
//    the first best_fit() call (from the tree leaves, O(B log B)) and
//    maintained incrementally from then on — First/Worst/Next-Fit runs
//    never pay its node allocations and rebalancing.
//
// A closed bin's slot is parked at kClosedLoad, a sentinel above any
// admissible load, so it can never be selected. Once closed slots
// outnumber open ones (in a pool of at least kCompactMinSlots slots),
// close() packs the open slots to the front, keeping their order, and
// shrinks the tree: memory is O(open bins), not O(bins ever added), and
// each compaction's O(slots) cost is paid for by the closes before it
// (amortized O(1) per close). The caller re-reads slot numbers after a
// compaction (slot_count / bin_at). Tie-breaking is bit-identical to the
// seed linear scan (earliest opened wins), which lives in
// tests/oracles/select.h; SelectionEquivalence checks the two agree at
// every arrival of real runs.
#pragma once

#include <cstddef>
#include <set>
#include <utility>
#include <vector>

#include "core/time_types.h"

namespace cdbp {

class BinCapacityIndex {
 public:
  /// Sentinel load for closed / unused slots; no item size admits it.
  static constexpr Load kClosedLoad = 3.0;

  /// Registers a newly opened bin (load 0); returns its slot.
  std::size_t add_bin(BinId bin);

  /// Updates the load of an open slot (after place/remove).
  void set_load(std::size_t slot, Load load);

  /// Smallest pool that close() compacts.
  static constexpr std::size_t kCompactMinSlots = 64;

  /// Marks a slot's bin as closed; it can never be selected again. Returns
  /// true when this close compacted the index: every open bin then sits
  /// at a new slot, bin_at(s) for s < slot_count() in opening order.
  bool close(std::size_t slot);

  /// Earliest-opened open bin admitting `size`; kNoBin if none.
  [[nodiscard]] BinId first_fit(Load size) const;

  /// Highest-load open bin admitting `size` (ties: earliest opened);
  /// kNoBin if none.
  [[nodiscard]] BinId best_fit(Load size) const;

  /// Lowest-load open bin admitting `size` (ties: earliest opened);
  /// kNoBin if none. If the minimum-load bin does not admit the size, no
  /// bin does.
  [[nodiscard]] BinId worst_fit(Load size) const;

  /// Most recently opened bin that is still open; kNoBin if none.
  [[nodiscard]] BinId newest_open() const;

  [[nodiscard]] std::size_t open_count() const noexcept {
    return open_count_;
  }

  /// Slots in use (open and closed since the last compaction).
  [[nodiscard]] std::size_t slot_count() const noexcept { return size_; }
  /// Bin registered at `slot`.
  [[nodiscard]] BinId bin_at(std::size_t slot) const { return bins_[slot]; }

  /// Open bins in opening order. O(slots) — for reporting, not for
  /// per-arrival use.
  [[nodiscard]] std::vector<BinId> open_bins() const;

  /// open_bins() into a caller-owned buffer (cleared first): no per-call
  /// allocation once the buffer has warmed up.
  void open_bins_into(std::vector<BinId>& out) const;

 private:
  [[nodiscard]] Load leaf(std::size_t slot) const {
    return tree_[cap_ + slot];
  }
  void update_leaf(std::size_t slot, Load load);
  void grow();
  void compact();
  /// Rebuilds the tree over the first size_ leaves with capacity `cap`.
  void rebuild(std::size_t cap);
  void activate_by_load() const;

  // Implicit binary tournament tree: tree_[1] is the root, tree_[cap_ ..
  // cap_ + size_) the slot leaves; every interior node holds the minimum
  // load of its subtree. Unused leaves are parked at kClosedLoad.
  std::vector<Load> tree_;
  std::vector<BinId> bins_;  // slot -> bin id
  std::size_t size_ = 0;     // slots in use
  std::size_t cap_ = 0;      // leaf capacity (power of two)
  std::size_t open_count_ = 0;
  // Open bins only; built on first best_fit() (see activate_by_load), then
  // kept in sync by add_bin/set_load/close.
  mutable bool by_load_active_ = false;
  struct Admits {
    Load size;
  };
  struct ByLoad {
    using is_transparent = void;
    using Key = std::pair<Load, BinId>;
    bool operator()(const Key& a, const Key& b) const { return a < b; }
    bool operator()(const Key& a, Admits s) const {
      return fits_in_bin(a.first, s.size);
    }
    bool operator()(Admits s, const Key& b) const {
      return !fits_in_bin(b.first, s.size);
    }
  };
  mutable std::set<std::pair<Load, BinId>, ByLoad> by_load_;
};

}  // namespace cdbp
