// InteractiveSession: the same replay semantics as Simulator, but driven one
// item at a time by a caller that may *adapt* to the algorithm's state —
// exactly what the Section-4 lower-bound adversary needs ("release a prefix
// of sigma*_t and stop as soon as ON opens sqrt(log mu) bins").
#pragma once

#include <vector>

#include "core/algorithm.h"
#include "core/item.h"
#include "core/ledger.h"

namespace cdbp {

class InteractiveSession {
 public:
  /// The session keeps only live state: the SoA ledger without its
  /// closed bins' lives, plus the active items in the departure heap.
  /// Memory is O(open bins + active items), not O(items offered) or
  /// O(bins opened).
  explicit InteractiveSession(Algorithm& algo)
      : algo_(&algo), ledger_(LedgerStorage::kSoa, /*track_items=*/false) {
    algo_->reset();
  }

  /// Feeds one item (arrival must be >= every previously fed arrival).
  /// Departures due at times <= item.arrival are processed first.
  /// Returns the bin chosen by the algorithm. The item's id is the number
  /// of items offered before it.
  /// Throws std::invalid_argument, without mutating any state, on an
  /// out-of-order arrival (before the session clock), a departure <=
  /// arrival, a size that is not valid_item_size (not finite, negative,
  /// or too large for an empty bin), or an item the algorithm refuses
  /// (Algorithm::check_arrival, e.g. CDFF on an unaligned arrival), all
  /// checked before any departure is processed or any id is used up.
  BinId offer(Time arrival, Time departure, Load size);

  /// Advances the clock to `t`, processing departures with time <= t.
  void advance_to(Time t);

  /// Processes every remaining departure and returns the final cost.
  Cost finish();

  /// Number of currently open bins (the adversary's stopping signal).
  [[nodiscard]] std::size_t open_bins() const { return ledger_.open_count(); }

  /// Cost accumulated so far (open bins counted up to the clock).
  [[nodiscard]] Cost cost_so_far() const {
    return ledger_.total_usage(clock_);
  }

  [[nodiscard]] const Ledger& ledger() const { return ledger_; }
  [[nodiscard]] Time clock() const { return clock_; }

  /// Serializes the session's live state: clock, next item id, the active
  /// items (id, arrival, departure, size; ascending id), then the ledger
  /// (Ledger::save_state). Nothing about departed items or closed bins is
  /// kept, so the size is O(open bins + active items). The driven
  /// algorithm's state is NOT included — the caller saves it alongside
  /// through its Checkpointable capability (see src/serve/). `load_state`
  /// restores into a freshly constructed session (throws std::logic_error
  /// otherwise; a buffer whose items disagree with its ledger throws
  /// std::runtime_error), after which the session continues
  /// bit-identically with the one that was saved.
  void save_state(StateWriter& w) const;
  void load_state(StateReader& r);

 private:
  /// Departure-heap entry: the whole item, so on_departure needs no
  /// per-item history (as in Simulator). Min-heap on (departure, id).
  struct Departure {
    Item item;
    friend bool operator>(const Departure& a, const Departure& b) {
      if (a.item.departure != b.item.departure)
        return a.item.departure > b.item.departure;
      return a.item.id > b.item.id;
    }
  };

  void drain_until(Time t_inclusive);

  Algorithm* algo_;
  Ledger ledger_;
  /// Binary min-heap (std::push_heap/pop_heap with std::greater) over the
  /// active items; a plain vector so save_state can read it.
  std::vector<Departure> dq_;
  ItemId next_id_ = 0;
  Time clock_ = 0.0;
};

}  // namespace cdbp
