// The online-algorithm interface. The Simulator (or an interactive Session)
// streams arrivals and departures; the algorithm performs placements
// directly on the Ledger, which enforces every invariant.
#pragma once

#include <memory>
#include <string>

#include "core/item.h"
#include "core/ledger.h"

namespace cdbp {

/// An online (clairvoyant or not) packing algorithm. Implementations must be
/// deterministic given the input order and must place each arriving item
/// exactly once via Ledger::place (opening bins with Ledger::open_bin as
/// needed). They may inspect any Ledger state but must not mutate other
/// items' placements (no repacking — the Ledger would reject it anyway).
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  /// Display name, e.g. "HA" or "FirstFit".
  [[nodiscard]] virtual std::string name() const = 0;

  /// Throws std::invalid_argument if on_arrival would refuse `item` in the
  /// current state. Must not depend on anything a departure changes: an
  /// InteractiveSession calls it before it processes the departures due
  /// by `item.arrival`, so a refused offer changes no state. Default:
  /// accept every item.
  virtual void check_arrival(const Item& item) const { (void)item; }

  /// Called at the item's arrival time. In the clairvoyant setting the
  /// item's departure field is valid; non-clairvoyant algorithms must not
  /// read it (see NonClairvoyant adapter in algos/first_fit.h).
  /// Must place the item and return the chosen bin.
  virtual BinId on_arrival(const Item& item, Ledger& ledger) = 0;

  /// Called right after the simulator removed `item` from `bin`
  /// (`bin_closed` tells whether that removal closed the bin). Default:
  /// nothing. Override to maintain private indexes.
  virtual void on_departure(const Item& item, BinId bin, bool bin_closed,
                            Ledger& ledger) {
    (void)item;
    (void)bin;
    (void)bin_closed;
    (void)ledger;
  }

  /// Resets all per-run state so the same object can run another instance.
  virtual void reset() {}
};

using AlgorithmPtr = std::unique_ptr<Algorithm>;

/// A named factory so benches/tests can instantiate fresh algorithms per run.
struct AlgorithmFactory {
  std::string name;
  AlgorithmPtr (*make)();
};

}  // namespace cdbp
