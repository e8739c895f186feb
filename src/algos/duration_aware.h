// Practical clairvoyant heuristics. The paper's HA is worst-case optimal,
// but a practitioner's first instinct is greedy: use the known departure
// time to minimize the usage time added *right now*. These heuristics are
// the natural baselines for that instinct (they carry no worst-case
// guarantee — bench E13 quantifies when they win and when HA's guarantee
// matters).
//
// For each open bin we track its "horizon": the latest departure among its
// active items, i.e. when the bin would close if nothing else arrives.
// Placing item r into bin b adds max(0, f_r - horizon(b)) of usage time;
// a new bin adds l(I(r)).
//
//  * kMinExtension        — pick the feasible bin minimizing the added
//                           usage time (ties: earliest-opened); open a new
//                           bin only when that is strictly cheaper.
//  * kNoExtensionFirst    — prefer bins whose horizon already covers the
//                           item (zero marginal cost), fullest such bin
//                           first (Best-Fit flavored); otherwise fall back
//                           to kMinExtension.
//
// Checkpointable: its only state is the departure multiset of each open bin,
// saved with bins ascending (per bin its id, its count, and its departures'
// bit patterns in multiset order).
#pragma once

#include <set>
#include <string>
#include <unordered_map>

#include "core/algorithm.h"
#include "core/checkpoint.h"

namespace cdbp::algos {

enum class DurationPolicy {
  kMinExtension,
  kNoExtensionFirst,
};

[[nodiscard]] std::string to_string(DurationPolicy policy);

class DurationAwareFit : public Algorithm, public Checkpointable {
 public:
  explicit DurationAwareFit(DurationPolicy policy = DurationPolicy::kMinExtension);

  [[nodiscard]] std::string name() const override;

  BinId on_arrival(const Item& item, Ledger& ledger) override;
  void on_departure(const Item& item, BinId bin, bool bin_closed,
                    Ledger& ledger) override;
  void reset() override;

  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  /// Current close horizon of an open bin (kInfTime if unknown bin).
  [[nodiscard]] Time horizon_of(BinId bin) const;

 private:
  /// Marginal usage-time cost of placing an item departing at `departure`
  /// into the open bin `bin`.
  [[nodiscard]] double extension_cost(BinId bin, Time departure) const;

  DurationPolicy policy_;
  // Departure multiset per open bin: the horizon is the max element, read
  // in O(1) from the back; insert/erase are O(log items-in-bin).
  std::unordered_map<BinId, std::multiset<Time>> departures_;
};

}  // namespace cdbp::algos
