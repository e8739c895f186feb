// Bin-selection oracles: the seed linear scan every algorithm used before
// the capacity index, and an Algorithm decorator that checks the index
// against it at every arrival of a real run.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "algos/any_fit.h"
#include "core/algorithm.h"

namespace cdbp::oracles {

/// Picks a bin from `candidates` (opening order) according to `rule`, or
/// kNoBin when none fits, by linear scan — the seed implementation that
/// algos::pick_bin_indexed must reproduce bin for bin.
[[nodiscard]] BinId pick_bin(const Ledger& ledger,
                             const std::vector<BinId>& candidates, Load size,
                             algos::FitRule rule);

/// Wraps an algorithm. Before it delegates each on_arrival, it asks, for
/// every pool that holds an open bin and for every FitRule, whether
/// algos::pick_bin_indexed picks the bin that pick_bin picks over that
/// pool's open bins. The candidates come from Ledger::open_bins() filtered
/// by Ledger::pool_of (ascending id is opening order), never from the
/// capacity index under test. Disagreements are recorded, not thrown, so a
/// run completes and its cost can be compared with an undecorated run.
class SelectionOracle final : public Algorithm {
 public:
  struct Mismatch {
    ItemId item = 0;
    PoolId pool = 0;
    algos::FitRule rule = algos::FitRule::kFirst;
    Load size = 0.0;
    BinId indexed = kNoBin;
    BinId scan = kNoBin;
  };

  explicit SelectionOracle(AlgorithmPtr inner);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void check_arrival(const Item& item) const override {
    inner_->check_arrival(item);
  }
  BinId on_arrival(const Item& item, Ledger& ledger) override;
  void on_departure(const Item& item, BinId bin, bool bin_closed,
                    Ledger& ledger) override {
    inner_->on_departure(item, bin, bin_closed, ledger);
  }
  /// Resets the wrapped algorithm and the record of the previous run.
  void reset() override;

  [[nodiscard]] const std::vector<Mismatch>& mismatches() const noexcept {
    return mismatches_;
  }
  /// Number of (arrival, pool, rule) comparisons made since reset().
  [[nodiscard]] std::size_t checks() const noexcept { return checks_; }

 private:
  AlgorithmPtr inner_;
  std::vector<Mismatch> mismatches_;
  std::size_t checks_ = 0;
  std::map<PoolId, std::vector<BinId>> pools_;  ///< per-arrival scratch
};

[[nodiscard]] std::string to_string(const SelectionOracle::Mismatch& m);

}  // namespace cdbp::oracles
