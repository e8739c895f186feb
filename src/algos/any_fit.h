// The Any-Fit family of online packing heuristics: First-Fit, Best-Fit,
// Next-Fit, Worst-Fit. These ignore departure times entirely, so they are
// valid non-clairvoyant algorithms; First-Fit is the (mu + 4)-competitive
// non-clairvoyant baseline of Table 1 (Tang et al. [13]).
#pragma once

#include <string>

#include "core/algorithm.h"
#include "core/checkpoint.h"

namespace cdbp::algos {

enum class FitRule {
  kFirst,  ///< earliest-opened bin that fits
  kBest,   ///< fitting bin with the highest load (ties: earliest)
  kWorst,  ///< fitting bin with the lowest load (ties: earliest)
  kNext,   ///< most recently opened bin only; otherwise open a new bin
};

[[nodiscard]] std::string to_string(FitRule rule);

/// Generic Any-Fit algorithm over a single pool of bins. The family keeps
/// no per-run state of its own (every decision reads the ledger), so it is
/// trivially Checkpointable: restoring the ledger restores the algorithm.
class AnyFit : public Algorithm, public Checkpointable {
 public:
  explicit AnyFit(FitRule rule) : rule_(rule) {}

  [[nodiscard]] std::string name() const override {
    return to_string(rule_) + "Fit";
  }

  BinId on_arrival(const Item& item, Ledger& ledger) override;

  void save_state(StateWriter& w) const override { (void)w; }
  void load_state(StateReader& r) override { (void)r; }

  [[nodiscard]] FitRule rule() const noexcept { return rule_; }

 private:
  FitRule rule_;
};

/// Picks a bin of the ledger pool `pool` according to `rule` in O(log B),
/// or kNoBin when none fits. Every algorithm selects through this. It picks
/// the same bin as the seed linear scan over the pool's open bins in
/// opening order; that scan lives in tests/oracles (oracles::pick_bin), and
/// SelectionEquivalence checks the two agree at every arrival of real runs.
[[nodiscard]] BinId pick_bin_indexed(const Ledger& ledger, PoolId pool,
                                     Load size, FitRule rule);

/// Convenience concrete types.
class FirstFit final : public AnyFit {
 public:
  FirstFit() : AnyFit(FitRule::kFirst) {}
};

class BestFit final : public AnyFit {
 public:
  BestFit() : AnyFit(FitRule::kBest) {}
};

class NextFit final : public AnyFit {
 public:
  NextFit() : AnyFit(FitRule::kNext) {}
};

class WorstFit final : public AnyFit {
 public:
  WorstFit() : AnyFit(FitRule::kWorst) {}
};

}  // namespace cdbp::algos
