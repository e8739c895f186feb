// Classify-by-Duration First-Fit with a configurable class base.
//
//   * base = 2           -> the classic classify-by-duration strategy the
//                           paper calls "typically as bad as Omega(log mu)";
//   * base = mu^{1/n}    -> the Ren et al. (SPAA 2016) prior upper bound:
//                           min_n mu^{1/n} + n + 3 = O(log mu / log log mu).
//
// Items whose interval length falls in (base^{k-1}, base^k] form class k;
// each class is packed First-Fit into class-private bins.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "algos/any_fit.h"
#include "core/algorithm.h"

namespace cdbp::algos {

class ClassifyByDuration : public Algorithm, public Checkpointable {
 public:
  /// `base` > 1. `rule` selects the in-class packing heuristic (the paper's
  /// footnote 1: any Any-Fit rule works). `shift` in [0, 1) slides the
  /// class boundaries to (base^{k-1+shift}, base^{k+shift}] — the knob
  /// behind the randomized-shifting variant below: a deterministic
  /// adversary can place lengths just above every boundary (paying an
  /// almost-double window); a shifted grid dodges that placement.
  explicit ClassifyByDuration(double base = 2.0,
                              FitRule rule = FitRule::kFirst,
                              double shift = 0.0);

  [[nodiscard]] std::string name() const override;

  BinId on_arrival(const Item& item, Ledger& ledger) override;
  void on_departure(const Item& item, BinId bin, bool bin_closed,
                    Ledger& ledger) override;
  void reset() override;

  /// Exact class-bin state plus the active shift (bin_class_ is rebuilt).
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  /// Class index of an interval length (>= some positive value):
  /// smallest k with length <= base^{k+shift}.
  [[nodiscard]] int class_of(Time length) const;

  [[nodiscard]] double base() const noexcept { return base_; }
  [[nodiscard]] double shift() const noexcept { return shift_; }

 protected:
  void set_shift(double shift);

 private:
  double base_;
  FitRule rule_;
  double shift_;
  // Open bins per class, in opening order.
  std::unordered_map<int, std::vector<BinId>> class_bins_;
  std::unordered_map<BinId, int> bin_class_;
};

/// Randomized-shifting classify: draws a fresh uniform shift in [0, 1) at
/// every reset() (i.e. per run). Against an oblivious adversary the
/// expected boundary loss halves; this is the natural randomized
/// counterpart of the deterministic classify strategies the paper studies
/// (which are all deterministic — Table 1's bounds are for deterministic
/// algorithms).
class RandomizedClassify final : public ClassifyByDuration {
 public:
  explicit RandomizedClassify(std::uint64_t seed, double base = 2.0,
                              FitRule rule = FitRule::kFirst);

  [[nodiscard]] std::string name() const override;

  void reset() override;

 private:
  std::mt19937_64 rng_;
};

/// The Ren et al. choice of base for a known (or estimated) mu:
/// base = mu^{1/n} with n = max(1, round(log mu / log log mu)).
[[nodiscard]] double ren_et_al_base(double mu);

}  // namespace cdbp::algos
