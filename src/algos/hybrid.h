// HA — the paper's Hybrid Algorithm (Section 3, Algorithm 1), the
// O(sqrt(log mu))-competitive clairvoyant algorithm that closed the upper
// bound for MinUsageTime Dynamic Bin Packing.
//
// Every item gets a type T = (i, c): duration class i (length in
// (2^{i-1}, 2^i]) and phase c (arrival in ((c-1)*2^i, c*2^i]). HA keeps two
// kinds of bins:
//   GN (general)              — shared First-Fit pool;
//   CD (classify-by-duration) — bins private to one type T.
// On arrival of r with type T and per-type active load d (including r):
//   1. if an open CD bin for T exists: First-Fit among T's CD bins
//      (opening another CD bin if none fits);
//   2. else if d > threshold(i) (paper: 1/(2*sqrt(i))): open a new CD bin;
//   3. else: First-Fit among the GN bins (opening one if needed).
// HA needs no advance knowledge of mu — it adapts as longer items arrive.
//
// The threshold is injectable for the ablation study (bench E10); the
// default reproduces the paper exactly.
#pragma once

#include <cmath>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "algos/any_fit.h"
#include "core/algorithm.h"

namespace cdbp::algos {

/// Ledger bin groups used by HA (visible to tests/benches for accounting).
inline constexpr BinGroup kHybridGroupGN = 1;
inline constexpr BinGroup kHybridGroupCD = 2;

class Hybrid : public Algorithm, public Checkpointable {
 public:
  /// threshold(i) -> load bound below which type-(i, c) items go to GN bins.
  using Threshold = std::function<double(int)>;

  /// The paper's threshold 1/(2*sqrt(i)).
  static double paper_threshold(int i) {
    return 0.5 / std::sqrt(static_cast<double>(i));
  }

  explicit Hybrid(Threshold threshold = &Hybrid::paper_threshold,
                  std::string label = "HA",
                  FitRule rule = FitRule::kFirst);

  [[nodiscard]] std::string name() const override { return label_; }

  BinId on_arrival(const Item& item, Ledger& ledger) override;
  void on_departure(const Item& item, BinId bin, bool bin_closed,
                    Ledger& ledger) override;
  void reset() override;

  /// Exact state: per-type active loads (bit-exact accumulators — the
  /// threshold comparison must see the same float it would have seen),
  /// type->pool assignments of types with an open CD bin, CD/GN bin sets.
  /// Derived maps are rebuilt.
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  /// Number of open GN bins (Lemma 3.3 asserts <= 2 + 4*sqrt(log mu)).
  [[nodiscard]] std::size_t gn_open_count() const noexcept {
    return gn_bins_.size();
  }
  /// Number of open CD bins, summed over types (the paper's k_t).
  [[nodiscard]] std::size_t cd_open_count() const noexcept {
    return cd_open_total_;
  }
  /// Active load of one type (0 when none).
  [[nodiscard]] double active_load(const DurationType& t) const;

 private:
  /// Ledger selection pool of one type's CD bins (allocated on demand,
  /// dropped with the type's last open CD bin, so HA's state is O(live
  /// types); pools kHybridGroupGN and below are never handed out, so GN
  /// and CD selection never collide).
  [[nodiscard]] PoolId cd_pool(const DurationType& type);

  Threshold threshold_;
  std::string label_;
  FitRule rule_;

  std::unordered_map<DurationType, double> active_load_;
  std::unordered_map<DurationType, PoolId> type_pool_;
  PoolId next_cd_pool_ = kHybridGroupCD;
  std::unordered_map<DurationType, std::vector<BinId>> cd_bins_;
  std::unordered_map<BinId, DurationType> cd_bin_type_;
  std::vector<BinId> gn_bins_;  // open GN bins, opening order
  std::size_t cd_open_total_ = 0;
};

}  // namespace cdbp::algos
