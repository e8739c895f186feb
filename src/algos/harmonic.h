// Harmonic-style SIZE classification — the classical online bin packing
// strategy (Lee & Lee's Harmonic_k), adapted to the dynamic setting: items
// with size in (1/(k+1), 1/k] share bins k to a bin, First-Fit within the
// class; sizes below 1/K pool into a catch-all class.
//
// Included as a conceptual foil: the paper classifies by *duration*
// because MinUsageTime is a time objective — classifying by *size*
// (optimal thinking for the classical bin-count objective) has no defense
// against duration mixing, and the benches show it inheriting First-Fit's
// failure modes. It is also a reasonable practical baseline on dense
// workloads.
#pragma once

#include <string>

#include "algos/any_fit.h"
#include "core/algorithm.h"
#include "core/checkpoint.h"

namespace cdbp::algos {

/// Keeps no state outside the ledger (each class is a ledger pool), so it is
/// trivially Checkpointable, as AnyFit is.
class HarmonicFit : public Algorithm, public Checkpointable {
 public:
  /// `classes` = K >= 1: size classes (1/2,1], (1/3,1/2], ..., plus the
  /// catch-all (0, 1/K].
  explicit HarmonicFit(int classes = 8);

  [[nodiscard]] std::string name() const override;

  /// Refuses a size class_of refuses (size 0 included).
  void check_arrival(const Item& item) const override;
  BinId on_arrival(const Item& item, Ledger& ledger) override;

  void save_state(StateWriter& w) const override { (void)w; }
  void load_state(StateReader& r) override { (void)r; }

  /// Size class of a load: k for size in (1/(k+1), 1/k] with k < K, else K
  /// (catch-all).
  [[nodiscard]] int class_of(Load size) const;

 private:
  int classes_;
};

}  // namespace cdbp::algos
