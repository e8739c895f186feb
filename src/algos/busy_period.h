// Section 3 assumes "the input items form a continuous interval of active
// items (otherwise we apply our algorithm to each such interval
// individually)". This wrapper makes that operational for ANY inner
// algorithm: whenever the system drains (no active items at an arrival),
// the inner algorithm is reset, so each busy period is handled by a fresh
// instance — per-period state (HA's type loads, CDFF's segments, NextFit's
// current bin) cannot leak across idle gaps.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/algorithm.h"

namespace cdbp::algos {

class BusyPeriodReset : public Algorithm {
 public:
  explicit BusyPeriodReset(AlgorithmPtr inner) : inner_(std::move(inner)) {
    if (!inner_)
      throw std::invalid_argument("BusyPeriodReset: null inner algorithm");
  }

  [[nodiscard]] std::string name() const override {
    return inner_->name() + "/per-busy-period";
  }

  // No check_arrival override: whether the inner algorithm is reset
  // depends on the departures drained before the arrival, so the inner
  // check cannot be asked ahead of them.
  BinId on_arrival(const Item& item, Ledger& ledger) override {
    if (ledger.active_items() == 0) {
      inner_->reset();
      ++periods_;
    }
    return inner_->on_arrival(item, ledger);
  }

  void on_departure(const Item& item, BinId bin, bool bin_closed,
                    Ledger& ledger) override {
    inner_->on_departure(item, bin, bin_closed, ledger);
  }

  void reset() override {
    inner_->reset();
    periods_ = 0;
  }

  /// Busy periods seen so far (first arrival counts as one).
  [[nodiscard]] std::size_t periods() const noexcept { return periods_; }

  [[nodiscard]] Algorithm& inner() noexcept { return *inner_; }

 private:
  AlgorithmPtr inner_;
  std::size_t periods_ = 0;
};

}  // namespace cdbp::algos
