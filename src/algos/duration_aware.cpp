#include "algos/duration_aware.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace cdbp::algos {

std::string to_string(DurationPolicy policy) {
  switch (policy) {
    case DurationPolicy::kMinExtension:
      return "MinExtension";
    case DurationPolicy::kNoExtensionFirst:
      return "NoExtensionFirst";
  }
  throw std::invalid_argument("unknown DurationPolicy");
}

DurationAwareFit::DurationAwareFit(DurationPolicy policy) : policy_(policy) {}

std::string DurationAwareFit::name() const {
  return "DurationAware(" + to_string(policy_) + ")";
}

Time DurationAwareFit::horizon_of(BinId bin) const {
  const auto it = departures_.find(bin);
  if (it == departures_.end() || it->second.empty()) return kInfTime;
  return *it->second.rbegin();
}

double DurationAwareFit::extension_cost(BinId bin, Time departure) const {
  return std::max(0.0, departure - horizon_of(bin));
}

BinId DurationAwareFit::on_arrival(const Item& item, Ledger& ledger) {
  BinId chosen = kNoBin;
  double chosen_cost = item.length();  // cost of a fresh bin
  Load chosen_load = -1.0;

  for (BinId b : ledger.open_bins()) {
    if (!ledger.fits(b, item.size)) continue;
    const double cost = extension_cost(b, item.departure);
    switch (policy_) {
      case DurationPolicy::kMinExtension:
        // Strictly cheaper wins; ties keep the earliest-opened bin.
        if (cost < chosen_cost - kTimeEps) {
          chosen = b;
          chosen_cost = cost;
        }
        break;
      case DurationPolicy::kNoExtensionFirst:
        if (cost <= kTimeEps) {
          // Zero-cost bin: prefer the fullest (Best-Fit flavored).
          if (chosen == kNoBin || chosen_cost > kTimeEps ||
              ledger.load(b) > chosen_load) {
            chosen = b;
            chosen_cost = 0.0;
            chosen_load = ledger.load(b);
          }
        } else if (chosen_cost > kTimeEps && cost < chosen_cost - kTimeEps) {
          chosen = b;
          chosen_cost = cost;
        }
        break;
    }
  }

  if (chosen == kNoBin) chosen = ledger.open_bin(item.arrival);
  ledger.place(item.id, item.size, chosen, item.arrival);
  departures_[chosen].insert(item.departure);
  return chosen;
}

void DurationAwareFit::on_departure(const Item& item, BinId bin,
                                    bool bin_closed, Ledger& ledger) {
  (void)ledger;
  auto it = departures_.find(bin);
  if (it == departures_.end()) return;
  if (bin_closed) {
    departures_.erase(it);
    return;
  }
  std::multiset<Time>& deps = it->second;
  const auto pos = deps.find(item.departure);
  if (pos != deps.end()) deps.erase(pos);
}

void DurationAwareFit::reset() { departures_.clear(); }

void DurationAwareFit::save_state(StateWriter& w) const {
  std::vector<BinId> bins;
  bins.reserve(departures_.size());
  for (const auto& [bin, deps] : departures_) bins.push_back(bin);
  std::sort(bins.begin(), bins.end());
  w.u64(bins.size());
  for (const BinId bin : bins) {
    const std::multiset<Time>& deps = departures_.at(bin);
    w.i64(bin);
    w.u64(deps.size());
    for (const Time departure : deps) w.f64(departure);
  }
}

void DurationAwareFit::load_state(StateReader& r) {
  reset();
  const std::uint64_t n_bins = r.u64();
  for (std::uint64_t i = 0; i < n_bins; ++i) {
    std::multiset<Time>& deps = departures_[r.i64()];
    const std::uint64_t n = r.u64();
    // Saved in multiset order, so each insert lands at the end.
    for (std::uint64_t k = 0; k < n; ++k) deps.insert(deps.end(), r.f64());
  }
}

}  // namespace cdbp::algos
