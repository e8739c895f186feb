#include "oracles/select.h"

#include <sstream>
#include <stdexcept>
#include <utility>

namespace cdbp::oracles {

using algos::FitRule;

BinId pick_bin(const Ledger& ledger, const std::vector<BinId>& candidates,
               Load size, FitRule rule) {
  BinId chosen = kNoBin;
  switch (rule) {
    case FitRule::kFirst:
      for (BinId b : candidates)
        if (ledger.fits(b, size)) return b;
      return kNoBin;
    case FitRule::kNext:
      if (!candidates.empty() && ledger.fits(candidates.back(), size))
        return candidates.back();
      return kNoBin;
    case FitRule::kBest: {
      Load best_load = -1.0;
      for (BinId b : candidates)
        if (ledger.fits(b, size) && ledger.load(b) > best_load) {
          best_load = ledger.load(b);
          chosen = b;
        }
      return chosen;
    }
    case FitRule::kWorst: {
      Load best_load = 2.0;
      for (BinId b : candidates)
        if (ledger.fits(b, size) && ledger.load(b) < best_load) {
          best_load = ledger.load(b);
          chosen = b;
        }
      return chosen;
    }
  }
  throw std::invalid_argument("unknown FitRule");
}

SelectionOracle::SelectionOracle(AlgorithmPtr inner)
    : inner_(std::move(inner)) {
  if (!inner_) throw std::invalid_argument("SelectionOracle: null algorithm");
}

BinId SelectionOracle::on_arrival(const Item& item, Ledger& ledger) {
  pools_.clear();
  for (const BinId b : ledger.open_bins())
    pools_[ledger.pool_of(b)].push_back(b);
  for (const auto& [pool, bins] : pools_)
    for (const FitRule rule :
         {FitRule::kFirst, FitRule::kBest, FitRule::kWorst, FitRule::kNext}) {
      ++checks_;
      const BinId indexed =
          algos::pick_bin_indexed(ledger, pool, item.size, rule);
      const BinId scan = pick_bin(ledger, bins, item.size, rule);
      if (indexed != scan)
        mismatches_.push_back({item.id, pool, rule, item.size, indexed, scan});
    }
  return inner_->on_arrival(item, ledger);
}

void SelectionOracle::reset() {
  inner_->reset();
  mismatches_.clear();
  checks_ = 0;
}

std::string to_string(const SelectionOracle::Mismatch& m) {
  std::ostringstream os;
  os << "item " << m.item << " pool " << m.pool << " rule "
     << algos::to_string(m.rule) << " size " << m.size << ": indexed "
     << m.indexed << " vs scan " << m.scan;
  return os.str();
}

}  // namespace cdbp::oracles
