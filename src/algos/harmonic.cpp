#include "algos/harmonic.h"

#include <stdexcept>

namespace cdbp::algos {

HarmonicFit::HarmonicFit(int classes) : classes_(classes) {
  if (classes < 1)
    throw std::invalid_argument("HarmonicFit: classes must be >= 1");
}

std::string HarmonicFit::name() const {
  return "Harmonic(" + std::to_string(classes_) + ")";
}

int HarmonicFit::class_of(Load size) const {
  if (!(size > 0.0) || size > kBinCapacity + kLoadEps)
    throw std::invalid_argument("HarmonicFit: size outside (0, 1]");
  for (int k = 1; k < classes_; ++k)
    if (size > 1.0 / static_cast<double>(k + 1) + kLoadEps) return k;
  return classes_;
}

void HarmonicFit::check_arrival(const Item& item) const {
  (void)class_of(item.size);
}

BinId HarmonicFit::on_arrival(const Item& item, Ledger& ledger) {
  const int k = class_of(item.size);
  BinId bin = pick_bin_indexed(ledger, /*pool=*/k, item.size, FitRule::kFirst);
  if (bin == kNoBin) bin = ledger.open_bin(item.arrival, /*group=*/k);
  ledger.place(item.id, item.size, bin, item.arrival);
  return bin;
}

}  // namespace cdbp::algos
