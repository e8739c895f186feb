#include "algos/classify.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/obs.h"

namespace cdbp::algos {

namespace {

// Namespace-scope references: no initialization-guard load per placement.
obs::Counter& g_placements =
    obs::MetricsRegistry::global().counter("algo.placements");
obs::Counter& g_new_bins =
    obs::MetricsRegistry::global().counter("algo.new_bins");
obs::Tracer& g_tracer = obs::Tracer::global();

}  // namespace

ClassifyByDuration::ClassifyByDuration(double base, FitRule rule,
                                       double shift)
    : base_(base), rule_(rule), shift_(shift) {
  if (!(base > 1.0))
    throw std::invalid_argument("ClassifyByDuration: base must be > 1");
  set_shift(shift);
}

void ClassifyByDuration::set_shift(double shift) {
  if (shift < 0.0 || shift >= 1.0)
    throw std::invalid_argument("ClassifyByDuration: shift outside [0, 1)");
  shift_ = shift;
}

std::string ClassifyByDuration::name() const {
  std::ostringstream os;
  os << "CBD(base=" << base_;
  if (shift_ != 0.0) os << ",shift=" << shift_;
  os << ")";
  return os.str();
}

int ClassifyByDuration::class_of(Time length) const {
  if (!(length > 0.0))
    throw std::invalid_argument("ClassifyByDuration: length <= 0");
  // Smallest integer k with base^{k+shift} >= length, computed robustly.
  int k = static_cast<int>(std::ceil(std::log(length) / std::log(base_) -
                                     shift_ - 1e-12));
  while (std::pow(base_, k + shift_) < length) ++k;
  while (std::pow(base_, k - 1 + shift_) >= length) --k;
  return k;
}

BinId ClassifyByDuration::on_arrival(const Item& item, Ledger& ledger) {
  const int k = class_of(item.length());
  std::vector<BinId>& bins = class_bins_[k];
  BinId bin = pick_bin_indexed(ledger, /*pool=*/k, item.size, rule_);
  const bool opened = bin == kNoBin;
  if (opened) {
    bin = ledger.open_bin(item.arrival, /*group=*/k);
    bins.push_back(bin);
    bin_class_.emplace(bin, k);
  }
  ledger.place(item.id, item.size, bin, item.arrival);
  g_placements.add();
  if (opened) g_new_bins.add();
  if (g_tracer.enabled())
    g_tracer.instant("cbd.place", "algo",
                   {{"item", item.id},
                    {"bin", bin},
                    {"class", static_cast<std::int64_t>(k)}});
  return bin;
}

void ClassifyByDuration::on_departure(const Item& item, BinId bin,
                                      bool bin_closed, Ledger& ledger) {
  (void)item;
  (void)ledger;
  if (!bin_closed) return;
  const auto it = bin_class_.find(bin);
  if (it == bin_class_.end()) return;
  std::vector<BinId>& bins = class_bins_[it->second];
  bins.erase(std::remove(bins.begin(), bins.end(), bin), bins.end());
  bin_class_.erase(it);
}

void ClassifyByDuration::reset() {
  class_bins_.clear();
  bin_class_.clear();
}

void ClassifyByDuration::save_state(StateWriter& w) const {
  w.f64(shift_);
  std::vector<int> classes;
  classes.reserve(class_bins_.size());
  for (const auto& [k, bins] : class_bins_) classes.push_back(k);
  std::sort(classes.begin(), classes.end());
  w.u64(classes.size());
  for (int k : classes) {
    const std::vector<BinId>& bins = class_bins_.at(k);
    w.i64(k);
    w.u64(bins.size());
    for (BinId b : bins) w.i64(b);
  }
}

void ClassifyByDuration::load_state(StateReader& r) {
  reset();
  shift_ = r.f64();
  const std::uint64_t n_classes = r.u64();
  for (std::uint64_t i = 0; i < n_classes; ++i) {
    const int k = static_cast<int>(r.i64());
    const std::uint64_t n_bins = r.u64();
    std::vector<BinId>& bins = class_bins_[k];
    bins.reserve(n_bins);
    for (std::uint64_t j = 0; j < n_bins; ++j) {
      const BinId bin = r.i64();
      bins.push_back(bin);
      bin_class_.emplace(bin, k);
    }
  }
}

RandomizedClassify::RandomizedClassify(std::uint64_t seed, double base,
                                       FitRule rule)
    : ClassifyByDuration(base, rule, 0.0), rng_(seed) {
  RandomizedClassify::reset();
}

std::string RandomizedClassify::name() const {
  std::ostringstream os;
  os << "RandCBD(base=" << base() << ")";
  return os.str();
}

void RandomizedClassify::reset() {
  ClassifyByDuration::reset();
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  set_shift(unit(rng_));
}

double ren_et_al_base(double mu) {
  if (mu <= 2.0) return 2.0;
  const double lg = std::log2(mu);
  const double lglg = std::max(1.0, std::log2(lg));
  const int n = std::max(1, static_cast<int>(std::lround(lg / lglg)));
  return std::max(1.0 + 1e-6, std::pow(mu, 1.0 / n));
}

}  // namespace cdbp::algos
