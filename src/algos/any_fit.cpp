#include "algos/any_fit.h"

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

// Static-storage name for trace args (TraceArg keeps the pointer, not a copy).
const char* rule_cstr(FitRule rule) {
  switch (rule) {
    case FitRule::kFirst:
      return "First";
    case FitRule::kBest:
      return "Best";
    case FitRule::kWorst:
      return "Worst";
    case FitRule::kNext:
      return "Next";
  }
  return "?";
}

}  // namespace

std::string to_string(FitRule rule) {
  switch (rule) {
    case FitRule::kFirst:
      return "First";
    case FitRule::kBest:
      return "Best";
    case FitRule::kWorst:
      return "Worst";
    case FitRule::kNext:
      return "Next";
  }
  throw std::invalid_argument("unknown FitRule");
}

BinId pick_bin_indexed(const Ledger& ledger, PoolId pool, Load size,
                       FitRule rule) {
  switch (rule) {
    case FitRule::kFirst:
      return ledger.first_fit(pool, size);
    case FitRule::kBest:
      return ledger.best_fit(pool, size);
    case FitRule::kWorst:
      return ledger.worst_fit(pool, size);
    case FitRule::kNext: {
      const BinId last = ledger.newest_open_in_pool(pool);
      return (last != kNoBin && ledger.fits(last, size)) ? last : kNoBin;
    }
  }
  throw std::invalid_argument("unknown FitRule");
}

BinId AnyFit::on_arrival(const Item& item, Ledger& ledger) {
  // All AnyFit bins live in pool 0.
  BinId bin = pick_bin_indexed(ledger, /*pool=*/0, item.size, rule_);
  const bool opened = bin == kNoBin;
  if (opened) bin = ledger.open_bin(item.arrival);
  ledger.place(item.id, item.size, bin, item.arrival);
  g_placements.add();
  if (opened) g_new_bins.add();
  if (g_tracer.enabled())
    g_tracer.instant("anyfit.place", "algo",
                   {{"item", item.id},
                    {"bin", bin},
                    {"rule", rule_cstr(rule_)},
                    {"new_bin", static_cast<std::int64_t>(opened)}});
  return bin;
}

}  // namespace cdbp::algos
