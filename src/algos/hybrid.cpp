#include "algos/hybrid.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"

namespace cdbp::algos {

namespace {

// Namespace-scope references: no initialization-guard load per placement.
obs::Counter& g_placements =
    obs::MetricsRegistry::global().counter("algo.placements");
obs::Counter& g_new_bins =
    obs::MetricsRegistry::global().counter("algo.new_bins");
obs::Gauge& g_cd_open =
    obs::MetricsRegistry::global().gauge("hybrid.cd_open_bins");
obs::Tracer& g_tracer = obs::Tracer::global();

// One instant per placement decision; `path` is a static string naming which
// of the algorithm's branches fired (docs/OBSERVABILITY.md lists them all).
void trace_place(const Item& item, BinId bin, const char* path,
                 std::int64_t type_class, bool opened) {
  g_placements.add();
  if (opened) g_new_bins.add();
  if (!g_tracer.enabled()) return;
  g_tracer.instant("hybrid.place", "algo",
                   {{"item", item.id},
                    {"bin", bin},
                    {"path", path},
                    {"type", type_class}});
}

}  // namespace

Hybrid::Hybrid(Threshold threshold, std::string label, FitRule rule)
    : threshold_(std::move(threshold)), label_(std::move(label)), rule_(rule) {
  if (!threshold_) throw std::invalid_argument("Hybrid: null threshold");
}

PoolId Hybrid::cd_pool(const DurationType& type) {
  const auto it = type_pool_.find(type);
  if (it != type_pool_.end()) return it->second;
  const PoolId pool = next_cd_pool_++;
  type_pool_.emplace(type, pool);
  return pool;
}

double Hybrid::active_load(const DurationType& t) const {
  const auto it = active_load_.find(t);
  return it == active_load_.end() ? 0.0 : it->second;
}

BinId Hybrid::on_arrival(const Item& item, Ledger& ledger) {
  const DurationType type = duration_type(item);
  double& d = active_load_[type];
  d += item.size;

  // Step 1: an open CD bin for this type captures the item.
  if (auto it = cd_bins_.find(type);
      it != cd_bins_.end() && !it->second.empty()) {
    BinId bin = pick_bin_indexed(ledger, cd_pool(type), item.size, rule_);
    const bool opened = bin == kNoBin;
    if (opened) {
      bin = ledger.open_bin(item.arrival, kHybridGroupCD, cd_pool(type));
      it->second.push_back(bin);
      cd_bin_type_.emplace(bin, type);
      ++cd_open_total_;
      g_cd_open.set(static_cast<double>(cd_open_total_));
    }
    ledger.place(item.id, item.size, bin, item.arrival);
    trace_place(item, bin, opened ? "cd-open" : "cd-reuse",
                static_cast<std::int64_t>(type.i), opened);
    return bin;
  }

  // Step 2: heavy type -> dedicate a CD bin to it.
  if (definitely_greater(d, threshold_(type.i))) {
    const BinId bin = ledger.open_bin(item.arrival, kHybridGroupCD, cd_pool(type));
    cd_bins_[type].push_back(bin);
    cd_bin_type_.emplace(bin, type);
    ++cd_open_total_;
    g_cd_open.set(static_cast<double>(cd_open_total_));
    ledger.place(item.id, item.size, bin, item.arrival);
    trace_place(item, bin, "cd-heavy", static_cast<std::int64_t>(type.i),
                /*opened=*/true);
    return bin;
  }

  // Step 3: light type -> shared GN pool.
  BinId bin = pick_bin_indexed(ledger, kHybridGroupGN, item.size, rule_);
  const bool opened = bin == kNoBin;
  if (opened) {
    bin = ledger.open_bin(item.arrival, kHybridGroupGN);
    gn_bins_.push_back(bin);
  }
  ledger.place(item.id, item.size, bin, item.arrival);
  trace_place(item, bin, opened ? "gn-new" : "gn-reuse",
              static_cast<std::int64_t>(type.i), opened);
  return bin;
}

void Hybrid::on_departure(const Item& item, BinId bin, bool bin_closed,
                          Ledger& ledger) {
  (void)ledger;
  const DurationType type = duration_type(item);
  if (auto it = active_load_.find(type); it != active_load_.end()) {
    it->second -= item.size;
    if (it->second <= kLoadEps) active_load_.erase(it);
  }
  if (!bin_closed) return;

  if (auto it = cd_bin_type_.find(bin); it != cd_bin_type_.end()) {
    std::vector<BinId>& bins = cd_bins_[it->second];
    bins.erase(std::remove(bins.begin(), bins.end(), bin), bins.end());
    if (bins.empty()) {
      // The type's last CD bin: drop its pool id too. If the type comes
      // back it gets a fresh pool, which selects exactly as the old one
      // would have (no open bin in either).
      cd_bins_.erase(it->second);
      type_pool_.erase(it->second);
    }
    cd_bin_type_.erase(it);
    --cd_open_total_;
    g_cd_open.set(static_cast<double>(cd_open_total_));
  } else {
    gn_bins_.erase(std::remove(gn_bins_.begin(), gn_bins_.end(), bin),
                   gn_bins_.end());
  }
}

namespace {

/// Keys of an unordered_map<DurationType, V>, sorted so serialization is
/// deterministic regardless of hash iteration order.
template <typename Map>
std::vector<DurationType> sorted_type_keys(const Map& map) {
  std::vector<DurationType> keys;
  keys.reserve(map.size());
  for (const auto& [type, value] : map) keys.push_back(type);
  std::sort(keys.begin(), keys.end());
  return keys;
}

void write_type(StateWriter& w, const DurationType& t) {
  w.i64(t.i);
  w.i64(t.c);
}

DurationType read_type(StateReader& r) {
  DurationType t;
  t.i = static_cast<int>(r.i64());
  t.c = r.i64();
  return t;
}

}  // namespace

void Hybrid::save_state(StateWriter& w) const {
  const std::vector<DurationType> load_keys = sorted_type_keys(active_load_);
  w.u64(load_keys.size());
  for (const DurationType& t : load_keys) {
    write_type(w, t);
    w.f64(active_load_.at(t));
  }
  const std::vector<DurationType> pool_keys = sorted_type_keys(type_pool_);
  w.u64(pool_keys.size());
  for (const DurationType& t : pool_keys) {
    write_type(w, t);
    w.i64(type_pool_.at(t));
  }
  w.i64(next_cd_pool_);
  const std::vector<DurationType> cd_keys = sorted_type_keys(cd_bins_);
  w.u64(cd_keys.size());
  for (const DurationType& t : cd_keys) {
    write_type(w, t);
    const std::vector<BinId>& bins = cd_bins_.at(t);
    w.u64(bins.size());
    for (BinId b : bins) w.i64(b);
  }
  w.u64(gn_bins_.size());
  for (BinId b : gn_bins_) w.i64(b);
}

void Hybrid::load_state(StateReader& r) {
  reset();
  const std::uint64_t n_loads = r.u64();
  for (std::uint64_t i = 0; i < n_loads; ++i) {
    const DurationType t = read_type(r);
    active_load_.emplace(t, r.f64());
  }
  const std::uint64_t n_pools = r.u64();
  for (std::uint64_t i = 0; i < n_pools; ++i) {
    const DurationType t = read_type(r);
    type_pool_.emplace(t, r.i64());
  }
  next_cd_pool_ = r.i64();
  const std::uint64_t n_types = r.u64();
  for (std::uint64_t i = 0; i < n_types; ++i) {
    const DurationType t = read_type(r);
    const std::uint64_t n_bins = r.u64();
    std::vector<BinId>& bins = cd_bins_[t];
    bins.reserve(n_bins);
    for (std::uint64_t k = 0; k < n_bins; ++k) {
      const BinId bin = r.i64();
      bins.push_back(bin);
      cd_bin_type_.emplace(bin, t);
      ++cd_open_total_;
    }
  }
  const std::uint64_t n_gn = r.u64();
  gn_bins_.reserve(n_gn);
  for (std::uint64_t i = 0; i < n_gn; ++i) gn_bins_.push_back(r.i64());
  g_cd_open.set(static_cast<double>(cd_open_total_));
}

void Hybrid::reset() {
  active_load_.clear();
  type_pool_.clear();
  next_cd_pool_ = kHybridGroupCD;
  cd_bins_.clear();
  cd_bin_type_.clear();
  gn_bins_.clear();
  cd_open_total_ = 0;
}

}  // namespace cdbp::algos
