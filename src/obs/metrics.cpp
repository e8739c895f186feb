#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

namespace cdbp::obs {

// Pure snapshot arithmetic — available in both build modes.
std::uint64_t HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th observation, 1-based.
  const auto rank = std::max<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))),
      1);
  std::uint64_t seen = 0;
  for (std::size_t k = 0; k < buckets.size(); ++k) {
    if (buckets[k] == 0) continue;
    const std::uint64_t before = seen;
    seen += buckets[k];
    if (seen < rank) continue;
    if (k == 0) return 0;  // bucket 0 holds only the value 0
    // Linear interpolation by rank position within bucket k's value range
    // [2^(k-1), 2^k): the bucket's observations are assumed evenly spread,
    // with the j-th of n sitting at fraction (j - 0.5) / n of the range.
    const double lo = std::ldexp(1.0, static_cast<int>(k) - 1);
    const double hi = std::ldexp(1.0, static_cast<int>(k));
    const double pos =
        (static_cast<double>(rank - before) - 0.5) /
        static_cast<double>(buckets[k]);
    const auto est = static_cast<std::uint64_t>(
        std::llround(lo + pos * (hi - lo)));
    return std::clamp(est, min, max);
  }
  return max;
}

#ifndef CDBP_OBS_OFF

namespace {

/// Bucket of a value: bit_width, so 0 -> 0 and [2^(k-1), 2^k) -> k.
std::size_t bucket_of(std::uint64_t v) noexcept {
  return static_cast<std::size_t>(std::bit_width(v));
}

template <typename Map>
auto& find_or_create(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end())
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  return *it->second;
}

}  // namespace

void Histogram::record(std::uint64_t v) noexcept {
  buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
  // Release, paired with snapshot()'s acquire: a snapshot that counts this
  // observation also holds its bucket and sum, so deltas partition totals.
  count_.fetch_add(1, std::memory_order_release);
  std::uint64_t cur = min_.load(std::memory_order_relaxed);
  while (v < cur &&
         !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur &&
         !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::snapshot() const noexcept {
  HistogramSnapshot s;
  s.count = count_.load(std::memory_order_acquire);
  s.sum = sum_.load(std::memory_order_relaxed);
  const std::uint64_t mn = min_.load(std::memory_order_relaxed);
  s.min = mn == UINT64_MAX ? 0 : mn;
  s.max = max_.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < kHistogramBuckets; ++k)
    s.buckets[k] = buckets_[k].load(std::memory_order_relaxed);
  return s;
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(UINT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::scoped_lock lock(mutex_);
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::scoped_lock lock(mutex_);
  return find_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  std::scoped_lock lock(mutex_);
  return find_or_create(histograms_, name);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::scoped_lock lock(mutex_);
  MetricsSnapshot s;
  s.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) s.counters.emplace_back(name, c->value());
  s.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) s.gauges.emplace_back(name, g->value());
  s.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    s.histograms.emplace_back(name, h->snapshot());
  return s;
}

void MetricsRegistry::reset() {
  std::scoped_lock lock(mutex_);
  for (const auto& [name, c] : counters_) {
    (void)name;
    c->reset();
  }
  for (const auto& [name, g] : gauges_) {
    (void)name;
    g->reset();
  }
  for (const auto& [name, h] : histograms_) {
    (void)name;
    h->reset();
  }
}

void MetricsRegistry::dump_text(std::ostream& out) const {
  const MetricsSnapshot s = snapshot();
  for (const auto& [name, v] : s.counters)
    out << "counter " << name << " " << v << "\n";
  for (const auto& [name, v] : s.gauges)
    out << "gauge " << name << " " << v << "\n";
  for (const auto& [name, h] : s.histograms)
    out << "histogram " << name << " count=" << h.count << " sum=" << h.sum
        << " min=" << h.min << " max=" << h.max << " mean=" << h.mean()
        << " p50~" << h.quantile(0.5) << " p99~" << h.quantile(0.99) << "\n";
}

void MetricsRegistry::dump_csv(std::ostream& out) const {
  const MetricsSnapshot s = snapshot();
  out << "kind,name,count,sum,min,max,mean,p50,p99\n";
  for (const auto& [name, v] : s.counters)
    out << "counter," << name << ",," << v << ",,,,,\n";
  for (const auto& [name, v] : s.gauges)
    out << "gauge," << name << ",,,,," << v << ",,\n";
  for (const auto& [name, h] : s.histograms)
    out << "histogram," << name << "," << h.count << "," << h.sum << ","
        << h.min << "," << h.max << "," << h.mean() << "," << h.quantile(0.5)
        << "," << h.quantile(0.99) << "\n";
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

#endif  // CDBP_OBS_OFF

}  // namespace cdbp::obs
