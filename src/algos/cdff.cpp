#include "algos/cdff.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/instance.h"  // aligned_bucket
#include "obs/obs.h"

namespace cdbp::algos {

namespace {

const std::vector<BinId> kEmptyRow;

// Namespace-scope references: no initialization-guard load per placement.
obs::Counter& g_placements =
    obs::MetricsRegistry::global().counter("algo.placements");
obs::Counter& g_new_bins =
    obs::MetricsRegistry::global().counter("algo.new_bins");
obs::Counter& g_segments =
    obs::MetricsRegistry::global().counter("cdff.segments");
obs::Tracer& g_tracer = obs::Tracer::global();

std::int64_t to_integer_time(Time t, const char* what) {
  if (t < 0.0 || t != std::floor(t))
    throw std::invalid_argument(std::string("CDFF: ") + what +
                                " is not a non-negative integer — input is "
                                "not aligned");
  return static_cast<std::int64_t>(t);
}

}  // namespace

Cdff::Cdff(FitRule rule) : rule_(rule) {}

int Cdff::m_of(Time t) const {
  if (t == seg_start_) return seg_n_;
  const std::int64_t rel =
      to_integer_time(t, "arrival") - to_integer_time(seg_start_, "segment");
  return trailing_zeros(static_cast<std::uint64_t>(rel));
}

bool Cdff::starts_segment(Time arrival) const {
  return !in_segment_ || arrival >= seg_start_ + pow2(seg_n_);
}

void Cdff::check_arrival(const Item& item) const {
  (void)to_integer_time(item.arrival, "arrival");
  const int bucket = aligned_bucket(item.length());
  if (!is_multiple_of_pow2(item.arrival, bucket))
    throw std::invalid_argument(
        "CDFF: arrival not a multiple of 2^bucket — input is not aligned");
  // A segment's opening instant admits every bucket (the horizon grows to
  // fit it); later instants admit buckets up to m_t.
  if (starts_segment(item.arrival) || item.arrival == seg_start_) return;
  if (bucket > m_of(item.arrival))
    throw std::invalid_argument(
        "CDFF: bucket exceeds m_t — input is not aligned within segment");
}

BinId Cdff::on_arrival(const Item& item, Ledger& ledger) {
  check_arrival(item);
  const int bucket = aligned_bucket(item.length());

  // --- Segmentation -------------------------------------------------------
  if (starts_segment(item.arrival)) {
    if (in_segment_ && !rows_.empty())
      throw std::logic_error(
          "CDFF: previous segment still has open bins at a new segment "
          "boundary — input violates Definition 2.1");
    in_segment_ = true;
    seg_start_ = item.arrival;
    seg_n_ = bucket;
    ++segments_;
    g_segments.add();
  } else if (item.arrival == seg_start_) {
    // Still inside the opening instant: the horizon may grow.
    seg_n_ = std::max(seg_n_, bucket);
  }

  const int m = m_of(item.arrival);

  // Row key (see header): delta = i + (n - m_t); equals i at segment start.
  const int delta = bucket + (seg_n_ - m);

  std::vector<BinId>& row = rows_[delta];
  BinId bin = pick_bin_indexed(ledger, /*pool=*/delta, item.size, rule_);
  const bool opened = bin == kNoBin;
  if (opened) {
    bin = ledger.open_bin(item.arrival, /*group=*/delta);
    row.push_back(bin);
    bin_row_.emplace(bin, delta);
  }
  ledger.place(item.id, item.size, bin, item.arrival);
  g_placements.add();
  if (opened) g_new_bins.add();
  if (g_tracer.enabled())
    g_tracer.instant("cdff.place", "algo",
                   {{"item", item.id},
                    {"bin", bin},
                    {"row", static_cast<std::int64_t>(delta)},
                    {"m", static_cast<std::int64_t>(m)}});
  return bin;
}

void Cdff::on_departure(const Item& item, BinId bin, bool bin_closed,
                        Ledger& ledger) {
  (void)item;
  (void)ledger;
  if (!bin_closed) return;
  const auto it = bin_row_.find(bin);
  if (it == bin_row_.end()) return;
  std::vector<BinId>& row = rows_[it->second];
  row.erase(std::remove(row.begin(), row.end(), bin), row.end());
  if (row.empty()) rows_.erase(it->second);
  bin_row_.erase(it);
}

void Cdff::reset() {
  in_segment_ = false;
  seg_start_ = 0.0;
  seg_n_ = -1;
  segments_ = 0;
  rows_.clear();
  bin_row_.clear();
}

void Cdff::save_state(StateWriter& w) const {
  w.u8(in_segment_ ? 1 : 0);
  w.f64(seg_start_);
  w.i64(seg_n_);
  w.u64(segments_);
  std::vector<int> deltas;
  deltas.reserve(rows_.size());
  for (const auto& [delta, bins] : rows_) deltas.push_back(delta);
  std::sort(deltas.begin(), deltas.end());
  w.u64(deltas.size());
  for (int delta : deltas) {
    const std::vector<BinId>& bins = rows_.at(delta);
    w.i64(delta);
    w.u64(bins.size());
    for (BinId b : bins) w.i64(b);
  }
}

void Cdff::load_state(StateReader& r) {
  reset();
  in_segment_ = r.u8() != 0;
  seg_start_ = r.f64();
  seg_n_ = static_cast<int>(r.i64());
  segments_ = r.u64();
  const std::uint64_t n_rows = r.u64();
  for (std::uint64_t i = 0; i < n_rows; ++i) {
    const int delta = static_cast<int>(r.i64());
    const std::uint64_t n_bins = r.u64();
    std::vector<BinId>& row = rows_[delta];
    row.reserve(n_bins);
    for (std::uint64_t k = 0; k < n_bins; ++k) {
      const BinId bin = r.i64();
      row.push_back(bin);
      bin_row_.emplace(bin, delta);
    }
  }
}

int Cdff::row_of(BinId bin) const {
  const auto it = bin_row_.find(bin);
  return it == bin_row_.end() ? -1 : it->second;
}

int Cdff::paper_row_of(BinId bin) const {
  const int delta = row_of(bin);
  return delta < 0 ? -1 : seg_n_ - delta;
}

const std::vector<BinId>& Cdff::row_bins(int delta) const {
  const auto it = rows_.find(delta);
  return it == rows_.end() ? kEmptyRow : it->second;
}

}  // namespace cdbp::algos
