// CDFF — Classify-by-Duration-First-Fit (Section 5, Algorithm 2), the
// O(log log mu)-competitive algorithm for *aligned* inputs (Definition 2.1:
// items of length in (2^{i-1}, 2^i] arrive only at multiples of 2^i).
//
// Within a segment starting at time t_k with horizon mu_k = 2^n, CDFF keeps
// *rows* of bins. At time t, the longest admissible duration bucket is
//   m_t = n               for t == t_k,
//   m_t = tz(t - t_k)     for t >  t_k   (trailing zeros; provably <= n),
// and an arriving item of bucket i is packed First-Fit into row (m_t - i),
// opening a new bin at that row's tail when none fits. Bins leave their row
// and close when they empty. The dynamic type->row mapping (larger m_t early,
// smaller later) is what improves the ratio to O(log log mu).
//
// Rows are stored under the time-invariant key
//   delta = i + (n - m_t)   (distance from the top row; delta = i at t_k),
// which equals the paper's row index reflected about n: paper row
// (m_t - i) == n - delta. This makes the mapping stable while n is still
// being learned during the first instant — the paper's remark that CDFF
// "does not in fact need any prior knowledge of mu".
//
// Segmentation (Section 5 preamble) is performed online: a segment covers
// arrivals in [t_k, t_k + mu_k); the first item at or beyond t_k + mu_k
// starts a new segment (t_{k+1} is provably a multiple of its own mu_{k+1},
// so rebasing keeps the input aligned). The initial "open log mu + 1 bins"
// of Algorithm 2 is notational — bins are opened lazily so that empty bins
// never accrue usage time (DESIGN.md §2, deviation 3).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "algos/any_fit.h"
#include "core/algorithm.h"

namespace cdbp::algos {

class Cdff : public Algorithm, public Checkpointable {
 public:
  explicit Cdff(FitRule rule = FitRule::kFirst);

  [[nodiscard]] std::string name() const override { return "CDFF"; }

  /// Throws std::invalid_argument if the stream is not aligned (non-integer
  /// arrival, or arrival not a multiple of 2^bucket after rebasing). Reads
  /// only the item and the segment state, which departures never change.
  void check_arrival(const Item& item) const override;
  /// Refuses what check_arrival refuses.
  BinId on_arrival(const Item& item, Ledger& ledger) override;
  void on_departure(const Item& item, BinId bin, bool bin_closed,
                    Ledger& ledger) override;
  void reset() override;

  /// Exact segment + row state (bin_row_ is rebuilt from the rows).
  void save_state(StateWriter& w) const override;
  void load_state(StateReader& r) override;

  /// Row (delta key, see file comment) of an open bin; -1 if unknown.
  [[nodiscard]] int row_of(BinId bin) const;

  /// Paper-convention row index (m - i counted from the top row, i.e.
  /// n - delta) of an open bin; requires the segment's n to be final.
  [[nodiscard]] int paper_row_of(BinId bin) const;

  /// Open bins of one delta row, in opening order.
  [[nodiscard]] const std::vector<BinId>& row_bins(int delta) const;

  /// Current segment horizon exponent n (mu_k = 2^n); -1 before any item.
  [[nodiscard]] int segment_exponent() const noexcept { return seg_n_; }
  /// Current segment start time; meaningful only after the first item.
  [[nodiscard]] Time segment_start() const noexcept { return seg_start_; }
  /// Number of completed+current segments seen so far.
  [[nodiscard]] std::size_t segment_count() const noexcept {
    return segments_;
  }

 private:
  /// m_t for arrival time t within the current segment.
  [[nodiscard]] int m_of(Time t) const;
  /// Whether an item arriving at `arrival` opens a new segment.
  [[nodiscard]] bool starts_segment(Time arrival) const;

  FitRule rule_;

  // Segment state.
  bool in_segment_ = false;
  Time seg_start_ = 0.0;
  int seg_n_ = -1;
  std::size_t segments_ = 0;

  // Row state: delta -> open bins (opening order).
  std::unordered_map<int, std::vector<BinId>> rows_;
  std::unordered_map<BinId, int> bin_row_;
};

}  // namespace cdbp::algos
