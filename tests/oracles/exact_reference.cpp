#include "oracles/opt_reference.h"

#include <algorithm>
#include <limits>

namespace cdbp::oracles {

namespace {

/// Mutable bin state during the search.
struct SearchBin {
  std::vector<std::size_t> members;  // item indices, arrival-ordered
  Time lo = 0.0, hi = 0.0;           // current span endpoints
};

class SearchReference {
 public:
  SearchReference(const Instance& instance, const opt::ExactOptions& options)
      : items_(instance.items()), opts_(options) {}

  std::optional<opt::ExactResult> run() {
    best_cost_ = std::numeric_limits<double>::infinity();
    // Greedy seed (first-fit by arrival) to get an initial incumbent.
    seed_incumbent();
    assignment_.assign(items_.size(), -1);
    bins_.clear();
    bins_.reserve(items_.size());
    nodes_ = 0;
    aborted_ = false;
    recurse(0, 0.0);
    if (aborted_) return std::nullopt;
    opt::ExactResult r;
    r.cost = best_cost_;
    r.assignment = best_assignment_;
    r.nodes_explored = nodes_;
    return r;
  }

 private:
  void seed_incumbent() {
    std::vector<SearchBin> bins;
    std::vector<int> assign(items_.size(), -1);
    double cost = 0.0;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      bool placed = false;
      for (std::size_t b = 0; b < bins.size() && !placed; ++b)
        if (fits(bins[b], i)) {
          cost += add_cost(bins[b], i);
          commit(bins[b], i);
          assign[i] = static_cast<int>(b);
          placed = true;
        }
      if (!placed) {
        bins.push_back(SearchBin{{i}, items_[i].arrival, items_[i].departure});
        cost += items_[i].length();
        assign[i] = static_cast<int>(bins.size()) - 1;
      }
    }
    best_cost_ = cost;
    best_assignment_ = assign;
  }

  /// Capacity feasibility of adding item i to bin b: at every instant of
  /// i's interval the loads of overlapping members plus s(i) stay <= 1.
  /// Checked at the O(|members|) candidate breakpoints.
  [[nodiscard]] bool fits(const SearchBin& b, std::size_t i) const {
    const Item& r = items_[i];
    // Candidate critical times: r.arrival and members' arrivals inside I(r).
    auto load_at = [&](Time t) {
      Load acc = 0.0;
      for (std::size_t m : b.members) {
        const Item& x = items_[m];
        if (x.arrival <= t && t < x.departure) acc += x.size;
      }
      return acc;
    };
    if (!fits_in_bin(load_at(r.arrival), r.size)) return false;
    for (std::size_t m : b.members) {
      const Item& x = items_[m];
      if (x.arrival > r.arrival && x.arrival < r.departure)
        if (!fits_in_bin(load_at(x.arrival), r.size)) return false;
    }
    return true;
  }

  /// Span increase caused by adding item i to bin b.
  [[nodiscard]] double add_cost(const SearchBin& b, std::size_t i) const {
    const Item& r = items_[i];
    const Time lo = std::min(b.lo, r.arrival);
    const Time hi = std::max(b.hi, r.departure);
    // Items are assigned in arrival order and bins stay span-contiguous:
    // every member overlaps the running span (enforced in recurse()), so
    // the union stays an interval.
    return (hi - lo) - (b.hi - b.lo);
  }

  void commit(SearchBin& b, std::size_t i) {
    b.members.push_back(i);
    b.lo = std::min(b.lo, items_[i].arrival);
    b.hi = std::max(b.hi, items_[i].departure);
  }

  void recurse(std::size_t i, double cost) {
    if (aborted_) return;
    if (++nodes_ > opts_.node_limit) {
      aborted_ = true;
      return;
    }
    if (cost >= best_cost_ - 1e-12) return;  // prune
    if (i == items_.size()) {
      best_cost_ = cost;
      best_assignment_ = assignment_;
      return;
    }
    const Item& r = items_[i];

    // Try each existing bin (set-partition order: bins are created in
    // first-use order, so this enumerates each partition once).
    for (std::size_t b = 0; b < bins_.size(); ++b) {
      // NOTE on span accounting: if r does not overlap bin's current span,
      // reusing the bin is equivalent to a new bin cost-wise (bins close
      // when empty and are never reused, w.l.o.g.), so we skip it; the
      // "new bin" branch covers that packing.
      if (r.arrival > bins_[b].hi || r.departure < bins_[b].lo) continue;
      if (!fits(bins_[b], i)) continue;
      const double delta = add_cost(bins_[b], i);
      const SearchBin saved = bins_[b];
      commit(bins_[b], i);
      assignment_[i] = static_cast<int>(b);
      recurse(i + 1, cost + delta);
      // Deeper levels may have reallocated bins_; restore by index.
      bins_[b] = saved;
      assignment_[i] = -1;
    }
    // New bin.
    bins_.push_back(SearchBin{{i}, r.arrival, r.departure});
    assignment_[i] = static_cast<int>(bins_.size()) - 1;
    recurse(i + 1, cost + r.length());
    bins_.pop_back();
    assignment_[i] = -1;
  }

  const std::vector<Item>& items_;
  opt::ExactOptions opts_;

  std::vector<SearchBin> bins_;
  std::vector<int> assignment_;
  double best_cost_ = 0.0;
  std::vector<int> best_assignment_;
  std::size_t nodes_ = 0;
  bool aborted_ = false;
};

}  // namespace

std::optional<opt::ExactResult> exact_opt_nonrepacking_reference(
    const Instance& instance, const opt::ExactOptions& options) {
  if (instance.size() > options.max_items) return std::nullopt;
  if (instance.empty()) return opt::ExactResult{};
  return SearchReference(instance, options).run();
}

}  // namespace cdbp::oracles
