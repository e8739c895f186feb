#include "opt/exact.h"

#include <algorithm>
#include <utility>

#include "opt/bounds.h"

namespace cdbp::opt {

namespace {

/// Disjoint right-open intervals, sorted ascending.
using IntervalSet = std::vector<std::pair<Time, Time>>;

/// Bin state with a departure-sorted member view. Because items are placed
/// in arrival order, every member arrived no later than the next candidate
/// item, so the bin load on [r.arrival, inf) is non-increasing: the only
/// load that matters is the one at r.arrival, i.e. the total size of
/// members departing after it — a binary search plus one suffix-sum read.
struct OptBin {
  std::vector<std::size_t> members;  // item indices, placement-ordered
  Time lo = 0.0, hi = 0.0;
  std::vector<std::pair<Time, Load>> by_departure;  // ascending departure
  std::vector<Load> suffix;  // suffix[j] = sum of sizes j.. ; size()+1 entries

  [[nodiscard]] Load load_at_arrival(Time a) const {
    const auto it = std::upper_bound(
        by_departure.begin(), by_departure.end(), a,
        [](Time t, const std::pair<Time, Load>& e) { return t < e.first; });
    return suffix[static_cast<std::size_t>(it - by_departure.begin())];
  }

  void commit(const Item& r, std::size_t i) {
    members.push_back(i);
    lo = std::min(lo, r.arrival);
    hi = std::max(hi, r.departure);
    const auto pos = std::lower_bound(
        by_departure.begin(), by_departure.end(), r.departure,
        [](const std::pair<Time, Load>& e, Time t) { return e.first < t; });
    by_departure.insert(pos, {r.departure, r.size});
    suffix.assign(by_departure.size() + 1, 0.0);
    for (std::size_t j = by_departure.size(); j-- > 0;)
      suffix[j] = suffix[j + 1] + by_departure[j].second;
  }
};

class SearchOptimized {
 public:
  SearchOptimized(const Instance& instance, const ExactOptions& options)
      : items_(instance.items()), opts_(options) {
    sorted_by_arrival_ =
        std::is_sorted(items_.begin(), items_.end(),
                       [](const Item& a, const Item& b) {
                         return a.arrival < b.arrival;
                       });
    lb0_ = compute_bounds(instance).lower();
    // Suffix interval unions: union_[i] = union of I(r_j), j >= i. Items
    // are arrival-sorted, so prepending item i merges a prefix of
    // union_[i+1] in one pass.
    union_.assign(items_.size() + 1, {});
    for (std::size_t i = items_.size(); i-- > 0;) {
      const IntervalSet& next = union_[i + 1];
      IntervalSet& cur = union_[i];
      Time lo = items_[i].arrival, hi = items_[i].departure;
      std::size_t j = 0;
      while (j < next.size() && next[j].first <= hi) {
        hi = std::max(hi, next[j].second);
        ++j;
      }
      cur.reserve(next.size() + 1 - j);
      cur.emplace_back(lo, hi);
      cur.insert(cur.end(), next.begin() + static_cast<std::ptrdiff_t>(j),
                 next.end());
    }
  }

  std::optional<ExactResult> run() {
    const GreedySeed seed = greedy_nonrepacking_seed_impl();
    best_cost_ = seed.cost;
    best_assignment_ = seed.assignment;
    assignment_.assign(items_.size(), -1);
    bins_.clear();
    bins_.reserve(items_.size());
    nodes_ = 0;
    aborted_ = false;
    recurse(0, 0.0);
    if (aborted_) return std::nullopt;
    ExactResult r;
    r.cost = best_cost_;
    r.assignment = best_assignment_;
    r.nodes_explored = nodes_;
    return r;
  }

  [[nodiscard]] GreedySeed greedy_nonrepacking_seed_impl() const {
    GreedySeed out;
    std::vector<OptBin> bins;
    out.assignment.assign(items_.size(), -1);
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const Item& r = items_[i];
      bool placed = false;
      for (std::size_t b = 0; b < bins.size() && !placed; ++b) {
        if (r.arrival > bins[b].hi || r.departure < bins[b].lo) continue;
        if (!fits(bins[b], r)) continue;
        const Time lo = std::min(bins[b].lo, r.arrival);
        const Time hi = std::max(bins[b].hi, r.departure);
        out.cost += (hi - lo) - (bins[b].hi - bins[b].lo);
        bins[b].commit(r, i);
        out.assignment[i] = static_cast<int>(b);
        placed = true;
      }
      if (!placed) {
        bins.emplace_back();
        bins.back().lo = r.arrival;
        bins.back().hi = r.departure;
        bins.back().commit(r, i);
        out.cost += r.length();
        out.assignment[i] = static_cast<int>(bins.size()) - 1;
      }
    }
    return out;
  }

 private:
  [[nodiscard]] bool fits(const OptBin& b, const Item& r) const {
    if (sorted_by_arrival_)
      return fits_in_bin(b.load_at_arrival(r.arrival), r.size);
    // Fallback for unsorted inputs: the reference probe semantics.
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

  /// Measure of union_[i] not covered by any current bin span. Admissible:
  /// every uncovered instant must enter some bin's span before the items
  /// covering it are placed, and spans only grow, so any completion pays
  /// at least this much on top of `cost`.
  [[nodiscard]] double uncovered_measure(std::size_t i) {
    const IntervalSet& need = union_[i];
    if (need.empty()) return 0.0;
    spans_.clear();
    for (const OptBin& b : bins_) spans_.emplace_back(b.lo, b.hi);
    std::sort(spans_.begin(), spans_.end());
    double uncovered = 0.0;
    std::size_t c = 0;
    Time covered_to = -kInfTime;
    for (const auto& [lo, hi] : need) {
      Time at = lo;
      while (at < hi) {
        // Advance coverage past `at`.
        while (c < spans_.size() && spans_[c].first <= at) {
          covered_to = std::max(covered_to, spans_[c].second);
          ++c;
        }
        if (covered_to > at) {
          at = std::min(hi, covered_to);
          continue;
        }
        // Uncovered from `at` to the next span start (or hi).
        const Time next =
            c < spans_.size() ? std::min(hi, spans_[c].first) : hi;
        uncovered += next - at;
        at = next;
        if (c >= spans_.size()) break;
      }
    }
    return uncovered;
  }

  void recurse(std::size_t i, double cost) {
    if (aborted_) return;
    // Global floor: nothing can beat the incumbent by more than the
    // tolerance once it touches the certified lower bound.
    if (best_cost_ <= lb0_ + 1e-12) return;
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
    if (cost + uncovered_measure(i) >= best_cost_ - 1e-12) return;
    const Item& r = items_[i];

    for (std::size_t b = 0; b < bins_.size(); ++b) {
      if (r.arrival > bins_[b].hi || r.departure < bins_[b].lo) continue;
      if (!fits(bins_[b], r)) continue;
      const Time lo = std::min(bins_[b].lo, r.arrival);
      const Time hi = std::max(bins_[b].hi, r.departure);
      const double delta = (hi - lo) - (bins_[b].hi - bins_[b].lo);
      const OptBin saved = bins_[b];
      bins_[b].commit(r, i);
      assignment_[i] = static_cast<int>(b);
      recurse(i + 1, cost + delta);
      bins_[b] = saved;
      assignment_[i] = -1;
    }
    bins_.emplace_back();
    bins_.back().lo = r.arrival;
    bins_.back().hi = r.departure;
    bins_.back().commit(r, i);
    assignment_[i] = static_cast<int>(bins_.size()) - 1;
    recurse(i + 1, cost + r.length());
    bins_.pop_back();
    assignment_[i] = -1;
  }

  const std::vector<Item>& items_;
  ExactOptions opts_;
  bool sorted_by_arrival_ = true;
  double lb0_ = 0.0;
  std::vector<IntervalSet> union_;

  std::vector<OptBin> bins_;
  IntervalSet spans_;  // scratch for uncovered_measure
  std::vector<int> assignment_;
  double best_cost_ = 0.0;
  std::vector<int> best_assignment_;
  std::size_t nodes_ = 0;
  bool aborted_ = false;
};

}  // namespace

std::optional<ExactResult> exact_opt_nonrepacking(const Instance& instance,
                                                  const ExactOptions& options) {
  if (instance.size() > options.max_items) return std::nullopt;
  if (instance.empty()) return ExactResult{};
  return SearchOptimized(instance, options).run();
}

GreedySeed greedy_nonrepacking_seed(const Instance& instance) {
  if (instance.empty()) return {};
  return SearchOptimized(instance, {}).greedy_nonrepacking_seed_impl();
}

}  // namespace cdbp::opt
