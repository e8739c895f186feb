#include "core/metrics.h"

#include <algorithm>

namespace cdbp {

RunMetrics compute_metrics(const Instance& instance,
                           const RunResult& result) {
  RunMetrics m;
  m.cost = result.cost;
  m.utilization =
      result.cost > 0.0 ? instance.total_demand() / result.cost : 0.0;
  if (result.bins.empty()) {
    // No per-bin history. Distinguish "nothing ran" (all-zero metrics) from
    // "ran with keep_history = false" (cost/utilization valid, rest absent).
    m.partial = instance.size() > 0;
    return m;
  }

  double span_sum = 0.0;
  for (const BinRecord& bin : result.bins) {
    const double span = bin.usage(bin.closed);
    span_sum += span;
    m.max_bin_span = std::max(m.max_bin_span, span);
    m.cost_by_group[bin.group] += span;
  }
  const auto n = static_cast<double>(result.bins.size());
  m.mean_bin_span = span_sum / n;
  // Every placement puts one item into one bin.
  m.mean_items_per_bin = static_cast<double>(result.placements.size()) / n;
  return m;
}

}  // namespace cdbp
