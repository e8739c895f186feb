#include "core/step_function.h"

#include <algorithm>
#include <cmath>

namespace cdbp {

void StepFunction::add(Time from, Time to, double value) {
  if (!(from < to) || value == 0.0) return;
  pending_.emplace_back(from, value);
  pending_.emplace_back(to, -value);
}

void StepFunction::finalize() const {
  if (pending_.empty()) return;
  {
    std::vector<std::pair<Time, double>> events;
    if (times_.empty()) {
      events.swap(pending_);  // first finalize: sort the adds in place
    } else {
      events.reserve(times_.size() + pending_.size());
      for (std::size_t k = 0; k < times_.size(); ++k)
        events.emplace_back(times_[k], deltas_[k]);
      events.insert(events.end(), pending_.begin(), pending_.end());
      pending_.clear();
    }
    // Stable: equal-time deltas keep insertion order, so they sum in the
    // same order the old map-based representation summed them.
    std::stable_sort(events.begin(), events.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::size_t distinct = 0;
    for (std::size_t k = 0; k < events.size(); ++k)
      if (k == 0 || events[k].first != events[k - 1].first) ++distinct;
    times_.clear();
    deltas_.clear();
    times_.reserve(distinct);
    deltas_.reserve(distinct);
    for (const auto& [time, delta] : events) {
      if (!times_.empty() && times_.back() == time) {
        deltas_.back() += delta;
      } else {
        times_.push_back(time);
        deltas_.push_back(delta);
      }
    }
  }  // the events are freed before the values are built
  values_.resize(times_.size());
  double value = 0.0;
  for (std::size_t k = 0; k < deltas_.size(); ++k) {
    value += deltas_[k];
    values_[k] = value;
  }
}

double StepFunction::at(Time t) const {
  finalize();
  const auto it = std::upper_bound(times_.begin(), times_.end(), t);
  if (it == times_.begin()) return 0.0;
  return values_[static_cast<std::size_t>(it - times_.begin()) - 1];
}

double StepFunction::integral() const {
  finalize();
  double acc = 0.0;
  for (std::size_t k = 1; k < times_.size(); ++k)
    acc += values_[k - 1] * (times_[k] - times_[k - 1]);
  return acc;
}

double StepFunction::ceil_integral() const {
  finalize();
  double acc = 0.0;
  for (std::size_t k = 1; k < times_.size(); ++k)
    if (values_[k - 1] > kLoadEps)
      acc += std::ceil(values_[k - 1] - kLoadEps) * (times_[k] - times_[k - 1]);
  return acc;
}

double StepFunction::max_value() const {
  finalize();
  double best = 0.0;
  for (const double v : values_) best = std::max(best, v);
  return best;
}

double StepFunction::support_measure(double eps) const {
  finalize();
  double acc = 0.0;
  for (std::size_t k = 1; k < times_.size(); ++k)
    if (values_[k - 1] > eps) acc += times_[k] - times_[k - 1];
  return acc;
}

std::vector<StepFunction::Sample> StepFunction::samples() const {
  finalize();
  std::vector<Sample> out;
  out.reserve(times_.size());
  for (std::size_t k = 0; k < times_.size(); ++k)
    out.push_back(Sample{times_[k], values_[k]});
  return out;
}

}  // namespace cdbp
