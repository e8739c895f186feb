#include "core/instance.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace cdbp {

int aligned_bucket(Time length) {
  if (length <= 0.0) throw std::invalid_argument("aligned_bucket: length <= 0");
  if (length <= 1.0) return 0;
  return ceil_log2(length);
}

Instance::Instance(std::vector<Item> items) : items_(std::move(items)) {
  finalize();
}

Instance::Instance(std::initializer_list<Item> items) : items_(items) {
  finalize();
}

void Instance::add(Time arrival, Time departure, Load size) {
  items_.push_back(Item{static_cast<ItemId>(items_.size()), arrival, departure,
                        size});
}

void Instance::finalize() {
  const auto by_arrival = [](const Item& a, const Item& b) {
    return a.arrival < b.arrival;
  };
  // Ordered input (a .cdbpi file, an ordered CSV) skips the sort and its
  // n/2-item buffer; a stable sort would leave it as it is.
  if (!std::is_sorted(items_.begin(), items_.end(), by_arrival))
    std::stable_sort(items_.begin(), items_.end(), by_arrival);
  for (std::size_t i = 0; i < items_.size(); ++i)
    items_[i].id = static_cast<ItemId>(i);
  validate();
}

void Instance::validate() const {
  for (const Item& r : items_) {
    if (!(r.size > 0.0) || r.size > kBinCapacity + kLoadEps)
      throw std::invalid_argument("Instance: item size outside (0, 1]");
    if (!(r.departure > r.arrival))
      throw std::invalid_argument("Instance: departure <= arrival");
    if (!std::isfinite(r.arrival) || !std::isfinite(r.departure))
      throw std::invalid_argument("Instance: non-finite time");
  }
}

double Instance::mu() const {
  if (items_.size() < 2) return 1.0;
  return max_length() / min_length();
}

Time Instance::min_length() const {
  Time best = kInfTime;
  for (const Item& r : items_) best = std::min(best, r.length());
  return items_.empty() ? 0.0 : best;
}

Time Instance::max_length() const {
  Time best = 0.0;
  for (const Item& r : items_) best = std::max(best, r.length());
  return best;
}

double Instance::total_demand() const {
  double acc = 0.0;
  for (const Item& r : items_) acc += r.demand();
  return acc;
}

double Instance::span() const {
  // Measure of the union of intervals, swept in place: finalize() left the
  // items in arrival order, and among equal arrivals the order changes
  // neither the components nor their sum.
  if (items_.empty()) return 0.0;
  double acc = 0.0;
  Time cur_lo = items_[0].arrival, cur_hi = items_[0].departure;
  for (std::size_t i = 1; i < items_.size(); ++i) {
    const Item& r = items_[i];
    if (r.arrival <= cur_hi) {
      cur_hi = std::max(cur_hi, r.departure);
    } else {
      acc += cur_hi - cur_lo;
      cur_lo = r.arrival;
      cur_hi = r.departure;
    }
  }
  acc += cur_hi - cur_lo;
  return acc;
}

StepFunction Instance::load_profile() const {
  StepFunction f;
  for (const Item& r : items_) f.add(r.arrival, r.departure, r.size);
  return f;
}

Time Instance::horizon_start() const {
  Time best = kInfTime;
  for (const Item& r : items_) best = std::min(best, r.arrival);
  return items_.empty() ? 0.0 : best;
}

Time Instance::horizon_end() const {
  Time best = -kInfTime;
  for (const Item& r : items_) best = std::max(best, r.departure);
  return items_.empty() ? 0.0 : best;
}

std::size_t Instance::max_concurrency() const {
  std::vector<std::pair<Time, int>> ev;
  ev.reserve(items_.size() * 2);
  for (const Item& r : items_) {
    ev.emplace_back(r.arrival, +1);
    ev.emplace_back(r.departure, -1);
  }
  // Departures before arrivals at equal times (t^- semantics).
  std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.second < b.second;
  });
  std::size_t cur = 0, best = 0;
  for (const auto& [t, d] : ev) {
    (void)t;
    if (d > 0)
      ++cur;
    else
      --cur;
    best = std::max(best, cur);
  }
  return best;
}

bool Instance::is_aligned() const {
  for (const Item& r : items_) {
    if (r.arrival < 0.0) return false;
    const int i = aligned_bucket(r.length());
    if (!is_multiple_of_pow2(r.arrival, i)) return false;
  }
  return true;
}

bool Instance::has_integer_times() const {
  for (const Item& r : items_) {
    if (r.arrival != std::floor(r.arrival)) return false;
    if (r.departure != std::floor(r.departure)) return false;
  }
  return true;
}

bool Instance::is_contiguous() const {
  if (items_.empty()) return true;
  return approx_equal(span(), horizon_end() - horizon_start(), kTimeEps);
}

std::string Instance::summary() const {
  std::ostringstream os;
  os << "Instance{n=" << items_.size() << ", mu=" << mu()
     << ", span=" << span() << ", d=" << total_demand()
     << ", horizon=[" << horizon_start() << "," << horizon_end() << "]}";
  return os.str();
}

}  // namespace cdbp
