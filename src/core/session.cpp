#include "core/session.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace cdbp {

void InteractiveSession::drain_until(Time t_inclusive) {
  while (!dq_.empty() && dq_.front().item.departure <= t_inclusive) {
    std::pop_heap(dq_.begin(), dq_.end(), std::greater<>{});
    const Item item = dq_.back().item;
    dq_.pop_back();
    clock_ = std::max(clock_, item.departure);
    const BinId bin = ledger_.remove(item.id, item.departure);
    const bool closed = !ledger_.is_open(bin);
    algo_->on_departure(item, bin, closed, ledger_);
  }
}

BinId InteractiveSession::offer(Time arrival, Time departure, Load size) {
  // Input validation (not internal invariants): a service front end feeds
  // untrusted streams through here, so bad requests must be rejected with
  // std::invalid_argument before any state is touched.
  if (arrival < clock_)
    throw std::invalid_argument(
        "InteractiveSession: arrival is before the session clock "
        "(out-of-order offer)");
  if (!(departure > arrival))
    throw std::invalid_argument("InteractiveSession: departure <= arrival");
  // An oversized item would reach the algorithm (HA bumps its type load
  // and opens a bin) before the ledger refuses it; a negative one would
  // silently overfill a bin.
  if (!valid_item_size(size))
    throw std::invalid_argument(
        "InteractiveSession: size must be finite, >= 0 and fit an empty "
        "bin");
  const Item item{next_id_, arrival, departure, size};
  algo_->check_arrival(item);
  drain_until(arrival);
  clock_ = arrival;
  ++next_id_;

  const BinId bin = algo_->on_arrival(item, ledger_);
  if (ledger_.bin_of(item.id) != bin)
    throw std::logic_error(
        "InteractiveSession: algorithm did not place the item in the bin it "
        "returned");
  dq_.push_back(Departure{item});
  std::push_heap(dq_.begin(), dq_.end(), std::greater<>{});
  return bin;
}

void InteractiveSession::advance_to(Time t) {
  if (t < clock_)
    throw std::invalid_argument("InteractiveSession: advancing backwards");
  drain_until(t);
  clock_ = t;
}

Cost InteractiveSession::finish() {
  drain_until(kInfTime);
  if (next_id_ != 0) clock_ = std::max(clock_, ledger_.clock());
  return ledger_.total_usage(clock_);
}

void InteractiveSession::save_state(StateWriter& w) const {
  // Ascending id, so the bytes do not depend on the heap's layout (a
  // restored heap is built in a different push order).
  std::vector<Item> active;
  active.reserve(dq_.size());
  for (const Departure& d : dq_) active.push_back(d.item);
  std::sort(active.begin(), active.end(),
            [](const Item& a, const Item& b) { return a.id < b.id; });
  w.f64(clock_);
  w.i64(next_id_);
  w.u64(active.size());
  for (const Item& item : active) {
    w.i64(item.id);
    w.f64(item.arrival);
    w.f64(item.departure);
    w.f64(item.size);
  }
  ledger_.save_state(w);
}

void InteractiveSession::load_state(StateReader& r) {
  if (next_id_ != 0 || !dq_.empty())
    throw std::logic_error("InteractiveSession::load_state: session not fresh");
  clock_ = r.f64();
  next_id_ = r.i64();
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    Item item;
    item.id = r.i64();
    item.arrival = r.f64();
    item.departure = r.f64();
    item.size = r.f64();
    dq_.push_back(Departure{item});
    std::push_heap(dq_.begin(), dq_.end(), std::greater<>{});
  }
  ledger_.load_state(r);
  // The heap is exactly the ledger's active placements: drain_until pops
  // every departure <= clock_ before an offer completes.
  if (ledger_.active_items() != dq_.size())
    throw std::runtime_error(
        "checkpoint: session items disagree with the ledger");
  for (const Departure& d : dq_)
    if (ledger_.bin_of(d.item.id) == kNoBin)
      throw std::runtime_error(
          "checkpoint: session items disagree with the ledger");
}

}  // namespace cdbp
