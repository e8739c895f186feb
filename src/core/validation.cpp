#include "core/validation.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <sstream>

#include "core/step_function.h"

namespace cdbp {

std::string ValidationReport::to_string() const {
  if (ok()) return "OK";
  std::ostringstream os;
  os << issues.size() << " issue(s):";
  for (const ValidationIssue& i : issues) os << "\n  - " << i.message;
  return os.str();
}

namespace {

void check(ValidationReport& rep, bool cond, const std::string& msg) {
  if (!cond) rep.issues.push_back(ValidationIssue{msg});
}

}  // namespace

ValidationReport validate_run(const Instance& instance,
                              const RunResult& result) {
  ValidationReport rep;
  const std::vector<Item>& items = instance.items();

  // 1. One placement per item (entry i is item i's bin), each into a bin
  //    of the run.
  check(rep, result.placements.size() == items.size(),
        "placement count " + std::to_string(result.placements.size()) +
            " != item count " + std::to_string(items.size()));
  for (std::size_t i = 0; i < result.placements.size(); ++i) {
    const BinId bin = result.placements[i];
    if (bin < 0 || static_cast<std::size_t>(bin) >= result.bins.size())
      check(rep, false,
            "item " + std::to_string(i) + " placed in bin " +
                std::to_string(bin) + ", which the run never opened");
  }

  // Each bin's items are the placements that name it.
  const ItemsByBin by_bin = items_by_bin(result);
  Cost span_sum = 0.0;
  for (const BinRecord& bin : result.bins) {
    const std::span<const ItemId> held = by_bin.of(bin.id);
    check(rep, !bin.is_open(),
          "bin " + std::to_string(bin.id) + " still open at end of run");
    check(rep, !held.empty(),
          "bin " + std::to_string(bin.id) + " never held an item");

    // 2. Capacity over time, rebuilt from the items.
    StepFunction load;
    Time first_arrival = kInfTime;
    Time last_departure = -kInfTime;
    for (ItemId id : held) {
      // An entry past the last item was reported by check 1.
      if (static_cast<std::size_t>(id) >= items.size()) continue;
      const Item& r = items[static_cast<std::size_t>(id)];
      load.add(r.arrival, r.departure, r.size);
      first_arrival = std::min(first_arrival, r.arrival);
      last_departure = std::max(last_departure, r.departure);
      // 5. Bin lifetime covers the item.
      check(rep, bin.opened <= r.arrival + kTimeEps,
            "bin " + std::to_string(bin.id) + " opened after item " +
                std::to_string(id) + " arrived");
      check(rep, bin.closed >= r.departure - kTimeEps,
            "bin " + std::to_string(bin.id) + " closed before item " +
                std::to_string(id) + " departed");
    }
    check(rep, load.max_value() <= kBinCapacity + 2 * kLoadEps,
          "bin " + std::to_string(bin.id) + " overloaded: peak " +
              std::to_string(load.max_value()));

    // 3. Bins close when empty and never reopen: the recorded span must
    //    equal [first arrival, last departure] and the bin must never be
    //    empty strictly inside it.
    if (!held.empty() && first_arrival != kInfTime) {
      check(rep, approx_equal(bin.opened, first_arrival, kTimeEps),
            "bin " + std::to_string(bin.id) + " opened at " +
                std::to_string(bin.opened) + " but first item arrived at " +
                std::to_string(first_arrival));
      check(rep, approx_equal(bin.closed, last_departure, kTimeEps),
            "bin " + std::to_string(bin.id) + " closed at " +
                std::to_string(bin.closed) + " but last item departed at " +
                std::to_string(last_departure));
      check(rep,
            approx_equal(load.support_measure(), bin.closed - bin.opened,
                         kTimeEps * static_cast<double>(held.size() + 1)),
            "bin " + std::to_string(bin.id) +
                " was empty strictly inside its recorded span (bins must "
                "close when empty)");
    }
    span_sum += bin.usage(bin.closed);
  }

  // 4. Cost consistency.
  check(rep, approx_equal(result.cost, span_sum,
                          kTimeEps * static_cast<double>(result.bins.size() + 1)),
        "result.cost " + std::to_string(result.cost) +
            " != sum of bin spans " + std::to_string(span_sum));

  check(rep, result.bins_opened == result.bins.size(),
        "bins_opened mismatch");

  return rep;
}

}  // namespace cdbp
