#include "core/simulator.h"

#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.h"

namespace cdbp {

namespace {

/// Departure queue entry: the full item, so the algorithm callback works
/// for streamed sources too (no items[] array to index back into). Orders
/// by (departure time, id) for determinism.
struct Departure {
  Item item;
  friend bool operator>(const Departure& a, const Departure& b) {
    if (a.item.departure != b.item.departure)
      return a.item.departure > b.item.departure;
    return a.item.id > b.item.id;
  }
};

// Hot-path instruments: resolved at static-init time, then one relaxed
// atomic op per event (see docs/OBSERVABILITY.md; E16 bounds the cost).
obs::Counter& g_arrivals =
    obs::MetricsRegistry::global().counter("sim.arrivals");
obs::Counter& g_departures =
    obs::MetricsRegistry::global().counter("sim.departures");

/// One replay loop for both entry points: `next(Item&)` pulls the arrival
/// sequence (non-decreasing arrivals, ids 0, 1, 2, ...). `size_hint` only
/// annotates the trace; `known_size` sizes the placement log, so it must be
/// a count the caller trusts (0 when it has none).
template <typename NextFn>
RunResult run_simulation(const SimulatorOptions& opts, NextFn&& next,
                         std::size_t size_hint, std::size_t known_size,
                         Algorithm& algo) {
  algo.reset();
  Ledger ledger(opts.storage, /*track_items=*/opts.keep_history);
  RunResult result;
  if (opts.keep_history) result.placements.reserve(known_size);

  obs::Tracer& tracer = obs::Tracer::global();

  std::priority_queue<Departure, std::vector<Departure>, std::greater<>> dq;

  auto drain_departures_until = [&](Time t_inclusive) {
    if (dq.empty() || dq.top().item.departure > t_inclusive) return;
    obs::TraceSpan span(tracer, "sim.drain", "sim",
                        {{"until", dq.top().item.departure}});
    std::uint64_t drained = 0;
    while (!dq.empty() && dq.top().item.departure <= t_inclusive) {
      const Departure d = dq.top();
      dq.pop();
      const BinId bin = ledger.remove(d.item.id, d.item.departure);
      const bool closed = !ledger.is_open(bin);
      algo.on_departure(d.item, bin, closed, ledger);
      ++drained;
    }
    g_departures.add(drained);
    span.add_arg({"departures", drained});
  };

  obs::TraceSpan run_span(
      tracer, "sim.run", "sim",
      {{"items", static_cast<std::uint64_t>(size_hint)}});

  std::size_t n_items = 0;
  Item r;
  while (next(r)) {
    // The placement log is in arrival order, which must be item order.
    if (r.id != static_cast<ItemId>(n_items))
      throw std::logic_error(
          "Simulator: item ids must be 0, 1, 2, ... in arrival order; item " +
          std::to_string(n_items) + " has id " + std::to_string(r.id));
    // Process all departures at times <= this arrival first (t^- before t^+).
    drain_departures_until(r.arrival);

    const BinId bin = algo.on_arrival(r, ledger);
    if (ledger.bin_of(r.id) != bin)
      throw std::logic_error(
          "Simulator: algorithm did not place the item in the bin it "
          "returned");
    if (opts.keep_history) result.placements.push_back(bin);
    if (tracer.enabled())
      tracer.instant("sim.arrival", "sim",
                     {{"item", r.id},
                      {"size", r.size},
                      {"bin", bin},
                      {"open_bins",
                       static_cast<std::uint64_t>(ledger.open_count())}});
    dq.push(Departure{r});
    ++n_items;
  }
  drain_departures_until(kInfTime);
  // Batched: one atomic op for the whole run, not one per arrival.
  g_arrivals.add(n_items);

  if (ledger.active_items() != 0)
    throw std::logic_error("Simulator: items left active after drain");
  if (ledger.open_count() != 0)
    throw std::logic_error("Simulator: bins left open after drain");

  result.cost = ledger.total_usage(ledger.clock());
  result.bins_opened = ledger.bins_opened();
  result.max_open = ledger.max_open();
  result.items = n_items;
  if (opts.keep_history) result.bins = std::move(ledger).records();
  return result;
}

}  // namespace

RunResult Simulator::run(const Instance& instance, Algorithm& algo) const {
  const std::vector<Item>& items = instance.items();
  std::size_t pos = 0;
  return run_simulation(
      opts_,
      [&](Item& out) {
        if (pos == items.size()) return false;
        out = items[pos++];
        return true;
      },
      items.size(), items.size(), algo);
}

RunResult Simulator::run_source(ItemSource& source, Algorithm& algo) const {
  // The hint may come from an unverified header: it sizes nothing.
  return run_simulation(opts_, [&](Item& out) { return source.next(out); },
                        source.size_hint(), /*known_size=*/0, algo);
}

std::span<const ItemId> ItemsByBin::of(BinId bin) const {
  const auto b = static_cast<std::size_t>(bin);
  if (bin < 0 || b + 1 >= offsets.size()) return {};
  return {items.data() + offsets[b], items.data() + offsets[b + 1]};
}

ItemsByBin items_by_bin(const RunResult& result) {
  // A counting sort by bin: stable, so each group keeps placement order.
  const std::size_t n_bins = result.bins.size();
  const auto known = [n_bins](BinId b) {
    return b >= 0 && static_cast<std::size_t>(b) < n_bins;
  };
  ItemsByBin out;
  out.offsets.assign(n_bins + 1, 0);
  for (const BinId bin : result.placements)
    if (known(bin)) ++out.offsets[static_cast<std::size_t>(bin) + 1];
  for (std::size_t b = 0; b < n_bins; ++b) out.offsets[b + 1] += out.offsets[b];
  out.items.resize(out.offsets[n_bins]);
  std::vector<std::size_t> fill(out.offsets.begin(), out.offsets.end() - 1);
  for (std::size_t i = 0; i < result.placements.size(); ++i) {
    const BinId bin = result.placements[i];
    if (known(bin))
      out.items[fill[static_cast<std::size_t>(bin)]++] = static_cast<ItemId>(i);
  }
  return out;
}

Cost run_cost(const Instance& instance, Algorithm& algo) {
  Simulator sim{SimulatorOptions{.keep_history = false}};
  return sim.run(instance, algo).cost;
}

}  // namespace cdbp
