// Outside-in layer timing for traced runs: decorators around the library's
// public interfaces, so the program under test carries no instrumentation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm.h"
#include "spans.h"
#include "workloads/instance_file.h"

namespace cdbp::bench_suite {

/// Times every Algorithm::on_arrival / on_departure call of the wrapped
/// algorithm: fit selection plus the Ledger::place / open_bin it performs.
/// Every `span_every`-th item also gets a span (request id = item id).
class TimedAlgorithm final : public Algorithm {
 public:
  TimedAlgorithm(AlgorithmPtr inner, SpanLog& spans, std::uint64_t parent_span,
                 std::size_t expected_items, ItemId span_every = 4096)
      : inner_(std::move(inner)),
        spans_(spans),
        parent_(parent_span),
        span_every_(span_every) {
    arrival_ns_.reserve(expected_items);
    departure_ns_.reserve(expected_items);
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  BinId on_arrival(const Item& item, Ledger& ledger) override {
    const std::uint64_t t0 = now_ns();
    const BinId bin = inner_->on_arrival(item, ledger);
    const std::uint64_t t1 = now_ns();
    arrival_ns_.push_back(clamp_ns(t1 - t0));
    if (item.id % span_every_ == 0)
      spans_.add("algos.on_arrival", t0, t1, parent_,
                 static_cast<std::uint64_t>(item.id));
    return bin;
  }

  void on_departure(const Item& item, BinId bin, bool bin_closed,
                    Ledger& ledger) override {
    const std::uint64_t t0 = now_ns();
    inner_->on_departure(item, bin, bin_closed, ledger);
    const std::uint64_t t1 = now_ns();
    departure_ns_.push_back(clamp_ns(t1 - t0));
    if (item.id % span_every_ == 0)
      spans_.add("algos.on_departure", t0, t1, parent_,
                 static_cast<std::uint64_t>(item.id));
  }

  void reset() override {
    inner_->reset();
    arrival_ns_.clear();
    departure_ns_.clear();
  }

  /// Per-call times in ns (32-bit: a million-item run keeps 8 MB of them).
  [[nodiscard]] const std::vector<std::uint32_t>& arrival_ns() const noexcept {
    return arrival_ns_;
  }
  [[nodiscard]] const std::vector<std::uint32_t>& departure_ns() const noexcept {
    return departure_ns_;
  }
  /// Total time spent inside the wrapped algorithm.
  [[nodiscard]] std::uint64_t total_ns() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint32_t v : arrival_ns_) sum += v;
    for (const std::uint32_t v : departure_ns_) sum += v;
    return sum;
  }

 private:
  static std::uint32_t clamp_ns(std::uint64_t ns) noexcept {
    return ns > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(ns);
  }

  AlgorithmPtr inner_;
  SpanLog& spans_;
  std::uint64_t parent_;
  ItemId span_every_;
  std::vector<std::uint32_t> arrival_ns_;
  std::vector<std::uint32_t> departure_ns_;
};

/// Mean cost of one InstanceFileReader::next() over a whole .cdbpi file, in
/// a serial pass that does nothing else. (Timing each call individually
/// would cost more than the call.)
[[nodiscard]] inline double cdbpi_next_ns(const std::string& path) {
  workloads::InstanceFileReader reader(path);
  Item item;
  std::uint64_t n = 0;
  const std::uint64_t t0 = now_ns();
  while (reader.next(item)) ++n;
  const std::uint64_t t1 = now_ns();
  return n == 0 ? 0.0 : static_cast<double>(t1 - t0) / static_cast<double>(n);
}

}  // namespace cdbp::bench_suite
