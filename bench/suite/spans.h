// In-memory span log for traced bench_suite runs.
//
// Spans are recorded from the bench's own code, around its calls into each
// layer (decorators, in-process replays, client-side request spans); the
// program under test is not instrumented. Each span carries its name, start
// and end on the steady clock, the span that caused it, and a request id
// (item id or offer stream index) shared by the spans of one request. The
// log stays in memory and is written once, at exit, as Chrome trace JSON,
// which Perfetto (https://ui.perfetto.dev) opens directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cdbp::bench_suite {

/// Steady-clock nanoseconds (one epoch for every span and latency sample).
[[nodiscard]] std::uint64_t now_ns() noexcept;

struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t id = 0;      ///< this span's id (1-based)
  std::uint64_t parent = 0;  ///< causing span's id; 0 = root
  std::uint64_t req = 0;     ///< request id; 0 = none
  std::uint32_t tid = 0;     ///< track in the trace viewer
};

/// Thread-safe span recorder. A disabled log records nothing and hands out
/// id 0, so call sites need no branches of their own.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Reserves an id for a span that has started but not ended, so its
  /// children can name it as their parent.
  [[nodiscard]] std::uint64_t reserve_id() noexcept {
    return enabled_ ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
  }

  /// Records a finished span whose id was reserved (or reserves one).
  void record(Span span);

  /// Records a finished span.
  void add(std::string name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t parent = 0, std::uint64_t req = 0,
           std::uint32_t tid = 0);

  /// Writes {"traceEvents":[...]} with one complete ("X") event per span,
  /// timestamps in microseconds from the earliest span. Throws on I/O error.
  void write_chrome(const std::string& path) const;

 private:
  const bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records [construction, destruction) as one span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::uint64_t parent = 0,
             std::uint64_t req = 0, std::uint32_t tid = 0)
      : log_(log),
        span_{std::move(name), now_ns(), 0, log.reserve_id(), parent, req,
              tid} {}
  ~ScopedSpan() {
    span_.end_ns = now_ns();
    log_.record(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

 private:
  SpanLog& log_;
  Span span_;
};

}  // namespace cdbp::bench_suite
