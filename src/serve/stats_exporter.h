// Live stats exporter for `cdbp serve`: a background thread that
// periodically snapshots the global metrics registry and renders it as
// both a Prometheus-style text page (`<base>.prom`) and JSON
// (`<base>.json`). Each dump is delta-aware — the exporter keeps the
// previous snapshot and computes histogram quantiles over the interval
// since the last dump, so successive pages report interval percentiles,
// not process-lifetime ones (counters/sums stay cumulative, the
// Prometheus convention).
//
// Files are written atomically (tmp + rename) so a scraper or CI assertion
// never reads a half-written page. A final dump always happens at stop()/
// destruction, so a short run with a long interval still produces output.
//
// SIGUSR1: the exporter polls `dump_requested` (a lock-free atomic, which
// a signal handler may store to — about the only thing an async handler
// can safely do) every poll tick and dumps immediately when set. The CLI
// installs the handler; this class only consumes the flag.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "core/io_env.h"
#include "obs/metrics.h"

namespace cdbp::serve {

struct StatsExporterConfig {
  /// Output base path: writes `<out_base>.prom` and `<out_base>.json`.
  std::string out_base;
  /// Milliseconds between periodic dumps; 0 = no periodic dumps (only
  /// SIGUSR1-triggered ones and the final dump at stop()).
  std::uint32_t interval_ms = 1000;
  /// I/O environment pages are written through. nullptr = the real
  /// filesystem; tests inject faults against the tmp-write/rename steps.
  io::Env* env = nullptr;
};

class StatsExporter {
 public:
  /// Starts the background thread. Throws std::invalid_argument on an
  /// empty out_base.
  explicit StatsExporter(StatsExporterConfig config);
  ~StatsExporter();

  StatsExporter(const StatsExporter&) = delete;
  StatsExporter& operator=(const StatsExporter&) = delete;

  /// Joins the thread after one final dump. Idempotent.
  void stop();

  /// Renders one dump now (also callable from tests; thread-safe with the
  /// background thread).
  void dump_now();

  /// Completed dumps so far.
  [[nodiscard]] std::uint64_t dumps() const noexcept {
    return dumps_.load(std::memory_order_relaxed);
  }

  /// Dumps that failed (I/O error writing or publishing a page). Failed
  /// dumps are logged and counted, never fatal: stats are telemetry, and a
  /// full disk must not take the serve loop down with it.
  [[nodiscard]] std::uint64_t dump_errors() const noexcept {
    return dump_errors_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& out_base() const noexcept {
    return config_.out_base;
  }

  /// Set (to 1) by the CLI's SIGUSR1 handler; consumed by the poll loop
  /// with exchange(0), so a signal landing mid-consume is not lost.
  static std::atomic<int> dump_requested;
  static_assert(std::atomic<int>::is_always_lock_free,
                "a signal handler may only touch lock-free atomics");

 private:
  void loop();
  void dump_locked();

  StatsExporterConfig config_;
  io::Env* env_ = nullptr;  ///< resolved (never null after construction)
  std::mutex dump_mutex_;   ///< serializes dump_now() vs the loop
  obs::MetricsSnapshot last_;
  std::chrono::steady_clock::time_point last_time_;
  std::atomic<std::uint64_t> dumps_{0};
  std::atomic<std::uint64_t> dump_errors_{0};

  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace cdbp::serve
