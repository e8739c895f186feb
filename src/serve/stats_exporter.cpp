#include "serve/stats_exporter.h"

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "obs/snapshot.h"

namespace cdbp::serve {

std::atomic<int> StatsExporter::dump_requested{0};

namespace {

obs::Counter& g_dump_errors =
    obs::MetricsRegistry::global().counter("serve.stats_dump_errors");

/// Atomic file publish: write to `<path>.tmp`, then rename over `path`.
/// No fsync — stats pages are ephemeral telemetry, not durable state. On a
/// failed rename the tmp file is unlinked, so a transient error does not
/// strand a `.tmp` next to every page for the rest of the run.
void write_atomic(io::Env& env, const std::string& path,
                  const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::unique_ptr<io::File> f =
        io::open_file(env, tmp, io::OpenMode::kTruncate);
    io::write_all(*f, content.data(), content.size(), tmp);
    int err = 0;
    if (f->close(err) != 0)
      throw std::runtime_error("stats: close failed for " + tmp + ": " +
                               std::strerror(err));
  }
  int err = 0;
  if (env.rename(tmp, path, err) != 0) {
    int ignored = 0;
    env.unlink(tmp, ignored);
    throw std::runtime_error("stats: rename failed for " + path + ": " +
                             std::strerror(err));
  }
}

/// Startup sweep: a previous process killed mid-publish (or one whose
/// rename failed before this code unlinked on failure) leaves stale
/// `<page>.tmp` files behind. They are garbage from a dead run — remove
/// them so the output directory holds only live pages.
void sweep_stale_tmp(io::Env& env, const std::string& out_base) {
  for (const char* ext : {".prom.tmp", ".json.tmp"}) {
    int err = 0;
    env.unlink(out_base + ext, err);
  }
}

}  // namespace

StatsExporter::StatsExporter(StatsExporterConfig config)
    : config_(std::move(config)), env_(&io::env_or_posix(config_.env)) {
  if (config_.out_base.empty())
    throw std::invalid_argument("stats: out_base must not be empty");
  sweep_stale_tmp(*env_, config_.out_base);
  last_ = obs::MetricsRegistry::global().snapshot();
  last_time_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] { loop(); });
}

StatsExporter::~StatsExporter() {
  try {
    stop();
  } catch (...) {
    // Destructor path: a failed final dump (disk full) must not terminate.
  }
}

void StatsExporter::stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopping_ && !thread_.joinable()) return;
    stopping_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  dump_now();  // final page covers the tail interval
}

void StatsExporter::dump_now() {
  std::lock_guard<std::mutex> lock(dump_mutex_);
  dump_locked();
}

void StatsExporter::dump_locked() {
  const obs::MetricsSnapshot cur = obs::MetricsRegistry::global().snapshot();
  const auto now = std::chrono::steady_clock::now();
  const obs::MetricsSnapshot interval = obs::delta(cur, last_);
  const double interval_s =
      std::chrono::duration<double>(now - last_time_).count();

  std::ostringstream prom;
  obs::render_prometheus_text(cur, &interval, prom);
  std::ostringstream json;
  obs::render_stats_json(cur, &interval, interval_s, json);
  write_atomic(*env_, config_.out_base + ".prom", prom.str());
  write_atomic(*env_, config_.out_base + ".json", json.str());

  last_ = cur;
  last_time_ = now;
  dumps_.fetch_add(1, std::memory_order_relaxed);
}

void StatsExporter::loop() {
  // Poll tick: short enough that SIGUSR1 feels immediate, long enough to
  // cost nothing. Periodic dumps fire on the configured cadence on top.
  constexpr auto kPoll = std::chrono::milliseconds(50);
  auto next_periodic = std::chrono::steady_clock::now() +
                       std::chrono::milliseconds(config_.interval_ms);
  std::unique_lock<std::mutex> lock(stop_mutex_);
  while (!stopping_) {
    stop_cv_.wait_for(lock, kPoll, [this] { return stopping_; });
    if (stopping_) break;
    bool want_dump = dump_requested.exchange(0) != 0;
    const auto now = std::chrono::steady_clock::now();
    if (config_.interval_ms > 0 && now >= next_periodic) {
      want_dump = true;
      next_periodic = now + std::chrono::milliseconds(config_.interval_ms);
    }
    if (want_dump) {
      lock.unlock();
      // An I/O failure on the background thread must never escape: an
      // uncaught exception here would std::terminate the whole process
      // over a telemetry page. Count it and keep serving.
      try {
        dump_now();
      } catch (const std::exception&) {
        dump_errors_.fetch_add(1, std::memory_order_relaxed);
        g_dump_errors.add();
      }
      lock.lock();
    }
  }
}

}  // namespace cdbp::serve
