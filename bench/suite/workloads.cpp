#include "workloads.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <stdexcept>

#include "stats.h"

namespace cdbp::bench_suite {

double median_setup_seconds(int reps, const std::function<void()>& setup,
                            const std::function<void()>& teardown,
                            SpanLog& spans) {
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    if (i > 0 && teardown) teardown();
    const std::uint64_t t0 = now_ns();
    setup();
    const std::uint64_t t1 = now_ns();
    spans.add("bench.setup", t0, t1);
    secs.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  return median(secs);
}

void report_speed(Result& result, bool traced, double per_s, double latency_ms) {
  result.detail("throughput_per_s", json_number(per_s));
  result.detail("latency_ms", json_number(latency_ms));
  if (traced) {
    result.metric("e2e.throughput_per_s", per_s, "1/s");
    result.metric("e2e.latency_ms", latency_ms, "ms");
  }
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"algos.arrival_ns_p50", "ns"},
      {"algos.arrival_ns_p99", "ns"},
      {"algos.departure_ns_p50", "ns"},
      {"core.loop_ns_per_item", "ns"},
      {"core.bins_opened", "count"},
      {"core.peak_open_bins", "count"},
      {"workloads.cdbpi_next_ns", "ns"},
      {"parallel.serial_items_per_s", "items/s"},
      {"parallel.efficiency", "fraction"},
      {"parallel.task_s_max", "s"},
      {"parallel.task_s_min", "s"},
      {"core.session_offer_ns_p50", "ns"},
      {"serve.durable_offer_ns_p50", "ns"},
      {"serve.commit_us_p50", "us"},
      {"serve.commit_us_p99", "us"},
      {"serve.fsyncs_per_offer", "1/offer"},
      {"serve.commit_rounds", "count"},
      {"serve.wal_bytes_per_offer", "B/offer"},
      {"serve.router_submit_ns_p50", "ns"},
      {"serve.router_submit_ns_p99", "ns"},
      {"serve.router_ack_us_p50_low", "us"},
      {"serve.router_ack_us_p99_low", "us"},
      {"serve.router_ack_us_p50_high", "us"},
      {"serve.router_ack_us_p99_high", "us"},
      {"net.overhead_us_p50_low", "us"},
      {"net.codec_ns_per_offer", "ns"},
      {"net.client_bytes_per_offer", "B/offer"},
      {"net.client_syscalls_per_offer", "1/offer"},
      {"gen.late_us_p99", "us"},
      {"gen.inflight_max", "count"},
      {"e2e.throughput_per_s", "1/s"},
      {"e2e.latency_ms", "ms"},
      {"e2e.ack_p99_us_low", "us"},
      {"e2e.ack_p50_us_high", "us"},
      {"e2e.ack_p99_us_high", "us"},
      {"e2e.sustained_offers_per_s", "offers/s"},
      {"serve.wal_scan_s", "s"},
      {"serve.wal_scan_mb_per_s", "MiB/s"},
      {"serve.replay_s", "s"},
      {"serve.recover_shard_s_max", "s"},
      {"serve.restart_process_s", "s"},
      {"trace.overhead_pct", "%"},
  };
  return kMetrics;
}

void complete_layer_metrics(Result& result) {
  std::map<std::string, Metric> have;
  for (Metric& m : result.metrics) {
    bool known = false;
    for (const LayerMetric& l : layer_metrics())
      known = known || m.name == l.name;
    if (!known) throw std::logic_error("unlisted layer metric " + m.name);
    have[m.name] = std::move(m);
  }
  result.metrics.clear();
  for (const LayerMetric& l : layer_metrics()) {
    const auto it = have.find(l.name);
    result.metrics.push_back(it != have.end() ? it->second
                                              : Metric{l.name, 0.0, l.unit});
  }
}

std::string latency_json(std::vector<std::uint64_t> ns) {
  std::sort(ns.begin(), ns.end());
  const auto us = [&](double p) {
    return json_number(percentile_sorted(ns, p) / 1e3);
  };
  return "{\"count\":" + std::to_string(ns.size()) + ",\"p50_us\":" + us(50) +
         ",\"p90_us\":" + us(90) + ",\"p99_us\":" + us(99) +
         ",\"p999_us\":" + us(99.9) + ",\"max_us\":" + us(100) +
         ",\"supportable_percentile\":" +
         json_number(supportable_percentile(ns.size())) + "}";
}

std::uint64_t wal_segment_bytes(const std::string& wal_dir) {
  std::uint64_t bytes = 0;
  for (const auto& e : std::filesystem::directory_iterator(wal_dir))
    if (e.path().extension() == ".seg") bytes += e.file_size();
  return bytes;
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string cost_str(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace cdbp::bench_suite
