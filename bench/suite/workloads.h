// The four bench_suite workloads and the helpers they share.
//
//   sim-ha         HA through Simulator::run with `cdbp run`'s options
//   sweep-stream   parallel::run_sharded over streamed .cdbpi files with
//                  `cdbp sim-sweep --stream`'s options
//   serve-net      `cdbp serve --listen` under open- and closed-loop load
//   serve-restart  `cdbp serve --listen --resume` over a prebuilt WAL
//
// Each returns the end-to-end metrics on an untraced run and the per-layer
// metrics on a traced one; see README.md for what each number means.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"

namespace cdbp::bench_suite {

Result run_sim_ha(const RunConfig& cfg, SpanLog& spans);
Result run_sweep_stream(const RunConfig& cfg, SpanLog& spans);
Result run_serve_net(const RunConfig& cfg, SpanLog& spans);
Result run_serve_restart(const RunConfig& cfg, SpanLog& spans);

/// Runs `setup` `reps` times and returns the median wall seconds (the
/// setup_s metric). `teardown` (untimed) undoes a set-up before the next
/// one; the last set-up is left in place for the measurement.
double median_setup_seconds(int reps, const std::function<void()>& setup,
                            const std::function<void()>& teardown,
                            SpanLog& spans);

class Server;

/// Shards of the served instance; one pinned tenant (and connection) each.
inline constexpr std::size_t kServeShards = 4;

/// argv for `cdbp serve --listen 127.0.0.1:0` with the serve workloads'
/// flags: HA, --mu-hint 256, 4 shards, fsync=every, every other flag at
/// its CLI default.
[[nodiscard]] std::vector<std::string> serve_listen_argv(
    const std::string& cdbp, const std::string& wal_dir, bool resume);

/// Waits for the server's "listening on HOST:PORT" line; returns the port.
/// Throws when it does not arrive within `timeout_ms`.
std::uint16_t await_listening(Server& server, std::uint64_t timeout_ms);

/// Total size of the WAL segment files in a serve --wal-dir.
[[nodiscard]] std::uint64_t wal_segment_bytes(const std::string& wal_dir);

/// Tenant names chosen so that tenant i hashes to shard i.
[[nodiscard]] std::vector<std::string> shard_pinned_tenants(std::size_t shards);

/// Records a workload's throughput and latency. They repeat only as well as
/// the host's speed does (README.md, "End-to-end metrics"), so they are the
/// per-layer metrics e2e.throughput_per_s and e2e.latency_ms of a traced
/// run; any run also keeps them in its results file.
void report_speed(Result& result, bool traced, double per_s, double latency_ms);

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in report order. A traced run reports all of
/// them; a layer the workload never calls reads 0.
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

/// Reorders a traced result's metrics to layer_metrics() order, adding 0
/// for each layer the workload did not set. Throws on an unknown name.
void complete_layer_metrics(Result& result);

/// JSON object summarizing a latency sample in microseconds: count, exact
/// p50/p90/p99/p99.9/max, and the highest percentile with >= 10 samples
/// beyond it.
[[nodiscard]] std::string latency_json(std::vector<std::uint64_t> ns);

/// Seconds elapsed since `start_ns`.
[[nodiscard]] double seconds_since(std::uint64_t start_ns);

/// Bit-exact equality of two costs, with a printable mismatch detail.
[[nodiscard]] bool same_bits(double a, double b);
[[nodiscard]] std::string cost_str(double v);

}  // namespace cdbp::bench_suite
