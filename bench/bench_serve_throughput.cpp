// E18 — serving-path throughput: offers/sec through the sharded WAL-backed
// front end, swept over shard count x fsync policy (none, every), both on
// the same stream. The interesting shape: with fsync=none the router
// scales with shards until the submit thread saturates; fsync=every would
// be disk-bound at one fsync per offer, but group commit + batched shard
// draining amortize that to roughly one fsync round per drained batch.
// Self-checks: every accepted offer must come back placed, and the
// single-shard cost must be independent of the fsync policy.
//
// Networked mode (the same sweep's sibling): the router under fsync=every
// behind a NetListener on loopback, driven by the built-in load generator.
// Two cell shapes per shard count: "pipelined" — one shard-pinned tenant
// per shard, 256 offers deep per connection, the throughput-comparison
// configuration (single TCP stream per shard keeps the packing
// deterministic) — and one "soak" cell with thousands of tenant
// connections in ordered mode. Self-checks: every offer the client holds
// a kApplied ack for must be a (tenant, stream_index) record in its
// shard's WAL (ack implies durable), and (full runs) pipelined loopback
// throughput at 8 shards must land within 2x of the file-fed submit loop.
//
// Flags: --quick (smaller stream), --seeds N (repetitions per cell),
// --csv PATH (per-cell rows), --json PATH (BENCH_SERVE.json for CI).
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "algos/any_fit.h"
#include "bench_common.h"
#include "chaos/net_chaos.h"
#include "net/client.h"
#include "net/listener.h"
#include "obs/snapshot.h"
#include "report/table.h"
#include "serve/request_stream.h"
#include "serve/shard_router.h"

namespace {

namespace fs = std::filesystem;
using namespace cdbp;

struct Cell {
  std::size_t shards = 1;
  serve::FsyncPolicy fsync = serve::FsyncPolicy::kNone;
  std::size_t items = 0;
  double seconds = 0.0;
  double offers_per_sec = 0.0;
  Cost total_cost = 0.0;
  /// End-to-end ack latency for the kept (fastest) rep: merged across
  /// shards plus per-shard. Empty (count == 0) under CDBP_OBS_OFF.
  obs::HistogramSnapshot lat;
  std::vector<obs::HistogramSnapshot> shard_lat;
};

double run_cell(const std::vector<serve::ServeRequest>& stream,
                std::size_t shards, serve::FsyncPolicy fsync,
                const fs::path& dir, Cost* cost_out,
                obs::HistogramSnapshot* lat_out,
                std::vector<obs::HistogramSnapshot>* shard_lat_out) {
  fs::remove_all(dir);
  serve::RouterConfig rc;
  rc.wal_dir = dir.string();
  rc.shards = shards;
  rc.fsync = fsync;
  rc.queue_capacity = 4096;
  rc.wal_segment_bytes = 8u << 20;  // production default: rotate at 8 MiB

  serve::ShardRouter router(
      rc, [] { return AlgorithmPtr(std::make_unique<algos::BestFit>()); },
      "bf");
  const auto start = std::chrono::steady_clock::now();
  for (const serve::ServeRequest& req : stream) {
    if (!router.submit(req))
      throw std::runtime_error("block admission must never refuse");
  }
  router.stop();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  // Self-check: nothing lost between submit and placement.
  std::uint64_t applied = 0;
  obs::HistogramSnapshot merged;
  shard_lat_out->clear();
  for (std::size_t i = 0; i < router.shards(); ++i) {
    applied += router.stats(i).applied;
    shard_lat_out->push_back(router.stats(i).ack_latency);
    merged = obs::merge(merged, router.stats(i).ack_latency);
  }
  *lat_out = merged;
  if (applied != stream.size())
    throw std::runtime_error("offer count mismatch: submitted " +
                             std::to_string(stream.size()) + ", placed " +
                             std::to_string(applied));
  *cost_out = router.total_cost();
  fs::remove_all(dir);
  return seconds;
}

struct NetCell {
  std::string mode;  ///< "pipelined" or "soak"
  std::size_t shards = 1;
  std::uint64_t conns = 0;
  std::size_t items = 0;
  double seconds = 0.0;
  double offers_per_sec = 0.0;
  /// Client-observed offer->ack round trip (includes the wire both ways).
  std::uint64_t p50 = 0, p95 = 0, p99 = 0, lat_max = 0;
};

/// Tenant names probed so that name i maps to shard i — one connection per
/// shard is the deterministic pipelined-mode configuration (client.h).
std::vector<std::string> shard_pinned_tenants(std::size_t shards) {
  std::vector<std::string> out(shards);
  std::vector<bool> have(shards, false);
  std::size_t found = 0;
  for (std::uint64_t probe = 0; found < shards; ++probe) {
    std::string name = "net-" + std::to_string(probe);
    const std::size_t s =
        static_cast<std::size_t>(serve::tenant_hash(name) % shards);
    if (!have[s]) {
      have[s] = true;
      out[s] = std::move(name);
      ++found;
    }
  }
  return out;
}

/// Round-robins the stream's offers onto `names`. The stream stays globally
/// arrival-sorted, so any per-shard subsequence keeps the monotone arrival
/// and stream_index order the session and the client both require.
std::vector<serve::ServeRequest> with_tenants(
    std::vector<serve::ServeRequest> stream,
    const std::vector<std::string>& names) {
  for (std::size_t i = 0; i < stream.size(); ++i)
    stream[i].tenant = names[i % names.size()];
  return stream;
}

/// Runs the load generator in a forked child and ships the report back
/// over a pipe. One process cannot hold a 10k-connection soak: client and
/// server sides cost 2 fds per connection against a single RLIMIT_NOFILE,
/// while split processes get a full fd budget each. The child is forked
/// before any connection exists, touches only run_load (never the
/// listener or router it inherited), and _exits without running dtors.
net::ClientReport run_load_forked(const net::ClientConfig& cc,
                                  const std::vector<serve::ServeRequest>& s) {
  int pipefd[2];
  if (::pipe(pipefd) != 0) throw std::runtime_error("soak: pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("soak: fork failed");
  if (pid == 0) {
    ::close(pipefd[0]);
    net::raise_nofile_limit(s.size() + 512);  // one fd per tenant, at most
    const net::ClientReport rep = net::run_load(cc, s);
    FILE* out = ::fdopen(pipefd[1], "w");
    std::fprintf(out,
                 "%llu %llu %llu %llu %llu %llu %llu %d %.9f\n",
                 (unsigned long long)rep.sent, (unsigned long long)rep.applied,
                 (unsigned long long)rep.skipped,
                 (unsigned long long)rep.errored, (unsigned long long)rep.lost,
                 (unsigned long long)rep.conns_opened,
                 (unsigned long long)rep.conns_failed, rep.timed_out ? 1 : 0,
                 rep.wall_seconds);
    std::fprintf(out, "%zu\n", rep.applied_ids.size());
    for (const std::uint64_t id : rep.applied_ids)
      std::fprintf(out, "%llu\n", (unsigned long long)id);
    std::fprintf(out, "%zu\n", rep.latencies_us.size());
    for (const std::uint64_t us : rep.latencies_us)
      std::fprintf(out, "%llu\n", (unsigned long long)us);
    std::fflush(out);
    ::_exit(0);
  }
  ::close(pipefd[1]);
  FILE* in = ::fdopen(pipefd[0], "r");
  net::ClientReport rep;
  unsigned long long v[7];
  int timed_out = 0;
  std::size_t n = 0;
  bool ok = std::fscanf(in, "%llu %llu %llu %llu %llu %llu %llu %d %lf",
                        &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                        &timed_out, &rep.wall_seconds) == 9;
  if (ok) {
    rep.sent = v[0];
    rep.applied = v[1];
    rep.skipped = v[2];
    rep.errored = v[3];
    rep.lost = v[4];
    rep.conns_opened = v[5];
    rep.conns_failed = v[6];
    rep.timed_out = timed_out != 0;
    ok = std::fscanf(in, "%zu", &n) == 1;
    rep.applied_ids.reserve(ok ? n : 0);
    for (std::size_t i = 0; ok && i < n; ++i) {
      unsigned long long id = 0;
      ok = std::fscanf(in, "%llu", &id) == 1;
      rep.applied_ids.push_back(id);
    }
    if (ok) ok = std::fscanf(in, "%zu", &n) == 1;
    rep.latencies_us.reserve(ok ? n : 0);
    for (std::size_t i = 0; ok && i < n; ++i) {
      unsigned long long us = 0;
      ok = std::fscanf(in, "%llu", &us) == 1;
      rep.latencies_us.push_back(us);
    }
  }
  std::fclose(in);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!ok || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("soak: load-generator child failed");
  return rep;
}

NetCell run_net_cell(const std::vector<serve::ServeRequest>& stream,
                     std::size_t shards, std::size_t shard_window,
                     std::size_t pipeline, const fs::path& dir,
                     std::string mode) {
  fs::remove_all(dir);
  serve::RouterConfig rc;
  rc.wal_dir = dir.string();
  rc.shards = shards;
  rc.fsync = serve::FsyncPolicy::kEvery;
  rc.queue_capacity = 4096;
  rc.wal_segment_bytes = 8u << 20;

  net::NetListener listener(
      net::ListenerConfig{}, rc,
      [] { return AlgorithmPtr(std::make_unique<algos::BestFit>()); }, "bf");
  net::ClientConfig cc;
  cc.port = listener.port();
  cc.shard_window = shard_window;
  cc.pipeline = pipeline;
  const net::ClientReport rep = mode == "soak"
                                    ? run_load_forked(cc, stream)
                                    : net::run_load(cc, stream);
  const bool drained = listener.drain(60000);
  listener.stop();
  if (!drained) throw std::runtime_error("net cell failed to drain");
  if (rep.conns_failed != 0 || rep.timed_out || rep.lost != 0 ||
      rep.errored != 0 || rep.applied != stream.size())
    throw std::runtime_error(
        "net cell lost offers: sent=" + std::to_string(rep.sent) +
        " applied=" + std::to_string(rep.applied) +
        " errored=" + std::to_string(rep.errored) +
        " lost=" + std::to_string(rep.lost) +
        " conns_failed=" + std::to_string(rep.conns_failed));
  std::uint64_t placed = 0;
  for (std::size_t i = 0; i < shards; ++i)
    placed += listener.router().stats(i).applied;
  if (placed != stream.size())
    throw std::runtime_error("net cell placed " + std::to_string(placed) +
                             " of " + std::to_string(stream.size()) +
                             " offers");
  // Ack implies durable: every offer the client holds a kApplied ack for
  // must be logged in its tenant's shard WAL.
  const std::string loss =
      net::check_acks_in_wal(dir.string(), shards, stream, rep.applied_ids);
  if (!loss.empty()) throw std::runtime_error(loss);
  NetCell cell;
  cell.mode = std::move(mode);
  cell.shards = shards;
  cell.conns = rep.conns_opened;
  cell.items = stream.size();
  cell.seconds = rep.wall_seconds;
  cell.offers_per_sec = static_cast<double>(stream.size()) / rep.wall_seconds;
  cell.p50 = net::latency_percentile_us(rep.latencies_us, 50.0);
  cell.p95 = net::latency_percentile_us(rep.latencies_us, 95.0);
  cell.p99 = net::latency_percentile_us(rep.latencies_us, 99.0);
  cell.lat_max = net::latency_percentile_us(rep.latencies_us, 100.0);
  fs::remove_all(dir);
  return cell;
}

std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using bench::BenchOptions;
  BenchOptions opts = bench::parse_options(argc, argv);
  std::optional<std::string> json_path;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--json" && i + 1 < argc)
      json_path = argv[i + 1];

  const std::size_t items = opts.quick ? 4000 : 40000;

  serve::StreamGenConfig gen;
  gen.target_items = static_cast<int>(items);
  gen.tenants = 64;  // plenty of keys so every shard count gets traffic
  gen.seed = 7;
  gen.log2_mu = 6;
  gen.horizon = 256.0;
  const std::vector<serve::ServeRequest> stream = serve::generate_stream(gen);

  const std::vector<std::size_t> shard_counts =
      opts.quick ? std::vector<std::size_t>{1, 4}
                 : std::vector<std::size_t>{1, 2, 4, 8, 16};
  const std::vector<serve::FsyncPolicy> policies = {
      serve::FsyncPolicy::kNone, serve::FsyncPolicy::kEvery};

  const fs::path dir =
      fs::temp_directory_path() / "cdbp_bench_serve_throughput";
  std::vector<Cell> cells;
  Cost single_shard_cost = -1.0;
  for (const serve::FsyncPolicy fsync : policies) {
    for (const std::size_t shards : shard_counts) {
      double best = 0.0;
      Cost cost = 0.0;
      obs::HistogramSnapshot lat;
      std::vector<obs::HistogramSnapshot> shard_lat;
      for (int rep = 0; rep < std::max(1, opts.seeds / 2); ++rep) {
        Cost c = 0.0;
        obs::HistogramSnapshot l;
        std::vector<obs::HistogramSnapshot> sl;
        const double seconds =
            run_cell(stream, shards, fsync, dir, &c, &l, &sl);
        const double rate = static_cast<double>(stream.size()) / seconds;
        if (rate > best) {
          best = rate;
          cost = c;
          lat = l;
          shard_lat = std::move(sl);
        }
      }
      Cell cell;
      cell.shards = shards;
      cell.fsync = fsync;
      cell.items = stream.size();
      cell.seconds = static_cast<double>(stream.size()) / best;
      cell.offers_per_sec = best;
      cell.total_cost = cost;
      cell.lat = lat;
      cell.shard_lat = std::move(shard_lat);
      cells.push_back(cell);

      // Self-check: the packing outcome is a function of the stream and the
      // shard map, never of the durability policy.
      if (shards == 1) {
        if (single_shard_cost < 0.0)
          single_shard_cost = cost;
        else if (cost != single_shard_cost)
          throw std::runtime_error(
              "single-shard cost changed with fsync policy");
      }
    }
  }

  // Networked sibling cells: the fsync=every router config, fed over
  // loopback instead of the in-process submit loop.
  std::vector<NetCell> net_cells;
  for (const std::size_t shards : shard_counts) {
    const std::vector<serve::ServeRequest> pinned =
        with_tenants(stream, shard_pinned_tenants(shards));
    NetCell best;
    for (int rep = 0; rep < std::max(1, opts.seeds / 2); ++rep) {
      NetCell c = run_net_cell(pinned, shards, /*shard_window=*/0,
                               /*pipeline=*/256, dir, "pipelined");
      if (c.offers_per_sec > best.offers_per_sec) best = std::move(c);
    }
    net_cells.push_back(std::move(best));
  }

  // Connection-scale soak: thousands of tenants, one connection each, in
  // ordered mode (shard_window=1). Throughput here is round-trip-bound by
  // design; the cell exists to prove 10k concurrent connections resolve
  // every offer with zero acked-offer loss.
  {
    std::uint64_t conns = opts.quick ? 1024 : 10000;
    // The load generator forks (run_load_forked), so listener and client
    // each budget ~1 fd per connection against their own limit.
    const std::uint64_t fd_limit = net::raise_nofile_limit(conns + 512);
    if (fd_limit < conns + 256) conns = fd_limit > 768 ? fd_limit - 512 : 128;
    const std::size_t soak_items =
        std::min(stream.size(), static_cast<std::size_t>(conns) * 2);
    std::vector<std::string> names(static_cast<std::size_t>(conns));
    for (std::size_t i = 0; i < names.size(); ++i)
      names[i] = "c" + std::to_string(i);
    const std::vector<serve::ServeRequest> soak_stream = with_tenants(
        {stream.begin(),
         stream.begin() + static_cast<std::ptrdiff_t>(soak_items)},
        names);
    const std::size_t soak_shards = opts.quick ? shard_counts.back() : 8;
    net_cells.push_back(run_net_cell(soak_stream, soak_shards,
                                     /*shard_window=*/1, /*pipeline=*/1, dir,
                                     "soak"));
  }

  std::cout << "== E18: serve throughput (offers/sec), " << stream.size()
            << " offers, 64 tenants ==\n";
  report::Table table({"fsync", "shards", "offers", "offers/sec", "p50us",
                       "p95us", "p99us"});
  for (const Cell& c : cells)
    table.add_row({serve::to_string(c.fsync), std::to_string(c.shards),
                   std::to_string(c.items),
                   report::Table::num(c.offers_per_sec, 0),
                   std::to_string(c.lat.quantile(0.5)),
                   std::to_string(c.lat.quantile(0.95)),
                   std::to_string(c.lat.quantile(0.99))});
  std::cout << table.to_string();

  std::cout << "== E18 networked: loopback via NetListener, fsync=every, "
               "client-observed latency ==\n";
  report::Table net_table({"mode", "shards", "conns", "offers", "offers/sec",
                           "p50us", "p95us", "p99us"});
  for (const NetCell& c : net_cells)
    net_table.add_row({c.mode, std::to_string(c.shards),
                       std::to_string(c.conns), std::to_string(c.items),
                       report::Table::num(c.offers_per_sec, 0),
                       std::to_string(c.p50), std::to_string(c.p95),
                       std::to_string(c.p99)});
  std::cout << net_table.to_string();

  // Self-check: the socket front end may tax throughput, but at the
  // comparison shard count it must stay within 2x of the file-fed submit
  // loop, both under fsync=every (quick runs only report the ratio — CI
  // smoke boxes are noisy). The ratio is written to the JSON first and
  // enforced at the end, so a failing run still records what it measured.
  const std::size_t cmp_shards = opts.quick ? shard_counts.back() : 8;
  double file_rate = 0.0;
  double net_rate = 0.0;
  for (const Cell& c : cells)
    if (c.fsync == serve::FsyncPolicy::kEvery && c.shards == cmp_shards)
      file_rate = c.offers_per_sec;
  for (const NetCell& c : net_cells)
    if (c.mode == "pipelined" && c.shards == cmp_shards)
      net_rate = c.offers_per_sec;
  const double net_ratio = net_rate > 0.0 ? file_rate / net_rate : -1.0;
  const bool net_within_2x = net_rate * 2.0 >= file_rate;
  std::cout << "file-fed/networked at " << cmp_shards
            << " shards (fsync=every): " << json_num(file_rate) << " / "
            << json_num(net_rate) << " offers/sec = " << json_num(net_ratio)
            << "x\n";

  if (opts.csv_path) {
    report::CsvWriter csv(*opts.csv_path,
                          {"experiment", "mode", "fsync", "shards", "conns",
                           "offers", "seconds", "offers_per_sec",
                           "lat_p50_us", "lat_p95_us", "lat_p99_us"});
    for (const Cell& c : cells)
      csv.add_row({"E18", "file", serve::to_string(c.fsync),
                   std::to_string(c.shards), "0", std::to_string(c.items),
                   report::Table::num(c.seconds, 6),
                   report::Table::num(c.offers_per_sec, 1),
                   std::to_string(c.lat.quantile(0.5)),
                   std::to_string(c.lat.quantile(0.95)),
                   std::to_string(c.lat.quantile(0.99))});
    for (const NetCell& c : net_cells)
      csv.add_row({"E18", "net-" + c.mode, "every", std::to_string(c.shards),
                   std::to_string(c.conns), std::to_string(c.items),
                   report::Table::num(c.seconds, 6),
                   report::Table::num(c.offers_per_sec, 1),
                   std::to_string(c.p50), std::to_string(c.p95),
                   std::to_string(c.p99)});
  }
  if (json_path) {
    const auto lat_json = [](const obs::HistogramSnapshot& h) {
      std::string s = "{\"count\":" + std::to_string(h.count);
      s += ",\"p50\":" + std::to_string(h.quantile(0.5));
      s += ",\"p95\":" + std::to_string(h.quantile(0.95));
      s += ",\"p99\":" + std::to_string(h.quantile(0.99));
      s += ",\"max\":" + std::to_string(h.max) + "}";
      return s;
    };
    std::ofstream f(*json_path);
    f << "{\"experiment\":\"E18\",\"nproc\":"
      << std::thread::hardware_concurrency() << ",\"offers\":" << stream.size()
      << ",\"net_check\":{\"shards\":" << cmp_shards
      << ",\"file_over_net\":" << json_num(net_ratio)
      << ",\"within_2x\":" << (net_within_2x ? "true" : "false") << "}"
      << ",\"cells\":[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      f << (i ? "," : "") << "{\"mode\":\"file\",\"fsync\":\""
        << serve::to_string(c.fsync) << "\",\"shards\":" << c.shards
        << ",\"offers\":" << c.items
        << ",\"seconds\":" << json_num(c.seconds)
        << ",\"offers_per_sec\":" << json_num(c.offers_per_sec)
        << ",\"lat_us\":" << lat_json(c.lat) << ",\"shard_lat_us\":[";
      for (std::size_t s = 0; s < c.shard_lat.size(); ++s)
        f << (s ? "," : "") << lat_json(c.shard_lat[s]);
      f << "]}";
    }
    for (const NetCell& c : net_cells) {
      f << ",{\"mode\":\"net-" << c.mode
        << "\",\"fsync\":\"every\",\"shards\":" << c.shards
        << ",\"conns\":" << c.conns << ",\"offers\":" << c.items
        << ",\"seconds\":" << json_num(c.seconds)
        << ",\"offers_per_sec\":" << json_num(c.offers_per_sec)
        << ",\"client_lat_us\":{\"count\":" << c.items
        << ",\"p50\":" << c.p50 << ",\"p95\":" << c.p95
        << ",\"p99\":" << c.p99 << ",\"max\":" << c.lat_max << "}}";
    }
    f << "]}\n";
    std::cout << "json written to " << *json_path << "\n";
  }
  if (!opts.quick && !net_within_2x)
    throw std::runtime_error(
        "networked throughput fell below half of file-fed");
  std::cout << "self-checks passed: placed == offered in every cell, no "
               "acked-offer loss over loopback\n";
  return 0;
}
