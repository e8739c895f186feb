// Simulator hot-path throughput (E15): items/sec for FF/BF/WF/CDFF/HA
// across n up to 1e7, for the two ledger layouts:
//
//   soa        SoA ledger columns + flat active-item map (the data plane)
//   reference  the original AoS ledger (the bit-identical oracle)
//
// plus two scale probes:
//
//   * peak-RSS of a streamed .cdbpi replay vs the same run on the
//     materialized instance, each in its own forked child (ru_maxrss is a
//     process high-water mark, so the comparison needs fresh processes);
//   * sharded-simulator wall time for a small algorithm sweep at 1, 2, and
//     hardware threads.
//
// Besides the human tables, results land in a machine-readable JSON file
// (--json PATH, default BENCH_HOTPATH.json) that is committed alongside
// EXPERIMENTS.md as the before/after evidence. --quick trims every size for
// CI smoke runs.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algos/any_fit.h"
#include "algos/cdff.h"
#include "algos/hybrid.h"
#include "bench_common.h"
#include "core/instance.h"
#include "core/simulator.h"
#include "parallel/sharded_sim.h"
#include "report/table.h"
#include "workloads/aligned_random.h"
#include "workloads/general_random.h"
#include "workloads/instance_file.h"

namespace {

using namespace cdbp;

struct Timed {
  Cost cost = 0.0;
  double seconds = 0.0;
  double items_per_sec = 0.0;
};

Timed run_once(const Instance& instance, Algorithm& algo,
               LedgerStorage storage) {
  Simulator sim{SimulatorOptions{.keep_history = false, .storage = storage}};
  const auto start = std::chrono::steady_clock::now();
  const RunResult result = sim.run(instance, algo);
  const auto stop = std::chrono::steady_clock::now();
  Timed t;
  t.cost = result.cost;
  t.seconds = std::chrono::duration<double>(stop - start).count();
  t.items_per_sec = static_cast<double>(instance.size()) / t.seconds;
  return t;
}

Instance make_general(std::size_t n) {
  workloads::GeneralConfig config;
  config.shape = workloads::GeneralShape::kLogUniform;
  config.log2_mu = 8;
  config.target_items = static_cast<int>(n);
  // Horizon scaled so ~2-3k items stay concurrently active at n = 1e5.
  config.horizon = std::max(64.0, static_cast<double>(n) / 50.0);
  std::mt19937_64 rng(42);
  return workloads::make_general_random(config, rng);
}

Instance make_aligned(std::size_t n) {
  workloads::AlignedConfig config;
  config.max_bucket = 8;
  // Pick the horizon so roughly `n` items are emitted at the default
  // per-slot rate (slot count across buckets is ~2 * 2^n).
  int exp = 10;
  while ((std::size_t{2} << exp) < n) ++exp;
  config.n = exp;
  std::mt19937_64 rng(42);
  return workloads::make_aligned_random(config, rng);
}

std::string human(double v) {
  return report::Table::num(v / 1e6, 2) + "M";
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct ThroughputRow {
  std::string algorithm;
  std::string workload;
  std::size_t n = 0;
  std::string storage;
  Timed timed;
};

struct RssProbe {
  std::size_t n = 0;
  bool ok = false;
  Cost in_ram_cost = 0.0, streamed_cost = 0.0;
  double in_ram_secs = 0.0, streamed_secs = 0.0;
  double in_ram_rss = 0.0, streamed_rss = 0.0;
};

struct ShardPoint {
  std::size_t threads = 0;
  double wall_seconds = 0.0;
  std::size_t tasks = 0;
  std::size_t items = 0;
};

/// Streamed-vs-in-RAM peak RSS, everything heavyweight in forked children
/// so the parent (and therefore each child's inherited high-water mark)
/// stays small.
RssProbe probe_rss(std::size_t n) {
  namespace fs = std::filesystem;
  RssProbe probe;
  probe.n = n;
  const std::string path =
      (fs::temp_directory_path() / "cdbp_bench_hotpath.cdbpi").string();

  const auto generated = cdbp::bench::run_in_subprocess([&] {
    const Instance instance = make_general(n);
    workloads::write_instance_file(path, instance);
    return std::vector<double>{static_cast<double>(instance.size())};
  });
  if (!generated) {
    std::remove(path.c_str());
    return probe;
  }

  const auto in_ram = cdbp::bench::run_in_subprocess([&] {
    const Instance instance = workloads::read_instance_file(path);
    algos::FirstFit ff;
    const Timed t = run_once(instance, ff, LedgerStorage::kSoa);
    return std::vector<double>{
        t.cost, t.seconds, static_cast<double>(cdbp::bench::peak_rss_bytes())};
  });
  const auto streamed = cdbp::bench::run_in_subprocess([&] {
    Simulator sim{SimulatorOptions{.keep_history = false,
                                   .storage = LedgerStorage::kSoa}};
    algos::FirstFit ff;
    workloads::InstanceFileReader source(path);
    const auto start = std::chrono::steady_clock::now();
    const RunResult result = sim.run_source(source, ff);
    const auto stop = std::chrono::steady_clock::now();
    return std::vector<double>{
        result.cost, std::chrono::duration<double>(stop - start).count(),
        static_cast<double>(cdbp::bench::peak_rss_bytes())};
  });
  std::remove(path.c_str());
  if (!in_ram || !streamed || in_ram->size() != 3 || streamed->size() != 3)
    return probe;
  probe.ok = true;
  probe.in_ram_cost = (*in_ram)[0];
  probe.in_ram_secs = (*in_ram)[1];
  probe.in_ram_rss = (*in_ram)[2];
  probe.streamed_cost = (*streamed)[0];
  probe.streamed_secs = (*streamed)[1];
  probe.streamed_rss = (*streamed)[2];
  return probe;
}

void write_json(const std::string& path, bool quick,
                const std::vector<ThroughputRow>& rows, const RssProbe& rss,
                const std::vector<ShardPoint>& sharded) {
  std::ofstream out(path);
  out << "{\n  \"bench\": \"simulator_hotpath\",\n  \"quick\": "
      << (quick ? "true" : "false")
      << ",\n  \"nproc\": " << std::thread::hardware_concurrency()
      << ",\n  \"throughput\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ThroughputRow& r = rows[i];
    out << (i ? "," : "") << "\n    {\"algorithm\": \"" << r.algorithm
        << "\", \"workload\": \"" << r.workload << "\", \"n\": " << r.n
        << ", \"storage\": \"" << r.storage
        << "\", \"items_per_sec\": " << json_num(r.timed.items_per_sec)
        << ", \"seconds\": " << json_num(r.timed.seconds)
        << ", \"cost\": " << json_num(r.timed.cost) << "}";
  }
  out << "\n  ],\n  \"rss\": ";
  if (rss.ok) {
    out << "{\"n\": " << rss.n
        << ", \"in_ram_peak_rss_bytes\": " << json_num(rss.in_ram_rss)
        << ", \"streamed_peak_rss_bytes\": " << json_num(rss.streamed_rss)
        << ", \"streamed_rss_fraction\": "
        << json_num(rss.streamed_rss / rss.in_ram_rss)
        << ", \"in_ram_seconds\": " << json_num(rss.in_ram_secs)
        << ", \"streamed_seconds\": " << json_num(rss.streamed_secs)
        << ", \"costs_equal\": "
        << (rss.in_ram_cost == rss.streamed_cost ? "true" : "false") << "}";
  } else {
    out << "null";
  }
  out << ",\n  \"sharded\": [";
  for (std::size_t i = 0; i < sharded.size(); ++i) {
    const ShardPoint& p = sharded[i];
    out << (i ? "," : "") << "\n    {\"threads\": " << p.threads
        << ", \"tasks\": " << p.tasks << ", \"total_items\": " << p.items
        << ", \"wall_seconds\": " << json_num(p.wall_seconds) << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = cdbp::bench::parse_options(argc, argv);
  std::string json_path = "BENCH_HOTPATH.json";
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") json_path = argv[i + 1];

  std::vector<std::size_t> sizes = {10000, 100000, 1000000};
  std::size_t rss_n = 10000000;
  std::size_t big_n = 10000000;  // FF-only tier, soa + reference
  std::size_t shard_n = 1000000;
  if (opts.quick) {
    sizes = {2000, 10000};
    rss_n = 100000;
    big_n = 0;
    shard_n = 50000;
  }

  // Part B first: the forked RSS children inherit the parent's current
  // high-water mark, so it must run before the parent touches any large
  // instance.
  const RssProbe rss = probe_rss(rss_n);

  std::vector<ThroughputRow> rows;
  std::cout << "== simulator hot path: items/sec by storage backend ==\n";
  report::Table table({"algorithm", "n", "soa items/s", "reference items/s",
                       "soa speedup", "cost equal"});

  for (const std::size_t n : sizes) {
    const Instance general = make_general(n);
    const Instance aligned = make_aligned(n);

    struct Entry {
      std::string label;
      std::string workload;
      AlgorithmPtr algo;
      const Instance* instance;
    };
    std::vector<Entry> entries;
    entries.push_back({"FirstFit", "general",
                       std::make_unique<algos::FirstFit>(), &general});
    entries.push_back({"BestFit", "general",
                       std::make_unique<algos::BestFit>(), &general});
    entries.push_back({"WorstFit", "general",
                       std::make_unique<algos::WorstFit>(), &general});
    entries.push_back(
        {"CDFF", "aligned", std::make_unique<algos::Cdff>(), &aligned});
    entries.push_back(
        {"HA", "general", std::make_unique<algos::Hybrid>(), &general});

    for (Entry& e : entries) {
      const Timed soa = run_once(*e.instance, *e.algo, LedgerStorage::kSoa);
      const Timed ref =
          run_once(*e.instance, *e.algo, LedgerStorage::kReference);
      rows.push_back(
          {e.label, e.workload, e.instance->size(), "soa", soa});
      rows.push_back(
          {e.label, e.workload, e.instance->size(), "reference", ref});
      table.add_row({e.label, std::to_string(e.instance->size()),
                     human(soa.items_per_sec), human(ref.items_per_sec),
                     report::Table::num(
                         soa.items_per_sec / ref.items_per_sec, 2) + "x",
                     soa.cost == ref.cost ? "yes" : "NO"});
    }
  }

  if (big_n != 0) {
    const Instance general = make_general(big_n);
    algos::FirstFit ff;
    const Timed soa = run_once(general, ff, LedgerStorage::kSoa);
    const Timed ref = run_once(general, ff, LedgerStorage::kReference);
    rows.push_back({"FirstFit", "general", general.size(), "soa", soa});
    rows.push_back({"FirstFit", "general", general.size(), "reference", ref});
    table.add_row({"FirstFit", std::to_string(general.size()),
                   human(soa.items_per_sec), human(ref.items_per_sec),
                   report::Table::num(
                       soa.items_per_sec / ref.items_per_sec, 2) + "x",
                   soa.cost == ref.cost ? "yes" : "NO"});
  }
  std::cout << table.to_string();
  std::cout << "\n('cost equal' checks both layouts reproduce the same cost "
               "bit for bit)\n";

  std::cout << "\n== streamed .cdbpi replay vs in-RAM instance, FirstFit/soa "
               "==\n";
  if (rss.ok) {
    report::Table rss_table({"input", "peak RSS", "seconds", "cost equal"});
    const auto mib = [](double b) {
      return report::Table::num(b / (1024.0 * 1024.0), 1) + " MiB";
    };
    rss_table.add_row({"in-RAM (n=" + std::to_string(rss.n) + ")",
                       mib(rss.in_ram_rss),
                       report::Table::num(rss.in_ram_secs, 2), "-"});
    rss_table.add_row({"streamed", mib(rss.streamed_rss),
                       report::Table::num(rss.streamed_secs, 2),
                       rss.in_ram_cost == rss.streamed_cost ? "yes" : "NO"});
    std::cout << rss_table.to_string()
              << "streamed peak RSS = "
              << report::Table::num(
                     100.0 * rss.streamed_rss / rss.in_ram_rss, 1)
              << "% of in-RAM\n";
  } else {
    std::cout << "(skipped: fork/getrusage unavailable)\n";
  }

  // Part C: sharded wall-clock scaling on an algorithm sweep of one
  // instance. Thread counts beyond the hardware shrink nothing, but the
  // 1-vs-2 point still shows the overhead of the sharding machinery itself.
  std::vector<ShardPoint> shard_points;
  {
    const Instance instance = make_general(shard_n);
    std::vector<parallel::ShardTask> tasks;
    const auto add = [&](const std::string& label,
                         parallel::AlgorithmFactory make) {
      tasks.push_back({label, std::move(make), &instance, {}});
    };
    for (int rep = 0; rep < 2; ++rep) {
      add("ff", [] { return std::make_unique<algos::FirstFit>(); });
      add("bf", [] { return std::make_unique<algos::BestFit>(); });
      add("wf", [] { return std::make_unique<algos::WorstFit>(); });
      add("ha", [] { return std::make_unique<algos::Hybrid>(); });
    }
    std::vector<std::size_t> thread_counts = {1, 2};
    const std::size_t hw = parallel::ThreadPool{}.thread_count();
    if (hw > 2) thread_counts.push_back(hw);
    std::cout << "\n== sharded simulator: " << tasks.size()
              << " independent runs of n=" << instance.size() << " ==\n";
    report::Table shard_table({"threads", "wall s", "sum of run s"});
    for (const std::size_t threads : thread_counts) {
      parallel::ShardedSimOptions shard_opts;
      shard_opts.threads = threads;
      const auto start = std::chrono::steady_clock::now();
      const parallel::ShardedSimReport report =
          parallel::run_sharded(tasks, shard_opts);
      const auto stop = std::chrono::steady_clock::now();
      ShardPoint point;
      point.threads = threads;
      point.wall_seconds =
          std::chrono::duration<double>(stop - start).count();
      point.tasks = tasks.size();
      double run_sum = 0.0;
      for (const auto& r : report.results) {
        point.items += r.items;
        run_sum += r.seconds;
      }
      shard_points.push_back(point);
      shard_table.add_row({std::to_string(threads),
                           report::Table::num(point.wall_seconds, 2),
                           report::Table::num(run_sum, 2)});
    }
    std::cout << shard_table.to_string();
  }

  write_json(json_path, opts.quick, rows, rss, shard_points);
  std::cout << "\nJSON written to " << json_path << "\n";
  return 0;
}
