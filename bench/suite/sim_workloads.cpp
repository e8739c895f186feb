// sim-ha and sweep-stream: the simulator as `cdbp run` and
// `cdbp sim-sweep --stream` drive it.
#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "child.h"
#include "cli/cli.h"
#include "core/simulator.h"
#include "layers.h"
#include "parallel/sharded_sim.h"
#include "stats.h"
#include "workloads.h"
#include "workloads/general_random.h"
#include "workloads/instance_file.h"

namespace cdbp::bench_suite {

namespace {

constexpr std::uint64_t kRepTimeoutMs = 120'000;

/// `cdbp generate --kind general --n <log2_mu> --items <items>`.
Instance general_instance(std::uint64_t seed, int log2_mu, int items) {
  std::mt19937_64 rng(seed);
  workloads::GeneralConfig gc;
  gc.log2_mu = log2_mu;
  gc.target_items = items;
  return workloads::make_general_random(gc, rng);
}

/// `cdbp run --stream --storage soa` of a .cdbpi file: the streamed oracle.
RunResult stream_soa(const std::string& path, const std::string& algo_name) {
  workloads::InstanceFileReader source(path);
  const AlgorithmPtr algo = cli::make_algorithm(algo_name);
  return Simulator{SimulatorOptions{.keep_history = false,
                                    .storage = LedgerStorage::kSoa}}
      .run_source(source, *algo);
}

}  // namespace

Result run_sim_ha(const RunConfig& cfg, SpanLog& spans) {
  Result r;
  r.workload = "sim-ha";
  const int items = cfg.quick ? 200'000 : 1'000'000;
  const std::string file = cfg.work_dir + "/sim-ha.cdbpi";
  Instance instance;
  const double setup_s = median_setup_seconds(
      5,
      [&] {
        instance = general_instance(cfg.seed, 8, items);
        workloads::write_instance_file(file, instance);
      },
      {}, spans);
  // `cdbp run`'s in-RAM path: history kept, default (reference) ledger.
  const SimulatorOptions run_opts{.keep_history = true,
                                  .storage = LedgerStorage::kReference};
  const double mu = instance.mu();
  const auto n_items = static_cast<double>(instance.size());

  std::vector<double> walls, traced_walls, rss, costs;
  std::vector<double> arr_p50, arr_p99, dep_p50, loop_ns;
  RunResult witness;
  const std::uint64_t t_start = now_ns();
  const std::size_t min_reps = cfg.quick ? 2 : 3;
  while (walls.size() < min_reps || seconds_since(t_start) < cfg.seconds) {
    const std::uint64_t rep_span = spans.reserve_id();
    const std::uint64_t t0 = now_ns();
    ++r.attempted;
    if (!cfg.traced) {
      // Each rep in its own process, so each has its own peak RSS.
      const ForkResult f = run_forked(
          [&] {
            const AlgorithmPtr algo = cli::make_algorithm("ha", mu);
            const std::uint64_t s = now_ns();
            const RunResult res = Simulator{run_opts}.run(instance, *algo);
            return std::vector<double>{seconds_since(s), res.cost};
          },
          kRepTimeoutMs);
      if (!f.ok || f.values.size() != 2) {
        ++r.failed;
        r.check("every rep completes", false, f.error);
        break;
      }
      walls.push_back(f.values[0]);
      costs.push_back(f.values[1]);
      rss.push_back(f.peak_rss_mib);
    } else {
      // Alternate plain and decorated reps in this process; the wall-time
      // ratio of the two is the tracing overhead.
      const AlgorithmPtr plain = cli::make_algorithm("ha", mu);
      std::uint64_t s = now_ns();
      const RunResult res = Simulator{run_opts}.run(instance, *plain);
      walls.push_back(seconds_since(s));
      costs.push_back(res.cost);

      TimedAlgorithm timed(cli::make_algorithm("ha", mu), spans, rep_span,
                           instance.size());
      s = now_ns();
      witness = Simulator{run_opts}.run(instance, timed);
      const std::uint64_t wall_ns = now_ns() - s;
      traced_walls.push_back(static_cast<double>(wall_ns) / 1e9);
      costs.push_back(witness.cost);
      std::vector<std::uint32_t> a = timed.arrival_ns(), d = timed.departure_ns();
      std::sort(a.begin(), a.end());
      std::sort(d.begin(), d.end());
      arr_p50.push_back(percentile_sorted(a, 50));
      arr_p99.push_back(percentile_sorted(a, 99));
      dep_p50.push_back(percentile_sorted(d, 50));
      loop_ns.push_back(static_cast<double>(wall_ns - timed.total_ns()) / n_items);
    }
    spans.record(Span{"sim.rep", t0, now_ns(), rep_span, 0, 0, 0});
  }

  // Oracle: the same items streamed from the .cdbpi file on the SoA ledger
  // must cost the same, bit for bit, as every in-RAM reference rep.
  ++r.attempted;
  const RunResult streamed = stream_soa(file, "ha");
  const bool reps_agree = std::all_of(costs.begin(), costs.end(), [&](double c) {
    return same_bits(c, costs.front());
  });
  r.check("cost identical across reps", !costs.empty() && reps_agree,
          costs.empty() ? "no reps" : cost_str(costs.front()));
  r.check("cost equals streamed SoA replay",
          !costs.empty() && same_bits(costs.front(), streamed.cost),
          "reps " + (costs.empty() ? std::string("-") : cost_str(costs.front())) +
              " vs streamed " + cost_str(streamed.cost));

  r.detail("items", std::to_string(instance.size()));
  r.detail("rep_s", json_array(walls));
  r.detail("cost", json_string(cost_str(streamed.cost)));
  r.detail("peak_open_bins", std::to_string(streamed.max_open));
  // A traced run's `walls` are its plain (undecorated) reps.
  const double wall = median(walls);
  report_speed(r, cfg.traced, n_items / wall, wall * 1e3);
  if (!cfg.traced) {
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", median(rss), "MiB");
  } else {
    r.metric("algos.arrival_ns_p50", median(arr_p50), "ns");
    r.metric("algos.arrival_ns_p99", median(arr_p99), "ns");
    r.metric("algos.departure_ns_p50", median(dep_p50), "ns");
    r.metric("core.loop_ns_per_item", median(loop_ns), "ns");
    r.metric("core.bins_opened", static_cast<double>(witness.bins_opened), "count");
    r.metric("core.peak_open_bins", static_cast<double>(witness.max_open), "count");
    r.metric("workloads.cdbpi_next_ns", cdbpi_next_ns(file), "ns");
    r.metric("trace.overhead_pct", (median(traced_walls) / wall - 1.0) * 100.0, "%");
  }
  return r;
}

Result run_sweep_stream(const RunConfig& cfg, SpanLog& spans) {
  Result r;
  r.workload = "sweep-stream";
  const int items = cfg.quick ? 200'000 : 1'000'000;
  const std::vector<std::string> files = {cfg.work_dir + "/sweep-0.cdbpi",
                                          cfg.work_dir + "/sweep-1.cdbpi"};
  const double setup_s = median_setup_seconds(
      3,
      [&] {
        for (std::size_t f = 0; f < files.size(); ++f)
          workloads::write_instance_file(
              files[f], general_instance(cfg.seed * 2 + f, 4, items));
      },
      {}, spans);

  // `cdbp sim-sweep --algos ff,bf,wf,ha --stream --threads 4`, once per
  // file, as one batch of 8 tasks.
  const std::vector<std::string> algos = {"ff", "bf", "wf", "ha"};
  std::vector<parallel::ShardTask> tasks;
  for (std::size_t f = 0; f < files.size(); ++f)
    for (const std::string& a : algos) {
      parallel::ShardTask t;
      t.label = a + "@" + std::to_string(f);
      t.make = [a] { return cli::make_algorithm(a); };
      t.path = files[f];
      tasks.push_back(std::move(t));
    }
  constexpr std::size_t kThreads = 4;
  parallel::ShardedSimOptions opts;
  opts.threads = kThreads;
  const std::size_t n_tasks = tasks.size();
  // Items replayed per batch: every task streams its whole file.
  const double total_items = static_cast<double>(items) * static_cast<double>(n_tasks);

  std::vector<double> walls, rss;
  std::vector<std::vector<double>> rep_costs, rep_task_s;
  const std::uint64_t t_start = now_ns();
  const double window = cfg.traced ? cfg.seconds / 3.0 : cfg.seconds;
  const std::size_t min_reps = cfg.quick || cfg.traced ? 2 : 3;
  while (walls.size() < min_reps || seconds_since(t_start) < window) {
    const std::uint64_t t0 = now_ns();
    ++r.attempted;
    const auto one_rep = [&] {
      const std::uint64_t s = now_ns();
      const parallel::ShardedSimReport rep = parallel::run_sharded(tasks, opts);
      std::vector<double> out{seconds_since(s)};
      for (const auto& res : rep.results) out.push_back(res.cost);
      for (const auto& res : rep.results) out.push_back(res.seconds);
      return out;
    };
    std::vector<double> v;
    if (!cfg.traced) {
      const ForkResult f = run_forked(one_rep, kRepTimeoutMs);
      if (!f.ok || f.values.size() != 1 + 2 * n_tasks) {
        ++r.failed;
        r.check("every rep completes", false, f.error);
        break;
      }
      v = f.values;
      rss.push_back(f.peak_rss_mib);
    } else {
      v = one_rep();
    }
    walls.push_back(v[0]);
    rep_costs.emplace_back(v.begin() + 1, v.begin() + 1 + static_cast<std::ptrdiff_t>(n_tasks));
    rep_task_s.emplace_back(v.begin() + 1 + static_cast<std::ptrdiff_t>(n_tasks), v.end());
    spans.add("sweep.rep", t0, now_ns());
  }

  // Serial pass over the same tasks: the oracle every parallel rep must
  // match task by task, and the single-thread baseline for efficiency.
  std::vector<double> serial_costs, serial_s;
  for (const parallel::ShardTask& t : tasks) {
    ++r.attempted;
    const std::uint64_t s = now_ns();
    workloads::InstanceFileReader source(t.path);
    const AlgorithmPtr algo = t.make();
    const RunResult res =
        Simulator{SimulatorOptions{.keep_history = false, .storage = LedgerStorage::kSoa}}
            .run_source(source, *algo);
    serial_costs.push_back(res.cost);
    serial_s.push_back(seconds_since(s));
    spans.add("sweep.serial_task", s, now_ns());
  }
  bool match = !rep_costs.empty();
  std::string mismatch;
  for (const auto& costs : rep_costs)
    for (std::size_t i = 0; i < n_tasks; ++i)
      if (!same_bits(costs[i], serial_costs[i])) {
        match = false;
        mismatch = tasks[i].label + ": " + cost_str(costs[i]) + " vs serial " +
                   cost_str(serial_costs[i]);
      }
  r.check("every task cost equals the serial pass", match,
          match ? std::to_string(rep_costs.size()) + " reps x " +
                      std::to_string(n_tasks) + " tasks"
                : mismatch);

  std::string task_json;
  for (std::size_t i = 0; i < n_tasks; ++i)
    task_json += (i ? "," : "") + std::string("{\"task\":") + json_string(tasks[i].label) +
                 ",\"cost\":" + json_string(cost_str(serial_costs[i])) +
                 ",\"serial_s\":" + json_number(serial_s[i]) + "}";
  r.detail("tasks", "[" + task_json + "]");
  r.detail("items_per_file", std::to_string(items));
  r.detail("threads", std::to_string(kThreads));
  r.detail("rep_s", json_array(walls));

  const double wall = median(walls);
  report_speed(r, cfg.traced, total_items / wall, wall * 1e3);
  if (!cfg.traced) {
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", median(rss), "MiB");
    return r;
  }

  // Traced: the serial pass again, each algorithm behind the decorator.
  std::vector<std::uint32_t> arrivals, departures;
  double loop_ns_total = 0.0, traced_serial = 0.0;
  double bins = 0.0, peaks = 0.0;
  for (const parallel::ShardTask& t : tasks) {
    const ScopedSpan task_span(spans, "sweep.traced_task");
    workloads::InstanceFileReader source(t.path);
    TimedAlgorithm timed(t.make(), spans, task_span.id(), static_cast<std::size_t>(items));
    const std::uint64_t s = now_ns();
    const RunResult res =
        Simulator{SimulatorOptions{.keep_history = false, .storage = LedgerStorage::kSoa}}
            .run_source(source, timed);
    const std::uint64_t wall_ns = now_ns() - s;
    traced_serial += static_cast<double>(wall_ns) / 1e9;
    loop_ns_total += static_cast<double>(wall_ns - timed.total_ns());
    arrivals.insert(arrivals.end(), timed.arrival_ns().begin(), timed.arrival_ns().end());
    departures.insert(departures.end(), timed.departure_ns().begin(),
                      timed.departure_ns().end());
    bins += static_cast<double>(res.bins_opened);
    peaks += static_cast<double>(res.max_open);
  }
  std::sort(arrivals.begin(), arrivals.end());
  std::sort(departures.begin(), departures.end());
  double serial_total = 0.0;
  for (const double s : serial_s) serial_total += s;
  const double serial_rate = total_items / serial_total;
  // Task times of the median parallel rep.
  const std::size_t mid = static_cast<std::size_t>(
      std::find(walls.begin(), walls.end(), percentile(walls, 50)) - walls.begin());
  const std::vector<double>& task_s = rep_task_s[std::min(mid, rep_task_s.size() - 1)];
  double next_ns = 0.0;
  for (const std::string& f : files) next_ns += cdbpi_next_ns(f) / static_cast<double>(files.size());

  r.metric("algos.arrival_ns_p50", percentile_sorted(arrivals, 50), "ns");
  r.metric("algos.arrival_ns_p99", percentile_sorted(arrivals, 99), "ns");
  r.metric("algos.departure_ns_p50", percentile_sorted(departures, 50), "ns");
  r.metric("core.loop_ns_per_item", loop_ns_total / total_items, "ns");
  r.metric("core.bins_opened", bins, "count");
  r.metric("core.peak_open_bins", peaks, "count");
  r.metric("workloads.cdbpi_next_ns", next_ns, "ns");
  r.metric("parallel.serial_items_per_s", serial_rate, "items/s");
  r.metric("parallel.efficiency",
           (total_items / wall) / (static_cast<double>(kThreads) * serial_rate), "fraction");
  r.metric("parallel.task_s_max", *std::max_element(task_s.begin(), task_s.end()), "s");
  r.metric("parallel.task_s_min", *std::min_element(task_s.begin(), task_s.end()), "s");
  r.metric("trace.overhead_pct", (traced_serial / serial_total - 1.0) * 100.0, "%");
  return r;
}

}  // namespace cdbp::bench_suite
