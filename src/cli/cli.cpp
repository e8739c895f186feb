#include "cli/cli.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "adversary/lower_bound.h"
#include "algos/any_fit.h"
#include "algos/cdff.h"
#include "algos/classify.h"
#include "algos/duration_aware.h"
#include "algos/harmonic.h"
#include "algos/hybrid.h"
#include "analysis/instance_stats.h"
#include "analysis/ratio.h"
#include "cluster/cluster.h"
#include "core/checkpoint.h"
#include "core/frame.h"
#include "net/client.h"
#include "net/listener.h"
#include "net/protocol.h"
#include "core/simulator.h"
#include "core/transforms.h"
#include "core/validation.h"
#include "obs/obs.h"
#include "opt/bounds.h"
#include "opt/certify.h"
#include "opt/exact.h"
#include "opt/exact_repacking.h"
#include "opt/local_search.h"
#include "opt/offline_ffd.h"
#include "opt/reduction.h"
#include "opt/repack.h"
#include "parallel/sharded_sim.h"
#include "parallel/thread_pool.h"
#include "report/ascii_chart.h"
#include "report/table.h"
#include "serve/request_stream.h"
#include "serve/shard_router.h"
#include "serve/stats_exporter.h"
#include "serve/wal_segment.h"
#include "trace/trace.h"
#include "workloads/aligned_random.h"
#include "workloads/binary_input.h"
#include "workloads/cloud_gaming.h"
#include "workloads/general_random.h"
#include "workloads/instance_file.h"

namespace cdbp::cli {

namespace {

[[noreturn]] void bad_value(const std::string& flag, const std::string& token) {
  throw std::invalid_argument("bad value for " + flag + ": " + token);
}

/// A count, size, port or seed: the whole token is decimal digits (no sign,
/// no blanks, no trailing bytes), read as a std::uint64_t and range-checked
/// into T, never truncated.
template <typename T>
T parse_count(const std::string& token, const std::string& flag) {
  std::uint64_t v = 0;
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc{} || stop != end || !std::in_range<T>(v))
    bad_value(flag, token);
  return static_cast<T>(v);
}

/// A signed integer (--n, --rounds, --mu-log2): the whole token.
int parse_int(const std::string& token, const std::string& flag) {
  int v = 0;
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc{} || stop != end) bad_value(flag, token);
  return v;
}

/// Simple --flag value parser. Flags may appear once; `get` consumes.
class Flags {
 public:
  Flags(std::vector<std::string>::const_iterator begin,
        std::vector<std::string>::const_iterator end) {
    for (auto it = begin; it != end; ++it) {
      if (it->rfind("--", 0) != 0)
        throw std::invalid_argument("expected --flag, got '" + *it + "'");
      const std::string key = it->substr(2);
      if (key == "gantt" || key == "validate" || key == "resume" ||
          key == "stream" || key == "allow-loss") {
        values_[key] = "true";
      } else {
        if (++it == end)
          throw std::invalid_argument("--" + key + " needs a value");
        values_[key] = *it;
      }
    }
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    std::string v = it->second;
    values_.erase(it);
    return v;
  }

  [[nodiscard]] std::string require(const std::string& key) {
    auto v = get(key);
    if (!v) throw std::invalid_argument("missing required --" + key);
    return *v;
  }

  /// --key through parse_count<T>; `fallback` when absent.
  template <typename T>
  [[nodiscard]] T count(const std::string& key, T fallback) {
    const auto v = get(key);
    return v ? parse_count<T>(*v, "--" + key) : fallback;
  }

  /// --key through parse_int; `fallback` when absent.
  [[nodiscard]] int integer(const std::string& key, int fallback) {
    const auto v = get(key);
    return v ? parse_int(*v, "--" + key) : fallback;
  }

  /// --key through trace::parse_number; `fallback` when absent.
  [[nodiscard]] double real(const std::string& key, double fallback) {
    const auto v = get(key);
    if (!v) return fallback;
    const std::optional<double> x = trace::parse_number(*v);
    if (!x) bad_value("--" + key, *v);
    return *x;
  }

  void finish() const {
    if (!values_.empty())
      throw std::invalid_argument("unknown flag --" + values_.begin()->first);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// "HOST:PORT" (":PORT" and bare "PORT" default the host to 127.0.0.1),
/// the value of `flag`.
std::pair<std::string, std::uint16_t> parse_hostport(const std::string& s,
                                                     const std::string& flag) {
  const std::size_t colon = s.rfind(':');
  std::string host =
      colon == std::string::npos ? "127.0.0.1" : s.substr(0, colon);
  if (host.empty()) host = "127.0.0.1";
  const std::string port_str =
      colon == std::string::npos ? s : s.substr(colon + 1);
  return {host, parse_count<std::uint16_t>(port_str, flag)};
}

/// SIGINT/SIGTERM request a graceful shutdown: a handler may only flip a
/// volatile sig_atomic_t; the serve loops poll it.
volatile std::sig_atomic_t g_shutdown = 0;

void install_shutdown_handlers() {
  g_shutdown = 0;
  std::signal(SIGINT, [](int) { g_shutdown = 1; });
  std::signal(SIGTERM, [](int) { g_shutdown = 1; });
}

/// Full round-trip precision for values that must diff-compare exactly
/// across processes (`cdbp recover` and `cdbp sim-sweep` outputs are CI
/// oracles).
std::string num_exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool is_cdbpi_path(const std::string& path) {
  return path.size() >= 6 &&
         path.compare(path.size() - 6, 6, ".cdbpi") == 0;
}

LedgerStorage parse_storage(const std::string& s) {
  if (s == "soa") return LedgerStorage::kSoa;
  if (s == "reference") return LedgerStorage::kReference;
  throw std::invalid_argument("unknown storage '" + s +
                              "' (expected soa|reference)");
}

/// Reads an instance file of either format by extension.
Instance read_instance_any(const std::string& path) {
  return is_cdbpi_path(path) ? workloads::read_instance_file(path)
                             : trace::read_instance_csv(path);
}

/// The global tracer's sink for one command (--trace-out FILE): installed
/// at construction, cleared (which finalizes the file) by finish() or on
/// scope exit. The format is --trace-format's, else the extension's:
/// *.jsonl -> one JSON object per line; anything else -> Chrome
/// trace_event JSON (chrome://tracing, https://ui.perfetto.dev).
class TraceScope {
 public:
  TraceScope(const std::optional<std::string>& path,
             const std::optional<std::string>& format) {
#ifndef CDBP_OBS_OFF
    if (!path) return;
    const std::string f =
        format.value_or(path->ends_with(".jsonl") ? "jsonl" : "chrome");
    std::shared_ptr<obs::TraceSink> sink;
    if (f == "jsonl")
      sink = std::make_shared<obs::JsonlSink>(*path);
    else if (f == "chrome")
      sink = std::make_shared<obs::ChromeTraceSink>(*path);
    else
      throw std::invalid_argument("unknown trace format '" + f +
                                  "' (expected chrome|jsonl)");
    obs::Tracer::global().set_sink(std::move(sink));
    armed_ = true;
#else
    (void)path;
    (void)format;
#endif
  }
  ~TraceScope() { finish(); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  void finish() {
#ifndef CDBP_OBS_OFF
    if (armed_) obs::Tracer::global().clear_sink();
#endif
    armed_ = false;
  }

 private:
  bool armed_ = false;
};

/// Dumps the global metrics registry: *.csv -> CSV, otherwise text.
void write_metrics_file(const std::string& path) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open metrics file: " + path);
  if (path.ends_with(".csv"))
    obs::MetricsRegistry::global().dump_csv(f);
  else
    obs::MetricsRegistry::global().dump_text(f);
}

[[maybe_unused]] void require_obs(const char* what) {
#ifdef CDBP_OBS_OFF
  throw std::invalid_argument(
      std::string(what) +
      " is unavailable: this build has observability compiled out "
      "(CDBP_OBS_OFF)");
#else
  (void)what;
#endif
}

void print_usage(std::ostream& out) {
  out << "usage: cdbp <command> [flags]\n"
      << "  (an instance FILE, --in or --a/--b, is CSV, or the binary\n"
      << "   format when it ends in .cdbpi)\n"
      << "  generate  --kind binary|aligned|general|cloud [--n N]\n"
      << "            [--seed S] [--items K] [--shape NAME] --out FILE\n"
      << "            (FILE ending .cdbpi writes the binary format)\n"
      << "  pack-instance --in FILE --out FILE  (.csv <-> .cdbpi by\n"
      << "            extension; exactly one side must be .cdbpi)\n"
      << "  run       --algo ALGO --in FILE [--gantt] [--validate]\n"
      << "            [--storage soa|reference] [--stream] [--mu-hint M]\n"
      << "            [--timeline FILE] [--trace-out FILE]\n"
      << "            [--trace-format chrome|jsonl] [--metrics-out FILE]\n"
      << "            (--stream replays a .cdbpi in O(1) memory)\n"
      << "  sim-sweep --algos A[,B...] --in FILE [--threads T]\n"
      << "            [--storage soa|reference] [--stream] [--mu-hint M]\n"
      << "  bounds    --in FILE\n"
      << "  compare   --in FILE\n"
      << "  stats     --in FILE\n"
      << "  reduce    --in FILE --out FILE      (sigma -> sigma', paper §3)\n"
      << "  exact     --in FILE [--threads T]   (exact OPT_R / OPT_NR)\n"
      << "  cluster   --algo ALGO --in FILE [--boot E] [--idle P]\n"
      << "  merge     --a FILE --b FILE --out FILE [--gap G]\n"
      << "  adversary --algo ALGO --n N [--rounds R]\n"
      << "  gen-stream --out FILE [--items N] [--tenants T] [--seed S]\n"
      << "            [--mu-log2 M]\n"
      << "  serve     --algo ALGO --in STREAM --wal-dir DIR [--shards N]\n"
      << "            [--fsync none|every]  (default every: an ack waits for\n"
      << "             its batch's fsync; none never fsyncs)\n"
      << "            [--checkpoint-every N] [--admission block|reject|shed]\n"
      << "            [--queue-capacity N] [--throttle-us U] [--resume]\n"
      << "            [--wal-segment-bytes B]\n"
      << "            [--out FILE] [--metrics-out FILE]\n"
      << "            (--out: applied placements as CSV; file-fed only)\n"
      << "            [--trace-out FILE] [--trace-format chrome|jsonl]\n"
      << "            [--stats-out BASE] [--stats-interval MS]\n"
      << "            (stats: periodic BASE.prom + BASE.json pages;\n"
      << "             SIGUSR1 forces a dump; interval 0 = final only;\n"
      << "             SIGINT/SIGTERM shut down gracefully)\n"
      << "  serve     --algo ALGO --listen HOST:PORT --wal-dir DIR  (networked\n"
      << "            mode: CDBPNET1 over TCP instead of --in; port 0 picks\n"
      << "            an ephemeral port, printed as 'listening on ...')\n"
      << "            [--loops N] [--quota-rate R] [--quota-burst B]\n"
      << "            [--max-offers N] [--drain-ms MS]\n"
      << "            + all file-fed flags except --in and --out\n"
      << "            (each client gets its placements in its ACKs)\n"
      << "  client    --connect HOST:PORT [--in STREAM | --items N\n"
      << "            --tenants T --seed S --mu-log2 M]\n"
      << "            [--shard-window W] [--pipeline K] [--connect-batch C]\n"
      << "            [--timeout-ms MS] [--allow-loss]\n"
      << "            (load generator: one connection per tenant; exit 1 on\n"
      << "             unexpected loss unless --allow-loss)\n"
      << "  recover   --algo ALGO --wal-dir DIR [--shards N]\n"
      << "  wal-dump  --wal FILE|BASE    (single file, or segmented base)\n"
      << "algorithms:";
  for (const std::string& name : algorithm_names()) out << " " << name;
  out << "\n";
}

workloads::GeneralShape parse_shape(const std::string& s) {
  if (s == "log-uniform") return workloads::GeneralShape::kLogUniform;
  if (s == "exponential") return workloads::GeneralShape::kExponential;
  if (s == "geometric-bursts")
    return workloads::GeneralShape::kGeometricBursts;
  if (s == "two-phase") return workloads::GeneralShape::kTwoPhase;
  throw std::invalid_argument("unknown shape '" + s + "'");
}

int cmd_generate(Flags& flags, std::ostream& out) {
  const std::string kind = flags.require("kind");
  const std::string path = flags.require("out");
  const int n = flags.integer("n", 8);
  const auto seed = flags.count<std::uint64_t>("seed", 1);
  const int items = flags.count<int>("items", 300);
  const std::string shape = flags.get("shape").value_or("log-uniform");
  flags.finish();

  std::mt19937_64 rng(seed);
  Instance instance;
  if (kind == "binary") {
    instance = workloads::make_binary_input(n);
  } else if (kind == "aligned") {
    workloads::AlignedConfig cfg;
    cfg.n = n;
    cfg.max_bucket = n;
    instance = workloads::make_aligned_random(cfg, rng);
  } else if (kind == "general") {
    workloads::GeneralConfig cfg;
    cfg.log2_mu = n;
    cfg.target_items = items;
    cfg.shape = parse_shape(shape);
    instance = workloads::make_general_random(cfg, rng);
  } else if (kind == "cloud") {
    workloads::CloudGamingConfig cfg;
    instance = workloads::make_cloud_gaming(cfg, rng);
  } else {
    throw std::invalid_argument("unknown kind '" + kind + "'");
  }
  if (is_cdbpi_path(path))
    workloads::write_instance_file(path, instance);
  else
    trace::write_instance_csv(instance, path);
  out << "wrote " << instance.size() << " items to " << path << "  ("
      << instance.summary() << ")\n";
  return 0;
}

/// `cdbp pack-instance`: convert between the CSV interchange format and the
/// flat binary .cdbpi format (direction inferred from the extensions).
int cmd_pack_instance(Flags& flags, std::ostream& out) {
  const std::string in_path = flags.require("in");
  const std::string out_path = flags.require("out");
  flags.finish();
  const bool to_binary = is_cdbpi_path(out_path);
  if (to_binary == is_cdbpi_path(in_path))
    throw std::invalid_argument(
        "pack-instance: exactly one of --in/--out must end in .cdbpi");
  const Instance instance = read_instance_any(in_path);
  if (to_binary)
    workloads::write_instance_file(out_path, instance);
  else
    trace::write_instance_csv(instance, out_path);
  out << (to_binary ? "packed " : "unpacked ") << instance.size()
      << " items to " << out_path << "\n";
  return 0;
}

int cmd_run(Flags& flags, std::ostream& out) {
  const std::string algo_name = flags.require("algo");
  const std::string path = flags.require("in");
  const bool gantt = flags.get("gantt").has_value();
  const bool validate = flags.get("validate").has_value();
  const bool stream = flags.get("stream").has_value();
  const LedgerStorage storage =
      parse_storage(flags.get("storage").value_or("reference"));
  const double mu_hint = flags.real("mu-hint", 2.0);
  const auto timeline = flags.get("timeline");
  const auto trace_out = flags.get("trace-out");
  const auto trace_format = flags.get("trace-format");
  const auto metrics_out = flags.get("metrics-out");
  flags.finish();
  if (trace_out || metrics_out) require_obs("--trace-out/--metrics-out");

  if (stream) {
    // Streamed replay never materializes the instance, so everything that
    // needs the full item list (bounds, gantt, validation, timeline) is off
    // the table; this is the constant-memory path for multi-million-item
    // files.
    if (!is_cdbpi_path(path))
      throw std::invalid_argument("--stream requires a .cdbpi input");
    if (gantt || validate || timeline)
      throw std::invalid_argument(
          "--stream cannot be combined with --gantt/--validate/--timeline");
    if (metrics_out) obs::MetricsRegistry::global().reset();
    const AlgorithmPtr algo = make_algorithm(algo_name, mu_hint);
    workloads::InstanceFileReader source(path);
    const Simulator sim{
        SimulatorOptions{.keep_history = false, .storage = storage}};
    const RunResult result = sim.run_source(source, *algo);
    out << algo->name() << ": cost=" << num_exact(result.cost)
        << " bins=" << result.bins_opened << " peak=" << result.max_open
        << " items=" << result.items << "\n";
    if (metrics_out) {
      write_metrics_file(*metrics_out);
      out << "metrics written to " << *metrics_out << "\n";
    }
    return 0;
  }

  const Instance instance = read_instance_any(path);
  const AlgorithmPtr algo = make_algorithm(algo_name, instance.mu());
  // Before the run, so that the bound's load profile and the summary's
  // sorted intervals are gone by the time the run's history is built.
  const opt::Bounds bounds = opt::compute_bounds(instance);
  const std::string summary = instance.summary();
  if (metrics_out) obs::MetricsRegistry::global().reset();
  TraceScope trace(trace_out, trace_format);
  const RunResult result =
      Simulator{SimulatorOptions{.keep_history = true, .storage = storage}}
          .run(instance, *algo);
  trace.finish();

  out << summary << "\n"
      << algo->name() << ": cost=" << num_exact(result.cost)
      << " bins=" << result.bins_opened << " peak=" << result.max_open
      << "  ratio vs LB(OPT)=" << report::Table::num(
             bounds.lower() > 0 ? result.cost / bounds.lower() : 1.0, 3)
      << "\n";
  if (validate)
    out << "validation: " << validate_run(instance, result).to_string()
        << "\n";
  if (gantt) out << report::packing_gantt(instance, result, 1.0);
  if (timeline) {
    trace::write_timeline_csv(result, *timeline);
    out << "timeline written to " << *timeline << "\n";
  }
  if (trace_out) out << "trace written to " << *trace_out << "\n";
  if (metrics_out) {
    write_metrics_file(*metrics_out);
    out << "metrics written to " << *metrics_out << "\n";
  }
  return 0;
}

/// `cdbp sim-sweep`: one instance, several algorithms, one independent run
/// per algorithm sharded across the thread pool. Result lines are
/// deterministic (task order, %.17g costs); timing/config lines are
/// '#'-prefixed so CI can `grep -v '^#'` and diff the rest byte-for-byte
/// between in-RAM and streamed (or soa and reference) runs.
int cmd_sim_sweep(Flags& flags, std::ostream& out) {
  const std::string algos_csv = flags.require("algos");
  const std::string path = flags.require("in");
  const auto threads = flags.count<std::size_t>("threads", 0);
  const LedgerStorage storage =
      parse_storage(flags.get("storage").value_or("soa"));
  const bool stream = flags.get("stream").has_value();
  const double mu_hint = flags.real("mu-hint", 2.0);
  flags.finish();

  std::vector<std::string> names;
  for (std::size_t pos = 0; pos <= algos_csv.size();) {
    const std::size_t comma = std::min(algos_csv.find(',', pos),
                                       algos_csv.size());
    if (comma > pos) names.push_back(algos_csv.substr(pos, comma - pos));
    pos = comma + 1;
  }
  if (names.empty())
    throw std::invalid_argument("sim-sweep: --algos names nothing");

  Instance instance;
  double mu = mu_hint;
  if (stream) {
    if (!is_cdbpi_path(path))
      throw std::invalid_argument("--stream requires a .cdbpi input");
  } else {
    instance = read_instance_any(path);
    mu = std::max(2.0, instance.mu());
  }

  std::vector<parallel::ShardTask> tasks;
  tasks.reserve(names.size());
  for (const std::string& name : names) {
    parallel::ShardTask t;
    t.label = name;
    t.make = [name, mu]() { return make_algorithm(name, mu); };
    if (stream)
      t.path = path;
    else
      t.instance = &instance;
    tasks.push_back(std::move(t));
  }

  parallel::ShardedSimOptions opts;
  opts.threads = threads;
  opts.storage = storage;
  const parallel::ShardedSimReport report = parallel::run_sharded(tasks, opts);

  for (const parallel::ShardTaskResult& r : report.results)
    out << r.label << ": cost=" << num_exact(r.cost)
        << " bins=" << r.bins_opened << " peak=" << r.max_open
        << " items=" << r.items << "\n";
  out << "# shards=" << report.shards << " storage=" << to_string(storage)
      << " input=" << (stream ? "streamed" : "in-ram") << "\n";
  if (report.merged_run_us.count > 0)
    out << "# run-us: p50=" << report.merged_run_us.quantile(0.5)
        << " p95=" << report.merged_run_us.quantile(0.95)
        << " max=" << report.merged_run_us.max << "\n";
  return 0;
}

int cmd_bounds(Flags& flags, std::ostream& out) {
  const std::string path = flags.require("in");
  flags.finish();
  const Instance instance = read_instance_any(path);
  opt::CertifyOptions copts;
  copts.exact_repacking = false;
  copts.exact_nonrepacking = false;
  copts.tight_upper = true;
  copts.local_search_upper = true;
  const opt::Certificate cert = opt::certify(instance, copts);
  const opt::Bounds& b = cert.bounds;

  report::Table table({"bound", "value", "kind"});
  table.add_row({"demand d(sigma)", report::Table::num(b.demand, 3), "lower"});
  table.add_row({"span(sigma)", report::Table::num(b.span, 3), "lower"});
  table.add_row(
      {"int ceil(S_t)", report::Table::num(b.ceil_integral, 3), "lower"});
  table.add_row({"repack witness",
                 report::Table::num(*cert.witness_upper, 3), "upper (OPT_R)"});
  table.add_row({"FFD + local search",
                 report::Table::num(*cert.local_search_upper, 3),
                 "upper (OPT_NR)"});
  table.add_row({"int 2*ceil(S_t)", report::Table::num(b.upper_ceil(), 3),
                 "upper (OPT_R)"});
  table.add_row({"2d + 2span", report::Table::num(b.upper_linear(), 3),
                 "upper (OPT_R)"});
  out << instance.summary() << "\n" << table.to_string();
  return 0;
}

int cmd_compare(Flags& flags, std::ostream& out) {
  const std::string path = flags.require("in");
  flags.finish();
  const Instance instance = read_instance_any(path);
  const bool aligned = instance.is_aligned();
  const opt::Bounds bounds = opt::compute_bounds(instance);

  report::Table table({"algorithm", "cost", "bins", "peak", "ratio vs LB"});
  for (const std::string& name : algorithm_names()) {
    if (name == "cdff" && !aligned) continue;
    const AlgorithmPtr algo = make_algorithm(name, instance.mu());
    const RunResult r = Simulator{}.run(instance, *algo);
    table.add_row({algo->name(), report::Table::num(r.cost, 1),
                   std::to_string(r.bins_opened), std::to_string(r.max_open),
                   report::Table::num(
                       bounds.lower() > 0 ? r.cost / bounds.lower() : 1.0,
                       3)});
  }
  out << instance.summary() << (aligned ? "  [aligned]" : "") << "\n"
      << table.to_string()
      << "LB(OPT) = " << report::Table::num(bounds.lower(), 1) << "\n";
  return 0;
}

int cmd_stats(Flags& flags, std::ostream& out) {
  const std::string path = flags.require("in");
  flags.finish();
  const Instance instance = read_instance_any(path);
  out << analysis::to_string(analysis::compute_instance_stats(instance));
  return 0;
}

int cmd_reduce(Flags& flags, std::ostream& out) {
  const std::string in_path = flags.require("in");
  const std::string out_path = flags.require("out");
  flags.finish();
  const Instance instance = read_instance_any(in_path);
  const Instance reduced = opt::apply_reduction(instance);
  trace::write_instance_csv(reduced, out_path);
  out << "reduced " << instance.summary() << "\n"
      << "     to " << reduced.summary() << "\n"
      << "span x" << report::Table::num(reduced.span() / instance.span(), 3)
      << "  d x"
      << report::Table::num(reduced.total_demand() / instance.total_demand(),
                            3)
      << "  (paper bounds: <= 4 each)\n";
  return 0;
}

int cmd_exact(Flags& flags, std::ostream& out) {
  const std::string path = flags.require("in");
  const auto threads = flags.count<std::size_t>("threads", 1);
  flags.finish();
  const Instance instance = read_instance_any(path);
  out << instance.summary() << "\n";
  opt::CertifyOptions copts;
  copts.repacking.threads = threads;
  const opt::Certificate cert = opt::certify(instance, copts);
  out << "LB(OPT)  = " << report::Table::num(cert.bounds.lower(), 3) << "\n";
  if (cert.opt_r) {
    out << "OPT_R    = " << report::Table::num(cert.opt_r->cost, 3)
        << "   (exact; " << cert.opt_r->distinct_snapshots
        << " distinct snapshots, " << cert.opt_r->cache_hits
        << " cache hits, max " << cert.opt_r->max_active << " active)\n";
  } else {
    out << "OPT_R    : infeasible (snapshots too large; bounds only)\n";
  }
  if (cert.opt_nr) {
    out << "OPT_NR   = " << report::Table::num(cert.opt_nr->cost, 3)
        << "   (exact; " << cert.opt_nr->nodes_explored << " search nodes)\n";
  } else {
    out << "OPT_NR   : infeasible (> " << opt::ExactOptions{}.max_items
        << " items); FFD+local-search upper = "
        << report::Table::num(opt::local_search_opt_nr(instance).cost, 3)
        << "\n";
  }
  return 0;
}

int cmd_merge(Flags& flags, std::ostream& out) {
  const std::string a_path = flags.require("a");
  const std::string b_path = flags.require("b");
  const std::string out_path = flags.require("out");
  const double gap = flags.real("gap", -1.0);
  flags.finish();
  const Instance a = read_instance_any(a_path);
  const Instance b = read_instance_any(b_path);
  // gap < 0: superimpose; gap >= 0: concatenate with that idle gap.
  const Instance combined = gap < 0.0 ? merge(a, b) : concat(a, b, gap);
  trace::write_instance_csv(combined, out_path);
  out << (gap < 0.0 ? "merged " : "concatenated ") << a.size() << " + "
      << b.size() << " items -> " << combined.summary() << "\n";
  return 0;
}

int cmd_cluster(Flags& flags, std::ostream& out) {
  const std::string algo_name = flags.require("algo");
  const std::string path = flags.require("in");
  const double boot = flags.real("boot", 5.0);
  const double idle = flags.real("idle", 0.4);
  flags.finish();

  const Instance instance = read_instance_any(path);
  const AlgorithmPtr algo = make_algorithm(algo_name, instance.mu());
  const RunResult result = Simulator{}.run(instance, *algo);
  out << instance.summary() << "\n"
      << algo->name() << ": MinUsageTime = " << result.cost << ", bins = "
      << result.bins_opened << "\n"
      << "model: boot=" << boot << ", idle power=" << idle << "x active\n";
  report::Table table(
      {"warm window", "boots", "reuses", "idle time", "total energy"});
  for (double window : {0.0, 4.0, 16.0, 64.0}) {
    cluster::ClusterModel model;
    model.boot_energy = boot;
    model.idle_power = idle;
    model.warm_window = window;
    const auto rep = cluster::evaluate_cluster(result, model);
    table.add_row({report::Table::num(window, 0),
                   std::to_string(rep.servers_booted),
                   std::to_string(rep.reuses),
                   report::Table::num(rep.idle_time, 1),
                   report::Table::num(rep.total_energy, 1)});
  }
  out << table.to_string();
  return 0;
}

int cmd_adversary(Flags& flags, std::ostream& out) {
  const std::string algo_name = flags.require("algo");
  const int n = parse_int(flags.require("n"), "--n");
  const int rounds = flags.integer("rounds", -1);
  flags.finish();

  const AlgorithmPtr algo = make_algorithm(algo_name, pow2(n));
  adversary::AdversaryConfig cfg;
  cfg.n = n;
  cfg.rounds = rounds;
  const auto result = adversary::run_lower_bound_adversary(cfg, *algo);
  const auto m = analysis::measure_ratio_with_cost(
      result.instance, algo->name(), result.online_cost, true);
  out << algo->name() << " vs Theorem-4.3 adversary (mu=2^" << n << "):\n"
      << "  items=" << result.items << " bursts=" << result.bursts
      << " target-bins=" << result.target_bins << "\n"
      << "  cost=" << result.online_cost << "  UB(OPT)=" << m.opt_upper
      << "  certified ratio=" << report::Table::num(m.ratio_vs_upper(), 3)
      << "\n";
  return 0;
}

int cmd_gen_stream(Flags& flags, std::ostream& out) {
  const std::string out_path = flags.require("out");
  serve::StreamGenConfig cfg;
  cfg.target_items = flags.count<int>("items", 400);
  cfg.tenants = flags.count<std::size_t>("tenants", 8);
  cfg.seed = flags.count<std::uint64_t>("seed", 1);
  cfg.log2_mu = flags.integer("mu-log2", 6);
  flags.finish();

  const std::vector<serve::ServeRequest> stream = serve::generate_stream(cfg);
  serve::write_stream_csv(stream, out_path);
  out << "wrote " << stream.size() << " requests (" << cfg.tenants
      << " tenants) to " << out_path << "\n";
  return 0;
}

/// Post-stop() per-shard + total report, shared by the file-fed and
/// networked serve paths. `submitted` is how many requests reached
/// submit(); healthy output stays byte-stable for the CI diffs.
void print_serve_summary(const serve::ShardRouter& router, bool resume,
                         std::uint64_t submitted, std::uint64_t rejected,
                         std::ostream& out, std::ostream& err) {
  std::uint64_t applied = 0, skipped = 0, shed = 0, invalid = 0;
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < router.shards(); ++i) {
    const serve::ShardStats& s = router.stats(i);
    applied += s.applied;
    skipped += s.skipped;
    shed += s.shed;
    invalid += s.invalid;
    out << "shard " << i << ": applied=" << s.applied
        << " skipped=" << s.skipped << " invalid=" << s.invalid
        << " shed=" << s.shed << " queue-peak=" << s.queue_peak
        << " wal-records=" << s.wal_records
        << " open-at-finish=" << s.open_bins
        << " cost=" << num_exact(s.final_cost) << "\n";
    // Only degraded runs print these lines, keeping healthy output
    // byte-stable for the CI diffs.
    if (s.degraded) {
      ++degraded;
      out << "shard " << i << " DEGRADED: " << s.degrade_reason
          << " (dropped=" << s.degraded_dropped << ")\n";
    }
    // End-to-end ack latency for this run (empty under CDBP_OBS_OFF, so
    // the line vanishes there and the output stays byte-stable).
    if (s.ack_latency.count > 0)
      out << "shard " << i << " ack-latency-us:"
          << " p50=" << s.ack_latency.quantile(0.5)
          << " p95=" << s.ack_latency.quantile(0.95)
          << " p99=" << s.ack_latency.quantile(0.99)
          << " max=" << s.ack_latency.max << "\n";
    if (resume) {
      const serve::RecoveryReport& r = s.recovery;
      err << "shard " << i << " recovery: records=" << r.records
          << " replayed=" << r.replayed
          << (r.used_checkpoint
                  ? " checkpoint@" + std::to_string(r.checkpoint_seq)
                  : " no-checkpoint")
          << (r.torn ? " torn(" + r.tail_error + ", -" +
                           std::to_string(r.truncated_bytes) + "B)"
                     : "")
          << "\n";
    }
  }
  out << "served " << submitted << " requests on " << router.shards()
      << " shard(s): applied=" << applied << " skipped=" << skipped
      << " rejected=" << rejected << " shed=" << shed
      << " invalid=" << invalid;
  if (degraded > 0) out << " degraded-shards=" << degraded;
  out << "\n"
      << "total cost=" << num_exact(router.total_cost()) << "\n";
}

/// Writes the placements `--out` collected from kApplied acks, ordered by
/// (stream_index, shard, seq).
void write_placements(std::vector<serve::ServeResult> placements,
                      const std::string& path, std::ostream& out) {
  std::sort(placements.begin(), placements.end(),
            [](const serve::ServeResult& a, const serve::ServeResult& b) {
              if (a.stream_index != b.stream_index)
                return a.stream_index < b.stream_index;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.seq < b.seq;
            });
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open placements file: " + path);
  f << "stream_index,tenant,shard,seq,bin\n";
  for (const serve::ServeResult& r : placements)
    f << r.stream_index << ',' << r.tenant << ',' << r.shard << ',' << r.seq
      << ',' << r.bin << "\n";
  out << "placements written to " << path << "\n";
}

int cmd_serve(Flags& flags, std::ostream& out, std::ostream& err) {
  const std::string algo_name = flags.require("algo");
  const auto listen = flags.get("listen");
  const auto in_flag = flags.get("in");
  if (listen.has_value() == in_flag.has_value())
    throw std::invalid_argument(
        "serve: exactly one of --in (file-fed) or --listen (networked) "
        "is required");
  const std::string in_path = in_flag.value_or("");
  serve::RouterConfig rc;
  rc.wal_dir = flags.require("wal-dir");
  rc.shards = flags.count<std::size_t>("shards", 1);
  rc.fsync = serve::parse_fsync_policy(flags.get("fsync").value_or("every"));
  rc.checkpoint_every = flags.count<std::uint64_t>("checkpoint-every", 0);
  rc.admission = serve::parse_admission_policy(
      flags.get("admission").value_or("block"));
  rc.queue_capacity = flags.count<std::size_t>("queue-capacity", 1024);
  rc.worker_delay_us = flags.count<std::uint32_t>("throttle-us", 0);
  rc.resume = flags.get("resume").has_value();
  rc.wal_segment_bytes =
      flags.count<std::uint64_t>("wal-segment-bytes", 8388608);
  const double mu_hint = flags.real("mu-hint", 2.0);
  const auto out_path = flags.get("out");
  const auto metrics_out = flags.get("metrics-out");
  const auto trace_out = flags.get("trace-out");
  const auto trace_format = flags.get("trace-format");
  const auto stats_out = flags.get("stats-out");
  const auto stats_interval =
      flags.count<std::uint32_t>("stats-interval", 1000);
  // Networked-mode knobs (--listen).
  const auto loops = flags.count<std::size_t>("loops", 2);
  const double quota_rate = flags.real("quota-rate", 0.0);
  const double quota_burst = flags.real("quota-burst", 0.0);
  const auto max_offers = flags.count<std::uint64_t>("max-offers", 0);
  const auto drain_ms = flags.count<std::uint32_t>("drain-ms", 5000);
  flags.finish();
  if (listen && out_path)
    throw std::invalid_argument(
        "serve: --out is file-fed only (networked clients get every "
        "placement in their ACK)");
  if (metrics_out) require_obs("--metrics-out");
  if (trace_out) require_obs("--trace-out");
  if (stats_out) require_obs("--stats-out");
  // Graceful shutdown of a networked serve checkpoints each shard so the
  // next start replays a WAL tail, not the whole log.
  rc.final_checkpoint = listen.has_value();
  TraceScope trace(trace_out, trace_format);
#ifndef CDBP_OBS_OFF
  std::unique_ptr<serve::StatsExporter> stats;
  if (stats_out) {
    // A signal handler may only store to a lock-free atomic; the exporter's
    // poll loop consumes the flag.
    std::signal(SIGUSR1, [](int) {
      serve::StatsExporter::dump_requested.store(1, std::memory_order_relaxed);
    });
    stats = std::make_unique<serve::StatsExporter>(
        serve::StatsExporterConfig{*stats_out, stats_interval});
  }
#else
  (void)stats_interval;
#endif
  const auto make_algo = [&] { return make_algorithm(algo_name, mu_hint); };
  // Declared before the routers so they outlive their workers' callbacks.
  std::mutex placements_mu;  // acks arrive on every shard's worker
  std::vector<serve::ServeResult> placements;
  std::optional<serve::ShardRouter> file_router;  // --in
  std::optional<net::NetListener> listener;       // --listen: owns its router
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  bool interrupted = false;
  if (listen) {
    net::ListenerConfig lc;
    std::tie(lc.host, lc.port) = parse_hostport(*listen, "--listen");
    lc.loops = loops;
    lc.quota_rate = quota_rate;
    lc.quota_burst = quota_burst;
    listener.emplace(lc, rc, make_algo, algo_name);
    // The bound port resolves --listen :0; print it first and flush so a
    // parent process (the CI soak, the bench driver) can connect.
    out << "listening on " << lc.host << ":" << listener->port() << "\n"
        << std::flush;
    install_shutdown_handlers();
    while (g_shutdown == 0) {
      if (max_offers > 0 && listener->terminal_offers() >= max_offers) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    interrupted = g_shutdown != 0;
    // Graceful shutdown: stop accepting, answer stragglers kShutdown,
    // flush every admitted offer's response, then stop the shards (which
    // checkpoints and finalizes each session).
    if (!listener->drain(drain_ms))
      err << "serve: listener drain timed out after " << drain_ms << " ms\n";
    listener->stop();
    const net::ListenerCounters c = listener->counters();
    submitted = c.offers_admitted;
    out << "listener: accepted=" << c.accepted << " active=" << c.active
        << " closed=" << c.closed << " accept-errors=" << c.accept_errors
        << "\n"
        << "listener: frames-in=" << c.frames_in << " bytes-in=" << c.bytes_in
        << " bytes-out=" << c.bytes_out
        << " protocol-errors=" << c.protocol_errors << "\n"
        << "listener: quota-rejected=" << c.quota_rejected
        << " backpressured=" << c.backpressured
        << " read-throttles=" << c.read_throttles << "\n"
        << "listener: offers admitted=" << c.offers_admitted
        << " applied=" << c.offers_applied
        << " skipped=" << c.offers_skipped
        << " failed=" << c.offers_failed << "\n";
  } else {
    // Each row is served as it is parsed: the feed never holds the file.
    serve::StreamCsvReader rows(in_path);
    serve::ShardRouter& router = file_router.emplace(rc, make_algo, algo_name);
    // The router keeps no placements; --out gathers them from the acks.
    if (out_path)
      router.set_on_ack(
          [&](const serve::ServeResult& r, serve::AckKind kind) {
            if (kind != serve::AckKind::kApplied) return;
            const std::lock_guard<std::mutex> lock(placements_mu);
            placements.push_back(r);
          });
    install_shutdown_handlers();
    // A malformed row throws out of this loop; the router's destructor
    // still stops it, which commits and acks every row before that one.
    for (serve::ServeRequest req; g_shutdown == 0 && rows.next(req);) {
      if (!router.submit(std::move(req))) ++rejected;
      ++submitted;
    }
    interrupted = g_shutdown != 0;
    router.stop();
    if (interrupted)
      out << "interrupted: submitted " << submitted << " requests\n";
  }
#ifndef CDBP_OBS_OFF
  if (stats) stats->stop();  // final page covers the run's tail
#endif
  trace.finish();

  print_serve_summary(listener ? listener->router() : *file_router, rc.resume,
                      submitted, rejected, out, err);

  if (out_path) write_placements(std::move(placements), *out_path, out);
  if (metrics_out) {
    write_metrics_file(*metrics_out);
    out << "metrics written to " << *metrics_out << "\n";
  }
#ifndef CDBP_OBS_OFF
  if (trace_out) out << "trace written to " << *trace_out << "\n";
  if (stats)
    out << "stats written to " << stats->out_base() << ".prom and "
        << stats->out_base() << ".json (" << stats->dumps() << " dump(s))\n";
#endif
  return 0;
}

/// `cdbp client`: the CDBPNET1 load generator — one connection per tenant,
/// offers replayed in stream order, exact client-observed ack latency
/// percentiles. Exit 1 on any unexpected loss (lost offers, typed errors,
/// failed connects, timeout) unless --allow-loss.
int cmd_client(Flags& flags, std::ostream& out) {
  net::ClientConfig cc;
  std::tie(cc.host, cc.port) =
      parse_hostport(flags.require("connect"), "--connect");
  cc.shard_window = flags.count<std::size_t>("shard-window", 1);
  cc.pipeline = flags.count<std::size_t>("pipeline", 1);
  cc.connect_batch = std::max<std::size_t>(
      1, flags.count<std::size_t>("connect-batch", 512));
  cc.timeout_ms = flags.count<std::uint32_t>("timeout-ms", 60000);
  const bool allow_loss = flags.get("allow-loss").has_value();
  const auto in_path = flags.get("in");
  serve::StreamGenConfig gc;
  gc.target_items = flags.count<int>("items", 400);
  gc.tenants = flags.count<std::size_t>("tenants", 8);
  gc.seed = flags.count<std::uint64_t>("seed", 1);
  gc.log2_mu = flags.integer("mu-log2", 6);
  flags.finish();

  const std::vector<serve::ServeRequest> stream =
      in_path ? serve::read_stream_csv(*in_path) : serve::generate_stream(gc);
  std::size_t tenants = 0;
  {
    std::set<std::string> distinct;
    for (const serve::ServeRequest& r : stream) distinct.insert(r.tenant);
    tenants = distinct.size();
  }
  // One fd per connection plus the poller/wake-pipe overhead.
  (void)net::raise_nofile_limit(static_cast<std::uint64_t>(tenants) + 64);

  const net::ClientReport rep = net::run_load(cc, stream);

  out << "client: conns opened=" << rep.conns_opened
      << " failed=" << rep.conns_failed << " (tenants=" << tenants << ")\n"
      << "client: sent=" << rep.sent << " applied=" << rep.applied
      << " skipped=" << rep.skipped << " errored=" << rep.errored
      << " lost=" << rep.lost << (rep.timed_out ? " TIMED-OUT" : "") << "\n";
  for (const auto& [code, n] : rep.errors_by_code)
    out << "client: error " << code << " ("
        << net::err_name(static_cast<net::ErrCode>(code)) << ") x" << n
        << "\n";
  if (!rep.latencies_us.empty())
    out << "client: ack-latency-us p50="
        << net::latency_percentile_us(rep.latencies_us, 50.0)
        << " p95=" << net::latency_percentile_us(rep.latencies_us, 95.0)
        << " p99=" << net::latency_percentile_us(rep.latencies_us, 99.0)
        << " max=" << net::latency_percentile_us(rep.latencies_us, 100.0)
        << "\n";
  if (rep.wall_seconds > 0.0)
    out << "client: " << report::Table::num(
               static_cast<double>(rep.resolved()) / rep.wall_seconds, 0)
        << " offers/s over " << report::Table::num(rep.wall_seconds, 2)
        << " s\n";
  const bool clean = rep.lost == 0 && rep.errored == 0 &&
                     rep.conns_failed == 0 && !rep.timed_out;
  return clean || allow_loss ? 0 : 1;
}

/// `cdbp recover`: rebuild every shard from its WAL (+checkpoint), repair
/// torn tails, and print a *canonical* per-shard state line — records,
/// high-water stream index, final MinUsageTime cost, and a CRC digest over
/// the full decision log. Two runs that ended with the same logical state
/// print byte-identical stdout (diagnostics go to stderr), which is what
/// the crash-recovery CI job diffs.
int cmd_recover(Flags& flags, std::ostream& out, std::ostream& err) {
  const std::string algo_name = flags.require("algo");
  const std::string wal_dir = flags.require("wal-dir");
  const auto shards = flags.count<std::size_t>("shards", 1);
  const double mu_hint = flags.real("mu-hint", 2.0);
  flags.finish();

  // Segment CRC scans of one shard fan out over this pool; replay stays
  // sequential (it must — each decision depends on the previous state).
  parallel::ThreadPool recovery_pool(
      std::max<std::size_t>(2, std::thread::hardware_concurrency()));
  Cost total = 0.0;
  for (std::size_t i = 0; i < shards; ++i) {
    serve::DurableSessionConfig sc;
    sc.wal_path = wal_dir + "/shard-" + std::to_string(i) + ".wal";
    sc.checkpoint_path = wal_dir + "/shard-" + std::to_string(i) + ".ckpt";
    sc.resume = true;
    sc.recovery_pool = &recovery_pool;
    serve::DurableSession session(make_algorithm(algo_name, mu_hint),
                                  algo_name, sc);
    const serve::RecoveryReport& r = session.recovery();
    err << "shard " << i << " recovery: records=" << r.records
        << " replayed=" << r.replayed
        << " segments=" << r.segments_scanned
        << (r.used_checkpoint
                ? " checkpoint@" + std::to_string(r.checkpoint_seq)
                : " no-checkpoint")
        << (r.torn ? " torn(" + r.tail_error + ", -" +
                         std::to_string(r.truncated_bytes) + "B)"
                   : "")
        << "\n";

    // Digest over the (repaired) decision log: exact equality witness. The
    // CRC is chained record by record over each record's 48 LE bytes.
    std::uint32_t digest = 0;
    serve::stream_segmented_wal(
        sc.wal_path, serve::validate_segmented_wal(sc.wal_path, &recovery_pool),
        0, [&digest](const serve::WalRecord& rec) {
          StateWriter w;
          w.u64(rec.seq);
          w.u64(rec.stream_index);
          w.f64(rec.arrival);
          w.f64(rec.departure);
          w.f64(rec.size);
          w.i64(rec.bin);
          digest = crc32(w.buffer().data(), w.size(), digest);
        });
    const Cost cost = session.finish();
    session.close();
    total += cost;
    char digest_hex[16];
    std::snprintf(digest_hex, sizeof(digest_hex), "%08x", digest);
    out << "shard " << i << ": records=" << session.seq()
        << " last-stream=" << session.last_stream_index()
        << " cost=" << num_exact(cost) << " digest=" << digest_hex << "\n";
  }
  out << "total cost=" << num_exact(total) << "\n";
  return 0;
}

int cmd_wal_dump(Flags& flags, std::ostream& out) {
  const std::string path = flags.require("wal");
  flags.finish();
  // Records print as they are read, under this header.
  static constexpr char kHeader[] =
      "seq,stream_index,arrival,departure,size,bin\n";
  const auto print_record = [&](const serve::WalRecord& rec) {
    out << rec.seq << ',' << rec.stream_index << ',' << num_exact(rec.arrival)
        << ',' << num_exact(rec.departure) << ',' << num_exact(rec.size)
        << ',' << rec.bin << "\n";
  };
  // "type1=N type7=M" for a frame-type histogram; type 1 is the offer
  // record, anything else was skipped as an unknown (newer-writer) kind.
  const auto fmt_frame_types =
      [](const std::map<unsigned, std::uint64_t>& counts) {
        std::string s;
        for (const auto& [type, n] : counts) {
          if (!s.empty()) s += ' ';
          s += "type" + std::to_string(type) + "=" + std::to_string(n);
        }
        return s.empty() ? std::string("empty") : s;
      };
  // A segment-chain base has a manifest next to it; a raw file (an
  // individual .seg) is dumped directly.
  const bool raw_segment =
      path.size() > 4 && path.compare(path.size() - 4, 4, ".seg") == 0;
  if (!raw_segment && serve::read_wal_manifest(path)) {
    const serve::SegmentedWalScan scan = serve::validate_segmented_wal(path);
    out << kHeader;
    serve::stream_segmented_wal(path, scan, 0, print_record);
    std::map<unsigned, std::uint64_t> totals;
    for (std::size_t i = 0; i < scan.segment_frame_types.size(); ++i) {
      out << "# segment " << scan.manifest.segments[i].file << ": frames "
          << fmt_frame_types(scan.segment_frame_types[i]) << "\n";
      for (const auto& [type, n] : scan.segment_frame_types[i])
        totals[type] += n;
    }
    out << "# frames " << fmt_frame_types(totals)
        << " skipped_unknown=" << scan.unknown_records << "\n";
    out << "# records=" << scan.record_count
        << " segments=" << scan.segments_scanned
        << " first_seq=" << scan.first_seq;
    if (scan.unknown_records > 0)
      out << " unknown_records=" << scan.unknown_records;
    out << "\n";
    if (scan.torn)
      out << "# torn tail: " << scan.tail_error << " (segment "
          << scan.torn_segment << ", " << scan.dropped_records
          << " unreachable records)\n";
    return 0;
  }
  if (!io::Env::posix().exists(path))
    throw std::runtime_error("no such WAL file: " + path);
  out << kHeader;
  const serve::WalFileScan wal = serve::stream_wal(path, print_record);
  out << "# frames " << fmt_frame_types(wal.frame_type_counts)
      << " skipped_unknown=" << wal.unknown_records << "\n";
  out << "# records=" << wal.record_count
      << " valid_bytes=" << wal.valid_bytes;
  if (wal.unknown_records > 0)
    out << " unknown_records=" << wal.unknown_records;
  out << "\n";
  if (wal.torn) out << "# torn tail: " << wal.tail_error << "\n";
  return 0;
}

}  // namespace

AlgorithmPtr make_algorithm(const std::string& name, double mu_hint) {
  if (name == "ff") return std::make_unique<algos::FirstFit>();
  if (name == "bf") return std::make_unique<algos::BestFit>();
  if (name == "nf") return std::make_unique<algos::NextFit>();
  if (name == "wf") return std::make_unique<algos::WorstFit>();
  if (name == "cbd") return std::make_unique<algos::ClassifyByDuration>(2.0);
  if (name == "cbd-ren")
    return std::make_unique<algos::ClassifyByDuration>(
        algos::ren_et_al_base(std::max(2.0, mu_hint)));
  if (name == "ha") return std::make_unique<algos::Hybrid>();
  if (name == "cdff") return std::make_unique<algos::Cdff>();
  if (name == "dfit")
    return std::make_unique<algos::DurationAwareFit>(
        algos::DurationPolicy::kMinExtension);
  if (name == "dfit-ne")
    return std::make_unique<algos::DurationAwareFit>(
        algos::DurationPolicy::kNoExtensionFirst);
  if (name == "harmonic") return std::make_unique<algos::HarmonicFit>();
  throw std::invalid_argument("unknown algorithm '" + name + "'");
}

std::vector<std::string> algorithm_names() {
  return {"ff",   "bf",      "nf", "wf",   "cbd",     "cbd-ren",
          "ha",   "cdff",    "dfit", "dfit-ne", "harmonic"};
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    print_usage(out);
    return args.empty() ? 2 : 0;
  }
  try {
    Flags flags(args.begin() + 1, args.end());
    if (args[0] == "generate") return cmd_generate(flags, out);
    if (args[0] == "pack-instance") return cmd_pack_instance(flags, out);
    if (args[0] == "run") return cmd_run(flags, out);
    if (args[0] == "sim-sweep") return cmd_sim_sweep(flags, out);
    if (args[0] == "bounds") return cmd_bounds(flags, out);
    if (args[0] == "compare") return cmd_compare(flags, out);
    if (args[0] == "stats") return cmd_stats(flags, out);
    if (args[0] == "reduce") return cmd_reduce(flags, out);
    if (args[0] == "exact") return cmd_exact(flags, out);
    if (args[0] == "cluster") return cmd_cluster(flags, out);
    if (args[0] == "merge") return cmd_merge(flags, out);
    if (args[0] == "adversary") return cmd_adversary(flags, out);
    if (args[0] == "gen-stream") return cmd_gen_stream(flags, out);
    if (args[0] == "serve") return cmd_serve(flags, out, err);
    if (args[0] == "client") return cmd_client(flags, out);
    if (args[0] == "recover") return cmd_recover(flags, out, err);
    if (args[0] == "wal-dump") return cmd_wal_dump(flags, out);
    err << "unknown command '" << args[0] << "'\n";
    print_usage(err);
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace cdbp::cli
