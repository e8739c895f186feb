// bench_suite: one command that measures the simulator and the serve plane
// end to end (untraced) or layer by layer (--trace). See README.md.
//
//   bench_suite --workload W --seed S [--seconds N] [--out results.json]
//               [--trace trace.json] [--quick] [--cdbp PATH] [--work-dir DIR]
//
// W is sim-ha, sweep-stream, serve-net, serve-restart, or all (the default
// with --quick). Prints every metric with its unit, then, as the last line
// of stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any correctness oracle fails or a run errors, 2 on bad usage.
#include <filesystem>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"
#include "workloads.h"

#ifndef CDBP_SUITE_CLI
#define CDBP_SUITE_CLI "cdbp"
#endif

namespace {

using namespace cdbp::bench_suite;
namespace fs = std::filesystem;

using WorkloadFn = Result (*)(const RunConfig&, SpanLog&);

const std::map<std::string, WorkloadFn>& workloads() {
  static const std::map<std::string, WorkloadFn> kWorkloads = {
      {"sim-ha", run_sim_ha},
      {"sweep-stream", run_sweep_stream},
      {"serve-net", run_serve_net},
      {"serve-restart", run_serve_restart},
  };
  return kWorkloads;
}

int usage(const std::string& why) {
  std::cerr << "bench_suite: " << why << "\n"
            << "usage: bench_suite --workload sim-ha|sweep-stream|serve-net|"
               "serve-restart|all --seed S [--seconds N]\n"
               "                   [--out results.json] [--trace trace.json]"
               " [--quick] [--cdbp PATH] [--work-dir DIR]\n";
  return 2;
}

/// Runs one workload and reports it; returns true when every oracle held.
bool run_one(RunConfig cfg, const std::string& out_path,
             const std::string& trace_path) {
  const fs::path root = cfg.work_dir;
  cfg.work_dir = (root / cfg.workload).string();
  fs::remove_all(cfg.work_dir);
  fs::create_directories(cfg.work_dir);
  const EnvStamp env = stamp_environment(cfg.work_dir);
  SpanLog spans(cfg.traced);

  Result r = workloads().at(cfg.workload)(cfg, spans);
  if (cfg.traced) complete_layer_metrics(r);

  std::cout << "workload " << r.workload << " (seed " << cfg.seed << ", "
            << (cfg.traced ? "traced" : "untraced") << ", nproc " << env.nproc
            << ", wal fs " << env.wal_fs << ")\n";
  for (const Metric& m : r.metrics)
    std::cout << "  " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  for (const Oracle& o : r.oracles)
    std::cout << "  oracle " << (o.pass ? "ok  " : "FAIL") << " " << o.name << ": "
              << o.detail << "\n";
  std::cout << "  attempted " << r.attempted << ", failed " << r.failed << "\n";
  if (!out_path.empty()) write_results(out_path, cfg, env, r);
  if (!trace_path.empty()) spans.write_chrome(trace_path);
  std::cout << summary_line(r) << std::endl;
  fs::remove_all(cfg.work_dir);
  return r.correct();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.cdbp = CDBP_SUITE_CLI;
  cfg.work_dir = "bench_suite_work";
  std::string out_path, trace_path;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") cfg.workload = value();
      else if (arg == "--seed") cfg.seed = std::stoull(value());
      else if (arg == "--seconds") {
        cfg.seconds = std::stod(value());
        seconds_given = true;
      } else if (arg == "--out") out_path = value();
      else if (arg == "--trace") trace_path = value();
      else if (arg == "--quick") cfg.quick = true;
      else if (arg == "--cdbp") cfg.cdbp = value();
      else if (arg == "--work-dir") cfg.work_dir = value();
      else return usage("unknown argument " + arg);
    } catch (const std::exception& e) {
      return usage(e.what());
    }
  }
  if (cfg.workload.empty() && cfg.quick) cfg.workload = "all";
  if (cfg.workload != "all" && workloads().count(cfg.workload) == 0)
    return usage("unknown workload '" + cfg.workload + "'");
  if (cfg.quick && !seconds_given) cfg.seconds = 1.5;
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");
  cfg.traced = !trace_path.empty();
  if (!fs::exists(cfg.cdbp)) return usage("cdbp executable not found: " + cfg.cdbp);

  std::vector<std::string> names;
  if (cfg.workload == "all")
    for (const auto& [name, fn] : workloads()) names.push_back(name);
  else
    names.push_back(cfg.workload);
  bool ok = true;
  for (const std::string& name : names) {
    RunConfig one = cfg;
    one.workload = name;
    // With several workloads, each writes its own files.
    const std::string suffix = names.size() > 1 ? "." + name : "";
    try {
      ok = run_one(one, out_path.empty() ? "" : out_path + suffix,
                   trace_path.empty() ? "" : trace_path + suffix) && ok;
    } catch (const std::exception& e) {
      std::cerr << "bench_suite: " << name << ": " << e.what() << "\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
