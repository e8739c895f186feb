// Run configuration, per-workload results, the environment stamp, and the
// two output forms: the results file (everything, for people) and the
// one-line summary printed last on stdout (for tooling).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cdbp::bench_suite {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measurement window per run
  bool quick = false;     ///< smaller inputs, for smoke runs
  bool traced = false;    ///< per-layer run (decorators, replays, spans)
  std::string cdbp;       ///< the `cdbp` executable under test
  std::string work_dir;   ///< scratch space for inputs, WALs and logs
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Oracle {
  std::string name;
  bool pass = false;
  std::string detail;
};

struct Result {
  std::string workload;
  /// End-to-end metrics on an untraced run, per-layer ones on a traced run.
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< errored + lost + refused + timed out
  std::vector<Oracle> oracles;
  /// Workload-specific detail for the results file: a JSON object body
  /// (comma-separated "key":value pairs, no braces).
  std::string details;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void check(const std::string& name, bool pass, const std::string& detail) {
    oracles.push_back(Oracle{name, pass, detail});
  }
  /// Appends "key":<raw json> to `details`.
  void detail(const std::string& key, const std::string& raw_json);
  [[nodiscard]] bool correct() const;
};

/// Facts about the machine and build that a number depends on.
struct EnvStamp {
  long nproc = 0;
  std::string git_rev;     ///< captured when the bench was configured
  std::string build_type;
  std::string kernel;
  std::string wal_fs;      ///< filesystem of the scratch (WAL) directory
};

[[nodiscard]] EnvStamp stamp_environment(const std::string& wal_dir);

/// Shortest round-trip decimal form of a finite double ("null" otherwise).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);
[[nodiscard]] std::string json_array(const std::vector<double>& values);

void write_results(const std::string& path, const RunConfig& cfg,
                   const EnvStamp& env, const Result& result);

/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
[[nodiscard]] std::string summary_line(const Result& result);

}  // namespace cdbp::bench_suite
