#include "report.h"

#include <sys/statfs.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#ifndef CDBP_SUITE_GIT_REV
#define CDBP_SUITE_GIT_REV "unknown"
#endif
#ifndef CDBP_SUITE_BUILD_TYPE
#define CDBP_SUITE_BUILD_TYPE "unknown"
#endif

namespace cdbp::bench_suite {

namespace {

std::string fs_name(long type) {
  switch (static_cast<unsigned long>(type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    case 0xF2F52010: return "f2fs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(type));
      return buf;
    }
  }
}

}  // namespace

void Result::detail(const std::string& key, const std::string& raw_json) {
  if (!details.empty()) details += ",";
  details += json_string(key) + ":" + raw_json;
}

bool Result::correct() const {
  for (const Oracle& o : oracles)
    if (!o.pass) return false;
  return !oracles.empty();
}

EnvStamp stamp_environment(const std::string& wal_dir) {
  EnvStamp env;
  env.nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  env.git_rev = CDBP_SUITE_GIT_REV;
  env.build_type = CDBP_SUITE_BUILD_TYPE;
  struct utsname u {};
  if (::uname(&u) == 0) env.kernel = std::string(u.sysname) + " " + u.release;
  struct statfs sf {};
  env.wal_fs = ::statfs(wal_dir.c_str(), &sf) == 0 ? fs_name(sf.f_type) : "unknown";
  return env;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i)
    out += (i ? "," : "") + json_number(values[i]);
  return out + "]";
}

void write_results(const std::string& path, const RunConfig& cfg,
                   const EnvStamp& env, const Result& result) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open results file: " + path);
  out << "{\n  \"workload\": " << json_string(result.workload)
      << ",\n  \"seed\": " << cfg.seed
      << ",\n  \"seconds\": " << json_number(cfg.seconds)
      << ",\n  \"quick\": " << (cfg.quick ? "true" : "false")
      << ",\n  \"traced\": " << (cfg.traced ? "true" : "false")
      << ",\n  \"env\": {\"nproc\": " << env.nproc
      << ", \"git_rev\": " << json_string(env.git_rev)
      << ", \"build_type\": " << json_string(env.build_type)
      << ", \"kernel\": " << json_string(env.kernel)
      << ", \"wal_fs\": " << json_string(env.wal_fs) << "}"
      << ",\n  \"correct\": " << (result.correct() ? "true" : "false")
      << ",\n  \"attempted\": " << result.attempted
      << ",\n  \"failed\": " << result.failed << ",\n  \"metrics\": [";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out << (i ? "," : "") << "\n    {\"name\": " << json_string(m.name)
        << ", \"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "\n  ],\n  \"oracles\": [";
  for (std::size_t i = 0; i < result.oracles.size(); ++i) {
    const Oracle& o = result.oracles[i];
    out << (i ? "," : "") << "\n    {\"name\": " << json_string(o.name)
        << ", \"pass\": " << (o.pass ? "true" : "false")
        << ", \"detail\": " << json_string(o.detail) << "}";
  }
  out << "\n  ],\n  \"details\": {" << result.details << "}\n}\n";
  if (!out) throw std::runtime_error("failed writing results file: " + path);
}

std::string summary_line(const Result& result) {
  std::string s = "{\"correct\": ";
  s += result.correct() ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(result.attempted);
  s += ", \"failed\": " + std::to_string(result.failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    s += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
         json_number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  return s + "}}";
}

}  // namespace cdbp::bench_suite
