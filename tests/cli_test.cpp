#include "cli/cli.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/wal_segment.h"

namespace cdbp::cli {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun cli(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return CliRun{code, out.str(), err.str()};
}

std::string temp_file(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Cli, HelpAndNoArgs) {
  const CliRun help = cli({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("usage:"), std::string::npos);
  EXPECT_NE(help.out.find("[--fsync none|every]  (default every"),
            std::string::npos);
  const CliRun none = cli({});
  EXPECT_EQ(none.code, 2);
}

TEST(Cli, UnknownCommand) {
  const CliRun r = cli({"frobnicate"});
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, GenerateRunCompareBoundsPipeline) {
  const std::string path = temp_file("cdbp_cli_test.csv");

  const CliRun gen = cli({"generate", "--kind", "binary", "--n", "4",
                          "--out", path});
  EXPECT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("wrote 31 items"), std::string::npos);

  const CliRun run = cli({"run", "--algo", "cdff", "--in", path,
                          "--validate"});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("CDFF"), std::string::npos);
  EXPECT_NE(run.out.find("validation: OK"), std::string::npos);

  const CliRun bounds = cli({"bounds", "--in", path});
  EXPECT_EQ(bounds.code, 0) << bounds.err;
  EXPECT_NE(bounds.out.find("repack witness"), std::string::npos);

  const CliRun compare = cli({"compare", "--in", path});
  EXPECT_EQ(compare.code, 0) << compare.err;
  EXPECT_NE(compare.out.find("[aligned]"), std::string::npos);
  EXPECT_NE(compare.out.find("CDFF"), std::string::npos);
  EXPECT_NE(compare.out.find("HA"), std::string::npos);

  std::remove(path.c_str());
}

TEST(Cli, RunWithGanttAndTimeline) {
  const std::string path = temp_file("cdbp_cli_gantt.csv");
  const std::string timeline = temp_file("cdbp_cli_timeline.csv");
  ASSERT_EQ(cli({"generate", "--kind", "general", "--n", "4", "--items",
                 "20", "--out", path})
                .code,
            0);
  const CliRun r = cli({"run", "--algo", "ha", "--in", path, "--gantt",
                        "--timeline", timeline});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("bin"), std::string::npos);
  EXPECT_NE(r.out.find("timeline written"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(timeline));
  std::remove(path.c_str());
  std::remove(timeline.c_str());
}

TEST(Cli, CompareSkipsCdffOnUnalignedInput) {
  const std::string path = temp_file("cdbp_cli_unaligned.csv");
  ASSERT_EQ(cli({"generate", "--kind", "cloud", "--out", path}).code, 0);
  const CliRun r = cli({"compare", "--in", path});
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out.find("CDFF"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, StatsReduceExactPipeline) {
  const std::string path = temp_file("cdbp_cli_sre.csv");
  const std::string reduced = temp_file("cdbp_cli_sre_reduced.csv");
  ASSERT_EQ(cli({"generate", "--kind", "general", "--n", "4", "--items",
                 "12", "--out", path})
                .code,
            0);

  const CliRun stats = cli({"stats", "--in", path});
  EXPECT_EQ(stats.code, 0) << stats.err;
  EXPECT_NE(stats.out.find("duration classes"), std::string::npos);

  const CliRun red = cli({"reduce", "--in", path, "--out", reduced});
  EXPECT_EQ(red.code, 0) << red.err;
  EXPECT_NE(red.out.find("span x"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(reduced));

  const CliRun exact = cli({"exact", "--in", path});
  EXPECT_EQ(exact.code, 0) << exact.err;
  EXPECT_NE(exact.out.find("OPT_R"), std::string::npos);
  EXPECT_NE(exact.out.find("OPT_NR"), std::string::npos);

  std::remove(path.c_str());
  std::remove(reduced.c_str());
}

TEST(Cli, ExactReportsInfeasibilityGracefully) {
  const std::string path = temp_file("cdbp_cli_big.csv");
  ASSERT_EQ(cli({"generate", "--kind", "general", "--n", "4", "--items",
                 "120", "--out", path})
                .code,
            0);
  const CliRun exact = cli({"exact", "--in", path});
  EXPECT_EQ(exact.code, 0) << exact.err;
  EXPECT_NE(exact.out.find("OPT_NR   : infeasible"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, MergeCommand) {
  const std::string a = temp_file("cdbp_cli_merge_a.csv");
  const std::string b = temp_file("cdbp_cli_merge_b.csv");
  const std::string out = temp_file("cdbp_cli_merge_out.csv");
  ASSERT_EQ(cli({"generate", "--kind", "general", "--n", "3", "--items",
                 "10", "--out", a})
                .code,
            0);
  ASSERT_EQ(cli({"generate", "--kind", "general", "--n", "3", "--items",
                 "15", "--seed", "2", "--out", b})
                .code,
            0);
  // Superimpose (default).
  const CliRun merged = cli({"merge", "--a", a, "--b", b, "--out", out});
  EXPECT_EQ(merged.code, 0) << merged.err;
  EXPECT_NE(merged.out.find("merged 10 + 15"), std::string::npos);
  EXPECT_NE(merged.out.find("n=25"), std::string::npos);
  // Concatenate with a gap.
  const CliRun cat =
      cli({"merge", "--a", a, "--b", b, "--out", out, "--gap", "8"});
  EXPECT_EQ(cat.code, 0) << cat.err;
  EXPECT_NE(cat.out.find("concatenated"), std::string::npos);
  std::remove(a.c_str());
  std::remove(b.c_str());
  std::remove(out.c_str());
}

TEST(Cli, ClusterCommand) {
  const std::string path = temp_file("cdbp_cli_cluster.csv");
  ASSERT_EQ(cli({"generate", "--kind", "general", "--n", "4", "--items",
                 "40", "--out", path})
                .code,
            0);
  const CliRun r =
      cli({"cluster", "--algo", "bf", "--in", path, "--boot", "2.5"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("warm window"), std::string::npos);
  EXPECT_NE(r.out.find("total energy"), std::string::npos);
  EXPECT_NE(r.out.find("boot=2.5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Cli, AdversaryCommand) {
  const CliRun r =
      cli({"adversary", "--algo", "ff", "--n", "6", "--rounds", "16"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("certified ratio"), std::string::npos);
}

TEST(Cli, ErrorPathsReportCleanly) {
  EXPECT_EQ(cli({"run", "--algo", "ha"}).code, 1);           // missing --in
  EXPECT_EQ(cli({"run", "--algo", "nope", "--in", "x"}).code, 1);
  EXPECT_EQ(cli({"bounds", "--in", "/no/such/file.csv"}).code, 1);
  EXPECT_EQ(cli({"generate", "--kind", "weird", "--out", "/tmp/x"}).code, 1);
  EXPECT_EQ(cli({"run", "--algo"}).code, 1);                 // dangling flag
  EXPECT_EQ(cli({"run", "positional"}).code, 1);
  const CliRun unknown_flag =
      cli({"adversary", "--algo", "ff", "--n", "4", "--bogus", "1"});
  EXPECT_EQ(unknown_flag.code, 1);
  EXPECT_NE(unknown_flag.err.find("--bogus"), std::string::npos);

  // `--fsync` takes none|every only, and there are no fsync tuning flags;
  // each refusal comes before any file is touched.
  const std::string stream = temp_file("cdbp_cli_retired_stream.csv");
  const std::string wal_dir = temp_file("cdbp_cli_retired_wal");
  std::filesystem::remove_all(wal_dir);
  ASSERT_EQ(cli({"gen-stream", "--out", stream, "--items", "20"}).code, 0);
  const std::vector<std::string> serve_args = {
      "serve", "--algo", "ff", "--in", stream, "--wal-dir", wal_dir};
  const auto serve_with = [&](const std::string& flag,
                              const std::string& value) {
    std::vector<std::string> args = serve_args;
    args.push_back(flag);
    args.push_back(value);
    return cli(args);
  };
  const CliRun batch = serve_with("--fsync", "batch");
  EXPECT_EQ(batch.code, 1);
  EXPECT_NE(batch.err.find("fsync policy must be none|every"),
            std::string::npos)
      << batch.err;
  for (const auto& [flag, value] :
       {std::pair<std::string, std::string>{"--fsync-batch", "8"},
        {"--group-commit-window", "50"}}) {
    const CliRun r = serve_with(flag, value);
    EXPECT_EQ(r.code, 1);
    EXPECT_NE(r.err.find("unknown flag " + flag), std::string::npos) << r.err;
  }
  EXPECT_FALSE(std::filesystem::exists(wal_dir));
  std::remove(stream.c_str());
}

TEST(Cli, MakeAlgorithmCoversAllNames) {
  for (const std::string& name : algorithm_names()) {
    const AlgorithmPtr algo = make_algorithm(name, 1024.0);
    ASSERT_NE(algo, nullptr) << name;
    EXPECT_FALSE(algo->name().empty());
  }
  EXPECT_THROW((void)make_algorithm("nope"), std::invalid_argument);
}

#ifndef CDBP_OBS_OFF

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Cheap structural JSON checks (no JSON parser in the tree): brace balance
// outside string literals, and known substrings. Event names/categories are
// literals without braces, so this is robust for our own output.
bool braces_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\')
        ++i;
      else if (c == '"')
        in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

TEST(Cli, TraceCommandWritesChromeTraceOfHybridOnSigmaMu) {
  const std::string inst = temp_file("cdbp_cli_trace_inst.csv");
  const std::string trace_path = temp_file("cdbp_cli_trace.json");
  const std::string metrics = temp_file("cdbp_cli_trace_metrics.txt");
  // sigma_mu: the paper's binary instance (2^n - 1 items, mu = 2^n).
  ASSERT_EQ(cli({"generate", "--kind", "binary", "--n", "4", "--out", inst})
                .code,
            0);
  const CliRun r = cli({"trace", "--algo", "ha", "--in", inst, "--out",
                        trace_path, "--metrics-out", metrics});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trace (chrome) written"), std::string::npos);

  const std::string body = read_file(trace_path);
  EXPECT_EQ(body.rfind("{\"traceEvents\":[", 0), 0u) << body.substr(0, 80);
  EXPECT_NE(body.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_TRUE(braces_balanced(body));
  // One 'X' span for the whole run, plus per-arrival instants from both the
  // simulator and the Hybrid placement paths.
  EXPECT_NE(body.find("\"name\":\"sim.run\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(body.find("\"name\":\"hybrid.place\""), std::string::npos);
  EXPECT_NE(body.find("\"path\":"), std::string::npos);

  const std::string m = read_file(metrics);
  EXPECT_NE(m.find("counter sim.arrivals 31"), std::string::npos) << m;
  EXPECT_NE(m.find("counter algo.placements 31"), std::string::npos);

  std::remove(inst.c_str());
  std::remove(trace_path.c_str());
  std::remove(metrics.c_str());
}

TEST(Cli, TraceCommandWritesJsonl) {
  const std::string inst = temp_file("cdbp_cli_trace_inst2.csv");
  const std::string trace_path = temp_file("cdbp_cli_trace.jsonl");
  ASSERT_EQ(cli({"generate", "--kind", "binary", "--n", "3", "--out", inst})
                .code,
            0);
  // Format inferred from the .jsonl extension.
  const CliRun r =
      cli({"trace", "--algo", "ha", "--in", inst, "--out", trace_path});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trace (jsonl) written"), std::string::npos);

  std::ifstream in(trace_path);
  std::string line;
  std::size_t events = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_TRUE(braces_balanced(line)) << line;
    EXPECT_NE(line.find("\"ts\":"), std::string::npos) << line;
    ++events;
  }
  // 7 items -> at least one event per arrival plus the run span.
  EXPECT_GE(events, 8u);

  std::remove(inst.c_str());
  std::remove(trace_path.c_str());
}

TEST(Cli, RunAcceptsTraceAndMetricsFlags) {
  const std::string inst = temp_file("cdbp_cli_run_trace_inst.csv");
  const std::string trace_path = temp_file("cdbp_cli_run_trace.json");
  const std::string metrics = temp_file("cdbp_cli_run_metrics.csv");
  ASSERT_EQ(cli({"generate", "--kind", "binary", "--n", "3", "--out", inst})
                .code,
            0);
  const CliRun r = cli({"run", "--algo", "ff", "--in", inst, "--trace-out",
                        trace_path, "--metrics-out", metrics});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("trace written"), std::string::npos);
  EXPECT_NE(r.out.find("metrics written"), std::string::npos);
  EXPECT_TRUE(braces_balanced(read_file(trace_path)));
  const std::string m = read_file(metrics);
  EXPECT_EQ(m.rfind("kind,name,", 0), 0u) << m;  // CSV by extension
  EXPECT_NE(m.find("counter,sim.arrivals,"), std::string::npos);

  // Unknown trace format is a clean CLI error.
  const CliRun bad = cli({"run", "--algo", "ff", "--in", inst, "--trace-out",
                          trace_path, "--trace-format", "xml"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("trace format"), std::string::npos);

  std::remove(inst.c_str());
  std::remove(trace_path.c_str());
  std::remove(metrics.c_str());
}

#endif  // CDBP_OBS_OFF

std::string line_with(const std::string& text, const std::string& needle) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (line.find(needle) != std::string::npos) return line;
  return "";
}

TEST(Cli, ServeRecoverWalDumpPipeline) {
  namespace fs = std::filesystem;
  const std::string stream = temp_file("cdbp_cli_stream.csv");
  const fs::path wal_dir = fs::temp_directory_path() / "cdbp_cli_serve_wal";
  fs::remove_all(wal_dir);

  const CliRun gen = cli({"gen-stream", "--out", stream, "--items", "150",
                          "--tenants", "6", "--seed", "3"});
  EXPECT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("requests (6 tenants)"), std::string::npos);

  const std::string placements = temp_file("cdbp_cli_placements.csv");
  const CliRun serve =
      cli({"serve", "--algo", "bf", "--in", stream, "--wal-dir",
           wal_dir.string(), "--shards", "2", "--fsync", "none",
           "--checkpoint-every", "16", "--out", placements});
  EXPECT_EQ(serve.code, 0) << serve.err;
  EXPECT_NE(serve.out.find("shard 0: applied="), std::string::npos);
  EXPECT_NE(serve.out.find("served 150 requests on 2 shard(s)"),
            std::string::npos);
#ifndef CDBP_OBS_OFF
  // Per-shard end-to-end latency percentiles ride along on every serve run.
  EXPECT_NE(serve.out.find("ack-latency-us: p50="), std::string::npos);
#else
  EXPECT_EQ(serve.out.find("ack-latency-us"), std::string::npos);
#endif
  const std::string served_cost = line_with(serve.out, "total cost=");
  ASSERT_FALSE(served_cost.empty());
  EXPECT_TRUE(fs::exists(placements));

  // Recovery rebuilds the exact same state: the canonical cost line must
  // match the live run byte for byte.
  const CliRun recover = cli({"recover", "--algo", "bf", "--wal-dir",
                              wal_dir.string(), "--shards", "2"});
  EXPECT_EQ(recover.code, 0) << recover.err;
  EXPECT_EQ(line_with(recover.out, "total cost="), served_cost);
  EXPECT_NE(recover.out.find("digest="), std::string::npos);
  EXPECT_NE(recover.err.find("checkpoint@"), std::string::npos);

  const CliRun dump =
      cli({"wal-dump", "--wal", (wal_dir / "shard-0.wal").string()});
  EXPECT_EQ(dump.code, 0) << dump.err;
  EXPECT_EQ(dump.out.rfind("seq,stream_index,arrival,departure,size,bin", 0),
            0u);
  EXPECT_NE(dump.out.find("# records="), std::string::npos);
  EXPECT_EQ(dump.out.find("# torn tail"), std::string::npos);
  // Frame-type census: every record, tenant or not, is a type-1 offer
  // frame, and a clean WAL skips nothing.
  EXPECT_NE(dump.out.find("# frames type1="), std::string::npos);
  EXPECT_EQ(dump.out.find("type2"), std::string::npos);
  EXPECT_NE(dump.out.find("skipped_unknown=0"), std::string::npos);

  EXPECT_EQ(cli({"wal-dump", "--wal", "/no/such.wal"}).code, 1);

  std::remove(stream.c_str());
  std::remove(placements.c_str());
  fs::remove_all(wal_dir);
}

TEST(Cli, ServeStatsExporterFlags) {
  namespace fs = std::filesystem;
  const std::string stream = temp_file("cdbp_cli_stats_stream.csv");
  const fs::path wal_dir = fs::temp_directory_path() / "cdbp_cli_stats_wal";
  const std::string base = temp_file("cdbp_cli_stats");
  fs::remove_all(wal_dir);
  ASSERT_EQ(cli({"gen-stream", "--out", stream, "--items", "80", "--tenants",
                 "4", "--seed", "9"})
                .code,
            0);

  const CliRun serve =
      cli({"serve", "--algo", "bf", "--in", stream, "--wal-dir",
           wal_dir.string(), "--shards", "1", "--fsync", "none",
           "--stats-out", base, "--stats-interval", "0"});
#ifdef CDBP_OBS_OFF
  // The flag is a clean CLI error when the build cannot honor it.
  EXPECT_EQ(serve.code, 1);
  EXPECT_NE(serve.err.find("compiled out"), std::string::npos);
#else
  EXPECT_EQ(serve.code, 0) << serve.err;
  EXPECT_NE(serve.out.find("stats written to " + base + ".prom"),
            std::string::npos);
  const std::string prom = read_file(base + ".prom");
  EXPECT_NE(prom.find("cdbp_serve_ack_us_shard0{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("cdbp_serve_submitted"), std::string::npos);
  const std::string json = read_file(base + ".json");
  EXPECT_EQ(json.rfind("{\"interval_s\":", 0), 0u);
  EXPECT_NE(json.find("\"serve.ack_us.shard0\""), std::string::npos);
  std::remove((base + ".prom").c_str());
  std::remove((base + ".json").c_str());
#endif

  std::remove(stream.c_str());
  fs::remove_all(wal_dir);
}

TEST(Cli, ServeResumeMatchesUninterruptedRun) {
  namespace fs = std::filesystem;
  const std::string stream = temp_file("cdbp_cli_resume_stream.csv");
  const std::string half = temp_file("cdbp_cli_resume_half.csv");
  const fs::path ref_dir = fs::temp_directory_path() / "cdbp_cli_resume_ref";
  const fs::path crash_dir =
      fs::temp_directory_path() / "cdbp_cli_resume_crash";
  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);

  ASSERT_EQ(cli({"gen-stream", "--out", stream, "--items", "120", "--seed",
                 "9"})
                .code,
            0);
  {
    // First half of the stream = header plus the first 60 request lines.
    std::ifstream in(stream);
    std::ofstream out_half(half);
    std::string line;
    for (int i = 0; i <= 60 && std::getline(in, line); ++i)
      out_half << line << "\n";
  }

  const std::vector<std::string> common = {"--algo", "ha", "--shards", "2",
                                           "--fsync", "none"};
  auto serve_args = [&](const std::string& in_path, const fs::path& dir,
                        bool resume) {
    std::vector<std::string> args = {"serve", "--in", in_path, "--wal-dir",
                                     dir.string()};
    args.insert(args.end(), common.begin(), common.end());
    if (resume) args.push_back("--resume");
    return args;
  };

  ASSERT_EQ(cli(serve_args(stream, ref_dir, false)).code, 0);
  ASSERT_EQ(cli(serve_args(half, crash_dir, false)).code, 0);
  // Resume with the FULL stream: already-applied requests are skipped via
  // the stream-index high-water mark, the rest are served normally.
  const CliRun resumed = cli(serve_args(stream, crash_dir, true));
  ASSERT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_NE(resumed.out.find("skipped=60"), std::string::npos)
      << resumed.out;

  const std::vector<std::string> rec = {"--algo", "ha", "--shards", "2"};
  auto recover_args = [&](const fs::path& dir) {
    std::vector<std::string> args = {"recover", "--wal-dir", dir.string()};
    args.insert(args.end(), rec.begin(), rec.end());
    return args;
  };
  const CliRun ref = cli(recover_args(ref_dir));
  const CliRun crash = cli(recover_args(crash_dir));
  ASSERT_EQ(ref.code, 0) << ref.err;
  ASSERT_EQ(crash.code, 0) << crash.err;
  // The whole canonical stdout — per-shard records, costs, digests — must
  // be byte-identical; this is exactly what the CI crash job diffs.
  EXPECT_EQ(crash.out, ref.out);

  std::remove(stream.c_str());
  std::remove(half.c_str());
  fs::remove_all(ref_dir);
  fs::remove_all(crash_dir);
}

// The router keeps no placements; file-fed --out gathers them from the
// acks. The CSV must be exactly the sorted applied log — every WAL record
// of a fresh run as (stream_index, tenant, shard, seq, bin), ordered by
// (stream_index, shard, seq) — byte for byte what it always was.
TEST(Cli, ServeOutCsvIsTheSortedAppliedLog) {
  namespace fs = std::filesystem;
  const std::string stream = temp_file("cdbp_cli_out_stream.csv");
  const std::string placements = temp_file("cdbp_cli_out_placements.csv");
  const fs::path wal_dir = fs::temp_directory_path() / "cdbp_cli_out_wal";
  fs::remove_all(wal_dir);
  ASSERT_EQ(cli({"gen-stream", "--out", stream, "--items", "300",
                 "--tenants", "7", "--seed", "5"})
                .code,
            0);
  const CliRun serve =
      cli({"serve", "--algo", "ha", "--in", stream, "--wal-dir",
           wal_dir.string(), "--shards", "3", "--fsync", "none", "--out",
           placements});
  ASSERT_EQ(serve.code, 0) << serve.err;
  EXPECT_NE(serve.out.find("placements written to " + placements),
            std::string::npos);

  struct Row {
    std::uint64_t stream_index, shard, seq;
    std::string tenant;
    BinId bin;
  };
  std::vector<Row> rows;
  for (std::uint64_t shard = 0; shard < 3; ++shard) {
    const serve::SegmentedWalScan scan = serve::scan_segmented_wal(
        (wal_dir / ("shard-" + std::to_string(shard) + ".wal")).string());
    for (const serve::WalRecord& r : scan.records)
      rows.push_back(Row{r.stream_index, shard, r.seq, r.tenant, r.bin});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.stream_index, a.shard, a.seq) <
           std::tie(b.stream_index, b.shard, b.seq);
  });
  std::ostringstream expected;
  expected << "stream_index,tenant,shard,seq,bin\n";
  for (const Row& r : rows)
    expected << r.stream_index << ',' << r.tenant << ',' << r.shard << ','
             << r.seq << ',' << r.bin << "\n";
  std::ifstream in(placements);
  std::ostringstream got;
  got << in.rdbuf();
  EXPECT_GT(rows.size(), 250u);
  EXPECT_EQ(got.str(), expected.str());

  std::remove(stream.c_str());
  std::remove(placements.c_str());
  fs::remove_all(wal_dir);
}

TEST(Cli, ServeListenRejectsOut) {
  namespace fs = std::filesystem;
  const fs::path wal_dir = fs::temp_directory_path() / "cdbp_cli_listen_out";
  fs::remove_all(wal_dir);
  const CliRun r =
      cli({"serve", "--algo", "ff", "--listen", "127.0.0.1:0", "--wal-dir",
           wal_dir.string(), "--out", temp_file("cdbp_cli_listen_out.csv")});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--out is file-fed only"), std::string::npos)
      << r.err;
  EXPECT_FALSE(fs::exists(wal_dir)) << "rejected before touching the disk";
  const CliRun help = cli({"help"});
  EXPECT_NE(help.out.find("file-fed only"), std::string::npos);
}

TEST(Cli, PackInstanceRoundTripsThroughBinary) {
  const std::string csv = temp_file("cdbp_cli_pack.csv");
  const std::string packed = temp_file("cdbp_cli_pack.cdbpi");
  const std::string back = temp_file("cdbp_cli_pack_back.csv");
  ASSERT_EQ(cli({"generate", "--kind", "general", "--n", "5", "--items",
                 "80", "--out", csv})
                .code,
            0);

  const CliRun pack = cli({"pack-instance", "--in", csv, "--out", packed});
  EXPECT_EQ(pack.code, 0) << pack.err;
  EXPECT_NE(pack.out.find("packed 80 items"), std::string::npos);

  const CliRun unpack = cli({"pack-instance", "--in", packed, "--out", back});
  EXPECT_EQ(unpack.code, 0) << unpack.err;

  // CSV -> .cdbpi -> CSV is exact: 17-sig-digit CSV and the binary doubles
  // both round-trip, so the final CSV is byte-identical to the original.
  std::ifstream a(csv), b(back);
  const std::string sa((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
  const std::string sb((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(sa, sb);

  // Same-extension conversions are refused.
  EXPECT_EQ(cli({"pack-instance", "--in", csv, "--out", back}).code, 1);

  std::remove(csv.c_str());
  std::remove(packed.c_str());
  std::remove(back.c_str());
}

TEST(Cli, RunStreamMatchesInRamRun) {
  const std::string packed = temp_file("cdbp_cli_stream_run.cdbpi");
  ASSERT_EQ(cli({"generate", "--kind", "general", "--n", "5", "--items",
                 "120", "--out", packed})
                .code,
            0);

  const CliRun streamed = cli({"run", "--algo", "ff", "--in", packed,
                               "--stream", "--storage", "soa"});
  ASSERT_EQ(streamed.code, 0) << streamed.err;
  const CliRun streamed_ref = cli({"run", "--algo", "ff", "--in", packed,
                                   "--stream", "--storage", "reference"});
  ASSERT_EQ(streamed_ref.code, 0) << streamed_ref.err;
  // Backend choice changes nothing observable.
  EXPECT_EQ(streamed.out, streamed_ref.out);
  EXPECT_NE(streamed.out.find("items=120"), std::string::npos)
      << streamed.out;

  // The in-RAM run of the same file reports the same exact cost.
  const CliRun in_ram = cli({"run", "--algo", "ff", "--in", packed});
  ASSERT_EQ(in_ram.code, 0) << in_ram.err;
  const auto cost_of = [](const std::string& s) {
    const std::size_t at = s.find("cost=");
    return s.substr(at, s.find(' ', at) - at);
  };
  EXPECT_EQ(cost_of(streamed.out), cost_of(in_ram.out));

  // Streaming needs a .cdbpi and excludes full-history reports.
  EXPECT_EQ(cli({"run", "--algo", "ff", "--in", "x.csv", "--stream"}).code,
            1);
  EXPECT_EQ(
      cli({"run", "--algo", "ff", "--in", packed, "--stream", "--gantt"})
          .code,
      1);

  std::remove(packed.c_str());
}

TEST(Cli, SimSweepDeterministicAcrossBackendsAndStreaming) {
  const std::string csv = temp_file("cdbp_cli_sweep.csv");
  const std::string packed = temp_file("cdbp_cli_sweep.cdbpi");
  ASSERT_EQ(cli({"generate", "--kind", "general", "--n", "5", "--items",
                 "100", "--out", csv})
                .code,
            0);
  ASSERT_EQ(cli({"pack-instance", "--in", csv, "--out", packed}).code, 0);

  const auto payload = [](const std::string& s) {
    // Drop the '#'-prefixed config/timing lines, as the CI diff does.
    std::istringstream in(s);
    std::string line, kept;
    while (std::getline(in, line))
      if (line.empty() || line[0] != '#') kept += line + "\n";
    return kept;
  };

  const CliRun in_ram = cli({"sim-sweep", "--algos", "ff,bf,wf", "--in", csv,
                             "--threads", "2", "--storage", "reference"});
  ASSERT_EQ(in_ram.code, 0) << in_ram.err;
  const CliRun streamed =
      cli({"sim-sweep", "--algos", "ff,bf,wf", "--in", packed, "--threads",
           "2", "--storage", "soa", "--stream"});
  ASSERT_EQ(streamed.code, 0) << streamed.err;

  EXPECT_EQ(payload(streamed.out), payload(in_ram.out));
  EXPECT_NE(in_ram.out.find("ff: cost="), std::string::npos) << in_ram.out;
  EXPECT_NE(streamed.out.find("# shards=2 storage=soa input=streamed"),
            std::string::npos)
      << streamed.out;

  EXPECT_EQ(cli({"sim-sweep", "--algos", ",", "--in", csv}).code, 1);
  EXPECT_EQ(cli({"sim-sweep", "--algos", "ff", "--in", csv, "--stream"}).code,
            1);

  std::remove(csv.c_str());
  std::remove(packed.c_str());
}

TEST(Cli, GenerateShapesAccepted) {
  for (const std::string shape :
       {"log-uniform", "exponential", "geometric-bursts", "two-phase"}) {
    const std::string path = temp_file("cdbp_cli_shape.csv");
    const CliRun r = cli({"generate", "--kind", "general", "--shape", shape,
                          "--items", "30", "--out", path});
    EXPECT_EQ(r.code, 0) << shape << ": " << r.err;
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace cdbp::cli
