// serve-restart: crash recovery time of `cdbp serve --listen --resume` over
// a prebuilt 4-shard HA WAL, from exec to the first PONG.
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "child.h"
#include "cli/cli.h"
#include "loadgen.h"
#include "parallel/thread_pool.h"
#include "serve/durable_session.h"
#include "serve/group_commit.h"
#include "serve/request_stream.h"
#include "serve/wal_segment.h"
#include "stats.h"
#include "workloads.h"

namespace cdbp::bench_suite {

namespace {

namespace fs = std::filesystem;

/// The "total cost=" value a `cdbp serve` or `cdbp recover` run printed.
std::optional<double> printed_total_cost(const std::string& out) {
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);)
    if (line.rfind("total cost=", 0) == 0) return std::strtod(line.c_str() + 11, nullptr);
  return std::nullopt;
}

/// Copies the pristine log and flushes the copy, so no writeback of it
/// runs while a restart is being timed.
void fresh_copy(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
  const int fd = ::open(to.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

struct RecoveryTimes {
  std::vector<double> scan_s;       ///< scan_segmented_wal, per shard
  std::vector<double> construct_s;  ///< DurableSession(resume), per shard
};

RecoveryTimes time_recovery(const std::string& wal_dir, parallel::ThreadPool& pool,
                            SpanLog& spans) {
  RecoveryTimes t;
  const auto base = [&](std::size_t i) { return wal_dir + "/shard-" + std::to_string(i); };
  {
    // A real restart's scan happens inside DurableSession construction;
    // this pass times it on its own, over the same files.
    const ScopedSpan scan_span(spans, "replay.wal_scan");
    for (std::size_t i = 0; i < kServeShards; ++i) {
      const std::uint64_t t0 = now_ns();
      (void)serve::scan_segmented_wal(base(i) + ".wal", &pool);
      const std::uint64_t t1 = now_ns();
      spans.add("serve.scan_segmented_wal", t0, t1, scan_span.id(), i + 1);
      t.scan_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    }
  }
  const ScopedSpan resume_span(spans, "replay.resume");
  serve::GroupCommitCoordinator coord;  // outlives the sessions
  std::vector<std::unique_ptr<serve::DurableSession>> sessions;
  for (std::size_t i = 0; i < kServeShards; ++i) {
    serve::DurableSessionConfig sc;
    sc.wal_path = base(i) + ".wal";
    sc.checkpoint_path = base(i) + ".ckpt";
    sc.fsync = serve::FsyncPolicy::kEvery;
    sc.wal_segment_bytes = 8u << 20;
    sc.resume = true;
    sc.group_commit = &coord;
    sc.recovery_pool = &pool;
    const std::uint64_t t0 = now_ns();
    sessions.push_back(std::make_unique<serve::DurableSession>(
        cli::make_algorithm("ha", 256.0), "ha", sc));
    const std::uint64_t t1 = now_ns();
    spans.add("serve.durable_session_resume", t0, t1, resume_span.id(), i + 1);
    t.construct_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  for (auto& s : sessions) s->close();
  return t;
}

}  // namespace

Result run_serve_restart(const RunConfig& cfg, SpanLog& spans) {
  Result r;
  r.workload = "serve-restart";
  const int offers = cfg.quick ? 100'000 : 500'000;
  const std::string stream_csv = cfg.work_dir + "/restart-stream.csv";
  const std::string pristine = cfg.work_dir + "/restart-wal";
  const std::string rep_dir = cfg.work_dir + "/restart-rep";

  // Set-up: a 4-shard HA WAL built by `cdbp serve --in` from a generated
  // request stream (64 tenants, mu = 2^8), as an operator would fill one.
  std::vector<double> built_costs;
  std::string build_error;
  const double setup_s = median_setup_seconds(
      3,
      [&] {
        serve::StreamGenConfig gc;
        gc.target_items = offers;
        gc.tenants = 64;
        gc.seed = cfg.seed;
        gc.log2_mu = 8;
        serve::write_stream_csv(serve::generate_stream(gc), stream_csv);
        const CommandResult b = run_command(
            {cfg.cdbp, "serve", "--algo", "ha", "--mu-hint", "256", "--in", stream_csv,
             "--wal-dir", pristine, "--shards", std::to_string(kServeShards)},
            cfg.work_dir, 120'000);
        const auto cost = printed_total_cost(b.out);
        if (!b.exit.exited || b.exit.code != 0 || !cost)
          build_error = "cdbp serve --in failed: " + b.err;
        else
          built_costs.push_back(*cost);
      },
      [&] { fs::remove_all(pristine); }, spans);
  fs::remove(stream_csv);
  if (!build_error.empty() || built_costs.empty()) {
    r.check("WAL build", false, build_error);
    return r;
  }
  const bool builds_agree = std::all_of(built_costs.begin(), built_costs.end(),
                                        [&](double c) { return same_bits(c, built_costs[0]); });

  // Reps: restore the pristine WAL (untimed), exec the server with
  // --resume, and time exec -> listening -> first PONG. Then kill -9.
  // Spans are recorded after a rep is timed, so a traced run times the
  // same path as an untraced one.
  //
  // A traced run follows each restart with the recovery layers in-process,
  // on another fresh copy: the CRC scan of every shard, then
  // DurableSession(resume) as ShardRouter builds it (scan + checkpoint-less
  // full replay, serially shard by shard). Alternating the two keeps the
  // host's drift out of their difference, serve.restart_process_s.
  std::vector<double> restart_s, rss;
  std::vector<double> scan_totals, replay_totals, construct_totals, construct_maxes;
  const std::string inproc_dir = cfg.work_dir + "/restart-inproc";
  std::unique_ptr<parallel::ThreadPool> pool;
  if (cfg.traced)
    pool = std::make_unique<parallel::ThreadPool>(
        std::max<std::size_t>(2, std::thread::hardware_concurrency()));
  const std::uint64_t t_start = now_ns();
  const std::size_t min_reps = cfg.quick ? 2 : 3;
  while (restart_s.size() < min_reps || seconds_since(t_start) < cfg.seconds) {
    if (r.failed >= 3) break;
    fresh_copy(pristine, rep_dir);
    ++r.attempted;
    const std::uint64_t rep_span = spans.reserve_id();
    const std::uint64_t t0 = now_ns();
    Server server(serve_listen_argv(cfg.cdbp, rep_dir, true),
                  cfg.work_dir + "/serve-restart.stderr");
    std::uint64_t t_listen = 0;
    bool ok = false;
    try {
      const std::uint16_t port = await_listening(server, 60'000);
      t_listen = now_ns();
      ok = ping_roundtrip(port, "bench-ping", 30'000);
    } catch (const std::exception&) {
      ok = false;
    }
    const std::uint64_t t1 = now_ns();
    const ExitInfo exit = server.stop(SIGKILL);
    if (!ok) {
      ++r.failed;
      continue;
    }
    restart_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    rss.push_back(exit.peak_rss_mib);
    spans.add("restart.exec_to_listening", t0, t_listen, rep_span);
    spans.add("restart.first_pong", t_listen, t1, rep_span);
    spans.record(Span{"restart", t0, t1, rep_span, 0, 0, 0});
    if (!cfg.traced) continue;
    fresh_copy(pristine, inproc_dir);
    const RecoveryTimes t = time_recovery(inproc_dir, *pool, spans);
    double scan = 0.0, construct = 0.0, slowest = 0.0;
    for (std::size_t i = 0; i < kServeShards; ++i) {
      scan += t.scan_s[i];
      construct += t.construct_s[i];
      slowest = std::max(slowest, t.construct_s[i]);
    }
    scan_totals.push_back(scan);
    construct_totals.push_back(construct);
    construct_maxes.push_back(slowest);
    // A shard's replay is its resume time less its own scan.
    replay_totals.push_back(construct - scan);
  }

  // Oracle: recovering the log the last restart left behind (after its
  // kill -9) reproduces the cost the WAL-building run printed.
  ++r.attempted;
  const CommandResult rec = run_command(
      {cfg.cdbp, "recover", "--algo", "ha", "--mu-hint", "256", "--wal-dir", rep_dir,
       "--shards", std::to_string(kServeShards)},
      cfg.work_dir, 120'000);
  const auto recovered = printed_total_cost(rec.out);
  if (!recovered) ++r.failed;
  r.check("WAL builds print one cost", builds_agree, cost_str(built_costs[0]));
  r.check("recovered cost equals the built cost",
          recovered && same_bits(*recovered, built_costs[0]),
          (recovered ? cost_str(*recovered) : "recover failed: " + rec.err) + " vs " +
              cost_str(built_costs[0]));

  r.detail("offers", std::to_string(offers));
  r.detail("restart_s", json_array(restart_s));
  r.detail("wal_bytes", std::to_string(wal_segment_bytes(pristine)));

  const double restart = median(restart_s);
  report_speed(r, cfg.traced, static_cast<double>(offers) / restart, restart * 1e3);
  if (!cfg.traced) {
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", median(rss), "MiB");
    fs::remove_all(pristine);
    fs::remove_all(rep_dir);
    return r;
  }

  const double bytes = static_cast<double>(wal_segment_bytes(pristine));
  fs::remove_all(pristine);
  fs::remove_all(rep_dir);
  fs::remove_all(inproc_dir);

  r.metric("serve.wal_bytes_per_offer", bytes / static_cast<double>(offers), "B/offer");
  const double scan_s = median(scan_totals);
  r.metric("serve.wal_scan_s", scan_s, "s");
  r.metric("serve.wal_scan_mb_per_s", bytes / (1024.0 * 1024.0) / scan_s, "MiB/s");
  r.metric("serve.replay_s", median(replay_totals), "s");
  r.metric("serve.recover_shard_s_max", median(construct_maxes), "s");
  r.metric("serve.restart_process_s", restart - median(construct_totals), "s");
  // No tracing runs inside a timed restart, so trace.overhead_pct is 0.
  return r;
}

}  // namespace cdbp::bench_suite
