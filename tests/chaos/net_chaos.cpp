#include "chaos/net_chaos.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "chaos/fault_env.h"
#include "net/client.h"
#include "net/listener.h"
#include "serve/request_stream.h"
#include "serve/wal_segment.h"

namespace cdbp::net {

namespace {

namespace fs = std::filesystem;

void reset_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

std::vector<serve::ServeRequest> make_stream(const NetChaosConfig& cfg,
                                             std::uint64_t seed) {
  serve::StreamGenConfig gc;
  gc.target_items = static_cast<int>(cfg.offers);
  gc.tenants = cfg.tenants;
  gc.seed = seed;
  gc.log2_mu = 5;
  gc.horizon = 64.0;
  return serve::generate_stream(gc);
}

struct CaseOutcome {
  ClientReport client;
  std::uint64_t faults = 0;  // env faults actually injected
};

/// One full listener + client run over loopback. `env` (when non-null)
/// carries the fault schedule and wraps ONLY the listener's socket ops.
CaseOutcome run_case(const NetChaosConfig& cfg,
                     const std::vector<serve::ServeRequest>& stream,
                     const std::string& wal_dir, io::FaultInjectingEnv* env) {
  reset_dir(wal_dir);
  serve::RouterConfig rc;
  rc.wal_dir = wal_dir;
  rc.shards = cfg.shards;
  rc.fsync = serve::FsyncPolicy::kEvery;  // ack == durable, checkable
  rc.queue_capacity = 64;
  ListenerConfig lc;
  lc.loops = 2;
  lc.env = env;
  NetListener listener(lc, rc, cfg.make_algo, cfg.algo_name);

  ClientConfig cc;
  cc.port = listener.port();
  cc.shard_window = 1;  // ordered: per-shard arrival monotonicity holds
  cc.timeout_ms = 20000;
  CaseOutcome out;
  out.client = run_load(cc, stream);

  (void)listener.drain(5000);
  listener.stop();
  if (env != nullptr) out.faults = env->faults_injected();
  return out;
}

struct Case {
  std::string name;
  std::vector<io::FaultRule> rules;
  bool expect_transparent = false;  // contract 2: zero loss, zero errors
};

/// Staggered bounded bursts of a transient kind: `len` consecutive matching
/// ops fail, every `period` matches, across the whole run. A repeat=true
/// rule would be wrong here — it fails EVERY op forever (no storm ever
/// ends), which is an outage, not noise.
std::vector<io::FaultRule> storms(unsigned ops, io::FaultKind kind,
                                  std::uint64_t len, std::uint64_t period,
                                  std::uint64_t horizon) {
  std::vector<io::FaultRule> rules;
  for (std::uint64_t at = 0; at < horizon; at += period)
    rules.push_back({ops, "", at, kind, len, false});
  return rules;
}

std::vector<Case> build_cases(const NetChaosConfig& cfg,
                              std::uint64_t net_ops) {
  // Faulted runs issue more socket ops than the clean profile (every
  // EAGAIN'd read is retried as a fresh op), so storm schedules extend
  // well past the profiled count.
  const std::uint64_t horizon = net_ops * 4 + 512;
  std::vector<Case> cases;
  // Transient storms: every one of these must be absorbed (contract 2).
  cases.push_back({"eagain-storm",
                   storms(io::kOpNetRead | io::kOpNetWrite,
                          io::FaultKind::kEagain, 3, 16, horizon),
                   true});
  cases.push_back(
      {"eintr-storm",
       storms(io::kOpNetRead | io::kOpNetWrite | io::kOpNetAccept,
              io::FaultKind::kEintr, 2, 16, horizon),
       true});
  cases.push_back({"short-send",
                   {{io::kOpNetWrite, "", 0, io::FaultKind::kShortWrite, 7,
                     true}},
                   true});
  cases.push_back({"latency",
                   {{io::kOpNetRead | io::kOpNetWrite, "", 0,
                     io::FaultKind::kLatency, 200, true}},
                   true});
  // Hard EIOs at sampled points: clean degradation only (contracts 1 + 3).
  const std::size_t points = std::max<std::size_t>(cfg.eio_points, 1);
  for (std::size_t i = 0; i < points; ++i) {
    const std::uint64_t after =
        net_ops == 0 ? i : (net_ops * i) / points;
    cases.push_back({"eio@" + std::to_string(after),
                     {{io::kOpNetRead | io::kOpNetWrite, "", after,
                       io::FaultKind::kEio, 0, false}},
                     false});
  }
  return cases;
}

}  // namespace

NetChaosReport run_net_chaos(const NetChaosConfig& cfg) {
  if (cfg.dir.empty()) throw std::invalid_argument("net chaos: empty dir");
  if (cfg.seeds.empty()) throw std::invalid_argument("net chaos: no seeds");
  if (!cfg.make_algo) throw std::invalid_argument("net chaos: no algorithm");

  NetChaosReport report;
  for (const std::uint64_t seed : cfg.seeds) {
    const std::vector<serve::ServeRequest> stream = make_stream(cfg, seed);
    const std::string dir = cfg.dir + "/net-seed-" + std::to_string(seed);

    // Fault-free profile: total socket-op count scales the EIO sample grid,
    // and the baseline itself must of course be clean.
    io::FaultInjectingEnv profile_env(io::Env::posix());
    const CaseOutcome base = run_case(cfg, stream, dir, &profile_env);
    ++report.cases;
    if (base.client.lost != 0 || base.client.errored != 0 ||
        base.client.resolved() != stream.size()) {
      report.failures.push_back(
          {seed, "baseline",
           "fault-free run incomplete: applied=" +
               std::to_string(base.client.applied) + " lost=" +
               std::to_string(base.client.lost) + " of " +
               std::to_string(stream.size())});
      continue;
    }
    const std::uint64_t net_ops = profile_env.ops_seen();

    for (const Case& c : build_cases(cfg, net_ops)) {
      io::FaultInjectingEnv env(io::Env::posix());
      for (const io::FaultRule& r : c.rules) env.add_rule(r);
      const CaseOutcome oc = run_case(cfg, stream, dir, &env);
      ++report.cases;
      if (oc.faults > 0) ++report.faulted;

      const std::string loss = check_acks_in_wal(
          dir, cfg.shards, stream, oc.client.applied_ids);
      if (!loss.empty()) {
        report.failures.push_back({seed, c.name, loss});
        continue;
      }
      if (oc.client.timed_out) {
        report.failures.push_back(
            {seed, c.name, "client timed out (server hang under fault)"});
        continue;
      }
      if (c.expect_transparent) {
        if (oc.client.lost != 0 || oc.client.errored != 0 ||
            oc.client.applied + oc.client.skipped != stream.size()) {
          report.failures.push_back(
              {seed, c.name,
               "transient fault was not absorbed: applied=" +
                   std::to_string(oc.client.applied) + " skipped=" +
                   std::to_string(oc.client.skipped) + " errored=" +
                   std::to_string(oc.client.errored) + " lost=" +
                   std::to_string(oc.client.lost) + " of " +
                   std::to_string(stream.size())});
          continue;
        }
        ++report.transparent;
      } else {
        // Hard fault: loss is allowed, but everything the client still
        // resolved must add up — no offer may vanish unaccounted.
        if (oc.client.resolved() + oc.client.lost != stream.size()) {
          report.failures.push_back(
              {seed, c.name,
               "accounting hole: resolved=" +
                   std::to_string(oc.client.resolved()) + " lost=" +
                   std::to_string(oc.client.lost) + " of " +
                   std::to_string(stream.size())});
          continue;
        }
      }
    }
  }
  return report;
}

std::string check_acks_in_wal(const std::string& wal_dir, std::size_t shards,
                              const std::vector<serve::ServeRequest>& stream,
                              const std::vector<std::uint64_t>& applied_ids) {
  if (shards == 0) throw std::invalid_argument("check_acks_in_wal: 0 shards");
  std::unordered_map<std::uint64_t, const std::string*> tenant_of;
  tenant_of.reserve(stream.size());
  for (const serve::ServeRequest& req : stream)
    tenant_of.emplace(req.stream_index, &req.tenant);
  // Acks not yet seen in their shard's log, keyed by stream index.
  std::unordered_map<std::uint64_t, const std::string*> missing;
  missing.reserve(applied_ids.size());
  for (const std::uint64_t id : applied_ids) {
    const auto it = tenant_of.find(id);
    if (it == tenant_of.end())
      return "client holds ack for stream index " + std::to_string(id) +
             ", which the stream never offered";
    missing.emplace(id, it->second);
  }
  for (std::size_t shard = 0; shard < shards && !missing.empty(); ++shard) {
    const std::string base =
        wal_dir + "/shard-" + std::to_string(shard) + ".wal";
    serve::stream_segmented_wal(
        base, serve::validate_segmented_wal(base), 0,
        [&](const serve::WalRecord& rec) {
          const auto it = missing.find(rec.stream_index);
          if (it != missing.end() && *it->second == rec.tenant &&
              serve::tenant_hash(rec.tenant) % shards == shard)
            missing.erase(it);
        });
  }
  if (missing.empty()) return {};
  std::uint64_t first = missing.begin()->first;
  for (const auto& [id, tenant] : missing) first = std::min(first, id);
  return "client holds ack for stream index " + std::to_string(first) +
         " (tenant " + *missing.at(first) +
         ") but its shard's WAL has no such record";
}

}  // namespace cdbp::net
