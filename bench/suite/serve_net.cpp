// serve-net: `cdbp serve --listen` (a separate process) under open- and
// closed-loop load from one generator thread with one connection per shard.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "child.h"
#include "cli/cli.h"
#include "core/session.h"
#include "loadgen.h"
#include "net/protocol.h"
#include "serve/durable_session.h"
#include "serve/group_commit.h"
#include "serve/shard_router.h"
#include "serve/wal_segment.h"
#include "stats.h"
#include "workloads.h"

namespace cdbp::bench_suite {

namespace fs = std::filesystem;

std::vector<std::string> serve_listen_argv(const std::string& cdbp,
                                           const std::string& wal_dir,
                                           bool resume) {
  std::vector<std::string> argv = {
      cdbp,       "serve",    "--listen", "127.0.0.1:0", "--algo", "ha",
      "--mu-hint", "256",     "--shards", std::to_string(kServeShards),
      "--fsync",  "every",    "--wal-dir", wal_dir};
  if (resume) argv.push_back("--resume");
  return argv;
}

std::uint16_t await_listening(Server& server, std::uint64_t timeout_ms) {
  const auto line = server.wait_for_line("listening on ", timeout_ms);
  if (!line) throw std::runtime_error("cdbp serve did not start listening");
  const std::size_t colon = line->rfind(':');
  const int port = colon == std::string::npos ? 0 : std::atoi(line->c_str() + colon + 1);
  if (port <= 0 || port > 65535) throw std::runtime_error("bad listen line: " + *line);
  return static_cast<std::uint16_t>(port);
}

std::vector<std::string> shard_pinned_tenants(std::size_t shards) {
  std::vector<std::string> out(shards);
  std::size_t found = 0;
  for (std::uint64_t probe = 0; found < shards; ++probe) {
    std::string name = "bench-" + std::to_string(probe);
    const std::size_t s = static_cast<std::size_t>(serve::tenant_hash(name) % shards);
    if (out[s].empty()) {
      out[s] = std::move(name);
      ++found;
    }
  }
  return out;
}

namespace {

constexpr double kLowRate = 25'000.0;
constexpr double kHighRate = 150'000.0;
constexpr std::size_t kSatWindow = 256;  ///< in flight per connection
constexpr int kProbes = 5;
constexpr double kSustainedP99Us = 2000.0;
constexpr double kMuHint = 256.0;
constexpr std::uint64_t kSegmentBytes = 8u << 20;  ///< CLI default
/// A generator further behind its schedule than this invalidates a run.
constexpr double kMaxLateUs = 100'000.0;

AlgorithmPtr make_ha() { return cli::make_algorithm("ha", kMuHint); }

double p_us(std::vector<std::uint64_t> ns, double p) {
  return percentile(std::move(ns), p) / 1e3;
}

/// The sustained-rate rule: p99 within 2 ms and no growing backlog.
bool meets_rule(const PhaseStats& ps) {
  return ps.failed == 0 && p_us(ps.latency_ns, 99) <= kSustainedP99Us &&
         backlog_ok(ps.offered_second_half, ps.acked_second_half);
}

std::string phase_json(const PhaseStats& ps) {
  std::vector<std::uint64_t> late = ps.late_ns;
  std::sort(late.begin(), late.end());
  return "{\"name\":" + json_string(ps.name) + ",\"rate\":" + json_number(ps.rate) +
         ",\"seconds\":" + json_number(ps.seconds) +
         ",\"sent\":" + std::to_string(ps.sent) + ",\"acked\":" + std::to_string(ps.acked) +
         ",\"failed\":" + std::to_string(ps.failed) + ",\"wall_s\":" + json_number(ps.wall_s) +
         ",\"ack_rate\":" + json_number(ps.wall_s > 0 ? static_cast<double>(ps.acked) / ps.wall_s : 0) +
         ",\"latency\":" + latency_json(ps.latency_ns) +
         ",\"late_p99_us\":" + json_number(percentile_sorted(late, 99) / 1e3) +
         ",\"late_max_us\":" + json_number(percentile_sorted(late, 100) / 1e3) +
         ",\"inflight_max\":" + std::to_string(ps.inflight_max) +
         ",\"offered_second_half\":" + std::to_string(ps.offered_second_half) +
         ",\"acked_second_half\":" + std::to_string(ps.acked_second_half) +
         ",\"meets_sustained_rule\":" + (ps.rate > 0 && meets_rule(ps) ? "true" : "false") + "}";
}

/// Per-shard replay of what the generator sent, checked against the
/// server's WAL and recomputed with InteractiveSession + HA.
struct ShardReplay {
  bool log_ok = false;
  std::string log_error;
  Cost cost = 0.0;
  std::vector<std::uint32_t> offer_ns;  ///< per session offer (traced)
};

ShardReplay replay_shard(const std::string& wal_dir, std::size_t shard,
                         const std::string& tenant, std::uint64_t seed,
                         const LoadGen& gen, bool timed) {
  ShardReplay out;
  const std::uint64_t n = gen.sent(shard);
  const serve::SegmentedWalScan scan = serve::scan_segmented_wal(
      wal_dir + "/shard-" + std::to_string(shard) + ".wal");
  out.log_ok = scan.records.size() == n && !scan.torn;
  if (!out.log_ok)
    out.log_error = "shard " + std::to_string(shard) + ": " +
                    std::to_string(scan.records.size()) + " records for " +
                    std::to_string(n) + " offers";
  OfferSequence seq(seed, shard);
  const AlgorithmPtr algo = make_ha();
  InteractiveSession session(*algo);
  if (timed) out.offer_ns.reserve(n);
  for (std::uint64_t id = 1; id <= n; ++id) {
    const GenOffer o = seq.next();
    if (out.log_ok) {
      const serve::WalRecord& rec = scan.records[id - 1];
      const bool same = gen.applied(shard, id) && rec.stream_index == id &&
                        rec.tenant == tenant && same_bits(rec.arrival, o.arrival) &&
                        same_bits(rec.departure, o.departure) && same_bits(rec.size, o.size);
      if (!same) {
        out.log_ok = false;
        out.log_error = "shard " + std::to_string(shard) + ": offer " +
                        std::to_string(id) + " not acked or not logged as sent";
      }
    }
    const std::uint64_t t0 = now_ns();
    session.offer(o.arrival, o.departure, o.size);
    if (timed) out.offer_ns.push_back(static_cast<std::uint32_t>(now_ns() - t0));
  }
  out.cost = session.finish();
  return out;
}

/// Parses `cdbp recover` output: per-shard records and the total cost.
bool parse_recover(const std::string& text, std::vector<std::uint64_t>& records,
                   double& total) {
  std::istringstream in(text);
  std::string line;
  bool have_total = false;
  while (std::getline(in, line)) {
    if (line.rfind("shard ", 0) == 0) {
      const std::size_t at = line.find("records=");
      if (at != std::string::npos)
        records.push_back(std::strtoull(line.c_str() + at + 8, nullptr, 10));
    } else if (line.rfind("total cost=", 0) == 0) {
      total = std::strtod(line.c_str() + 11, nullptr);
      have_total = true;
    }
  }
  return have_total;
}

// ---- in-process layer replays (traced runs) --------------------------------

struct RouterReplay {
  std::vector<std::uint64_t> submit_ns;
  std::vector<std::uint64_t> ack_low_ns, ack_high_ns;
  std::uint64_t failed = 0;
};

void wait_until(std::uint64_t due) {
  for (std::uint64_t now = now_ns(); now < due; now = now_ns()) {
    if (due - now > 60'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - 40'000));
    else
      std::this_thread::yield();
  }
}

/// ShardRouter as `cdbp serve` assembles it (fsync=every, 4 shards, CLI
/// defaults), fed in-process on the same open-loop schedules as the low
/// and high phases.
RouterReplay replay_router(const std::string& dir, const std::vector<std::string>& tenants,
                           std::uint64_t seed, double seconds, SpanLog& spans) {
  RouterReplay out;
  serve::RouterConfig rc;
  rc.wal_dir = dir;
  rc.shards = kServeShards;
  rc.fsync = serve::FsyncPolicy::kEvery;
  rc.wal_segment_bytes = kSegmentBytes;
  const auto per_shard = static_cast<std::size_t>((kLowRate + kHighRate) * seconds) /
                             kServeShards + 16;
  std::vector<std::vector<std::uint64_t>> intended(kServeShards), acked(kServeShards);
  for (std::size_t s = 0; s < kServeShards; ++s) {
    intended[s].assign(per_shard, 0);
    acked[s].assign(per_shard, 0);
  }
  std::atomic<std::uint64_t> resolved{0};
  std::atomic<std::uint64_t> failed{0};
  serve::ShardRouter router(rc, make_ha, "ha");
  // Each shard's worker writes only its own shard's slots; stop() joins
  // the workers before they are read.
  router.set_on_ack([&](const serve::ServeResult& res, serve::AckKind kind) {
    if (kind == serve::AckKind::kApplied && res.stream_index - 1 < per_shard)
      acked[res.shard][res.stream_index - 1] = now_ns();
    else
      failed.fetch_add(1, std::memory_order_relaxed);
    resolved.fetch_add(1, std::memory_order_release);
  });
  std::vector<OfferSequence> seqs;
  for (std::size_t s = 0; s < kServeShards; ++s) seqs.emplace_back(seed, s);
  std::vector<std::uint64_t> next_id(kServeShards, 0);
  std::uint64_t submitted = 0;
  const auto phase = [&](double rate) {
    const ScopedSpan span(spans, rate == kLowRate ? "router.low" : "router.high");
    const auto total = static_cast<std::uint64_t>(rate * seconds);
    const double period = 1e9 / rate;
    const std::uint64_t t0 = now_ns() + 100'000;
    std::vector<std::pair<std::size_t, std::uint64_t>> sent;
    sent.reserve(total);
    for (std::uint64_t i = 0; i < total; ++i) {
      const std::uint64_t due = t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period);
      wait_until(due);
      const std::size_t s = i % kServeShards;
      const GenOffer o = seqs[s].next();
      const std::uint64_t id = ++next_id[s];
      if (id > per_shard) break;
      intended[s][id - 1] = due;
      serve::ServeRequest req{tenants[s], id, o.arrival, o.departure, o.size, 0};
      const std::uint64_t b = now_ns();
      if (!router.submit(std::move(req))) failed.fetch_add(1, std::memory_order_relaxed);
      out.submit_ns.push_back(now_ns() - b);
      sent.emplace_back(s, id);
      ++submitted;
    }
    const std::uint64_t deadline = now_ns() + 30'000'000'000ULL;
    while (resolved.load(std::memory_order_acquire) < submitted && now_ns() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return sent;
  };
  const auto low = phase(kLowRate);
  const auto high = phase(kHighRate);
  router.stop();
  const auto collect = [&](const auto& sent, std::vector<std::uint64_t>& lat) {
    for (const auto& [s, id] : sent)
      if (acked[s][id - 1] != 0) lat.push_back(acked[s][id - 1] - intended[s][id - 1]);
  };
  collect(low, out.ack_low_ns);
  collect(high, out.ack_high_ns);
  out.failed = failed.load() + (submitted - resolved.load());
  return out;
}

/// DurableSession::offer_deferred alone: apply + WAL append, fsync=every,
/// committed (untimed) every 64 offers.
std::vector<std::uint64_t> replay_durable_offers(const std::string& dir,
                                                 const std::string& tenant,
                                                 std::uint64_t seed, std::uint64_t n) {
  serve::DurableSessionConfig sc;
  sc.wal_path = dir + "/durable.wal";
  sc.checkpoint_path = dir + "/durable.ckpt";
  sc.fsync = serve::FsyncPolicy::kEvery;
  sc.wal_segment_bytes = kSegmentBytes;
  serve::DurableSession session(make_ha(), "ha", sc);
  OfferSequence seq(seed, 0);
  std::vector<std::uint64_t> ns;
  ns.reserve(n);
  for (std::uint64_t id = 1; id <= n; ++id) {
    const GenOffer o = seq.next();
    const std::uint64_t t0 = now_ns();
    session.offer_deferred(o.arrival, o.departure, o.size, id, tenant);
    ns.push_back(now_ns() - t0);
    if (id % 64 == 0) session.commit();
  }
  session.commit();
  session.close();
  return ns;
}

struct CommitReplay {
  std::vector<std::uint64_t> commit_ns;
  std::uint64_t offers = 0;
  std::uint64_t syncs = 0;
  std::uint64_t rounds = 0;
  std::string error;
};

/// Four threads, each owning a DurableSession (fsync=every) on one shared
/// GroupCommitCoordinator, committing after every offer.
CommitReplay replay_group_commit(const std::string& dir,
                                 const std::vector<std::string>& tenants,
                                 std::uint64_t seed, double seconds) {
  CommitReplay out;
  serve::GroupCommitCoordinator coord;  // outlives the sessions below
  std::vector<std::unique_ptr<serve::DurableSession>> sessions;
  for (std::size_t i = 0; i < kServeShards; ++i) {
    serve::DurableSessionConfig sc;
    sc.wal_path = dir + "/gc-" + std::to_string(i) + ".wal";
    sc.checkpoint_path = dir + "/gc-" + std::to_string(i) + ".ckpt";
    sc.fsync = serve::FsyncPolicy::kEvery;
    sc.wal_segment_bytes = kSegmentBytes;
    sc.group_commit = &coord;
    sessions.push_back(std::make_unique<serve::DurableSession>(make_ha(), "ha", sc));
  }
  std::vector<std::vector<std::uint64_t>> per_thread(kServeShards);
  std::vector<std::string> errors(kServeShards);
  const std::uint64_t deadline = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kServeShards; ++i)
      threads.emplace_back([&, i] {
        try {
          OfferSequence seq(seed, i);
          for (std::uint64_t id = 1; now_ns() < deadline; ++id) {
            const GenOffer o = seq.next();
            sessions[i]->offer_deferred(o.arrival, o.departure, o.size, id, tenants[i]);
            const std::uint64_t t0 = now_ns();
            sessions[i]->commit();
            per_thread[i].push_back(now_ns() - t0);
          }
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 0; i < kServeShards; ++i) {
    sessions[i]->close();
    out.offers += per_thread[i].size();
    out.commit_ns.insert(out.commit_ns.end(), per_thread[i].begin(), per_thread[i].end());
    if (!errors[i].empty()) out.error = errors[i];
  }
  out.syncs = coord.syncs();
  out.rounds = coord.rounds();
  return out;
}

/// Client and server codec work for one offer/ack round trip.
double codec_ns_per_offer(std::uint64_t seed, std::uint64_t n) {
  OfferSequence seq(seed, 0);
  std::vector<GenOffer> offers(n);
  for (GenOffer& o : offers) o = seq.next();
  net::FrameDecoder req_dec, resp_dec;
  std::string buf, payload, why;
  std::uint64_t checksum = 0;
  const std::uint64_t t0 = now_ns();
  for (std::uint64_t id = 1; id <= n; ++id) {
    net::Request req;
    req.type = net::MsgType::kOffer;
    req.id = id;
    req.arrival = offers[id - 1].arrival;
    req.departure = offers[id - 1].departure;
    req.size = offers[id - 1].size;
    buf.clear();
    net::encode_request(req, buf);
    req_dec.feed(buf.data(), buf.size());
    if (req_dec.next(payload) != net::DecodeStatus::kFrame) throw std::runtime_error("codec: request frame");
    const auto parsed = net::parse_request(payload, why);
    if (!parsed) throw std::runtime_error("codec: " + why);
    net::Response ack;
    ack.type = net::MsgType::kAck;
    ack.id = parsed->id;
    ack.seq = id;
    ack.bin = static_cast<std::int64_t>(id % 97);
    buf.clear();
    net::encode_response(ack, buf);
    resp_dec.feed(buf.data(), buf.size());
    if (resp_dec.next(payload) != net::DecodeStatus::kFrame) throw std::runtime_error("codec: response frame");
    const auto back = net::parse_response(payload, why);
    if (!back) throw std::runtime_error("codec: " + why);
    checksum += back->id;
  }
  const std::uint64_t t1 = now_ns();
  if (checksum != n * (n + 1) / 2) throw std::runtime_error("codec: ids did not round-trip");
  return static_cast<double>(t1 - t0) / static_cast<double>(n);
}

}  // namespace

Result run_serve_net(const RunConfig& cfg, SpanLog& spans) {
  Result r;
  r.workload = "serve-net";
  const double S = cfg.seconds;
  const std::string wal_dir = cfg.work_dir + "/serve-net-wal";
  const std::vector<std::string> tenants = shard_pinned_tenants(kServeShards);
  std::vector<std::uint64_t> expected(kServeShards);
  for (std::size_t i = 0; i < kServeShards; ++i) expected[i] = i;

  // Set-up: exec the server and open the generator's connections, HELLO
  // acked on each. It takes milliseconds and varies with process start-up,
  // so it is repeated often enough for a steady median.
  std::unique_ptr<Server> server;
  std::unique_ptr<LoadGen> gen;
  const auto teardown = [&] {
    gen.reset();
    if (server) server->stop(SIGKILL);
    server.reset();
    fs::remove_all(wal_dir);
  };
  const double setup_s = median_setup_seconds(
      31,
      [&] {
        server = std::make_unique<Server>(serve_listen_argv(cfg.cdbp, wal_dir, false),
                                          cfg.work_dir + "/serve-net.stderr");
        const std::uint16_t port = await_listening(*server, 30000);
        gen = std::make_unique<LoadGen>(port, tenants, cfg.seed, spans, expected);
      },
      teardown, spans);

  // Load phases, in order. A traced run splits `low` into an untraced and
  // a traced half; their p50 ratio is the tracing overhead.
  std::vector<PhaseStats> phases;
  const auto open = [&](const std::string& name, double rate, double secs, bool trace) {
    phases.push_back(gen->open_loop(name, rate, secs, trace));
    return phases.size() - 1;
  };
  open("warmup", kLowRate, 0.05 * S, false);
  std::vector<std::size_t> low_idx;
  if (cfg.traced) {
    low_idx = {open("low", kLowRate, 0.125 * S, false),
               open("low-traced", kLowRate, 0.125 * S, true)};
  } else {
    low_idx = {open("low", kLowRate, 0.25 * S, false)};
  }
  const std::size_t high_idx = open("high", kHighRate, 0.15 * S, cfg.traced);
  // The phases so far offer a fixed count, so the server's memory high-water
  // mark here depends on the code, not on how fast this machine ran it.
  const double server_rss_mib = server->peak_rss_mib();
  std::vector<double> sat_rates;
  const std::uint64_t sat_offers = cfg.quick ? 20'000 : 100'000;
  for (const std::uint64_t t0 = now_ns();
       !gen->broken() && (sat_rates.size() < 3 || seconds_since(t0) < 0.25 * S);) {
    phases.push_back(gen->closed_loop("sat", kSatWindow, sat_offers, cfg.traced));
    const PhaseStats& ps = phases.back();
    sat_rates.push_back(ps.wall_s > 0 ? static_cast<double>(ps.acked) / ps.wall_s : 0.0);
  }
  const double sat_rate = median(sat_rates);
  const BisectResult bisect = bisect_max_rate(
      kLowRate, std::max(sat_rate, kLowRate), kProbes, [&](double rate) {
        return meets_rule(phases[open("probe", rate, 0.06 * S, cfg.traced)]);
      });
  bool low_ok = true;
  for (const std::size_t i : low_idx) low_ok = low_ok && meets_rule(phases[i]);
  const double sustained = std::max(bisect.best, low_ok ? kLowRate : 0.0);
  const bool gen_broken = gen->broken();
  const std::string gen_error = gen->error();

  // Kill -9 after the last ack: every acked offer was fsynced before its
  // ack, so recovery must find all of them.
  const ExitInfo server_exit = server->stop(SIGKILL);

  std::vector<std::uint64_t> low_lat, late;
  std::uint64_t open_inflight_max = 0;
  for (const PhaseStats& ps : phases) {
    r.attempted += ps.sent;
    r.failed += ps.failed;
    if (ps.rate > 0) {
      late.insert(late.end(), ps.late_ns.begin(), ps.late_ns.end());
      open_inflight_max = std::max(open_inflight_max, ps.inflight_max);
    }
  }
  for (const std::size_t i : low_idx)
    low_lat.insert(low_lat.end(), phases[i].latency_ns.begin(), phases[i].latency_ns.end());
  std::sort(late.begin(), late.end());
  const double late_max_us = percentile_sorted(late, 100) / 1e3;
  if (gen_broken) r.check("load generator completed every phase", false, gen_error);
  // Open-loop latencies are charged from the schedule; a generator that
  // lagged it by more than this did not offer the load the phase names.
  r.check("generator kept its schedule", late_max_us <= kMaxLateUs,
          "max lateness " + json_number(late_max_us) + " us");

  // Oracles: `cdbp recover` agrees with what was acked, and with an
  // in-process InteractiveSession + HA replay of each shard's stream; the
  // WAL holds every acked offer, in order, exactly as sent.
  const CommandResult rec = run_command(
      {cfg.cdbp, "recover", "--algo", "ha", "--mu-hint", "256", "--wal-dir", wal_dir,
       "--shards", std::to_string(kServeShards)},
      cfg.work_dir, 120'000);
  std::vector<std::uint64_t> rec_records;
  double rec_total = 0.0;
  const bool rec_ok = rec.exit.exited && rec.exit.code == 0 &&
                      parse_recover(rec.out, rec_records, rec_total) &&
                      rec_records.size() == kServeShards;
  std::vector<ShardReplay> replays(kServeShards);
  {
    std::vector<std::thread> threads;
    for (std::size_t s = 0; s < kServeShards; ++s)
      threads.emplace_back([&, s] {
        try {
          replays[s] = replay_shard(wal_dir, s, tenants[s], cfg.seed, *gen, cfg.traced);
        } catch (const std::exception& e) {
          replays[s].log_ok = false;
          replays[s].log_error = e.what();
        }
      });
    for (std::thread& t : threads) t.join();
  }
  std::uint64_t acked = 0;
  Cost replay_total = 0.0;
  bool log_ok = true;
  std::string log_error;
  bool counts_ok = rec_ok;
  for (std::size_t s = 0; s < kServeShards; ++s) {
    std::uint64_t shard_acked = 0;
    for (std::uint64_t id = 1; id <= gen->sent(s); ++id)
      if (gen->applied(s, id)) ++shard_acked;
    acked += shard_acked;
    replay_total += replays[s].cost;
    counts_ok = counts_ok && rec_records[s] == shard_acked;
    if (!replays[s].log_ok) {
      log_ok = false;
      log_error = replays[s].log_error;
    }
  }
  r.check("recover record count equals acked offers", counts_ok,
          rec_ok ? std::to_string(acked) + " acked" : "recover failed: " + rec.err);
  r.check("recover total cost equals in-process session replay",
          rec_ok && same_bits(rec_total, replay_total),
          cost_str(rec_total) + " vs " + cost_str(replay_total));
  r.check("every acked offer is in the log as sent", log_ok,
          log_ok ? std::to_string(acked) + " offers" : log_error);

  std::string phase_list;
  for (const PhaseStats& ps : phases) phase_list += (phase_list.empty() ? "" : ",") + phase_json(ps);
  std::string probes;
  for (const auto& [rate, ok] : bisect.probes)
    probes += (probes.empty() ? "" : ",") + std::string("{\"rate\":") + json_number(rate) +
              ",\"pass\":" + (ok ? "true" : "false") + "}";
  r.detail("phases", "[" + phase_list + "]");
  r.detail("probes", "[" + probes + "]");
  r.detail("sat_rates", json_array(sat_rates));
  r.detail("sustained_offers_per_s", json_number(sustained));
  r.detail("server_exit", std::to_string(server_exit.code));
  r.detail("server_peak_rss_mib_at_exit", json_number(server_exit.peak_rss_mib));

  const double ack_p50_low_us = p_us(low_lat, 50);
  report_speed(r, cfg.traced, sat_rate, ack_p50_low_us / 1e3);
  if (!cfg.traced) {
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", server_rss_mib, "MiB");
    gen.reset();
    fs::remove_all(wal_dir);
    return r;
  }

  // Traced: per-layer numbers from the run above and in-process replays.
  std::vector<std::uint32_t> offer_ns;
  for (const ShardReplay& sr : replays)
    offer_ns.insert(offer_ns.end(), sr.offer_ns.begin(), sr.offer_ns.end());
  const GenCounters counters = gen->counters();
  const double wal_bytes = static_cast<double>(wal_segment_bytes(wal_dir));
  gen.reset();
  fs::remove_all(wal_dir);

  const std::string replay_dir = cfg.work_dir + "/serve-net-replay";
  const double layer_secs = cfg.quick ? 0.3 : 0.1 * S;
  fs::create_directories(replay_dir);
  RouterReplay router;
  {
    const ScopedSpan span(spans, "replay.router");
    router = replay_router(replay_dir + "/router", tenants, cfg.seed, layer_secs, spans);
  }
  std::vector<std::uint64_t> durable;
  {
    const ScopedSpan span(spans, "replay.durable_session");
    durable = replay_durable_offers(replay_dir, tenants[0], cfg.seed, cfg.quick ? 20'000 : 100'000);
  }
  CommitReplay commit;
  {
    const ScopedSpan span(spans, "replay.group_commit");
    commit = replay_group_commit(replay_dir, tenants, cfg.seed, layer_secs);
  }
  double codec_ns = 0.0;
  {
    const ScopedSpan span(spans, "replay.codec");
    codec_ns = codec_ns_per_offer(cfg.seed, cfg.quick ? 20'000 : 200'000);
  }
  fs::remove_all(replay_dir);
  r.check("in-process replays completed", router.failed == 0 && commit.error.empty(),
          commit.error.empty() ? std::to_string(router.failed) + " router failures" : commit.error);

  const double router_low_p50_us = p_us(router.ack_low_ns, 50);
  const auto offers = static_cast<double>(std::max<std::uint64_t>(counters.offers, 1));
  r.metric("core.session_offer_ns_p50", percentile(offer_ns, 50), "ns");
  r.metric("serve.durable_offer_ns_p50", percentile(durable, 50), "ns");
  r.metric("serve.commit_us_p50", p_us(commit.commit_ns, 50), "us");
  r.metric("serve.commit_us_p99", p_us(commit.commit_ns, 99), "us");
  r.metric("serve.fsyncs_per_offer",
           static_cast<double>(commit.syncs) / static_cast<double>(std::max<std::uint64_t>(commit.offers, 1)),
           "1/offer");
  r.metric("serve.commit_rounds", static_cast<double>(commit.rounds), "count");
  r.metric("serve.wal_bytes_per_offer", wal_bytes / static_cast<double>(std::max<std::uint64_t>(acked, 1)),
           "B/offer");
  r.metric("serve.router_submit_ns_p50", percentile(router.submit_ns, 50), "ns");
  r.metric("serve.router_submit_ns_p99", percentile(router.submit_ns, 99), "ns");
  r.metric("serve.router_ack_us_p50_low", router_low_p50_us, "us");
  r.metric("serve.router_ack_us_p99_low", p_us(router.ack_low_ns, 99), "us");
  r.metric("serve.router_ack_us_p50_high", p_us(router.ack_high_ns, 50), "us");
  r.metric("serve.router_ack_us_p99_high", p_us(router.ack_high_ns, 99), "us");
  r.metric("net.overhead_us_p50_low", ack_p50_low_us - router_low_p50_us, "us");
  r.metric("net.codec_ns_per_offer", codec_ns, "ns");
  r.metric("net.client_bytes_per_offer",
           static_cast<double>(counters.bytes_out + counters.bytes_in) / offers, "B/offer");
  r.metric("net.client_syscalls_per_offer", static_cast<double>(counters.syscalls) / offers,
           "1/offer");
  r.metric("gen.late_us_p99", percentile_sorted(late, 99) / 1e3, "us");
  r.metric("gen.inflight_max", static_cast<double>(open_inflight_max), "count");
  r.metric("e2e.ack_p99_us_low", p_us(low_lat, 99), "us");
  r.metric("e2e.ack_p50_us_high", p_us(phases[high_idx].latency_ns, 50), "us");
  r.metric("e2e.ack_p99_us_high", p_us(phases[high_idx].latency_ns, 99), "us");
  r.metric("e2e.sustained_offers_per_s", sustained, "offers/s");
  r.metric("trace.overhead_pct",
           (p_us(phases[low_idx[1]].latency_ns, 50) / p_us(phases[low_idx[0]].latency_ns, 50) - 1.0) *
               100.0,
           "%");
  return r;
}

}  // namespace cdbp::bench_suite
