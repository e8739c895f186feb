#include "chaos/chaos_matrix.h"

#include <filesystem>
#include <random>
#include <stdexcept>
#include <utility>

#include "chaos/fault_env.h"
#include "serve/durable_session.h"
#include "workloads/general_random.h"

namespace cdbp::serve {

namespace {

namespace fs = std::filesystem;

/// Reference outcome of the unfaulted run: the oracle every cell compares
/// against. Bit-exact comparison is sound because every algorithm in the
/// repo is deterministic and the codecs round-trip doubles bit-exactly.
struct Reference {
  std::vector<BinId> bins;
  Cost cost = 0.0;
};

Instance make_workload(const ChaosConfig& cfg, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  workloads::GeneralConfig wc;
  wc.target_items = static_cast<int>(cfg.offers);
  wc.log2_mu = 5;
  wc.horizon = 64.0;
  Instance instance = workloads::make_general_random(wc, rng);
  if (instance.size() > cfg.offers) {
    std::vector<Item> items(instance.items().begin(),
                            instance.items().begin() +
                                static_cast<std::ptrdiff_t>(cfg.offers));
    instance = Instance(std::move(items));
  }
  return instance;
}

DurableSessionConfig session_config(const ChaosConfig& cfg,
                                    const std::string& dir, bool resume,
                                    io::Env* env) {
  DurableSessionConfig sc;
  sc.wal_path = dir + "/chaos.wal";
  sc.checkpoint_path = dir + "/chaos.ckpt";
  // kEvery is the policy the matrix is about: ack == durable, so "every
  // acked offer survives power loss" is checkable without slack.
  sc.fsync = FsyncPolicy::kEvery;
  sc.checkpoint_every = cfg.checkpoint_every;
  sc.wal_segment_bytes = cfg.wal_segment_bytes;
  sc.resume = resume;
  sc.env = env;
  return sc;
}

void reset_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

Reference run_reference(const ChaosConfig& cfg, const Instance& instance,
                        const std::string& dir) {
  reset_dir(dir);
  Reference ref;
  DurableSession s(cfg.make_algo(), cfg.algo_name,
                   session_config(cfg, dir, /*resume=*/false, nullptr));
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const Item& it = instance[i];
    ref.bins.push_back(s.offer(it.arrival, it.departure, it.size, i + 1));
  }
  ref.cost = s.finish();
  s.close();
  return ref;
}

/// Fault-free profiling run: yields the deterministic op stream the sweep
/// schedules faults against.
std::vector<io::OpRecord> profile_ops(const ChaosConfig& cfg,
                                      const Instance& instance,
                                      const std::string& dir) {
  reset_dir(dir);
  io::FaultInjectingEnv env(io::Env::posix());
  env.set_record_history(true);
  DurableSession s(cfg.make_algo(), cfg.algo_name,
                   session_config(cfg, dir, /*resume=*/false, &env));
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const Item& it = instance[i];
    (void)s.offer(it.arrival, it.departure, it.size, i + 1);
  }
  (void)s.finish();
  s.close();
  return env.history();
}

/// A schedulable fault point: `ordinal` is the position within the stream
/// of ops matching the rule's mask (what FaultRule::after counts);
/// `op_index` is the global operation index (what reports name).
struct FaultPoint {
  std::uint64_t ordinal = 0;
  std::uint64_t op_index = 0;
};

/// Evenly thins `points` to at most `cap` entries (0 = keep all). Even
/// spread keeps coverage of every phase of the op stream — creation,
/// appends, rotation, checkpoint publish, compaction, close.
std::vector<FaultPoint> thin(std::vector<FaultPoint> points,
                             std::size_t cap) {
  if (cap == 0 || points.size() <= cap) return points;
  std::vector<FaultPoint> out;
  out.reserve(cap);
  const double stride =
      static_cast<double>(points.size()) / static_cast<double>(cap);
  for (std::size_t i = 0; i < cap; ++i)
    out.push_back(points[static_cast<std::size_t>(
        static_cast<double>(i) * stride)]);
  return out;
}

std::vector<FaultPoint> points_matching(const std::vector<io::OpRecord>& ops,
                                        unsigned mask, std::size_t cap) {
  std::vector<FaultPoint> points;
  for (const io::OpRecord& rec : ops)
    if ((static_cast<unsigned>(rec.op) & mask) != 0)
      points.push_back(FaultPoint{points.size(), rec.index});
  return thin(std::move(points), cap);
}

/// One matrix cell. Returns true on success; on violation fills `detail`.
bool run_case(const ChaosConfig& cfg, const Instance& instance,
              const Reference& ref, const std::string& dir,
              const io::FaultRule& rule, bool expect_transparent,
              ChaosReport& report, std::string& detail) {
  reset_dir(dir);
  io::FaultInjectingEnv env(io::Env::posix());
  env.add_rule(rule);

  std::size_t acked = 0;
  bool crashed = false;
  std::string crash_what;
  try {
    DurableSession s(cfg.make_algo(), cfg.algo_name,
                     session_config(cfg, dir, /*resume=*/false, &env));
    for (std::size_t i = 0; i < instance.size(); ++i) {
      const Item& it = instance[i];
      const BinId bin = s.offer(it.arrival, it.departure, it.size, i + 1);
      if (bin != ref.bins[i]) {
        detail = "acked placement diverged from reference at offer " +
                 std::to_string(i);
        return false;
      }
      ++acked;
    }
    const Cost cost = s.finish();
    s.close();
    if (cost != ref.cost) {
      detail = "completed run's cost diverged from reference";
      return false;
    }
  } catch (const std::exception& e) {
    crashed = true;
    crash_what = e.what();
  }
  if (env.faults_injected() > 0) ++report.faulted;
  if (expect_transparent) {
    if (crashed) {
      detail = "transient fault was not absorbed: " + crash_what;
      return false;
    }
    ++report.transparent;
    // fall through: even a transparent run must survive power loss below.
  }

  // Power loss at the crash point (or end of run), then recover from the
  // durable image with the fault gone — the disk was replaced, the machine
  // rebooted. Everything acked must still be there; continuing must land
  // on the reference outcome.
  env.clear_rules();
  env.clear_disk_budget();
  env.simulate_power_loss();
  try {
    DurableSession rec(cfg.make_algo(), cfg.algo_name,
                       session_config(cfg, dir, /*resume=*/true, &env));
    if (rec.seq() < acked) {
      detail = "acked offer lost: recovered seq " + std::to_string(rec.seq()) +
               " < acked " + std::to_string(acked);
      return false;
    }
    for (std::size_t i = 0; i < instance.size(); ++i) {
      if (i + 1 <= rec.last_stream_index()) continue;  // already applied
      const Item& it = instance[i];
      const BinId bin = rec.offer(it.arrival, it.departure, it.size, i + 1);
      if (bin != ref.bins[i]) {
        detail = "post-recovery placement diverged at offer " +
                 std::to_string(i);
        return false;
      }
    }
    const Cost cost = rec.finish();
    rec.close();
    if (cost != ref.cost) {
      detail = "post-recovery cost diverged from reference";
      return false;
    }
  } catch (const std::exception& e) {
    // Under fsync=every the durable image is always a valid crash state,
    // so recovery refusing here means a crash-consistency hole.
    detail = std::string("recovery failed: ") + e.what() +
             (crashed ? " (after crash: " + crash_what + ")" : "");
    return false;
  }
  if (crashed) ++report.recoveries;
  return true;
}

struct KindSpec {
  const char* name;
  io::FaultKind kind;
  unsigned ops;          ///< which op stream the sweep points come from
  std::uint64_t param;
  bool transparent;      ///< expected to be absorbed by the retry layer
};

}  // namespace

ChaosReport run_chaos_matrix(const ChaosConfig& config) {
  if (config.dir.empty())
    throw std::invalid_argument("chaos: dir must not be empty");
  if (config.seeds.empty())
    throw std::invalid_argument("chaos: at least one seed required");
  if (!config.make_algo)
    throw std::invalid_argument("chaos: null algorithm factory");
  if (config.offers == 0)
    throw std::invalid_argument("chaos: offers must be >= 1");

  // The matrix rows. Hard faults must crash-then-recover; transparent ones
  // must be invisible. EINTR storms deliberately exclude rename/unlink:
  // POSIX cannot return EINTR from them, and the serve plane treats any
  // error there as hard.
  const KindSpec kinds[] = {
      {"enospc", io::FaultKind::kEnospc, io::kOpWrite, 3, false},
      {"eio-write", io::FaultKind::kEio, io::kOpWrite, 0, false},
      {"sticky-fsync", io::FaultKind::kStickyFsync, io::kOpFsync, 0, false},
      {"eio-dirfsync", io::FaultKind::kEio, io::kOpDirFsync, 0, false},
      {"power-cut", io::FaultKind::kPowerCut, io::kOpAll, 0, false},
      {"eintr-storm", io::FaultKind::kEintr,
       io::kOpWrite | io::kOpFsync | io::kOpDirFsync | io::kOpRead, 4, true},
      {"latency", io::FaultKind::kLatency,
       io::kOpWrite | io::kOpFsync | io::kOpDirFsync, 200, true},
  };

  ChaosReport report;
  fs::create_directories(config.dir);
  for (const std::uint64_t seed : config.seeds) {
    const Instance instance = make_workload(config, seed);
    const std::string seed_dir =
        config.dir + "/seed-" + std::to_string(seed);
    const Reference ref = run_reference(config, instance, seed_dir + "-ref");
    const std::vector<io::OpRecord> ops =
        profile_ops(config, instance, seed_dir + "-profile");

    for (const KindSpec& spec : kinds) {
      const std::vector<FaultPoint> points =
          points_matching(ops, spec.ops, config.max_points_per_kind);
      for (const FaultPoint& point : points) {
        io::FaultRule rule;
        rule.ops = spec.ops;
        rule.after = point.ordinal;
        rule.kind = spec.kind;
        rule.param = spec.param;
        ++report.cases;
        std::string detail;
        if (!run_case(config, instance, ref, seed_dir + "-case", rule,
                      spec.transparent, report, detail))
          report.failures.push_back(
              ChaosFailure{seed, spec.name, point.op_index, detail});
      }
    }
  }
  return report;
}

}  // namespace cdbp::serve
