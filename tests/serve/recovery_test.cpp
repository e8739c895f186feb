// The tentpole acceptance suite: a DurableSession killed at a random cut
// point and recovered (checkpoint + WAL tail replay) must continue
// BIT-IDENTICALLY with the uninterrupted session — same remaining
// placements, same final MinUsageTime cost — for every checkpointable
// algorithm, on general and aligned inputs, across seeds.
#include "serve/durable_session.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "workloads/aligned_random.h"
#include "workloads/general_random.h"

namespace cdbp::serve {
namespace {

namespace fs = std::filesystem;

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdbp_recovery_test_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] DurableSessionConfig config(const std::string& tag,
                                            bool resume,
                                            std::uint64_t ckpt_every) const {
    DurableSessionConfig cfg;
    cfg.wal_path = (dir_ / (tag + ".wal")).string();
    cfg.checkpoint_path = (dir_ / (tag + ".ckpt")).string();
    cfg.fsync = FsyncPolicy::kNone;  // same-process test: durability moot
    cfg.checkpoint_every = ckpt_every;
    cfg.resume = resume;
    return cfg;
  }

  fs::path dir_;
};

Instance general_instance(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  workloads::GeneralConfig cfg;
  cfg.target_items = 110;
  cfg.log2_mu = 5;
  cfg.horizon = 64.0;
  return workloads::make_general_random(cfg, rng);
}

Instance aligned_instance(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  workloads::AlignedConfig cfg;
  cfg.n = 5;
  cfg.max_bucket = 5;
  return workloads::make_aligned_random(cfg, rng);
}

/// Reference run -> crash at `cut` -> recover -> continue; compare
/// everything. `checkpoint_every` = 7 exercises the checkpoint path as
/// soon as cut >= 7 and the tail-replay path below it.
void check_crash_recovery(const std::string& algo_name,
                          const Instance& instance, std::size_t cut,
                          const DurableSessionConfig& ref_cfg,
                          const DurableSessionConfig& crash_cfg,
                          const DurableSessionConfig& resume_cfg) {
  ASSERT_LT(cut, instance.size());

  std::vector<BinId> ref_bins;
  Cost ref_cost = 0.0;
  {
    DurableSession ref(cli::make_algorithm(algo_name), algo_name, ref_cfg);
    for (std::size_t i = 0; i < instance.size(); ++i) {
      const Item& it = instance[i];
      ref_bins.push_back(ref.offer(it.arrival, it.departure, it.size, i + 1));
    }
    ref_cost = ref.finish();
    ref.close();
  }

  {
    // The "crashed" run: feed a prefix, then drop the session without any
    // orderly shutdown beyond closing the fd (appends go straight to the
    // file, so the on-disk state is what a kill -9 would leave).
    DurableSession crash(cli::make_algorithm(algo_name), algo_name,
                         crash_cfg);
    for (std::size_t i = 0; i < cut; ++i) {
      const Item& it = instance[i];
      ASSERT_EQ(crash.offer(it.arrival, it.departure, it.size, i + 1),
                ref_bins[i])
          << algo_name << ": prefix diverged at " << i;
    }
  }

  DurableSession rec(cli::make_algorithm(algo_name), algo_name, resume_cfg);
  const RecoveryReport& rep = rec.recovery();
  EXPECT_TRUE(rep.wal_existed);
  EXPECT_EQ(rec.seq(), cut) << algo_name;
  EXPECT_EQ(rec.last_stream_index(), cut);
  EXPECT_EQ(rep.records, cut);
  const std::uint64_t ckpt_every = crash_cfg.checkpoint_every;
  if (rec.checkpointable() && ckpt_every > 0 && cut >= ckpt_every) {
    EXPECT_TRUE(rep.used_checkpoint) << algo_name << " cut=" << cut;
    EXPECT_EQ(rep.checkpoint_seq, (cut / ckpt_every) * ckpt_every);
    EXPECT_EQ(rep.replayed, cut - rep.checkpoint_seq);
  } else {
    EXPECT_EQ(rep.replayed, cut);
  }

  for (std::size_t i = cut; i < instance.size(); ++i) {
    const Item& it = instance[i];
    ASSERT_EQ(rec.offer(it.arrival, it.departure, it.size, i + 1),
              ref_bins[i])
        << algo_name << ": diverged after recovery at item " << i
        << " (cut " << cut << ")";
  }
  const Cost rec_cost = rec.finish();
  EXPECT_EQ(rec_cost, ref_cost) << algo_name << ": cost not bit-identical";
  rec.close();
}

constexpr std::uint64_t kSeeds = 8;
constexpr std::uint64_t kCkptEvery = 7;

TEST_F(RecoveryTest, BitIdenticalOnGeneralInputs) {
  for (const char* algo : {"ff", "bf", "wf", "cbd", "ha"}) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const Instance instance = general_instance(seed);
      ASSERT_GE(instance.size(), 16u);
      std::mt19937_64 cut_rng(seed * 1000 + 17);
      const std::size_t cut = std::uniform_int_distribution<std::size_t>(
          1, instance.size() - 1)(cut_rng);
      const std::string tag = std::string(algo) + "-g" + std::to_string(seed);
      check_crash_recovery(algo, instance, cut,
                           config(tag + "-ref", false, kCkptEvery),
                           config(tag, false, kCkptEvery),
                           config(tag, true, kCkptEvery));
    }
  }
}

TEST_F(RecoveryTest, BitIdenticalOnAlignedInputs) {
  for (const char* algo : {"ff", "bf", "wf", "cbd", "ha", "cdff"}) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const Instance instance = aligned_instance(seed);
      ASSERT_GE(instance.size(), 16u);
      std::mt19937_64 cut_rng(seed * 1000 + 29);
      const std::size_t cut = std::uniform_int_distribution<std::size_t>(
          1, instance.size() - 1)(cut_rng);
      const std::string tag = std::string(algo) + "-a" + std::to_string(seed);
      check_crash_recovery(algo, instance, cut,
                           config(tag + "-ref", false, kCkptEvery),
                           config(tag, false, kCkptEvery),
                           config(tag, true, kCkptEvery));
    }
  }
}

TEST_F(RecoveryTest, NonCheckpointableFallsBackToFullReplay) {
  const Instance instance = general_instance(4);
  const std::size_t cut = instance.size() / 2;
  // dfit is deterministic but not Checkpointable: checkpoint_now() must be
  // a no-op and recovery must replay the whole log.
  check_crash_recovery("dfit", instance, cut,
                       config("dfit-ref", false, 0),
                       config("dfit", false, kCkptEvery),
                       config("dfit", true, kCkptEvery));
  DurableSession s(cli::make_algorithm("dfit"), "dfit",
                   config("dfit2", false, 0));
  EXPECT_FALSE(s.checkpointable());
  EXPECT_FALSE(s.checkpoint_now());
}

TEST_F(RecoveryTest, CheckpointAheadOfTruncatedWalIsIgnored) {
  const Instance instance = general_instance(5);
  const auto cfg = config("ahead", false, 2);
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    for (std::size_t i = 0; i < 6; ++i) {
      const Item& it = instance[i];
      s.offer(it.arrival, it.departure, it.size, i + 1);
    }
    s.close();  // checkpoint now covers seq 6
  }
  // Lose the last 2 WAL records (but keep the checkpoint): the checkpoint
  // now claims offers the log cannot verify, so it must be ignored. The
  // log is a fresh one-segment chain; cut the segment file itself.
  const std::string seg = wal_segment_path(cfg.wal_path, 1);
  const WalReadResult wal = read_wal(seg);
  ASSERT_EQ(wal.records.size(), 6u);
  const std::uint64_t header = wal.valid_bytes - 57 * 6;
  truncate_wal(seg, header + 4 * 57);

  DurableSession rec(cli::make_algorithm("ff"), "ff",
                     config("ahead", true, 2));
  EXPECT_FALSE(rec.recovery().used_checkpoint);
  EXPECT_EQ(rec.recovery().replayed, 4u);
  EXPECT_EQ(rec.seq(), 4u);
}

TEST_F(RecoveryTest, TornTailIsTruncatedAndReported) {
  const Instance instance = general_instance(6);
  const auto cfg = config("torn", false, 0);
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    for (std::size_t i = 0; i < 5; ++i) {
      const Item& it = instance[i];
      s.offer(it.arrival, it.departure, it.size, i + 1);
    }
    s.close();
  }
  {
    std::ofstream f(wal_segment_path(cfg.wal_path, 1),
                    std::ios::binary | std::ios::app);
    f.write("\x39\x00\x00\x00garbage-torn-frame", 22);  // half a frame
  }
  DurableSession rec(cli::make_algorithm("ff"), "ff",
                     config("torn", true, 0));
  EXPECT_TRUE(rec.recovery().torn);
  EXPECT_GT(rec.recovery().truncated_bytes, 0u);
  EXPECT_EQ(rec.seq(), 5u);
  // The repaired log is clean again.
  EXPECT_FALSE(scan_segmented_wal(cfg.wal_path).torn);
}

TEST_F(RecoveryTest, ReplayWithWrongAlgorithmDiverges) {
  // ff and wf provably differ here: with bins at loads {0.6, 0.5}, a 0.3
  // item goes to bin 0 under First-Fit but to bin 1 under Worst-Fit.
  const auto cfg = config("wrong", false, 0);
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    s.offer(0.0, 10.0, 0.6, 1);
    s.offer(0.0, 10.0, 0.5, 2);   // does not fit bin 0 -> opens bin 1
    s.offer(1.0, 10.0, 0.3, 3);   // ff: bin 0
    s.close();
  }
  {
    DurableSessionConfig bad = config("wrong", true, 0);
    EXPECT_THROW(DurableSession(cli::make_algorithm("wf"), "wf", bad),
                 std::runtime_error);
  }
}

TEST_F(RecoveryTest, FreshStartRemovesStaleCheckpoint) {
  const Instance instance = general_instance(7);
  const auto cfg = config("stale", false, 2);
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    for (std::size_t i = 0; i < 4; ++i) {
      const Item& it = instance[i];
      s.offer(it.arrival, it.departure, it.size, i + 1);
    }
    s.close();
  }
  ASSERT_TRUE(fs::exists(cfg.checkpoint_path));
  {
    // Fresh (non-resume) session on the same paths: the stale checkpoint
    // must go away with the truncated WAL, or a later resume would pair
    // the new log with the old snapshot.
    DurableSession s(cli::make_algorithm("ff"), "ff",
                     config("stale", false, 0));
    EXPECT_FALSE(fs::exists(cfg.checkpoint_path));
    s.offer(0.0, 1.0, 0.5, 1);
    s.close();
  }
  DurableSession rec(cli::make_algorithm("ff"), "ff",
                     config("stale", true, 0));
  EXPECT_EQ(rec.seq(), 1u);
  EXPECT_FALSE(rec.recovery().used_checkpoint);
}

TEST_F(RecoveryTest, SegmentedLogRecoversBitIdenticallyAcrossCuts) {
  const Instance instance = general_instance(9);
  ASSERT_GE(instance.size(), 40u);

  std::vector<BinId> ref_bins;
  Cost ref_cost = 0.0;
  {
    DurableSession ref(cli::make_algorithm("bf"), "bf",
                       config("segref", false, 0));
    for (std::size_t i = 0; i < instance.size(); ++i) {
      const Item& it = instance[i];
      ref_bins.push_back(ref.offer(it.arrival, it.departure, it.size, i + 1));
    }
    ref_cost = ref.finish();
    ref.close();
  }

  for (const std::size_t cut :
       {std::size_t{1}, instance.size() / 3, instance.size() / 2,
        instance.size() - 1}) {
    const std::string tag = "seg" + std::to_string(cut);
    auto crash_cfg = config(tag, false, kCkptEvery);
    // ~4 records per segment: the sweep crosses many rotation (and, with
    // checkpoints every 7, compaction) boundaries.
    crash_cfg.wal_segment_bytes = 256;
    {
      DurableSession crash(cli::make_algorithm("bf"), "bf", crash_cfg);
      for (std::size_t i = 0; i < cut; ++i) {
        const Item& it = instance[i];
        ASSERT_EQ(crash.offer(it.arrival, it.departure, it.size, i + 1),
                  ref_bins[i]);
      }
      if (cut > 8) {
        EXPECT_GT(crash.wal()->rotations(), 0u);
      }
    }
    auto resume_cfg = config(tag, true, kCkptEvery);
    resume_cfg.wal_segment_bytes = 256;
    DurableSession rec(cli::make_algorithm("bf"), "bf", resume_cfg);
    EXPECT_EQ(rec.seq(), cut);
    if (cut > 8) {
      EXPECT_GT(rec.recovery().segments_scanned, 1u);
    }
    for (std::size_t i = cut; i < instance.size(); ++i) {
      const Item& it = instance[i];
      ASSERT_EQ(rec.offer(it.arrival, it.departure, it.size, i + 1),
                ref_bins[i])
          << "diverged after segmented recovery at item " << i << " (cut "
          << cut << ")";
    }
    EXPECT_EQ(rec.finish(), ref_cost) << "cut " << cut;
    rec.close();
  }
}

TEST_F(RecoveryTest, CompactedWalWithoutCheckpointRefusesRecovery) {
  const Instance instance = general_instance(10);
  auto cfg = config("compact", false, 5);
  cfg.wal_segment_bytes = 256;
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    for (std::size_t i = 0; i < 30; ++i) {
      const Item& it = instance[i];
      s.offer(it.arrival, it.departure, it.size, i + 1);
    }
    ASSERT_GT(s.compacted_segments(), 0u)
        << "test premise: compaction must have removed covered segments";
    s.close();
  }
  const SegmentedWalScan scan = scan_segmented_wal(cfg.wal_path);
  ASSERT_GT(scan.first_seq, 0u);
  // The compacted-away records exist ONLY inside the checkpoint now.
  // Deleting it must make recovery refuse — replaying the surviving tail
  // alone would silently rebuild a wrong session.
  fs::remove(cfg.checkpoint_path);
  auto resume_cfg = config("compact", true, 5);
  resume_cfg.wal_segment_bytes = 256;
  EXPECT_THROW(DurableSession(cli::make_algorithm("ff"), "ff", resume_cfg),
               std::runtime_error);
}

TEST_F(RecoveryTest, MidCompactionOrphanSegmentIsRemovedOnRecovery) {
  const Instance instance = general_instance(11);
  auto cfg = config("orphan", false, 0);
  cfg.wal_segment_bytes = 256;
  Cost ref_cost = 0.0;
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    // One checkpoint at seq 10, then keep offering with no further
    // checkpoints: sealed-but-uncovered segments pile up, so the manifest
    // still lists several segments at close.
    for (std::size_t i = 0; i < 30; ++i) {
      const Item& it = instance[i];
      s.offer(it.arrival, it.departure, it.size, i + 1);
      if (i + 1 == 10) {
        ASSERT_TRUE(s.checkpoint_now());
      }
    }
    ref_cost = s.finish();
    s.close();
  }
  // Replay the crash window inside compact(): the manifest rewrite
  // completed but the unlink never ran, leaving an on-disk segment the
  // manifest no longer lists.
  WalManifest m = *read_wal_manifest(cfg.wal_path);
  ASSERT_GE(m.segments.size(), 2u);
  const fs::path orphan = fs::path(cfg.wal_path).parent_path() /
                          m.segments.front().file;
  m.segments.erase(m.segments.begin());
  write_wal_manifest(cfg.wal_path, m);
  ASSERT_TRUE(fs::exists(orphan));

  auto resume_cfg = config("orphan", true, 5);
  resume_cfg.wal_segment_bytes = 256;
  DurableSession rec(cli::make_algorithm("ff"), "ff", resume_cfg);
  EXPECT_FALSE(fs::exists(orphan)) << "orphan segment must be swept";
  EXPECT_TRUE(rec.recovery().used_checkpoint);
  EXPECT_EQ(rec.seq(), 30u);
  EXPECT_EQ(rec.finish(), ref_cost);
}

// Per-tenant resume marks survive recovery — including checkpoint-anchored
// compaction, which deletes the very WAL records the marks were derived
// from. Two tenants with overlapping id spaces feed one session; after a
// crash each tenant's high-water mark must come back separately, not as a
// shared maximum.
TEST_F(RecoveryTest, TenantStreamMarksSurviveRecoveryAndCompaction) {
  auto cfg = config("marks", false, 5);
  cfg.wal_segment_bytes = 256;
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    // "a" reaches index 24, "b" only 8 — interleaved 3:1, arrival strictly
    // increasing so every offer is valid.
    std::uint64_t a = 0, b = 0;
    for (int i = 0; i < 32; ++i) {
      const bool is_a = (i % 4) != 3;
      const std::uint64_t idx = is_a ? ++a : ++b;
      s.offer(0.25 * i, 0.25 * i + 8.0, 0.05, idx, is_a ? "a" : "b");
    }
    ASSERT_EQ(a, 24u);
    ASSERT_EQ(b, 8u);
    ASSERT_GT(s.compacted_segments(), 0u)
        << "test premise: compaction must have removed covered segments";
    // Crash: no close(), the fds just go away.
  }
  auto resume_cfg = config("marks", true, 5);
  resume_cfg.wal_segment_bytes = 256;
  DurableSession rec(cli::make_algorithm("ff"), "ff", resume_cfg);
  EXPECT_TRUE(rec.recovery().used_checkpoint);
  // Some of the replayed history is gone from the log: the early marks can
  // only have come through the checkpoint's tenant table.
  EXPECT_LT(rec.recovery().records, 32u);
  EXPECT_EQ(rec.seq(), 32u);
  EXPECT_EQ(rec.last_stream_index("a"), 24u);
  EXPECT_EQ(rec.last_stream_index("b"), 8u);
  EXPECT_EQ(rec.last_stream_index("never-seen"), 0u);
  EXPECT_EQ(rec.last_stream_index(), 24u);  // global summary = max mark
  rec.close();
}

TEST_F(RecoveryTest, WalWriteFailurePoisonsSession) {
  const Instance instance = general_instance(12);
  auto cfg = config("poison", false, 0);
  // Injected ENOSPC on the 4th append, after a 10-byte short write — the
  // torn frame a full disk leaves at the tail. Segment write ops 0 and 1
  // are the v2 magic + header, so frame appends start at match 2 and the
  // 4th frame is match 5: a 10-byte short write there, hard ENOSPC on
  // every later write (the disk stays full).
  io::FaultInjectingEnv fault_env(io::Env::posix());
  io::FaultRule rule;
  rule.ops = io::kOpWrite;
  rule.path_contains = ".seg";
  rule.after = 5;
  rule.kind = io::FaultKind::kEnospc;
  rule.param = 10;
  fault_env.add_rule(rule);
  cfg.env = &fault_env;
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    for (std::size_t i = 0; i < 3; ++i) {
      const Item& it = instance[i];
      s.offer(it.arrival, it.departure, it.size, i + 1);
    }
    EXPECT_FALSE(s.failed());
    const Item& it = instance[3];
    // In-memory state has applied the offer the log will never hold: the
    // session must refuse everything from here on, not limp along.
    EXPECT_THROW(s.offer(it.arrival, it.departure, it.size, 4),
                 std::runtime_error);
    EXPECT_TRUE(s.failed());
    EXPECT_THROW(s.offer(it.arrival, it.departure, it.size, 5),
                 std::runtime_error);
    EXPECT_THROW(s.commit(), std::runtime_error);
  }
  // Recovery sees only the 3 durable records plus a torn tail: the
  // un-acknowledged 4th offer is gone, exactly per the log-before-ack
  // contract.
  DurableSession rec(cli::make_algorithm("ff"), "ff",
                     config("poison", true, 0));
  EXPECT_TRUE(rec.recovery().torn);
  EXPECT_EQ(rec.seq(), 3u);
}

TEST_F(RecoveryTest, UnreadableCheckpointIsAnErrorNotAbsent) {
  const Instance instance = general_instance(13);
  const auto cfg = config("eloop", false, 2);
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    for (std::size_t i = 0; i < 4; ++i) {
      const Item& it = instance[i];
      s.offer(it.arrival, it.departure, it.size, i + 1);
    }
    s.close();
  }
  // Replace the checkpoint with a self-referencing symlink: open(2) fails
  // with ELOOP — NOT ENOENT. Pre-fix, any unopenable file was treated as
  // "absent" and recovery silently fell back to full replay, masking the
  // operational error (and, on a compacted log, producing a wrong state).
  fs::remove(cfg.checkpoint_path);
  ASSERT_EQ(::symlink(cfg.checkpoint_path.c_str(),
                      cfg.checkpoint_path.c_str()),
            0);
  EXPECT_THROW(DurableSession(cli::make_algorithm("ff"), "ff",
                              config("eloop", true, 2)),
               std::runtime_error);
}

TEST_F(RecoveryTest, PermissionDeniedCheckpointIsAnError) {
  if (::geteuid() == 0)
    GTEST_SKIP() << "root bypasses file permission checks (EACCES "
                    "unreachable); the ELOOP variant covers the errno fix";
  const Instance instance = general_instance(14);
  const auto cfg = config("denied", false, 2);
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    for (std::size_t i = 0; i < 4; ++i) {
      const Item& it = instance[i];
      s.offer(it.arrival, it.departure, it.size, i + 1);
    }
    s.close();
  }
  ASSERT_EQ(::chmod(cfg.checkpoint_path.c_str(), 0), 0);
  EXPECT_THROW(DurableSession(cli::make_algorithm("ff"), "ff",
                              config("denied", true, 2)),
               std::runtime_error);
  ::chmod(cfg.checkpoint_path.c_str(), 0644);  // let TearDown clean up
}

// A checkpoint holds live state only: a session that packed 1e5 offers
// into one long-lived bin, never holding more than two items at once,
// writes exactly as many bytes as it did after 1e2 offers. (A format that
// kept every offered item grew ~24 B per offer here.) The big checkpoint
// must still restore to the uninterrupted state.
TEST_F(RecoveryTest, CheckpointSizeTracksLiveStateNotOffers) {
  const auto cfg = config("bounded", false, 0);
  const auto file_size = [&] {
    return fs::file_size(cfg.checkpoint_path);
  };
  std::uintmax_t small = 0;
  std::uintmax_t large = 0;
  Cost live_cost = 0.0;
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    EXPECT_EQ(s.offer(0.0, 1e9, 0.5, 1), 0);  // the long-lived item
    for (std::uint64_t k = 1; k < 100'000; ++k) {
      const auto t = static_cast<Time>(k);
      // Item k-1 departs at t, before item k arrives: <= 2 ever active.
      ASSERT_EQ(s.offer(t, t + 1.0, 0.25, k + 1), 0) << "offer " << k;
      if (k + 1 == 100) {
        ASSERT_TRUE(s.checkpoint_now());
        small = file_size();
      }
    }
    ASSERT_TRUE(s.checkpoint_now());
    large = file_size();
    EXPECT_EQ(s.session().ledger().bins_opened(), 1u);
    s.close();
    live_cost = s.finish();
  }
  EXPECT_GT(small, 0u);
  EXPECT_EQ(large, small);

  DurableSession rec(cli::make_algorithm("ff"), "ff",
                     config("bounded", true, 0));
  EXPECT_TRUE(rec.recovery().used_checkpoint);
  EXPECT_EQ(rec.recovery().checkpoint_seq, 100'000u);
  EXPECT_EQ(rec.recovery().replayed, 0u);
  EXPECT_EQ(rec.session().ledger().active_items(), 2u);
  EXPECT_EQ(rec.finish(), live_cost);
}

// The v1 format carried every offered item; this build refuses such a file
// by name instead of misreading it or silently replaying around it.
TEST_F(RecoveryTest, RetiredV1CheckpointIsRefusedByName) {
  const Instance instance = general_instance(15);
  const auto cfg = config("v1", false, 2);
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    for (std::size_t i = 0; i < 4; ++i) {
      const Item& it = instance[i];
      s.offer(it.arrival, it.departure, it.size, i + 1);
    }
    s.close();
  }
  {
    std::fstream f(cfg.checkpoint_path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f);
    f.write("CDBPCKP1", 8);  // the v1 magic over an otherwise intact file
  }
  try {
    DurableSession rec(cli::make_algorithm("ff"), "ff",
                       config("v1", true, 2));
    ADD_FAILURE() << "a CDBPCKP1 checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CDBPCKP1"), std::string::npos)
        << e.what();
  }
  try {
    (void)read_checkpoint_info(cfg.checkpoint_path);
    ADD_FAILURE() << "read_checkpoint_info accepted a CDBPCKP1 file";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CDBPCKP1"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace cdbp::serve
