// Segment-chain semantics: rotation, manifest consistency, the global
// intact-prefix rule under tears in NON-final segments, checkpoint-anchored
// compaction, orphan sweeps, and the refusal of other segment formats.
#include "serve/wal_segment.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "parallel/thread_pool.h"
#include "serve/durable_session.h"
#include "test_util.h"

namespace cdbp::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kFrameBytes = 65;  // 8 envelope + 57 offer payload

class WalSegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdbp_wal_segment_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string base(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::vector<WalRecord> sample_records(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<WalRecord> out;
  Time t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    WalRecord rec;
    rec.seq = i;
    rec.stream_index = i + 1;
    t += unit(rng);
    rec.arrival = t;
    rec.departure = t + 1.0 + unit(rng) * 7.0;
    rec.size = 0.01 + 0.5 * unit(rng);
    rec.bin = static_cast<BinId>(rng() % 5);
    out.push_back(rec);
  }
  return out;
}

/// Builds a chain with ~4 records per segment.
SegmentedWal::Options tiny_segments() {
  SegmentedWal::Options opts;
  opts.policy = FsyncPolicy::kNone;
  opts.segment_bytes = kSegmentHeaderBytes + 4 * kFrameBytes;
  return opts;
}

void expect_same_records(const std::vector<WalRecord>& got,
                         const std::vector<WalRecord>& want,
                         const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << what << " record " << i;
}

TEST_F(WalSegmentTest, ManifestRoundTripsAndRejectsCorruption) {
  const std::string b = base("m.wal");
  EXPECT_FALSE(read_wal_manifest(b).has_value());

  WalManifest m;
  m.next_segment_id = 4;
  m.segments.push_back({"m.wal.000002.seg", 10});
  m.segments.push_back({"m.wal.000003.seg", 25});
  write_wal_manifest(b, m);

  const auto back = read_wal_manifest(b);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->next_segment_id, 4u);
  ASSERT_EQ(back->segments.size(), 2u);
  EXPECT_EQ(back->segments[0], m.segments[0]);
  EXPECT_EQ(back->segments[1], m.segments[1]);

  // Manifests are written via tmp + rename: a corrupt one is damage, not a
  // crash artifact, and must throw rather than be treated as absent.
  std::fstream f(b + ".manifest",
                 std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(14);
  f.put('\xEE');
  f.close();
  EXPECT_THROW((void)read_wal_manifest(b), std::runtime_error);
}

TEST_F(WalSegmentTest, RotationChainsSegmentsAndScanReassembles) {
  const std::string b = base("rot.wal");
  const std::vector<WalRecord> records = sample_records(19, 5);
  {
    SegmentedWal wal(b, tiny_segments(), /*truncate=*/true);
    for (const WalRecord& rec : records) wal.append(rec);
    EXPECT_GT(wal.rotations(), 2u);
    // Chain invariant: each entry's base_seq is the running record count.
    std::uint64_t expected = 0;
    for (std::size_t i = 0; i + 1 < wal.manifest().segments.size(); ++i) {
      EXPECT_EQ(wal.manifest().segments[i].base_seq, expected);
      expected += read_wal((dir_ / wal.manifest().segments[i].file).string())
                      .records.size();
    }
    wal.close();
  }
  const SegmentedWalScan scan = scan_segmented_wal(b);
  EXPECT_TRUE(scan.exists);
  EXPECT_FALSE(scan.torn) << scan.tail_error;
  EXPECT_GT(scan.segments_scanned, 3u);
  expect_same_records(scan.records, records, "scan");
}

TEST_F(WalSegmentTest, ResumeAppendsAcrossProcessBoundary) {
  const std::string b = base("res.wal");
  const std::vector<WalRecord> records = sample_records(13, 6);
  {
    SegmentedWal wal(b, tiny_segments(), /*truncate=*/true);
    for (std::size_t i = 0; i < 7; ++i) wal.append(records[i]);
    wal.close();
  }
  {
    SegmentedWal wal(b, tiny_segments(), /*truncate=*/false);
    EXPECT_EQ(wal.manifest().segments.back().base_seq,
              scan_segmented_wal(b).manifest.segments.back().base_seq);
    for (std::size_t i = 7; i < 13; ++i) wal.append(records[i]);
    wal.close();
  }
  expect_same_records(scan_segmented_wal(b).records, records, "resumed");
}

// The tentpole torn-tail property, lifted to chains: kill the log at EVERY
// byte offset inside the last frame of a NON-final segment. The scan must
// keep exactly the intact prefix (all earlier segments + this segment's
// surviving records), mark everything later unreachable, and repair must
// truncate ONLY the torn segment, drop the later ones, and leave a chain a
// writer can continue bit-identically.
TEST_F(WalSegmentTest, TornTailInNonFinalSegmentAtEveryByteOffset) {
  const std::string b = base("torn.wal");
  const std::vector<WalRecord> records = sample_records(19, 42);
  {
    SegmentedWal wal(b, tiny_segments(), /*truncate=*/true);
    for (const WalRecord& rec : records) wal.append(rec);
    wal.close();
  }
  const SegmentedWalScan whole = scan_segmented_wal(b);
  ASSERT_FALSE(whole.torn);
  ASSERT_GE(whole.manifest.segments.size(), 4u);

  // Victim: segment 1 (non-final). Its last frame spans the file's final
  // kFrameBytes bytes.
  const std::size_t victim = 1;
  const std::string victim_file =
      (dir_ / whole.manifest.segments[victim].file).string();
  const std::uint64_t full = fs::file_size(victim_file);
  const std::uint64_t records_before_victim =
      whole.manifest.segments[victim].base_seq;
  const std::uint64_t victim_records = whole.segment_records[victim];
  const std::uint64_t intact_prefix =
      records_before_victim + victim_records - 1;

  const fs::path pristine = dir_ / "pristine";
  fs::create_directories(pristine);
  for (const auto& de : fs::directory_iterator(dir_))
    if (de.is_regular_file())
      fs::copy_file(de.path(), pristine / de.path().filename(),
                    fs::copy_options::overwrite_existing);

  for (std::uint64_t cut = full - kFrameBytes; cut < full; ++cut) {
    // Restore the pristine chain, then tear the victim at `cut`.
    for (const auto& de : fs::directory_iterator(pristine))
      fs::copy_file(de.path(), dir_ / de.path().filename(),
                    fs::copy_options::overwrite_existing);
    fs::resize_file(victim_file, cut);

    SegmentedWalScan scan = scan_segmented_wal(b);
    ASSERT_EQ(scan.records.size(), intact_prefix) << "cut at " << cut;
    if (cut == full - kFrameBytes) {
      // Clean frame boundary inside the victim: the victim itself is
      // whole, but the NEXT segment's base_seq now gaps past the missing
      // record, which is itself a tear.
      EXPECT_TRUE(scan.torn);
    } else {
      EXPECT_TRUE(scan.torn) << "cut at " << cut;
      EXPECT_EQ(scan.torn_segment, victim) << "cut at " << cut;
    }
    EXPECT_EQ(scan.dropped_records,
              records.size() - intact_prefix - 1)
        << "cut at " << cut;

    const std::uint64_t removed = repair_segmented_wal(b, scan);
    EXPECT_GT(removed, 0u);
    // Only the intact prefix survives; the chain is clean again.
    SegmentedWalScan repaired = scan_segmented_wal(b);
    EXPECT_FALSE(repaired.torn) << "cut at " << cut;
    ASSERT_EQ(repaired.records.size(), intact_prefix);
    for (std::size_t i = 0; i < intact_prefix; ++i)
      ASSERT_EQ(repaired.records[i], records[i]) << "cut at " << cut;

    // A writer resumed on the repaired chain re-appends the lost suffix
    // and the log converges bit-identically with the never-torn one.
    {
      SegmentedWal wal(b, tiny_segments(), /*truncate=*/false, &repaired);
      for (std::size_t i = intact_prefix; i < records.size(); ++i)
        wal.append(records[i]);
      wal.close();
    }
    expect_same_records(scan_segmented_wal(b).records, records,
                        "healed at cut " + std::to_string(cut));
  }
}

TEST_F(WalSegmentTest, CompactionDeletesOnlyCoveredSealedSegments) {
  const std::string b = base("cmp.wal");
  const std::vector<WalRecord> records = sample_records(19, 8);
  SegmentedWal wal(b, tiny_segments(), /*truncate=*/true);
  for (const WalRecord& rec : records) wal.append(rec);
  ASSERT_GE(wal.manifest().segments.size(), 4u);

  const std::uint64_t second_base = wal.manifest().segments[1].base_seq;
  const std::string first_file =
      (dir_ / wal.manifest().segments[0].file).string();

  // A checkpoint short of the second segment's base covers nothing
  // deletable.
  EXPECT_EQ(wal.compact(second_base - 1), 0u);
  EXPECT_TRUE(fs::exists(first_file));

  // Covering exactly through segment 0's records kills exactly segment 0.
  EXPECT_EQ(wal.compact(second_base), 1u);
  EXPECT_FALSE(fs::exists(first_file));
  EXPECT_EQ(wal.manifest().segments.front().base_seq, second_base);

  // Compaction can never delete the ACTIVE segment, no matter how far the
  // checkpoint reaches.
  const std::size_t before = wal.manifest().segments.size();
  EXPECT_EQ(wal.compact(records.size() + 1000), before - 1);
  ASSERT_EQ(wal.manifest().segments.size(), 1u);
  wal.close();

  // The surviving tail still scans, with first_seq telling what is gone.
  const SegmentedWalScan scan = scan_segmented_wal(b);
  EXPECT_FALSE(scan.torn);
  EXPECT_GT(scan.first_seq, 0u);
  ASSERT_FALSE(scan.records.empty());
  EXPECT_EQ(scan.records.front().seq, scan.first_seq);
  EXPECT_EQ(scan.records.back(), records.back());
}

/// Writes a 5-segment chain, stamps `magic` over segment `victim`'s first
/// 8 bytes, and requires every reader to refuse the log by that name
/// without touching a byte of it. An intact header of another format is
/// not a torn tail: repairing it as one would delete the segment and every
/// later one.
void expect_magic_refused(const std::string& b, std::size_t victim,
                          const std::string& magic) {
  {
    SegmentedWal wal(b, tiny_segments(), /*truncate=*/true);
    for (const WalRecord& rec : sample_records(19, 15)) wal.append(rec);
    wal.close();
  }
  const WalManifest m = *read_wal_manifest(b);
  ASSERT_EQ(m.segments.size(), 5u);
  const fs::path dir = fs::path(b).parent_path();
  {
    std::fstream f(dir / m.segments[victim].file,
                   std::ios::in | std::ios::out | std::ios::binary);
    f.write(magic.data(), 8);
  }
  const std::map<std::string, std::string> before = testutil::dir_bytes(dir);
  const auto expect_refusal = [&](const char* who, const auto& read) {
    try {
      read();
      ADD_FAILURE() << who << " accepted a " << magic << " segment";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(magic), std::string::npos)
          << who << ": " << e.what();
    }
    EXPECT_TRUE(testutil::dir_bytes(dir) == before)
        << who << " modified the log";
  };
  expect_refusal("validate", [&] { (void)validate_segmented_wal(b); });
  expect_refusal("scan", [&] { (void)scan_segmented_wal(b); });
  expect_refusal("resume", [&] {
    SegmentedWal wal(b, tiny_segments(), /*truncate=*/false);
  });
}

TEST_F(WalSegmentTest, RetiredMagicInFirstSegmentIsRefused) {
  expect_magic_refused(base("first.wal"), 0, "CDBPWAL2");
}

TEST_F(WalSegmentTest, UnknownMagicInMiddleSegmentIsRefused) {
  expect_magic_refused(base("middle.wal"), 2, "CDBPWAL9");
}

TEST_F(WalSegmentTest, FreshTruncateClearsEveryTraceOfTheOldChain) {
  const std::string b = base("fresh.wal");
  {
    SegmentedWal wal(b, tiny_segments(), /*truncate=*/true);
    for (const WalRecord& rec : sample_records(19, 10)) wal.append(rec);
    wal.close();
  }
  ASSERT_GE(scan_segmented_wal(b).manifest.segments.size(), 4u);
  {
    SegmentedWal wal(b, tiny_segments(), /*truncate=*/true);
    wal.append(sample_records(1, 11)[0]);
    wal.close();
  }
  const SegmentedWalScan scan = scan_segmented_wal(b);
  EXPECT_EQ(scan.manifest.segments.size(), 1u);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.first_seq, 0u);
  // No stray .seg files from the old chain.
  std::size_t seg_files = 0;
  for (const auto& de : fs::directory_iterator(dir_))
    if (de.path().extension() == ".seg") ++seg_files;
  EXPECT_EQ(seg_files, 1u);
}

TEST_F(WalSegmentTest, ParallelScanMatchesSequential) {
  const std::string b = base("par.wal");
  const std::vector<WalRecord> records = sample_records(19, 12);
  {
    SegmentedWal wal(b, tiny_segments(), /*truncate=*/true);
    for (const WalRecord& rec : records) wal.append(rec);
    wal.close();
  }
  parallel::ThreadPool pool(4);
  const SegmentedWalScan seq = scan_segmented_wal(b);
  const SegmentedWalScan par = scan_segmented_wal(b, &pool);
  EXPECT_EQ(par.segments_scanned, seq.segments_scanned);
  EXPECT_EQ(par.first_seq, seq.first_seq);
  EXPECT_EQ(par.torn, seq.torn);
  expect_same_records(par.records, seq.records, "parallel vs sequential");
}

// The two recovery passes: validation counts without collecting, and the
// streamed pass visits exactly what was counted — from a starting seq,
// skipping wholly covered segments — or refuses a segment that has lost
// records since it was validated.
TEST_F(WalSegmentTest, ValidateCountsAndStreamVisitsWhatWasCounted) {
  const std::string b = base("two.wal");
  const std::vector<WalRecord> records = sample_records(19, 14);
  {
    SegmentedWal wal(b, tiny_segments(), /*truncate=*/true);
    for (const WalRecord& rec : records) wal.append(rec);
    wal.close();
  }
  const SegmentedWalScan scan = validate_segmented_wal(b);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.record_count, records.size());
  ASSERT_GE(scan.manifest.segments.size(), 4u);

  std::vector<WalRecord> seen;
  const auto collect = [&](const WalRecord& rec) { seen.push_back(rec); };
  stream_segmented_wal(b, scan, 0, collect);
  expect_same_records(seen, records, "streamed");

  const std::uint64_t from = scan.manifest.segments[2].base_seq;
  seen.clear();
  stream_segmented_wal(b, scan, from, collect);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(seen.front().seq, from);
  EXPECT_EQ(seen.back(), records.back());

  const fs::path victim = dir_ / scan.manifest.segments[1].file;
  fs::resize_file(victim, fs::file_size(victim) - kFrameBytes);
  EXPECT_THROW(stream_segmented_wal(b, scan, 0, collect), std::runtime_error);
}

TEST_F(WalSegmentTest, MissingSegmentFileEndsThePrefix) {
  const std::string b = base("miss.wal");
  const std::vector<WalRecord> records = sample_records(19, 13);
  {
    SegmentedWal wal(b, tiny_segments(), /*truncate=*/true);
    for (const WalRecord& rec : records) wal.append(rec);
    wal.close();
  }
  SegmentedWalScan whole = scan_segmented_wal(b);
  ASSERT_GE(whole.manifest.segments.size(), 3u);
  const std::uint64_t keep = whole.manifest.segments[1].base_seq;
  fs::remove(dir_ / whole.manifest.segments[1].file);

  SegmentedWalScan scan = scan_segmented_wal(b);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.records.size(), keep);
  repair_segmented_wal(b, scan);
  const SegmentedWalScan repaired = scan_segmented_wal(b);
  EXPECT_FALSE(repaired.torn);
  EXPECT_EQ(repaired.records.size(), keep);
  EXPECT_EQ(repaired.manifest.segments.size(), 1u);
}

// A commit is one write to the active segment, however many records it
// covers, and appends write nothing — under either fsync policy. Under
// kEvery each commit is also one fsync.
TEST_F(WalSegmentTest, EachCommitIsOneSegmentWrite) {
  const std::vector<WalRecord> records = sample_records(12, 16);
  for (const FsyncPolicy policy : {FsyncPolicy::kNone, FsyncPolicy::kEvery}) {
    SCOPED_TRACE(to_string(policy));
    const std::string b = base("commit-" + to_string(policy) + ".wal");
    io::FaultInjectingEnv env;
    env.set_record_history(true);
    const auto segment_ops = [&](io::FaultOp op) {
      return testutil::ops_on(env, op, ".seg");
    };
    SegmentedWal::Options opts;
    opts.policy = policy;
    opts.env = &env;
    SegmentedWal wal(b, opts, /*truncate=*/true);
    const std::size_t writes0 = segment_ops(io::kOpWrite);
    const std::size_t fsyncs0 = segment_ops(io::kOpFsync);
    std::size_t appended = 0, commits = 0;
    for (const std::size_t batch : {1u, 4u, 7u}) {
      for (std::size_t k = 0; k < batch; ++k) wal.append(records[appended++]);
      EXPECT_EQ(segment_ops(io::kOpWrite), writes0 + commits);
      EXPECT_EQ(validate_segmented_wal(b).record_count, appended - batch);
      wal.commit();
      ++commits;
      EXPECT_EQ(segment_ops(io::kOpWrite), writes0 + commits);
      EXPECT_EQ(segment_ops(io::kOpFsync),
                fsyncs0 + (policy == FsyncPolicy::kEvery ? commits : 0));
      EXPECT_EQ(validate_segmented_wal(b).record_count, appended);
    }
    wal.commit();  // nothing appended since the last commit
    wal.close();
    EXPECT_EQ(segment_ops(io::kOpWrite), writes0 + commits);
    expect_same_records(scan_segmented_wal(b).records, records, "committed");
  }
}

// A failed write at commit poisons the session and drops the batch it was
// writing: nothing writes it again, the destructor's close() included.
TEST_F(WalSegmentTest, EnospcAtCommitPoisonsAndNothingIsWrittenAfter) {
  io::FaultInjectingEnv env;
  env.set_record_history(true);
  // Segment writes 0 and 1 are the header, 2 is the first commit's; the
  // second commit's write puts 10 bytes on disk, and the retry of its
  // remainder (write 4) fails ENOSPC. Any later write attempt would show
  // in the op history, failed or not.
  env.add_rule({io::kOpWrite, ".seg", 3, io::FaultKind::kEnospc, 10});
  DurableSessionConfig cfg;
  cfg.wal_path = base("poison.wal");
  cfg.checkpoint_path = base("poison.ckpt");
  cfg.env = &env;
  const std::vector<WalRecord> records = sample_records(5, 17);
  std::size_t writes_at_failure = 0;
  {
    DurableSession s(cli::make_algorithm("ff"), "ff", cfg);
    const auto offer = [&](std::size_t i) {
      (void)s.offer_deferred(records[i].arrival, records[i].departure,
                             records[i].size, i + 1);
    };
    offer(0);
    offer(1);
    s.commit();
    offer(2);
    offer(3);
    EXPECT_THROW(s.commit(), std::runtime_error);
    EXPECT_TRUE(s.failed());
    writes_at_failure = testutil::ops_on(env, io::kOpWrite, ".seg");
    EXPECT_EQ(writes_at_failure, 5u);
    EXPECT_THROW(offer(4), std::runtime_error);
    EXPECT_THROW(s.commit(), std::runtime_error);
  }
  EXPECT_EQ(testutil::ops_on(env, io::kOpWrite, ".seg"), writes_at_failure);
  // The first commit's records survive; the failed batch left only a torn
  // tail behind them.
  const SegmentedWalScan scan = validate_segmented_wal(cfg.wal_path);
  EXPECT_EQ(scan.record_count, 2u);
  EXPECT_TRUE(scan.torn);
}

}  // namespace
}  // namespace cdbp::serve
