// Streamed recovery against the collecting oracle. DurableSession recovers
// in two streamed passes (validate + count, repair, checkpoint decision,
// stream + replay); the oracle is the path that replaced: scan_segmented_wal
// collecting every record, the same repair and checkpoint rules, then a
// replay over the collected vector. Both run on identical copies of one
// damaged log and must agree on every RecoveryReport field, on the files
// recovery leaves behind, on every decision made after recovery, and on
// the bits of the final cost — or refuse with the same error.
#include "serve/durable_session.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/fault_env.h"
#include "cli/cli.h"
#include "core/checkpoint.h"
#include "core/frame.h"
#include "parallel/thread_pool.h"
#include "workloads/general_random.h"

namespace cdbp::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kOfferFrameBytes = 65;  // tenant-less offer frame

/// Everything one recovery path produced.
struct Outcome {
  std::string error;  ///< what() when recovery refused
  RecoveryReport report;
  std::uint64_t seq = 0;
  std::map<std::string, std::uint64_t> marks;  ///< "*" = the global mark
  std::map<std::string, std::string> files;    ///< the log dir afterwards
  std::vector<BinId> decisions;                ///< offers after recovery
  std::uint64_t cost_bits = 0;
};

std::string read_bytes(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::map<std::string, std::string> snapshot(const fs::path& dir) {
  std::map<std::string, std::string> files;
  for (const auto& de : fs::directory_iterator(dir))
    files[de.path().filename().string()] = read_bytes(de.path());
  return files;
}

void insert_bytes(const fs::path& file, std::uint64_t at,
                  const std::string& bytes) {
  std::string data = read_bytes(file);
  ASSERT_LE(at, data.size());
  data.insert(at, bytes);
  std::ofstream(file, std::ios::binary | std::ios::trunc) << data;
}

/// An envelope-valid frame of `type` whose payload is `payload_len` bytes.
std::string raw_frame(std::uint8_t type, std::size_t payload_len) {
  std::string payload(payload_len, '\x33');
  payload[0] = static_cast<char>(type);
  std::string frame;
  append_frame(frame, payload);
  return frame;
}

/// File offsets of every frame boundary of an intact segment file.
std::vector<std::uint64_t> frame_boundaries(const fs::path& file) {
  const std::string data = read_bytes(file);
  std::vector<std::uint64_t> out;
  std::uint64_t pos = kSegmentHeaderBytes;
  while (pos + 8 <= data.size()) {
    out.push_back(pos);
    StateReader r(std::string_view(data).substr(pos, 4));
    pos += 8 + r.u32();
  }
  out.push_back(pos);
  return out;
}

class StreamedRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("cdbp_streamed_recovery_test_" +
             std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()));
    fs::remove_all(root_);
    work_ = root_ / "wal";
    pristine_ = root_ / "pristine";
    fs::create_directories(work_);
  }
  void TearDown() override { fs::remove_all(root_); }

  [[nodiscard]] DurableSessionConfig config(bool resume) const {
    DurableSessionConfig cfg;
    cfg.wal_path = (work_ / "s.wal").string();
    cfg.checkpoint_path = (work_ / "s.ckpt").string();
    cfg.fsync = FsyncPolicy::kNone;  // same-process test: durability moot
    cfg.checkpoint_every = checkpoint_every_;
    cfg.wal_segment_bytes = segment_bytes_;
    cfg.resume = resume;
    return cfg;
  }

  [[nodiscard]] std::string tenant_of(std::size_t i) const {
    if (!tenants_) return "";
    return i % 3 == 2 ? "b" : "a";
  }

  /// Draws the workload and writes its first `offers` items to a fresh
  /// log, then drops the session without closing it (a crash), and keeps
  /// a pristine copy of the result.
  void build(std::size_t offers, int target_items = 120) {
    std::mt19937_64 rng(seed_);
    workloads::GeneralConfig gc;
    gc.target_items = target_items;
    gc.log2_mu = 5;
    gc.horizon = target_items / 2.0;
    items_ = workloads::make_general_random(gc, rng);
    ASSERT_GT(items_.size(), offers);
    {
      DurableSession s(cli::make_algorithm(algo_), algo_, config(false));
      for (std::size_t i = 0; i < offers; ++i) {
        const Item& it = items_[i];
        s.offer(it.arrival, it.departure, it.size, i + 1, tenant_of(i));
      }
    }
    keep_pristine();
  }

  void keep_pristine() {
    fs::remove_all(pristine_);
    fs::copy(work_, pristine_, fs::copy_options::recursive);
  }

  void restore() {
    fs::remove_all(work_);
    fs::copy(pristine_, work_, fs::copy_options::recursive);
  }

  [[nodiscard]] fs::path segment(std::size_t i) const {
    const SegmentedWalScan scan = validate_segmented_wal(config(true).wal_path);
    return work_ / scan.manifest.segments.at(i).file;
  }
  [[nodiscard]] std::size_t segment_count() const {
    return validate_segmented_wal(config(true).wal_path)
        .manifest.segments.size();
  }

  /// Offers every item the recovered state has not seen yet.
  template <typename Offer>
  void continue_run(std::uint64_t from, Outcome& out, Offer&& offer) const {
    for (std::size_t i = from; i < items_.size(); ++i)
      out.decisions.push_back(offer(i, items_[i]));
  }

  /// The path under test: DurableSession's own streamed recovery.
  Outcome streamed(io::Env* env = nullptr) {
    Outcome out;
    try {
      DurableSessionConfig cfg = config(true);
      cfg.env = env;
      cfg.recovery_pool = &pool_;
      DurableSession s(cli::make_algorithm(algo_), algo_, cfg);
      out.report = s.recovery();
      out.seq = s.seq();
      out.marks["*"] = s.last_stream_index();
      for (const char* t : {"", "a", "b"}) out.marks[t] = s.last_stream_index(t);
      out.files = snapshot(work_);
      continue_run(s.seq(), out, [&](std::size_t i, const Item& it) {
        return s.offer(it.arrival, it.departure, it.size, i + 1, tenant_of(i));
      });
      out.cost_bits = std::bit_cast<std::uint64_t>(s.finish());
    } catch (const std::exception& e) {
      out = Outcome{};
      out.error = e.what();
      out.files = snapshot(work_);
    }
    return out;
  }

  /// The oracle: collect every record, then recover exactly as before the
  /// streamed passes existed.
  Outcome collected() {
    Outcome out;
    const DurableSessionConfig cfg = config(true);
    AlgorithmPtr algo = cli::make_algorithm(algo_);
    InteractiveSession session(*algo);
    std::uint64_t seq = 0;
    std::uint64_t last_stream = 0;
    std::map<std::string, std::uint64_t> marks;
    const auto note = [&](std::uint64_t stream_index, const std::string& t) {
      if (stream_index == 0) return;
      last_stream = std::max(last_stream, stream_index);
      marks[t] = std::max(marks[t], stream_index);
    };
    try {
      SegmentedWalScan scan = scan_segmented_wal(cfg.wal_path);
      RecoveryReport& rep = out.report;
      rep.wal_existed = scan.exists;
      rep.torn = scan.torn;
      rep.tail_error = scan.tail_error;
      rep.records = scan.records.size();
      rep.first_seq = scan.first_seq;
      rep.segments_scanned = scan.segments_scanned;
      rep.dropped_records = scan.dropped_records;
      rep.unknown_records = scan.unknown_records;
      rep.truncated_bytes = repair_segmented_wal(cfg.wal_path, scan);

      const std::uint64_t log_end = scan.first_seq + scan.records.size();
      std::uint64_t from_seq = 0;
      auto* ckpt = dynamic_cast<Checkpointable*>(algo.get());
      const std::string file = read_bytes(cfg.checkpoint_path);
      if (ckpt != nullptr && !file.empty()) {
        StateReader r(std::string_view(file).substr(20));  // magic, len, crc
        const std::string name = r.str();
        const std::uint64_t ckpt_seq = r.u64();
        const std::uint64_t ckpt_stream = r.u64();
        std::map<std::string, std::uint64_t> ckpt_marks;
        for (std::uint64_t n = r.u64(); n > 0; --n) {
          std::string t = r.str();
          ckpt_marks[t] = r.u64();
        }
        const bool has_state = r.u8() != 0;
        if (name == algo_ && has_state && ckpt_seq >= scan.first_seq &&
            ckpt_seq <= log_end) {
          session.load_state(r);
          ckpt->load_state(r);
          seq = ckpt_seq;
          last_stream = ckpt_stream;
          marks = ckpt_marks;
          from_seq = ckpt_seq;
          rep.used_checkpoint = true;
          rep.checkpoint_seq = ckpt_seq;
        }
      }
      if (!rep.used_checkpoint && scan.first_seq > 0)
        throw std::runtime_error(
            "recovery: WAL was compacted to seq " +
            std::to_string(scan.first_seq) +
            " but no usable checkpoint covers the missing prefix ('" +
            cfg.checkpoint_path + "')");
      for (const WalRecord& rec : scan.records) {
        if (rec.seq < from_seq) continue;
        if (rec.seq != seq) throw std::runtime_error("sequence gap");
        if (session.offer(rec.arrival, rec.departure, rec.size) != rec.bin)
          throw std::runtime_error("replay diverged");
        ++seq;
        note(rec.stream_index, rec.tenant);
        ++rep.replayed;
      }
      // The writer resumes on the repaired chain, as DurableSession's does.
      SegmentedWal::Options opts;
      opts.policy = cfg.fsync;
      opts.segment_bytes = cfg.wal_segment_bytes;
      SegmentedWal wal(cfg.wal_path, opts, /*truncate=*/false, &scan);
      out.seq = seq;
      out.marks["*"] = last_stream;
      for (const char* t : {"", "a", "b"})
        out.marks[t] = marks.count(t) != 0 ? marks[t] : 0;
      out.files = snapshot(work_);
      wal.close();
      continue_run(seq, out, [&](std::size_t, const Item& it) {
        return session.offer(it.arrival, it.departure, it.size);
      });
      out.cost_bits = std::bit_cast<std::uint64_t>(session.finish());
    } catch (const std::exception& e) {
      out = Outcome{};
      out.error = e.what();
      out.files = snapshot(work_);
    }
    return out;
  }

  /// Runs both paths, each on a fresh copy of the pristine log damaged by
  /// `damage`, and checks that they agree. Returns the oracle's outcome.
  Outcome expect_agree(const std::string& what,
                       const std::function<void()>& damage = {},
                       io::Env* env = nullptr) {
    restore();
    if (damage) damage();
    const Outcome got = streamed(env);
    restore();
    if (damage) damage();
    const Outcome want = collected();

    EXPECT_EQ(got.error, want.error) << what;
    const RecoveryReport& a = got.report;
    const RecoveryReport& b = want.report;
    EXPECT_EQ(a.wal_existed, b.wal_existed) << what;
    EXPECT_EQ(a.torn, b.torn) << what;
    EXPECT_EQ(a.truncated_bytes, b.truncated_bytes) << what;
    EXPECT_EQ(a.tail_error, b.tail_error) << what;
    EXPECT_EQ(a.used_checkpoint, b.used_checkpoint) << what;
    EXPECT_EQ(a.checkpoint_seq, b.checkpoint_seq) << what;
    EXPECT_EQ(a.records, b.records) << what;
    EXPECT_EQ(a.replayed, b.replayed) << what;
    EXPECT_EQ(a.first_seq, b.first_seq) << what;
    EXPECT_EQ(a.segments_scanned, b.segments_scanned) << what;
    EXPECT_EQ(a.dropped_records, b.dropped_records) << what;
    EXPECT_EQ(a.unknown_records, b.unknown_records) << what;
    EXPECT_EQ(got.seq, want.seq) << what;
    EXPECT_EQ(got.marks, want.marks) << what;
    EXPECT_TRUE(got.files == want.files) << what << ": files differ";
    EXPECT_EQ(got.decisions, want.decisions) << what;
    EXPECT_EQ(got.cost_bits, want.cost_bits) << what;
    return want;
  }

  std::string algo_ = "ha";
  bool tenants_ = true;
  std::uint64_t seed_ = 5;
  std::uint64_t checkpoint_every_ = 0;
  std::uint64_t segment_bytes_ = 256;  // a few records per segment
  Instance items_;
  parallel::ThreadPool pool_{2};
  fs::path root_, work_, pristine_;
};

TEST_F(StreamedRecoveryTest, FinalSegmentTruncatedAtEveryOffset) {
  build(24);
  const std::size_t n = segment_count();
  ASSERT_GE(n, 3u);
  const fs::path victim = segment(n - 1);
  const std::uint64_t size = fs::file_size(victim);
  for (std::uint64_t cut = 0; cut <= size; ++cut)
    expect_agree("final segment cut at " + std::to_string(cut),
                 [&] { fs::resize_file(victim, cut); });
}

TEST_F(StreamedRecoveryTest, NonFinalSegmentTruncatedAtEveryOffset) {
  build(24);
  ASSERT_GE(segment_count(), 3u);
  const fs::path victim = segment(1);
  const std::uint64_t size = fs::file_size(victim);
  for (std::uint64_t cut = 0; cut < size; ++cut) {
    const Outcome want =
        expect_agree("segment 1 cut at " + std::to_string(cut),
                     [&] { fs::resize_file(victim, cut); });
    EXPECT_TRUE(want.report.torn);
  }
}

TEST_F(StreamedRecoveryTest, MissingSegmentAndChainGap) {
  build(40);
  ASSERT_GE(segment_count(), 3u);
  const fs::path victim = segment(1);
  Outcome want = expect_agree("missing segment", [&] { fs::remove(victim); });
  EXPECT_NE(want.report.tail_error.find("missing segment"), std::string::npos);
  want = expect_agree("chain gap", [&] {
    WalManifest m = *read_wal_manifest(config(true).wal_path);
    m.segments.erase(m.segments.begin() + 1);
    write_wal_manifest(config(true).wal_path, m);
  });
  EXPECT_NE(want.report.tail_error.find("chain gap"), std::string::npos);
}

TEST_F(StreamedRecoveryTest, CheckpointAheadOfTornLogFallsBackToFullReplay) {
  checkpoint_every_ = 5;
  segment_bytes_ = 0;  // one segment: nothing is compacted away
  build(23);          // last checkpoint at seq 20
  const Outcome whole = expect_agree("intact log");
  EXPECT_TRUE(whole.report.used_checkpoint);
  EXPECT_EQ(whole.report.replayed, 3u);

  const fs::path seg = segment(0);
  const std::vector<std::uint64_t> frames = frame_boundaries(seg);
  ASSERT_EQ(frames.size(), 24u);
  const Outcome torn = expect_agree("checkpoint ahead", [&] {
    fs::resize_file(seg, frames[19] + 5);  // 19 records + a torn frame
  });
  EXPECT_FALSE(torn.report.used_checkpoint);
  EXPECT_EQ(torn.report.replayed, 19u);
}

TEST_F(StreamedRecoveryTest, CompactedLogWithoutCheckpointIsRefused) {
  checkpoint_every_ = 5;
  build(30);
  ASSERT_GT(validate_segmented_wal(config(true).wal_path).first_seq, 0u);
  const Outcome want = expect_agree(
      "no checkpoint", [&] { fs::remove(config(true).checkpoint_path); });
  EXPECT_NE(want.error.find("compacted"), std::string::npos) << want.error;
}

// A bare CDBPWAL1 file at the log's base path — a single-file log from
// before segments — is refused by name, and recovery leaves it as it was.
TEST_F(StreamedRecoveryTest, BareV1FileIsRefused) {
  tenants_ = false;
  build(30);
  const std::vector<WalRecord> records =
      scan_segmented_wal(config(true).wal_path).records;
  ASSERT_EQ(records.size(), 30u);
  fs::remove_all(work_);
  fs::create_directories(work_);
  {
    // The v1 layout: magic, then 49-byte offer payloads without a tenant.
    std::string file = "CDBPWAL1";
    for (const WalRecord& rec : records) {
      StateWriter w;
      w.u8(1);
      w.u64(rec.seq);
      w.u64(rec.stream_index);
      w.f64(rec.arrival);
      w.f64(rec.departure);
      w.f64(rec.size);
      w.i64(rec.bin);
      append_frame(file, w.buffer());
    }
    std::ofstream(config(true).wal_path, std::ios::binary) << file;
  }
  keep_pristine();
  restore();
  const std::map<std::string, std::string> before = snapshot(work_);
  const Outcome got = streamed();
  EXPECT_NE(got.error.find("CDBPWAL1"), std::string::npos) << got.error;
  EXPECT_TRUE(got.files == before) << "recovery modified the log";
}

TEST_F(StreamedRecoveryTest, UnknownFrameTypesAreSkipped) {
  build(40);
  ASSERT_GE(segment_count(), 3u);
  const Outcome want = expect_agree("unknown frames", [&] {
    const fs::path seg = segment(1);
    const std::vector<std::uint64_t> frames = frame_boundaries(seg);
    insert_bytes(seg, frames[frames.size() / 2], raw_frame(9, 40));
    insert_bytes(segment(0), kSegmentHeaderBytes, raw_frame(77, 3));
  });
  EXPECT_EQ(want.report.unknown_records, 2u);
  EXPECT_FALSE(want.report.torn);
}

TEST_F(StreamedRecoveryTest, MaxPayloadFrameMidSegment) {
  build(40);
  const Outcome want = expect_agree("max frame", [&] {
    const fs::path seg = segment(1);
    const std::vector<std::uint64_t> frames = frame_boundaries(seg);
    insert_bytes(seg, frames[2], raw_frame(9, kMaxFramePayload));
  });
  EXPECT_EQ(want.report.unknown_records, 1u);
  EXPECT_FALSE(want.report.torn);
}

// Segments many read blocks long: frames straddle block edges, and with
// two such segments pass 1 validates them in parallel.
class StreamedRecoveryLargeTest : public StreamedRecoveryTest {
 protected:
  void SetUp() override {
    StreamedRecoveryTest::SetUp();
    algo_ = "ff";
    tenants_ = false;
    segment_bytes_ = 2u << 20;  // 2 MiB
    // 65-byte frames cannot tile a block, so frames straddle block edges.
    ASSERT_NE(kReadBlockBytes % kOfferFrameBytes, 0u);
    build(50000, 51000);
    ASSERT_EQ(segment_count(), 2u);
    ASSERT_GT(fs::file_size(segment(1)), 16 * kReadBlockBytes);
  }
};

TEST_F(StreamedRecoveryLargeTest, FramesStraddlingTheReadBuffer) {
  const Outcome whole = expect_agree("large log");
  EXPECT_EQ(whole.report.replayed, 50000u);
  const Outcome torn = expect_agree("large torn log", [&] {
    const fs::path seg = segment(0);
    fs::resize_file(seg, fs::file_size(seg) - 100);
  });
  EXPECT_TRUE(torn.report.torn);
  EXPECT_GT(torn.report.dropped_records, 0u);
}

// A read error is not a torn tail: recovery must refuse and leave every
// file as it was, even on a log whose tail really is torn.
TEST_F(StreamedRecoveryLargeTest, ReadErrorMidSegmentThrowsAndTouchesNothing) {
  {
    std::ofstream f(segment(1), std::ios::binary | std::ios::app);
    f << "torn-tail-garbage";
  }
  keep_pristine();
  restore();
  const std::map<std::string, std::string> before = snapshot(work_);
  io::FaultInjectingEnv env;
  // Read 0 takes the magic, read 1 the first block; read 2 lands in the
  // middle of the file.
  env.add_rule({io::kOpRead, segment(1).filename().string(), 2,
                io::FaultKind::kEio, 0});
  const Outcome got = streamed(&env);
  EXPECT_EQ(env.faults_injected(), 1u);
  EXPECT_NE(got.error.find("Input/output error"), std::string::npos)
      << got.error;
  EXPECT_TRUE(snapshot(work_) == before) << "recovery modified the log";

  // Without the fault the same log recovers, repairing the real tear.
  const Outcome want = expect_agree("after the fault");
  EXPECT_TRUE(want.error.empty()) << want.error;
  EXPECT_TRUE(want.report.torn);
}

TEST_F(StreamedRecoveryLargeTest, EintrStormOnReadsIsAbsorbed) {
  io::FaultInjectingEnv env;
  env.add_rule({io::kOpRead, ".seg", 0, io::FaultKind::kEintr, 40});
  const Outcome want = expect_agree("EINTR storm", {}, &env);
  EXPECT_EQ(env.faults_injected(), 40u);
  EXPECT_TRUE(want.error.empty()) << want.error;
}

}  // namespace
}  // namespace cdbp::serve
