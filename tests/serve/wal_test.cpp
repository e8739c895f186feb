#include "serve/wal.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint.h"
#include "core/frame.h"

namespace cdbp::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kOfferFrameBytes = 8 + 57;  // tenant-less offer

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdbp_wal_test_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + std::string(::testing::UnitTest::GetInstance()
                                  ->current_test_info()
                                  ->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
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

void write_records(const std::string& file,
                   const std::vector<WalRecord>& records,
                   FsyncPolicy policy = FsyncPolicy::kNone) {
  WalWriter w(file, policy, /*truncate=*/true);
  for (const WalRecord& rec : records) w.append(rec);
  w.close();
}

TEST_F(WalTest, RoundTripsRecordsBitExactly) {
  const std::string file = path("a.wal");
  const std::vector<WalRecord> records = sample_records(25, 7);
  write_records(file, records, FsyncPolicy::kEvery);

  const WalReadResult r = read_wal(file);
  EXPECT_TRUE(r.exists);
  EXPECT_FALSE(r.torn);
  ASSERT_EQ(r.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(r.records[i], records[i]) << "record " << i;
  EXPECT_EQ(r.valid_bytes, fs::file_size(file));
}

TEST_F(WalTest, MissingFileIsEmptyNotTorn) {
  const WalReadResult r = read_wal(path("nope.wal"));
  EXPECT_FALSE(r.exists);
  EXPECT_FALSE(r.torn);
  EXPECT_TRUE(r.records.empty());
}

TEST_F(WalTest, CorruptHeaderIsTornAtZero) {
  const std::string file = path("bad.wal");
  std::ofstream(file, std::ios::binary) << "NOTAWAL!garbage";
  const WalReadResult r = read_wal(file);
  EXPECT_TRUE(r.exists);
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_TRUE(r.records.empty());
}

// The satellite's torn-write property: truncate the file at EVERY byte
// offset inside the last frame; the reader must always return exactly the
// intact prefix and flag the tail, and never crash or return garbage.
TEST_F(WalTest, TornWriteAtEveryByteOffsetOfLastFrame) {
  const std::string file = path("full.wal");
  const std::vector<WalRecord> records = sample_records(6, 42);
  write_records(file, records);
  const std::uint64_t full = fs::file_size(file);

  // Locate the last frame's start: re-reading after truncating to one
  // record less gives its boundary.
  const WalReadResult whole = read_wal(file);
  ASSERT_FALSE(whole.torn);
  ASSERT_EQ(whole.records.size(), records.size());
  ASSERT_EQ(full, kSegmentHeaderBytes + records.size() * kOfferFrameBytes);
  const std::uint64_t last_start = full - kOfferFrameBytes;

  for (std::uint64_t cut = last_start; cut < full; ++cut) {
    const std::string torn_file = path("torn.wal");
    fs::copy_file(file, torn_file, fs::copy_options::overwrite_existing);
    truncate_wal(torn_file, cut);

    const WalReadResult r = read_wal(torn_file);
    EXPECT_TRUE(r.exists);
    ASSERT_EQ(r.records.size(), records.size() - 1) << "cut at " << cut;
    EXPECT_EQ(r.valid_bytes, last_start) << "cut at " << cut;
    if (cut == last_start) {
      // Clean frame boundary: nothing dangles.
      EXPECT_FALSE(r.torn);
    } else {
      EXPECT_TRUE(r.torn) << "cut at " << cut;
      EXPECT_FALSE(r.tail_error.empty());
    }
    for (std::size_t i = 0; i + 1 < records.size(); ++i)
      EXPECT_EQ(r.records[i], records[i]);

    // Repair + append continues the log where the intact prefix ended.
    truncate_wal(torn_file, r.valid_bytes);
    WalWriter w(torn_file, FsyncPolicy::kNone, /*truncate=*/false);
    w.append(records.back());
    w.close();
    const WalReadResult healed = read_wal(torn_file);
    EXPECT_FALSE(healed.torn);
    ASSERT_EQ(healed.records.size(), records.size());
    EXPECT_EQ(healed.records.back(), records.back());
  }
}

TEST_F(WalTest, PayloadCorruptionStopsAtBadFrame) {
  const std::string file = path("crc.wal");
  const std::vector<WalRecord> records = sample_records(5, 9);
  write_records(file, records);

  // Flip one byte inside record 2's payload (frames are fixed-size).
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(kSegmentHeaderBytes +
                                      2 * kOfferFrameBytes + 8 + 3));
  f.put('\xFF');
  f.close();

  const WalReadResult r = read_wal(file);
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.records.size(), 2u);
  EXPECT_NE(r.tail_error.find("CRC"), std::string::npos);
}

TEST_F(WalTest, AppendModePreservesExistingRecords) {
  const std::string file = path("app.wal");
  const std::vector<WalRecord> records = sample_records(8, 3);
  {
    WalWriter w(file, FsyncPolicy::kEvery, /*truncate=*/true);
    for (std::size_t i = 0; i < 4; ++i) w.append(records[i]);
    w.close();
  }
  {
    WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/false);
    for (std::size_t i = 4; i < 8; ++i) w.append(records[i]);
    w.close();
  }
  const WalReadResult r = read_wal(file);
  ASSERT_EQ(r.records.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(r.records[i], records[i]);
}

TEST_F(WalTest, TruncateModeStartsFresh) {
  const std::string file = path("fresh.wal");
  write_records(file, sample_records(6, 1));
  write_records(file, sample_records(2, 2));
  EXPECT_EQ(read_wal(file).records.size(), 2u);
}

TEST_F(WalTest, FsyncPolicyParsing) {
  EXPECT_EQ(parse_fsync_policy("none"), FsyncPolicy::kNone);
  EXPECT_EQ(parse_fsync_policy("every"), FsyncPolicy::kEvery);
  EXPECT_EQ(to_string(FsyncPolicy::kNone), "none");
  EXPECT_EQ(to_string(FsyncPolicy::kEvery), "every");
  // Any other name is refused, "batch" included, by an error that names
  // the valid policies.
  for (const char* name : {"batch", "often"}) {
    try {
      (void)parse_fsync_policy(name);
      ADD_FAILURE() << name << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("none|every"), std::string::npos)
          << e.what();
    }
  }
}

// Frame-format v2 envelope rule: an intact frame whose type byte is
// unknown must be SKIPPED, not treated as corruption — records appended by
// a newer writer replay through an older reader. Pre-fix, the reader
// hard-failed on any frame whose length differed from the offer payload.
TEST_F(WalTest, UnknownRecordTypeIsSkippedNotFatal) {
  const std::string file = path("future.wal");
  const std::vector<WalRecord> records = sample_records(5, 21);
  {
    WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/true);
    for (std::size_t i = 0; i < 3; ++i) w.append(records[i]);
    w.close();
  }
  {
    // Hand-craft an envelope-valid frame of unknown type 9.
    std::string frame;
    append_frame(frame, std::string("\x09") + "future-record-kind");
    std::ofstream f(file, std::ios::binary | std::ios::app);
    f.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  }
  {
    WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/false);
    for (std::size_t i = 3; i < 5; ++i) w.append(records[i]);
    w.close();
  }
  const WalReadResult r = read_wal(file);
  EXPECT_FALSE(r.torn) << r.tail_error;
  EXPECT_EQ(r.unknown_records, 1u);
  ASSERT_EQ(r.records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(r.records[i], records[i]);
  EXPECT_EQ(r.valid_bytes, fs::file_size(file));
}

// One offer frame for every record: with or without a tenant, records
// round-trip as type-1 frames, and a tenant-less one carries an empty
// tenant (an 8-byte zero length) — the frame is never a different layout.
TEST_F(WalTest, TenantlessRecordsRoundTrip) {
  const std::string file = path("tenantless.wal");
  std::vector<WalRecord> records = sample_records(6, 11);
  write_records(file, records, FsyncPolicy::kEvery);
  WalReadResult r = read_wal(file);
  EXPECT_FALSE(r.torn) << r.tail_error;
  EXPECT_EQ(r.records, records);
  EXPECT_EQ(fs::file_size(file),
            kSegmentHeaderBytes + records.size() * kOfferFrameBytes);
  EXPECT_EQ(r.frame_type_counts,
            (std::map<unsigned, std::uint64_t>{{1u, records.size()}}));

  records[1].tenant = "alice";
  records[3].tenant = "bob-2.example";
  records[4].tenant = "alice";
  write_records(file, records);
  r = read_wal(file);
  EXPECT_FALSE(r.torn) << r.tail_error;
  EXPECT_EQ(r.records, records);
  EXPECT_EQ(r.frame_type_counts,
            (std::map<unsigned, std::uint64_t>{{1u, records.size()}}));
}

// A CRC-valid offer frame whose tenant_len disagrees with the payload's
// remaining bytes is corruption, not a short tenant: the reader must stop
// at the intact prefix and flag the tail.
TEST_F(WalTest, TenantFrameWithBadLengthIsTorn) {
  const std::string file = path("badlen.wal");
  const std::vector<WalRecord> records = sample_records(2, 13);
  write_records(file, records);

  const auto append_offer = [&](std::uint64_t tenant_len,
                                const std::string& tenant_bytes) {
    StateWriter payload;
    payload.u8(1);
    for (int i = 0; i < 6; ++i) payload.u64(0);  // fixed offer fields
    payload.u64(tenant_len);
    std::string frame;
    append_frame(frame, payload.buffer() + tenant_bytes);
    std::ofstream f(file, std::ios::binary | std::ios::app);
    f.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  };

  // tenant_len claims 99 bytes but only 4 follow, then 2 but 4 follow.
  for (const std::uint64_t tenant_len : {99u, 2u}) {
    append_offer(tenant_len, "oops");
    const WalReadResult r = read_wal(file);
    EXPECT_TRUE(r.torn);
    EXPECT_EQ(r.records.size(), 2u);
    EXPECT_EQ(r.tail_error, "bad offer frame length");
    truncate_wal(file, r.valid_bytes);
  }
}

TEST_F(WalTest, SegmentHeaderRoundTripsBaseSeq) {
  const std::string file = path("seg.wal");
  std::vector<WalRecord> records = sample_records(4, 33);
  for (std::size_t i = 0; i < records.size(); ++i) records[i].seq = 42 + i;
  {
    WalWriter w(file, FsyncPolicy::kEvery, /*truncate=*/true, 42);
    for (const WalRecord& rec : records) w.append(rec);
    w.close();
  }
  const WalReadResult r = read_wal(file);
  EXPECT_TRUE(r.exists);
  EXPECT_FALSE(r.torn) << r.tail_error;
  EXPECT_EQ(r.base_seq, 42u);
  ASSERT_EQ(r.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(r.records[i], records[i]);
}

TEST_F(WalTest, CorruptSegmentHeaderIsTornAtZero) {
  const std::string file = path("seghdr.wal");
  {
    WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/true, 7);
    w.append(sample_records(1, 2)[0]);
    w.close();
  }
  // Flip a byte inside the header's base_seq: the header CRC must reject
  // the whole file rather than trust a wrong base sequence.
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(17);
  f.put('\x55');
  f.close();
  const WalReadResult r = read_wal(file);
  EXPECT_TRUE(r.torn);
  EXPECT_EQ(r.valid_bytes, 0u);
  EXPECT_EQ(r.tail_error, "corrupt segment header");
}

/// An envelope-valid frame of `type` whose payload is `payload_len` bytes.
std::string raw_frame(std::uint8_t type, std::size_t payload_len) {
  std::string payload(payload_len, '\x5A');
  payload[0] = static_cast<char>(type);
  std::string frame;
  append_frame(frame, payload);
  return frame;
}

void append_bytes(const std::string& file, const std::string& bytes) {
  std::ofstream f(file, std::ios::binary | std::ios::app);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// The reader reads the 8-byte magic, then kReadBlockBytes blocks. A filler
// frame parks the next offer frame so that it starts `before_edge` bytes
// short of the first block's end — inside its 8-byte envelope header for
// small values, inside its payload for larger ones — and the frame must
// still decode once the next block arrives.
TEST_F(WalTest, FrameStraddlingTheReadBufferEdgeDecodes) {
  const std::vector<WalRecord> records = sample_records(4, 17);
  const std::size_t edge = 8 + kReadBlockBytes;
  for (const std::size_t before_edge : {1u, 4u, 7u, 8u, 9u, 30u, 64u}) {
    const std::string file = path("edge.wal");
    {
      WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/true);
      w.close();
    }
    // Segment header + filler frame end exactly at edge - before_edge.
    append_bytes(file, raw_frame(9, edge - before_edge - kSegmentHeaderBytes -
                                        kFrameHeaderBytes));
    {
      WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/false);
      for (const WalRecord& rec : records) w.append(rec);
      w.close();
    }
    const WalReadResult r = read_wal(file);
    EXPECT_FALSE(r.torn) << r.tail_error << " at " << before_edge;
    EXPECT_EQ(r.unknown_records, 1u);
    ASSERT_EQ(r.records.size(), records.size()) << "at " << before_edge;
    for (std::size_t i = 0; i < records.size(); ++i)
      EXPECT_EQ(r.records[i], records[i]) << "at " << before_edge;
    EXPECT_EQ(r.valid_bytes, fs::file_size(file));
  }
}

// The largest legal frame, many blocks long, is read even when it starts
// mid-block; one byte more is a bad length, i.e. torn tail.
TEST_F(WalTest, MaxPayloadFrameIsReadAndOneMoreByteIsTorn) {
  const std::string file = path("max.wal");
  const std::vector<WalRecord> records = sample_records(5, 19);
  {
    WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/true);
    for (std::size_t i = 0; i < 3; ++i) w.append(records[i]);
    w.close();
  }
  append_bytes(file, raw_frame(9, kMaxFramePayload));
  {
    WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/false);
    for (std::size_t i = 3; i < 5; ++i) w.append(records[i]);
    w.close();
  }
  const WalReadResult r = read_wal(file);
  EXPECT_FALSE(r.torn) << r.tail_error;
  EXPECT_EQ(r.unknown_records, 1u);
  EXPECT_EQ(r.frame_type_counts.at(9), 1u);
  ASSERT_EQ(r.records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(r.records[i], records[i]);

  const std::uint64_t intact = r.valid_bytes;
  append_bytes(file, raw_frame(9, kMaxFramePayload + 1));
  const WalReadResult over = read_wal(file);
  EXPECT_TRUE(over.torn);
  EXPECT_EQ(over.tail_error, "bad frame length");
  EXPECT_EQ(over.valid_bytes, intact);
  EXPECT_EQ(over.records.size(), 5u);
}

TEST_F(WalTest, StreamVisitsWhatReadCollects) {
  const std::string file = path("visit.wal");
  std::vector<WalRecord> records = sample_records(9, 23);
  records[2].tenant = "alice";
  records[7].tenant = "bob";
  write_records(file, records);
  std::vector<WalRecord> visited;
  const WalFileScan s = stream_wal(
      file, [&](const WalRecord& rec) { visited.push_back(rec); });
  const WalReadResult r = read_wal(file);
  EXPECT_EQ(visited, r.records);
  EXPECT_EQ(s.record_count, records.size());
  EXPECT_EQ(s.first_record_seq, records.front().seq);
  EXPECT_EQ(s.valid_bytes, r.valid_bytes);
  // A count-only pass needs no visitor.
  EXPECT_EQ(stream_wal(file, {}).record_count, records.size());
}

// A read error is not a torn tail: the reader must throw rather than
// report a shorter intact prefix that recovery would truncate to.
TEST_F(WalTest, ReadErrorThrowsAndEintrStormIsAbsorbed) {
  const std::string file = path("faulty.wal");
  const std::vector<WalRecord> records = sample_records(6, 29);
  write_records(file, records);
  {
    io::FaultInjectingEnv env;
    env.add_rule({io::kOpRead, "faulty.wal", 0, io::FaultKind::kEio, 0});
    EXPECT_THROW((void)read_wal(file, &env), std::runtime_error);
  }
  io::FaultInjectingEnv env;
  env.add_rule({io::kOpRead, "faulty.wal", 0, io::FaultKind::kEintr, 24});
  const WalReadResult r = read_wal(file, &env);
  EXPECT_EQ(env.faults_injected(), 24u);
  EXPECT_FALSE(r.torn);
  EXPECT_EQ(r.records, records);
}

TEST_F(WalTest, AppendAfterCloseThrows) {
  const std::string file = path("closed.wal");
  WalWriter w(file, FsyncPolicy::kNone, /*truncate=*/true);
  w.append(sample_records(1, 5)[0]);
  w.close();
  w.close();  // idempotent
  EXPECT_THROW(w.append(sample_records(1, 6)[0]), std::logic_error);
}

}  // namespace
}  // namespace cdbp::serve
