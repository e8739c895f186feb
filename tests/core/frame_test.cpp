// The frame codec's contract (core/frame.h): round trip, strict prefixes,
// arbitrary feed splits, typed errors, the poison state, payload views,
// file-fed decoding and the sealed-file pair — plus CRC pins on the bytes
// of every format built on it, so a port of the codec cannot change them.
#include "core/frame.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "net/protocol.h"
#include "serve/durable_session.h"
#include "workloads/general_random.h"
#include "workloads/instance_file.h"

namespace cdbp {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kCap = 300;

/// Payloads of assorted sizes, including 1 byte and exactly the cap.
std::vector<std::string> sample_payloads() {
  std::mt19937_64 rng(7);
  std::vector<std::string> out;
  for (const std::size_t n : {1u, 7u, 8u, 9u, 64u, 255u, 300u, 2u}) {
    std::string p(n, '\0');
    for (char& c : p) c = static_cast<char>(rng() & 0xFF);
    out.push_back(p);
  }
  return out;
}

std::string encode(const std::vector<std::string>& payloads) {
  std::string wire;
  for (const std::string& p : payloads) append_frame(wire, p);
  return wire;
}

/// Drains every complete frame, copying each payload out.
std::vector<std::string> drain(FrameDecoder& dec) {
  std::vector<std::string> out;
  std::string_view view;
  while (dec.next(view) == FrameStatus::kFrame) out.emplace_back(view);
  return out;
}

std::string read_bytes(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class FrameFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdbp_frame_test_" + std::string(::testing::UnitTest::GetInstance()
                                                 ->current_test_info()
                                                 ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

TEST(Frame, RoundTripsEveryPayload) {
  const std::vector<std::string> payloads = sample_payloads();
  const std::string wire = encode(payloads);
  std::size_t expected = 0;
  for (const std::string& p : payloads)
    expected += kFrameHeaderBytes + p.size();
  EXPECT_EQ(wire.size(), expected);

  FrameDecoder dec(kCap);
  dec.feed(wire.data(), wire.size());
  EXPECT_EQ(drain(dec), payloads);
  EXPECT_EQ(dec.pending_bytes(), 0u);
  EXPECT_EQ(dec.error_code(), FrameError::kNone);
  EXPECT_TRUE(dec.error().empty());
}

TEST(Frame, HeaderIsLittleEndianLengthThenCrc) {
  std::string wire;
  append_frame(wire, "123456789");
  ASSERT_EQ(wire.size(), 8u + 9u);
  EXPECT_EQ(wire.substr(0, 4), std::string("\x09\0\0\0", 4));
  // crc32("123456789") = 0xCBF43926, the IEEE check value.
  EXPECT_EQ(wire.substr(4, 4), std::string("\x26\x39\xF4\xCB", 4));
  EXPECT_EQ(wire.substr(8), "123456789");
}

TEST(Frame, EveryStrictPrefixNeedsMore) {
  const std::string payload = sample_payloads()[4];
  std::string wire;
  append_frame(wire, payload);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder dec(kCap);
    dec.feed(wire.data(), cut);
    std::string_view view;
    EXPECT_EQ(dec.next(view), FrameStatus::kNeedMore) << "prefix " << cut;
    EXPECT_EQ(dec.pending_bytes(), cut);
    dec.feed(wire.data() + cut, wire.size() - cut);
    ASSERT_EQ(dec.next(view), FrameStatus::kFrame) << "prefix " << cut;
    EXPECT_EQ(view, payload);
  }
}

TEST(Frame, ByteAtATimeFeedYieldsTheSameFrames) {
  const std::vector<std::string> payloads = sample_payloads();
  const std::string wire = encode(payloads);
  FrameDecoder dec(kCap);
  std::vector<std::string> got;
  for (const char b : wire) {
    dec.feed(&b, 1);
    for (std::string& p : drain(dec)) got.push_back(std::move(p));
  }
  EXPECT_EQ(got, payloads);
  EXPECT_EQ(dec.pending_bytes(), 0u);
}

TEST(Frame, ErrorsAreTyped) {
  struct Case {
    std::string wire;
    FrameError code;
    const char* message_part;
  };
  std::string empty;
  append_frame(empty, "");
  std::string oversize;
  append_frame(oversize, std::string(kCap + 1, 'x'));
  std::string bad_crc;
  append_frame(bad_crc, "payload");
  bad_crc.back() = static_cast<char>(bad_crc.back() ^ 0x01);
  for (const Case& c : {Case{empty, FrameError::kEmpty, "empty"},
                        Case{oversize, FrameError::kTooLarge, "exceeds cap"},
                        Case{bad_crc, FrameError::kBadCrc, "CRC"}}) {
    FrameDecoder dec(kCap);
    dec.feed(c.wire.data(), c.wire.size());
    std::string_view view;
    EXPECT_EQ(dec.next(view), FrameStatus::kBad) << c.message_part;
    EXPECT_EQ(dec.error_code(), c.code) << c.message_part;
    EXPECT_NE(dec.error().find(c.message_part), std::string::npos)
        << dec.error();
  }
  // An oversize length is judged from the header alone: the decoder does
  // not wait for (or buffer) a payload it will refuse.
  FrameDecoder dec(kCap);
  dec.feed(oversize.data(), kFrameHeaderBytes);
  std::string_view view;
  EXPECT_EQ(dec.next(view), FrameStatus::kBad);
  EXPECT_EQ(dec.error_code(), FrameError::kTooLarge);
}

TEST(Frame, PoisonStatePersists) {
  std::string wire;
  append_frame(wire, "first");
  append_frame(wire, "second");
  wire[kFrameHeaderBytes] = 'F';  // the first frame's CRC no longer holds
  FrameDecoder dec(kCap);
  dec.feed(wire.data(), wire.size());
  std::string_view view;
  ASSERT_EQ(dec.next(view), FrameStatus::kBad);
  const std::string error = dec.error();

  std::string good;
  append_frame(good, "third");
  dec.feed(good.data(), good.size());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(dec.next(view), FrameStatus::kBad)
        << "a poisoned stream must never resynchronize";
    EXPECT_EQ(dec.error_code(), FrameError::kBadCrc);
    EXPECT_EQ(dec.error(), error);
  }
}

// next() hands out views into the decoder's own buffer: frames fed
// together come back contiguous, header bytes apart, with no copy.
TEST(Frame, PayloadViewsPointIntoTheBufferUntilTheNextCall) {
  const std::vector<std::string> payloads = sample_payloads();
  const std::string wire = encode(payloads);
  FrameDecoder dec(kCap);
  dec.feed(wire.data(), wire.size());
  std::string_view prev;
  ASSERT_EQ(dec.next(prev), FrameStatus::kFrame);
  EXPECT_EQ(prev, payloads[0]);
  for (std::size_t i = 1; i < payloads.size(); ++i) {
    std::string_view view;
    ASSERT_EQ(dec.next(view), FrameStatus::kFrame);
    EXPECT_EQ(view, payloads[i]);
    EXPECT_EQ(view.data(), prev.data() + prev.size() + kFrameHeaderBytes);
    prev = view;
  }
}

// A file reader sees a file through read blocks: frames straddle their
// edges and frames larger than a block are read whole.
TEST_F(FrameFileTest, FileFedDecoderReadsFramesAcrossBlocks) {
  std::mt19937_64 rng(11);
  std::vector<std::string> payloads;
  std::size_t total = 0;
  while (total < 5 * kReadBlockBytes) {
    const std::size_t n = rng() % 3 == 0 ? kReadBlockBytes + rng() % 5000
                                         : 1 + rng() % 400;
    payloads.emplace_back(n, static_cast<char>('a' + payloads.size() % 26));
    total += kFrameHeaderBytes + n;
  }
  const std::string wire = encode(payloads);
  const std::string file = path("frames.bin");
  std::ofstream(file, std::ios::binary) << wire;

  std::unique_ptr<io::File> f = io::open_existing(io::Env::posix(), file);
  ASSERT_NE(f, nullptr);
  FrameDecoder dec(2 * kReadBlockBytes);
  std::vector<std::string> got;
  std::string_view view;
  FrameStatus st;
  while ((st = dec.next(*f, file, view)) == FrameStatus::kFrame)
    got.emplace_back(view);
  EXPECT_EQ(st, FrameStatus::kNeedMore);
  EXPECT_EQ(dec.pending_bytes(), 0u) << "clean end at a frame boundary";
  EXPECT_EQ(got, payloads);

  // Cut inside the last frame: the file ends with bytes pending.
  std::ofstream(file, std::ios::binary | std::ios::trunc)
      << wire.substr(0, wire.size() - 3);
  f = io::open_existing(io::Env::posix(), file);
  FrameDecoder torn(2 * kReadBlockBytes);
  std::size_t frames = 0;
  while ((st = torn.next(*f, file, view)) == FrameStatus::kFrame) ++frames;
  EXPECT_EQ(st, FrameStatus::kNeedMore);
  EXPECT_EQ(frames, payloads.size() - 1);
  EXPECT_EQ(torn.pending_bytes(),
            kFrameHeaderBytes + payloads.back().size() - 3);
}

TEST_F(FrameFileTest, SealedFileRoundTripsAndRefusesDamage) {
  io::Env& env = io::Env::posix();
  const std::string file = path("state.bin");
  std::string payload;
  EXPECT_FALSE(read_sealed_file(env, file, "CDBPTST2", payload));

  write_sealed_file(env, file, "CDBPTST2", "hello, sealed world");
  EXPECT_FALSE(fs::exists(file + ".tmp"));
  const std::string bytes = read_bytes(file);
  ASSERT_EQ(bytes.size(), 8u + 12u + 19u);
  EXPECT_EQ(bytes.substr(0, 8), "CDBPTST2");
  ASSERT_TRUE(read_sealed_file(env, file, "CDBPTST2", payload));
  EXPECT_EQ(payload, "hello, sealed world");

  const auto expect_throw = [&](const std::string& damaged,
                                const std::string& message_part) {
    std::ofstream(file, std::ios::binary | std::ios::trunc) << damaged;
    try {
      (void)read_sealed_file(env, file, "CDBPTST2", payload);
      ADD_FAILURE() << "accepted: " << message_part;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(message_part), std::string::npos)
          << e.what();
    }
  };
  expect_throw("CDBPTST1" + bytes.substr(8), "CDBPTST1");  // named version
  expect_throw("NOTMAGIC" + bytes.substr(8), "bad header");
  expect_throw(bytes.substr(0, bytes.size() - 1), "truncated");
  std::string flipped = bytes;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x10);
  expect_throw(flipped, "CRC");
  for (std::size_t cut = 0; cut < 20; ++cut)
    expect_throw(bytes.substr(0, cut), "CDBPTST2");
}

// CRC32 pins over the bytes each format writes for fixed inputs: a
// failure here means a file or wire format changed.
TEST_F(FrameFileTest, FormatBytesMatchTheirPins) {
  std::mt19937_64 rng(3);
  workloads::GeneralConfig gc;
  gc.target_items = 200;
  gc.log2_mu = 5;
  gc.horizon = 40.0;
  const Instance instance = workloads::make_general_random(gc, rng);
  ASSERT_GT(instance.size(), 120u);
  const auto crc_of = [](const std::string& bytes) {
    return crc32(bytes.data(), bytes.size());
  };

  const std::string cdbpi = path("pin.cdbpi");
  workloads::write_instance_file(cdbpi, instance, /*chunk_items=*/64);
  EXPECT_EQ(crc_of(read_bytes(cdbpi)), 0x86157277u) << "cdbpi";

  serve::DurableSessionConfig sc;
  sc.wal_path = path("pin.wal");
  sc.checkpoint_path = path("pin.ckpt");
  sc.fsync = serve::FsyncPolicy::kNone;
  sc.checkpoint_every = 50;
  sc.wal_segment_bytes = 2048;
  {
    serve::DurableSession s(cli::make_algorithm("ha"), "ha", sc);
    for (std::size_t i = 0; i < 120; ++i) {
      const Item& it = instance[i];
      s.offer(it.arrival, it.departure, it.size, i + 1,
              i % 3 == 0 ? "tenant-a" : "tenant-b");
    }
    s.close();
  }
  EXPECT_EQ(crc_of(read_bytes(sc.checkpoint_path)), 0x0B71F931u)
      << "checkpoint";
  EXPECT_EQ(crc_of(read_bytes(sc.wal_path + ".manifest")), 0xDAF2FAC9u)
      << "manifest";

  std::string wire(net::kMagic, net::kMagicLen);
  net::Request req;
  req.type = net::MsgType::kHello;
  req.tenant = "tenant-a";
  net::encode_request(req, wire);
  for (std::size_t i = 0; i < 20; ++i) {
    const Item& it = instance[i];
    req = net::Request{};
    req.type = net::MsgType::kOffer;
    req.id = i + 1;
    req.arrival = it.arrival;
    req.departure = it.departure;
    req.size = it.size;
    net::encode_request(req, wire);
  }
  for (const net::MsgType type :
       {net::MsgType::kDepart, net::MsgType::kAdvance, net::MsgType::kStats,
        net::MsgType::kPing}) {
    req = net::Request{};
    req.type = type;
    req.id = 21 + static_cast<std::uint64_t>(type);
    req.time = 12.5;
    net::encode_request(req, wire);
  }
  net::Response resp;
  for (std::uint64_t id = 1; id <= 20; ++id) {
    resp = net::Response{};
    resp.type = net::MsgType::kAck;
    resp.id = id;
    resp.seq = id - 1;
    resp.bin = static_cast<std::int64_t>(id % 7);
    resp.shard = id % 4;
    net::encode_response(resp, wire);
  }
  resp = net::Response{};
  resp.type = net::MsgType::kError;
  resp.id = 9;
  resp.code = net::ErrCode::kQuota;
  resp.text = "tenant over offer rate limit";
  net::encode_response(resp, wire);
  resp = net::Response{};
  resp.type = net::MsgType::kStatsReply;
  resp.id = 10;
  resp.text = "accepted=20\nactive=3\n";
  net::encode_response(resp, wire);
  resp = net::Response{};
  resp.type = net::MsgType::kPong;
  resp.id = 11;
  net::encode_response(resp, wire);
  EXPECT_EQ(crc_of(wire), 0xF0430215u) << "CDBPNET1";
}

}  // namespace
}  // namespace cdbp
