#include "core/checkpoint.h"

#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "core/frame.h"
#include "core/session.h"
#include "test_util.h"
#include "workloads/aligned_random.h"
#include "workloads/general_random.h"

namespace cdbp {
namespace {

TEST(Crc32, MatchesIeeeCheckValue) {
  // The canonical CRC-32 check value: crc32("123456789") = 0xCBF43926.
  const std::string s = "123456789";
  EXPECT_EQ(crc32(s.data(), s.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  // Chaining over a split equals one pass over the whole.
  const std::uint32_t part = crc32(s.data(), 4);
  EXPECT_EQ(crc32(s.data() + 4, 5, part), 0xCBF43926u);
}

/// Bit-at-a-time CRC-32 straight from the polynomial: the oracle the
/// table-driven implementation must match bit for bit.
std::uint32_t crc32_bitwise(const unsigned char* p, std::size_t n,
                            std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return ~c;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  std::mt19937_64 rng(2024);
  std::vector<unsigned char> buf(4096 + 16);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
  // Every length through a few 8-byte blocks, at every alignment.
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 80; ++len)
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_bitwise(buf.data() + offset, len, 0))
          << "offset " << offset << " len " << len;
  // Random lengths, offsets, and seeds.
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t offset = rng() % 16;
    const std::size_t len = rng() % 4096;
    const auto seed = static_cast<std::uint32_t>(rng());
    ASSERT_EQ(crc32(buf.data() + offset, len, seed),
              crc32_bitwise(buf.data() + offset, len, seed))
        << "offset " << offset << " len " << len;
  }
}

TEST(Crc32, ChainingEqualsOnePassAtEverySplit) {
  std::mt19937_64 rng(7);
  std::vector<unsigned char> buf(203);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng());
  const std::uint32_t whole = crc32(buf.data(), buf.size());
  for (std::size_t split = 0; split <= buf.size(); ++split)
    ASSERT_EQ(crc32(buf.data() + split, buf.size() - split,
                    crc32(buf.data(), split)),
              whole)
        << "split " << split;
}

TEST(StateCodec, RoundTripsEveryFieldType) {
  StateWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(0.1);
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(std::numeric_limits<double>::quiet_NaN());
  w.f64(std::numeric_limits<double>::denorm_min());
  w.str("tenant/42");
  w.str("");

  StateReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 0.1);
  const double neg_zero = r.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_TRUE(std::isinf(r.f64()));
  EXPECT_TRUE(std::isnan(r.f64()));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(r.str(), "tenant/42");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.at_end());
}

TEST(StateCodec, UnderrunThrows) {
  StateWriter w;
  w.u32(7);
  StateReader r(w.buffer());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_THROW((void)r.u8(), std::runtime_error);
  StateReader r2(w.buffer());
  EXPECT_THROW((void)r2.u64(), std::runtime_error);
}

// --- Session + algorithm state round-trips ------------------------------

/// Feeds `instance` items [0, cut) into a live session, snapshots it,
/// restores into a fresh session+algorithm, then feeds [cut, n) into BOTH
/// and requires bit-identical decisions and final costs.
void check_mid_stream_roundtrip(const testutil::NamedFactory& factory,
                                const Instance& instance, std::size_t cut) {
  const AlgorithmPtr algo_a = factory.make();
  auto* ckpt_a = dynamic_cast<Checkpointable*>(algo_a.get());
  ASSERT_NE(ckpt_a, nullptr) << factory.name << " is not Checkpointable";
  InteractiveSession a(*algo_a);
  for (std::size_t i = 0; i < cut; ++i) {
    const Item& it = instance[i];
    a.offer(it.arrival, it.departure, it.size);
  }

  StateWriter w;
  a.save_state(w);
  ckpt_a->save_state(w);

  const AlgorithmPtr algo_b = factory.make();
  auto* ckpt_b = dynamic_cast<Checkpointable*>(algo_b.get());
  InteractiveSession b(*algo_b);
  StateReader r(w.buffer());
  b.load_state(r);
  ckpt_b->load_state(r);
  EXPECT_TRUE(r.at_end()) << factory.name << ": trailing state bytes";

  for (std::size_t i = cut; i < instance.size(); ++i) {
    const Item& it = instance[i];
    const BinId bin_a = a.offer(it.arrival, it.departure, it.size);
    const BinId bin_b = b.offer(it.arrival, it.departure, it.size);
    ASSERT_EQ(bin_b, bin_a)
        << factory.name << ": diverged at item " << i << " (cut " << cut
        << ")";
  }
  const Cost cost_a = a.finish();
  const Cost cost_b = b.finish();
  EXPECT_EQ(cost_b, cost_a) << factory.name << ": costs differ";
  EXPECT_EQ(b.open_bins(), a.open_bins());
}

/// Every servable algorithm, built as `cdbp` builds it; CDFF only when
/// the input is aligned.
std::vector<testutil::NamedFactory> servable_factories(bool aligned) {
  std::vector<testutil::NamedFactory> out;
  for (const std::string& name : cli::algorithm_names())
    if (aligned || name != "cdff")
      out.push_back({name, [name] { return cli::make_algorithm(name); }});
  return out;
}

TEST(Checkpoint, MidStreamRoundTripOnGeneralInputs) {
  std::mt19937_64 rng(11);
  workloads::GeneralConfig cfg;
  cfg.target_items = 120;
  cfg.log2_mu = 5;
  cfg.horizon = 64.0;
  const Instance instance = workloads::make_general_random(cfg, rng);
  ASSERT_GE(instance.size(), 40u);
  for (const auto& factory : servable_factories(false))
    for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                  instance.size() / 2, instance.size() - 1})
      check_mid_stream_roundtrip(factory, instance, cut);
}

TEST(Checkpoint, MidStreamRoundTripOnAlignedInputs) {
  std::mt19937_64 rng(13);
  workloads::AlignedConfig cfg;
  cfg.n = 5;
  cfg.max_bucket = 5;
  const Instance instance = workloads::make_aligned_random(cfg, rng);
  ASSERT_GE(instance.size(), 20u);
  for (const auto& factory : servable_factories(true))
    for (const std::size_t cut : {std::size_t{1}, instance.size() / 2})
      check_mid_stream_roundtrip(factory, instance, cut);
}

TEST(Checkpoint, LoadIntoUsedSessionThrows) {
  algos::FirstFit ff;
  InteractiveSession fresh(ff);
  StateWriter w;
  fresh.save_state(w);

  algos::FirstFit ff2;
  InteractiveSession used(ff2);
  used.offer(0.0, 1.0, 0.5);
  StateReader r(w.buffer());
  EXPECT_THROW(used.load_state(r), std::logic_error);
}

TEST(Checkpoint, TruncatedSessionStateThrows) {
  algos::FirstFit ff;
  InteractiveSession a(ff);
  a.offer(0.0, 2.0, 0.5);
  a.offer(1.0, 3.0, 0.25);
  StateWriter w;
  a.save_state(w);

  algos::FirstFit ff2;
  InteractiveSession b(ff2);
  StateReader r(std::string_view(w.buffer()).substr(0, w.size() - 3));
  EXPECT_THROW(b.load_state(r), std::runtime_error);
}

TEST(Checkpoint, LedgerRestoreReproducesIndexDecisions) {
  // After restore, indexed bin selection must see the same candidate set:
  // place items that leave several partially-filled bins, snapshot, then
  // offer a probe that fits only one specific bin.
  algos::BestFit bf;
  InteractiveSession a(bf);
  a.offer(0.0, 10.0, 0.7);   // bin 0 at 0.7
  a.offer(0.0, 10.0, 0.5);   // bin 1 at 0.5
  a.offer(0.0, 10.0, 0.55);  // bin 2 at 0.55
  StateWriter w;
  a.save_state(w);
  dynamic_cast<Checkpointable&>(bf).save_state(w);

  algos::BestFit bf2;
  InteractiveSession b(bf2);
  StateReader r(w.buffer());
  b.load_state(r);
  dynamic_cast<Checkpointable&>(bf2).load_state(r);

  // Best-Fit: 0.3 goes to the fullest bin that fits = bin 0.
  EXPECT_EQ(a.offer(1.0, 5.0, 0.3), b.offer(1.0, 5.0, 0.3));
  // 0.45 no longer fits bin 0 (1.0) — best fit is bin 2 (0.55).
  EXPECT_EQ(a.offer(2.0, 5.0, 0.45), 2);
  EXPECT_EQ(b.offer(2.0, 5.0, 0.45), 2);
  EXPECT_EQ(a.finish(), b.finish());
}

}  // namespace
}  // namespace cdbp
