// The SoA ledger backend and its flat active-item map.
//
// The heavy cross-algorithm equivalence lives in
// tests/integration/equivalence_test.cpp (StorageEquivalence); this file
// covers the pieces directly: FlatItemMap behavior under growth and
// backward-shift deletion, the SoA ledger mirroring the reference backend
// op by op (every query, and the save_state bytes, which carry each open
// bin's group, opening time, load, item count and pool, every placement
// and the accumulators), its error paths, throughput mode
// (track_items=false) and its forgotten closed bins, cross-backend
// checkpoint compatibility (byte-identical buffers, either direction of
// restore), and the checkpoint decoder's checks on damaged input.
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "core/flat_map.h"
#include "core/ledger.h"
#include "core/session.h"
#include "core/simulator.h"

namespace cdbp {
namespace {

// --- FlatItemMap -----------------------------------------------------------

TEST(FlatItemMap, InsertFindTakeEraseLifecycle) {
  FlatItemMap map;
  EXPECT_TRUE(map.empty());
  EXPECT_TRUE(map.insert(7, 2, 0.25));
  EXPECT_FALSE(map.insert(7, 3, 0.5));  // duplicate id keeps the original
  ASSERT_NE(map.find(7), nullptr);
  EXPECT_EQ(map.find(7)->bin, 2);
  EXPECT_DOUBLE_EQ(map.find(7)->size, 0.25);
  EXPECT_EQ(map.find(8), nullptr);
  EXPECT_EQ(map.size(), 1u);

  ItemPlacement taken;
  EXPECT_TRUE(map.take(7, taken));
  EXPECT_EQ(taken.bin, 2);
  EXPECT_DOUBLE_EQ(taken.size, 0.25);
  EXPECT_FALSE(map.take(7, taken));
  EXPECT_TRUE(map.empty());

  EXPECT_TRUE(map.insert(9, 1, 0.1));
  EXPECT_TRUE(map.erase(9));
  EXPECT_FALSE(map.erase(9));
}

TEST(FlatItemMap, ReservedKeyRejected) {
  FlatItemMap map;
  EXPECT_THROW(map.insert(FlatItemMap::kEmptyKey, 0, 0.1),
               std::invalid_argument);
}

TEST(FlatItemMap, MirrorsUnorderedMapUnderRandomChurn) {
  // Random insert/erase churn cross-checked against std::unordered_map:
  // exercises growth, collisions, and backward-shift deletion together.
  std::mt19937_64 rng(7);
  FlatItemMap map;
  std::unordered_map<ItemId, std::pair<BinId, Load>> mirror;
  for (int op = 0; op < 20000; ++op) {
    const ItemId id = static_cast<ItemId>(rng() % 4096);
    if (rng() % 3 != 0) {
      const BinId bin = static_cast<BinId>(rng() % 100);
      const Load size = static_cast<double>(rng() % 1000) / 1000.0;
      EXPECT_EQ(map.insert(id, bin, size),
                mirror.emplace(id, std::make_pair(bin, size)).second);
    } else {
      ItemPlacement taken;
      const auto it = mirror.find(id);
      const bool expect_hit = it != mirror.end();
      EXPECT_EQ(map.take(id, taken), expect_hit);
      if (expect_hit) {
        EXPECT_EQ(taken.bin, it->second.first);
        EXPECT_EQ(taken.size, it->second.second);
        mirror.erase(it);
      }
    }
    ASSERT_EQ(map.size(), mirror.size());
  }
  // Everything still findable with the right payload after the churn.
  std::size_t visited = 0;
  map.for_each([&](const FlatItemMap::Slot& s) {
    const auto it = mirror.find(s.id);
    ASSERT_NE(it, mirror.end());
    EXPECT_EQ(s.bin, it->second.first);
    EXPECT_EQ(s.size, it->second.second);
    ++visited;
  });
  EXPECT_EQ(visited, mirror.size());
}

TEST(FlatItemMap, ClearResets) {
  FlatItemMap map;
  for (ItemId id = 0; id < 100; ++id) map.insert(id, 0, 0.1);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(5), nullptr);
  EXPECT_TRUE(map.insert(5, 1, 0.2));
}

// --- SoA ledger behavior ---------------------------------------------------

std::string saved_bytes(const Ledger& ledger) {
  StateWriter w;
  ledger.save_state(w);
  return w.buffer();
}

TEST(LedgerSoa, MirrorsReferenceUnderRandomOps) {
  // Drive both backends through one random op sequence and compare every
  // observable after every op. Bitwise comparisons throughout: the SoA
  // backend must do the identical FP arithmetic.
  std::mt19937_64 rng(11);
  Ledger ref(LedgerStorage::kReference);
  Ledger soa(LedgerStorage::kSoa);
  EXPECT_STREQ(to_string(LedgerStorage::kSoa), "soa");
  EXPECT_STREQ(to_string(LedgerStorage::kReference), "reference");

  Time now = 0.0;
  std::vector<ItemId> active;
  ItemId next_item = 0;
  for (int op = 0; op < 2000; ++op) {
    now += static_cast<double>(rng() % 4) * 0.25;
    const Load size = static_cast<double>(1 + rng() % 999) / 1000.0;
    const PoolId pool = static_cast<PoolId>(rng() % 3);
    if (active.empty() || rng() % 3 != 0) {
      BinId bin = ref.first_fit(pool, size);
      ASSERT_EQ(bin, soa.first_fit(pool, size));
      if (bin == kNoBin) {
        bin = ref.open_bin(now, pool, pool);
        ASSERT_EQ(bin, soa.open_bin(now, pool, pool));
      }
      ref.place(next_item, size, bin, now);
      soa.place(next_item, size, bin, now);
      active.push_back(next_item++);
    } else {
      const std::size_t k = rng() % active.size();
      const ItemId victim = active[k];
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(k));
      ASSERT_EQ(ref.remove(victim, now), soa.remove(victim, now));
    }
    ASSERT_EQ(ref.open_bins(), soa.open_bins());
    ASSERT_EQ(ref.bins_opened(), soa.bins_opened());
    ASSERT_EQ(ref.active_items(), soa.active_items());
    for (const ItemId id : active) ASSERT_EQ(ref.bin_of(id), soa.bin_of(id));
    ASSERT_EQ(ref.max_open(), soa.max_open());
    ASSERT_EQ(ref.total_usage(now), soa.total_usage(now));  // bitwise
    for (const PoolId p : {PoolId{0}, PoolId{1}, PoolId{2}}) {
      ASSERT_EQ(ref.best_fit(p, size), soa.best_fit(p, size));
      ASSERT_EQ(ref.worst_fit(p, size), soa.worst_fit(p, size));
      ASSERT_EQ(ref.newest_open_in_pool(p), soa.newest_open_in_pool(p));
    }
    for (const BinId b : ref.open_bins())
      ASSERT_EQ(ref.pool_of(b), soa.pool_of(b));
    ASSERT_EQ(saved_bytes(ref), saved_bytes(soa)) << "op " << op;
  }
  // Per-bin records agree once materialized. Which items each bin held is
  // the simulator's record; StorageEquivalence compares it across layouts
  // through RunResult::placements.
  const std::vector<BinRecord> ref_records = ref.records();
  const std::vector<BinRecord> soa_records = soa.records();
  ASSERT_EQ(ref_records.size(), soa_records.size());
  for (std::size_t b = 0; b < ref_records.size(); ++b) {
    const BinRecord& r = ref_records[b];
    const BinRecord& s = soa_records[b];
    EXPECT_EQ(r.id, s.id);
    EXPECT_EQ(r.group, s.group);
    EXPECT_EQ(r.opened, s.opened);
    EXPECT_EQ(r.closed, s.closed);
    EXPECT_EQ(r.load, s.load);
    EXPECT_EQ(r.active_items, s.active_items);
  }
}

TEST(LedgerSoa, ErrorPathsMatchReference) {
  Ledger soa(LedgerStorage::kSoa);
  const BinId b = soa.open_bin(0.0);
  soa.place(0, 0.7, b, 0.0);
  EXPECT_THROW(soa.place(1, 0.4, b, 0.0), std::logic_error);  // overflow
  EXPECT_THROW(soa.place(0, 0.1, b, 0.0), std::logic_error);  // double place
  EXPECT_THROW(soa.remove(99, 1.0), std::logic_error);        // ghost removal
  EXPECT_THROW(soa.open_bin(-1.0), std::logic_error);  // time backwards
  EXPECT_THROW((void)soa.load(42), std::out_of_range);  // unknown bin
  EXPECT_THROW((void)soa.is_open(42), std::out_of_range);
  EXPECT_THROW((void)soa.pool_of(42), std::out_of_range);
  soa.remove(0, 1.0);  // closes b
  EXPECT_THROW(soa.place(2, 0.1, b, 1.0), std::logic_error);  // closed bin
}

TEST(LedgerSoa, ThroughputModeDropsItemLog) {
  const Instance in{Item{0, 0.0, 1.0, 0.5}, Item{1, 0.0, 1.0, 0.25}};
  for (const LedgerStorage storage :
       {LedgerStorage::kReference, LedgerStorage::kSoa}) {
    Ledger ledger(storage, /*track_items=*/false);
    const BinId b = ledger.open_bin(0.0);
    ledger.place(0, 0.5, b, 0.0);
    ledger.place(1, 0.25, b, 0.0);
    // Costs and loads are unaffected; the SoA layout keeps no closed bins,
    // so it reports no records, and the reference layout keeps them.
    EXPECT_DOUBLE_EQ(ledger.load(b), 0.75);
    if (storage == LedgerStorage::kReference) {
      EXPECT_EQ(ledger.records().size(), 1u);
    } else {
      EXPECT_THROW((void)ledger.records(), std::logic_error);
    }
    // The item log is the simulator's: a history-free run keeps none, a
    // run with history one placement per item.
    algos::FirstFit ff;
    const RunResult lean =
        Simulator{{.keep_history = false, .storage = storage}}.run(in, ff);
    EXPECT_TRUE(lean.placements.empty());
    EXPECT_TRUE(lean.bins.empty());
    EXPECT_EQ(lean.cost, 1.0);
    const RunResult full =
        Simulator{{.keep_history = true, .storage = storage}}.run(in, ff);
    ASSERT_EQ(full.placements.size(), 2u);
    EXPECT_EQ(full.placements[0], 0);
    EXPECT_EQ(full.placements[1], 0);
    EXPECT_EQ(full.cost, lean.cost);
    // Checkpoints never carry that history, so they are the same bytes
    // with or without it.
    Ledger tracked(storage);
    const BinId tb = tracked.open_bin(0.0);
    tracked.place(0, 0.5, tb, 0.0);
    tracked.place(1, 0.25, tb, 0.0);
    StateWriter w, wt;
    ledger.save_state(w);
    tracked.save_state(wt);
    EXPECT_EQ(w.buffer(), wt.buffer());
  }
}

// --- Cross-backend checkpoints ---------------------------------------------

void drive(Ledger& ledger) {
  const BinId a = ledger.open_bin(0.0, /*group=*/0, /*pool=*/0);
  const BinId b = ledger.open_bin(1.0, /*group=*/1, /*pool=*/7);
  ledger.place(0, 0.5, a, 1.0);
  ledger.place(1, 0.25, b, 1.5);
  ledger.place(2, 0.125, a, 2.0);
  ledger.remove(0, 3.0);
  const BinId c = ledger.open_bin(4.0, /*group=*/0, /*pool=*/0);
  ledger.place(3, 0.875, c, 4.0);
  ledger.remove(3, 5.0);  // closes c
}

TEST(LedgerSoa, CheckpointsAreByteIdenticalAcrossBackends) {
  Ledger ref(LedgerStorage::kReference);
  Ledger soa(LedgerStorage::kSoa);
  drive(ref);
  drive(soa);
  StateWriter wr, ws;
  ref.save_state(wr);
  soa.save_state(ws);
  EXPECT_EQ(wr.buffer(), ws.buffer());
}

TEST(LedgerSoa, EitherBackendRestoresTheOtherBackendsCheckpoint) {
  for (const LedgerStorage writer_storage :
       {LedgerStorage::kReference, LedgerStorage::kSoa}) {
    Ledger writer(writer_storage);
    drive(writer);
    StateWriter w;
    writer.save_state(w);
    for (const LedgerStorage reader_storage :
         {LedgerStorage::kReference, LedgerStorage::kSoa}) {
      Ledger restored(reader_storage);
      StateReader r(w.buffer());
      restored.load_state(r);
      EXPECT_TRUE(r.at_end());
      // Identical observable state, including the capacity indexes...
      EXPECT_EQ(restored.open_bins(), writer.open_bins());
      EXPECT_EQ(restored.total_usage(5.0), writer.total_usage(5.0));
      EXPECT_EQ(restored.first_fit(0, 0.3), writer.first_fit(0, 0.3));
      EXPECT_EQ(restored.best_fit(7, 0.3), writer.best_fit(7, 0.3));
      EXPECT_EQ(restored.active_items(), writer.active_items());
      for (ItemId id = 0; id < 4; ++id)
        EXPECT_EQ(restored.bin_of(id), writer.bin_of(id));
      // ...and a re-serialization reproduces the original bytes.
      StateWriter again;
      restored.save_state(again);
      EXPECT_EQ(again.buffer(), w.buffer());
    }
  }
}

TEST(LedgerSoa, LoadStateRequiresFreshLedger) {
  Ledger writer(LedgerStorage::kSoa);
  drive(writer);
  StateWriter w;
  writer.save_state(w);
  Ledger dirty(LedgerStorage::kSoa);
  dirty.open_bin(0.0);
  StateReader r(w.buffer());
  EXPECT_THROW(dirty.load_state(r), std::logic_error);
}

// --- Open bins only ---------------------------------------------------------

// Throughput-mode SoA against the reference under churn that keeps emptying
// pools (so the SoA layout releases their indexes and recreates them) while
// one busy pool grows past the compaction threshold. At every step every
// fit query, bins_opened, max_open, the total_usage bits and the save_state
// bytes agree; a closed bin answers false / false / 0.0 in both layouts,
// and neither names its pool.
TEST(LedgerSoa, ThroughputModeMatchesReferenceUnderPoolChurn) {
  std::mt19937_64 rng(29);
  Ledger ref(LedgerStorage::kReference, /*track_items=*/false);
  Ledger soa(LedgerStorage::kSoa, /*track_items=*/false);
  constexpr PoolId kPools = 6;
  constexpr BinGroup kGroupOffset = 10;
  Time now = 0.0;
  std::vector<ItemId> active;
  ItemId next_item = 0;
  for (int op = 0; op < 20000; ++op) {
    now += static_cast<double>(rng() % 4) * 0.125;
    const Load size = static_cast<double>(1 + rng() % 999) / 1000.0;
    // Pool 0 is busy (and often opens a bin when one fits, so its index
    // fills with slots); pools 1..5 hold a bin or two and keep emptying.
    const PoolId pool =
        rng() % 2 == 0 ? 0 : 1 + static_cast<PoolId>(rng() % (kPools - 1));
    const bool arrive = active.size() < 40 ||
                        (active.size() < 160 && rng() % 2 == 0);
    if (arrive) {
      BinId bin = ref.first_fit(pool, size);
      ASSERT_EQ(bin, soa.first_fit(pool, size));
      if (bin == kNoBin || (pool == 0 && rng() % 2 == 0)) {
        bin = ref.open_bin(now, pool + kGroupOffset, pool);
        ASSERT_EQ(bin, soa.open_bin(now, pool + kGroupOffset, pool));
      }
      ref.place(next_item, size, bin, now);
      soa.place(next_item, size, bin, now);
      active.push_back(next_item++);
    } else {
      const std::size_t k = rng() % active.size();
      const ItemId victim = active[k];
      active[k] = active.back();
      active.pop_back();
      ASSERT_EQ(ref.remove(victim, now), soa.remove(victim, now));
    }
    ASSERT_EQ(ref.open_bins(), soa.open_bins());
    ASSERT_EQ(ref.bins_opened(), soa.bins_opened());
    ASSERT_EQ(ref.max_open(), soa.max_open());
    ASSERT_EQ(ref.active_items(), soa.active_items());
    ASSERT_EQ(ref.total_usage(now), soa.total_usage(now));  // bitwise
    for (PoolId p = 0; p < kPools; ++p) {
      ASSERT_EQ(ref.first_fit(p, size), soa.first_fit(p, size));
      ASSERT_EQ(ref.best_fit(p, size), soa.best_fit(p, size));
      ASSERT_EQ(ref.worst_fit(p, size), soa.worst_fit(p, size));
      ASSERT_EQ(ref.newest_open_in_pool(p), soa.newest_open_in_pool(p));
    }
    for (const BinId b : ref.open_bins()) {
      ASSERT_EQ(ref.fits(b, size), soa.fits(b, size));
      ASSERT_EQ(ref.load(b), soa.load(b));
      ASSERT_EQ(ref.pool_of(b), soa.pool_of(b));
    }
    ASSERT_EQ(saved_bytes(ref), saved_bytes(soa)) << "op " << op;
    const auto probe = static_cast<BinId>(
        rng() % static_cast<std::uint64_t>(soa.bins_opened()));
    ASSERT_EQ(ref.is_open(probe), soa.is_open(probe));
    ASSERT_EQ(ref.fits(probe, size), soa.fits(probe, size));
    ASSERT_EQ(ref.load(probe), soa.load(probe));
    if (!soa.is_open(probe)) {
      ASSERT_EQ(soa.load(probe), 0.0);
      ASSERT_FALSE(soa.fits(probe, 0.0));
      ASSERT_THROW((void)ref.pool_of(probe), std::out_of_range);
      ASSERT_THROW((void)soa.pool_of(probe), std::out_of_range);
    }
  }
  EXPECT_GT(ref.bins_opened(), 2000u);
  EXPECT_THROW((void)soa.records(), std::logic_error);
}

// --- Checkpoint decoder ------------------------------------------------------

/// A ledger after random churn over three pools: open and closed bins,
/// live items, and pool ids that were released and recreated.
Ledger churned_ledger(LedgerStorage storage) {
  std::mt19937_64 rng(5);
  Ledger ledger(storage, /*track_items=*/false);
  std::vector<ItemId> active;
  Time now = 0.0;
  for (ItemId item = 0; item < 400; ++item) {
    now += 0.25;
    if (!active.empty() && rng() % 5 < 2) {
      const std::size_t k = rng() % active.size();
      ledger.remove(active[k], now);
      active[k] = active.back();
      active.pop_back();
    }
    const PoolId pool = static_cast<PoolId>(rng() % 3);
    const Load size = static_cast<double>(1 + rng() % 60) / 100.0;
    BinId bin = ledger.first_fit(pool, size);
    if (bin == kNoBin) bin = ledger.open_bin(now, pool, pool);
    ledger.place(item, size, bin, now);
    active.push_back(item);
  }
  return ledger;
}

/// Item ids a save_state buffer places, read straight from its bytes:
/// (next bin, open-bin count, 6 words per open bin, placement count,
/// (id, bin, size) per placement).
std::vector<ItemId> placed_item_ids(const std::string& bytes) {
  StateReader r(bytes);
  (void)r.u64();
  const std::uint64_t open_words = 6 * r.u64();
  for (std::uint64_t i = 0; i < open_words; ++i) (void)r.u64();
  std::vector<ItemId> ids(static_cast<std::size_t>(r.u64()));
  for (ItemId& id : ids) {
    id = r.i64();
    (void)r.i64();
    (void)r.f64();
  }
  return ids;
}

/// Overwrites the i64 at `offset` (little-endian).
void patch_i64(std::string& bytes, std::size_t offset, std::int64_t v) {
  for (std::size_t i = 0; i < 8; ++i)
    bytes[offset + i] = static_cast<char>(
        (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xFF);
}

// Regression: a CRC-valid checkpoint could place an item in a bin that does
// not exist; it restored cleanly and the first departure then indexed the
// SoA columns with that id. A one-bin table plus a placement into bin 1e8
// must be refused, in both layouts and through InteractiveSession, with
// nothing restored.
TEST(LedgerCheckpoint, PlacementIntoAMissingBinIsRefused) {
  // The placement's bin field sits 40 bytes from the end: (id, bin, size),
  // then the usage accumulators (closed usage, peak, clock).
  constexpr std::size_t kBinFromEnd = 40;
  for (const LedgerStorage storage :
       {LedgerStorage::kReference, LedgerStorage::kSoa}) {
    Ledger writer(storage, /*track_items=*/false);
    writer.place(0, 0.5, writer.open_bin(0.0), 0.0);
    std::string bytes = saved_bytes(writer);
    patch_i64(bytes, bytes.size() - kBinFromEnd, 100'000'000);
    Ledger restored(storage, /*track_items=*/false);
    StateReader r(bytes);
    EXPECT_THROW(restored.load_state(r), std::runtime_error)
        << to_string(storage);
    EXPECT_EQ(restored.bins_opened(), 0u) << to_string(storage);
    EXPECT_EQ(restored.active_items(), 0u) << to_string(storage);
  }
  algos::FirstFit ff;
  InteractiveSession live(ff);
  live.offer(0.0, 2.0, 0.5);
  StateWriter w;
  live.save_state(w);  // the ledger section is last
  std::string bytes = w.buffer();
  patch_i64(bytes, bytes.size() - kBinFromEnd, 100'000'000);
  algos::FirstFit ff2;
  InteractiveSession restored(ff2);
  StateReader r(bytes);
  EXPECT_THROW(restored.load_state(r), std::runtime_error);
}

// Every cross-reference of the ledger section is checked before any state
// changes.
TEST(LedgerCheckpoint, CrossReferencesAreChecked) {
  struct Bin {
    BinId id;
    std::uint64_t count;
  };
  struct Placement {
    ItemId id;
    BinId bin;
  };
  const auto encode = [](std::uint64_t next_bin, const std::vector<Bin>& bins,
                         const std::vector<Placement>& placements,
                         std::uint64_t max_open) {
    StateWriter w;
    w.u64(next_bin);
    w.u64(bins.size());
    for (const Bin& b : bins) {
      w.i64(b.id);
      w.i64(0);    // group
      w.f64(0.0);  // opened
      w.f64(0.25 * static_cast<double>(b.count));
      w.u64(b.count);
      w.i64(0);  // pool
    }
    w.u64(placements.size());
    for (const Placement& p : placements) {
      w.i64(p.id);
      w.i64(p.bin);
      w.f64(0.25);
    }
    w.f64(0.0);
    w.u64(max_open);
    w.f64(1.0);
    return w.buffer();
  };
  const auto restores = [](const std::string& bytes) {
    int ok = 0;
    for (const LedgerStorage storage :
         {LedgerStorage::kReference, LedgerStorage::kSoa}) {
      Ledger ledger(storage, /*track_items=*/false);
      StateReader r(bytes);
      try {
        ledger.load_state(r);
        ++ok;
      } catch (const std::runtime_error&) {
        EXPECT_EQ(ledger.bins_opened(), 0u);
        EXPECT_EQ(ledger.open_count(), 0u);
        EXPECT_EQ(ledger.active_items(), 0u);
      }
    }
    EXPECT_NE(ok, 1) << "the layouts disagree";
    return ok == 2;
  };
  // Bins 1 and 3 open (0, 2 closed); items 4 and 7 in bin 1, 9 in bin 3.
  EXPECT_TRUE(restores(encode(4, {{1, 2}, {3, 1}}, {{4, 1}, {7, 1}, {9, 3}}, 2)));
  // A bin id at or past the next id.
  EXPECT_FALSE(restores(encode(3, {{1, 2}, {3, 1}}, {{4, 1}, {7, 1}, {9, 3}}, 2)));
  EXPECT_FALSE(restores(encode(4, {{-1, 0}}, {}, 1)));
  // Ids out of order, or repeated.
  EXPECT_FALSE(restores(encode(4, {{3, 1}, {1, 2}}, {{4, 1}, {7, 1}, {9, 3}}, 2)));
  EXPECT_FALSE(restores(encode(4, {{1, 1}, {1, 1}}, {{4, 1}, {7, 1}}, 2)));
  EXPECT_FALSE(restores(encode(4, {{1, 2}, {3, 1}}, {{7, 1}, {4, 1}, {9, 3}}, 2)));
  EXPECT_FALSE(restores(encode(4, {{1, 2}, {3, 1}}, {{4, 1}, {4, 1}, {9, 3}}, 2)));
  // A placement into a closed bin.
  EXPECT_FALSE(restores(encode(4, {{1, 2}, {3, 1}}, {{4, 1}, {7, 1}, {9, 2}}, 2)));
  // Active counts that disagree with the placements.
  EXPECT_FALSE(restores(encode(4, {{1, 3}, {3, 1}}, {{4, 1}, {7, 1}, {9, 3}}, 2)));
  EXPECT_FALSE(restores(encode(4, {{1, 2}, {3, 0}}, {{4, 1}, {7, 1}, {9, 3}}, 2)));
  // A peak below the open bins, and counts the buffer cannot hold.
  EXPECT_FALSE(restores(encode(4, {{1, 2}, {3, 1}}, {{4, 1}, {7, 1}, {9, 3}}, 1)));
  std::string huge = encode(4, {}, {}, 0);
  patch_i64(huge, 8, std::int64_t{1} << 40);
  EXPECT_FALSE(restores(huge));
}

TEST(LedgerCheckpoint, TruncatedAtEveryOffsetThrows) {
  for (const LedgerStorage storage :
       {LedgerStorage::kReference, LedgerStorage::kSoa}) {
    const std::string bytes = saved_bytes(churned_ledger(storage));
    ASSERT_GT(bytes.size(), 200u);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      Ledger ledger(storage, /*track_items=*/false);
      StateReader r(std::string_view(bytes).substr(0, cut));
      EXPECT_THROW(ledger.load_state(r), std::runtime_error)
          << to_string(storage) << " cut at " << cut;
    }
  }
}

// Any single flipped byte is refused or restores a ledger that can be run
// to empty and saved again, never a crash (CI runs this under ASan/UBSan).
// The SoA layout is the one that restores serve checkpoints; the reference
// layout sizes a per-bin table by the next bin id, which a flip can make
// huge, so it is left out here.
TEST(LedgerCheckpoint, AnySingleByteFlipIsRefusedOrSafe) {
  const std::string bytes = saved_bytes(churned_ledger(LedgerStorage::kSoa));
  std::size_t refused = 0;
  std::size_t restored = 0;
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    for (const int mask : {0x01, 0x80, 0xFF}) {
      std::string bad = bytes;
      bad[at] = static_cast<char>(bad[at] ^ mask);
      Ledger ledger(LedgerStorage::kSoa, /*track_items=*/false);
      StateReader r(bad);
      try {
        ledger.load_state(r);
      } catch (const std::runtime_error&) {
        ++refused;
        continue;
      }
      ++restored;
      for (PoolId p = 0; p < 3; ++p) {
        (void)ledger.first_fit(p, 0.5);
        (void)ledger.best_fit(p, 0.5);
        (void)ledger.worst_fit(p, 0.5);
        (void)ledger.newest_open_in_pool(p);
      }
      for (const ItemId id : placed_item_ids(bad)) {
        try {
          ledger.remove(id, ledger.clock());
        } catch (const std::logic_error&) {
        }
      }
      EXPECT_EQ(ledger.active_items(), 0u);
      (void)saved_bytes(ledger);
    }
  }
  EXPECT_GT(refused, 0u);
  EXPECT_GT(restored, 0u);
}

}  // namespace
}  // namespace cdbp
