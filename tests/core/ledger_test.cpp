#include "core/ledger.h"

#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "core/simulator.h"
#include "test_util.h"

namespace cdbp {
namespace {

TEST(Ledger, OpenPlaceRemoveLifecycle) {
  Ledger ledger;
  const BinId b = ledger.open_bin(0.0);
  EXPECT_EQ(ledger.open_count(), 1u);
  EXPECT_TRUE(ledger.is_open(b));

  ledger.place(0, 0.5, b, 0.0);
  EXPECT_DOUBLE_EQ(ledger.load(b), 0.5);
  EXPECT_EQ(ledger.bin_of(0), b);
  EXPECT_EQ(ledger.active_items(), 1u);

  EXPECT_EQ(ledger.remove(0, 3.0), b);
  EXPECT_FALSE(ledger.is_open(b));
  EXPECT_EQ(ledger.open_count(), 0u);
  EXPECT_EQ(ledger.bin_of(0), kNoBin);
  EXPECT_DOUBLE_EQ(ledger.total_usage(3.0), 3.0);
}

TEST(Ledger, UsageAccountingOpenAndClosedBins) {
  Ledger ledger;
  const BinId b1 = ledger.open_bin(0.0);
  ledger.place(0, 0.4, b1, 0.0);
  const BinId b2 = ledger.open_bin(1.0);
  ledger.place(1, 0.4, b2, 1.0);
  // At t=2: b1 open 2, b2 open 1.
  EXPECT_DOUBLE_EQ(ledger.total_usage(2.0), 3.0);
  ledger.remove(0, 2.0);  // closes b1 (span 2)
  EXPECT_DOUBLE_EQ(ledger.total_usage(5.0), 2.0 + 4.0);
}

TEST(Ledger, CapacityEnforced) {
  Ledger ledger;
  const BinId b = ledger.open_bin(0.0);
  ledger.place(0, 0.7, b, 0.0);
  EXPECT_FALSE(ledger.fits(b, 0.4));
  EXPECT_TRUE(ledger.fits(b, 0.3));
  EXPECT_THROW(ledger.place(1, 0.4, b, 0.0), std::logic_error);
  ledger.place(1, 0.3, b, 0.0);  // exactly full is allowed
  EXPECT_DOUBLE_EQ(ledger.load(b), 1.0);
}

TEST(Ledger, ClosedBinsRejectPlacement) {
  Ledger ledger;
  const BinId b = ledger.open_bin(0.0);
  ledger.place(0, 0.5, b, 0.0);
  ledger.remove(0, 1.0);
  EXPECT_FALSE(ledger.fits(b, 0.1));
  EXPECT_THROW(ledger.place(1, 0.1, b, 1.0), std::logic_error);
}

TEST(Ledger, DoublePlacementAndGhostRemovalRejected) {
  Ledger ledger;
  const BinId b = ledger.open_bin(0.0);
  ledger.place(0, 0.2, b, 0.0);
  EXPECT_THROW(ledger.place(0, 0.2, b, 0.0), std::logic_error);
  EXPECT_THROW(ledger.remove(99, 1.0), std::logic_error);
}

TEST(Ledger, TimeMustNotMoveBackwards) {
  Ledger ledger;
  ledger.open_bin(5.0);
  EXPECT_THROW(ledger.open_bin(4.0), std::logic_error);
}

TEST(Ledger, OpenBinsOrderedByOpening) {
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0);
  const BinId b = ledger.open_bin(1.0);
  const BinId c = ledger.open_bin(2.0);
  ledger.place(0, 0.1, a, 2.0);
  ledger.place(1, 0.1, b, 2.0);
  ledger.place(2, 0.1, c, 2.0);
  ledger.remove(1, 3.0);  // closes b
  const auto& open = ledger.open_bins();
  ASSERT_EQ(open.size(), 2u);
  EXPECT_EQ(*open.begin(), a);
  EXPECT_EQ(*std::next(open.begin()), c);
}

TEST(Ledger, GroupsQueries) {
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0, 1);
  const BinId b = ledger.open_bin(0.0, 2);
  const BinId c = ledger.open_bin(0.0, 1);
  ledger.place(0, 0.5, b, 0.0);
  ledger.place(1, 0.5, c, 0.0);
  ledger.place(2, 0.5, a, 0.0);
  ledger.remove(1, 1.0);  // closes c; its group stays on record
  const std::vector<BinRecord> records = ledger.records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[static_cast<std::size_t>(a)].group, 1);
  EXPECT_EQ(records[static_cast<std::size_t>(b)].group, 2);
  EXPECT_EQ(records[static_cast<std::size_t>(c)].group, 1);
  EXPECT_TRUE(records[static_cast<std::size_t>(a)].is_open());
  EXPECT_FALSE(records[static_cast<std::size_t>(c)].is_open());
}

TEST(Ledger, MaxOpenTracksPeak) {
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0);
  ledger.place(0, 0.1, a, 0.0);
  const BinId b = ledger.open_bin(0.0);
  ledger.place(1, 0.1, b, 0.0);
  ledger.remove(0, 1.0);
  ledger.open_bin(2.0);
  EXPECT_EQ(ledger.max_open(), 2u);
}

TEST(Ledger, OpenBinsProfile) {
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0);
  ledger.place(0, 0.1, a, 0.0);
  const BinId b = ledger.open_bin(1.0);
  ledger.place(1, 0.1, b, 1.0);
  ledger.remove(0, 2.0);
  ledger.remove(1, 4.0);
  const StepFunction f = open_bins_profile(ledger.records(), 4.0);
  EXPECT_DOUBLE_EQ(f.at(0.5), 1.0);
  EXPECT_DOUBLE_EQ(f.at(1.5), 2.0);
  EXPECT_DOUBLE_EQ(f.at(3.0), 1.0);
  EXPECT_DOUBLE_EQ(f.integral(), ledger.total_usage(4.0));
}

TEST(Ledger, LoadResidueClearedOnClose) {
  // Sizes that do not sum exactly in floating point must not leave a
  // residue that blocks the "empty" detection.
  Ledger ledger;
  const BinId b = ledger.open_bin(0.0);
  for (int i = 0; i < 10; ++i)
    ledger.place(i, 0.1, b, 0.0);
  for (int i = 0; i < 10; ++i) ledger.remove(i, 1.0);
  EXPECT_FALSE(ledger.is_open(b));
  EXPECT_EQ(ledger.load(b), 0.0);
  EXPECT_EQ(ledger.records()[static_cast<std::size_t>(b)].load, 0.0);
}

TEST(Ledger, RecordHistoryKeepsAllItems) {
  Ledger ledger;
  const BinId b = ledger.open_bin(0.0);
  ledger.place(0, 0.9, b, 0.0);
  ledger.remove(0, 1.0);
  const BinId b2 = ledger.open_bin(1.0);
  ledger.place(1, 0.9, b2, 1.0);
  ledger.remove(1, 2.0);
  EXPECT_EQ(ledger.bins_opened(), 2u);
  const std::vector<BinRecord> records = ledger.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_DOUBLE_EQ(records[static_cast<std::size_t>(b)].usage(99.0),
                   1.0);  // closed: span fixed

  // Which items each bin held is the simulator's record, one placement per
  // item; the same run through it puts item 0 in bin 0 and item 1 in bin 1.
  const Instance in =
      testutil::make_instance({{0.0, 1.0, 0.9}, {1.0, 2.0, 0.9}});
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run(in, ff);
  ASSERT_EQ(r.bins.size(), 2u);
  EXPECT_EQ(r.placements, (std::vector<BinId>{b, b2}));
  const ItemsByBin by_bin = items_by_bin(r);
  EXPECT_EQ(std::vector<ItemId>(by_bin.of(b).begin(), by_bin.of(b).end()),
            std::vector<ItemId>{0});
  EXPECT_EQ(std::vector<ItemId>(by_bin.of(b2).begin(), by_bin.of(b2).end()),
            std::vector<ItemId>{1});
  EXPECT_DOUBLE_EQ(r.bins[static_cast<std::size_t>(b)].usage(99.0), 1.0);
}

TEST(Ledger, UnknownBinThrows) {
  // One per-bin contract for both layouts, with or without item tracking.
  for (const LedgerStorage storage :
       {LedgerStorage::kReference, LedgerStorage::kSoa}) {
    for (const bool track_items : {true, false}) {
      Ledger ledger(storage, track_items);
      EXPECT_THROW((void)ledger.load(0), std::out_of_range);
      EXPECT_THROW((void)ledger.is_open(-1), std::out_of_range);
      EXPECT_THROW((void)ledger.fits(0, 0.5), std::out_of_range);
      EXPECT_THROW((void)ledger.pool_of(0), std::out_of_range);
      // A closed bin is known, but only fits/load/is_open answer for it.
      const BinId b = ledger.open_bin(0.0, /*group=*/3);
      ledger.place(0, 0.5, b, 0.0);
      EXPECT_EQ(ledger.pool_of(b), 3);
      ledger.remove(0, 1.0);
      EXPECT_FALSE(ledger.is_open(b));
      EXPECT_FALSE(ledger.fits(b, 0.0));
      EXPECT_EQ(ledger.load(b), 0.0);
      EXPECT_THROW((void)ledger.pool_of(b), std::out_of_range);
      EXPECT_THROW((void)ledger.load(b + 1), std::out_of_range);
    }
  }
}

TEST(Ledger, PoolDefaultsToGroupAndTracksSelection) {
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0, /*group=*/1);
  const BinId b = ledger.open_bin(0.0, /*group=*/2);
  EXPECT_EQ(ledger.pool_of(a), 1);
  EXPECT_EQ(ledger.pool_of(b), 2);
  ledger.place(0, 0.6, a, 0.0);
  EXPECT_EQ(ledger.first_fit(1, 0.3), a);
  EXPECT_EQ(ledger.first_fit(1, 0.5), kNoBin);  // a too full, b not in pool 1
  EXPECT_EQ(ledger.first_fit(2, 0.5), b);
  EXPECT_EQ(ledger.first_fit(99, 0.5), kNoBin);  // pool never created
}

TEST(Ledger, PoolMayDifferFromGroup) {
  // Hybrid keeps all CD bins in one group (for the paper's accounting) but
  // selects within per-type pools; the ledger must keep the two separate.
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0, /*group=*/2, /*pool=*/10);
  const BinId b = ledger.open_bin(0.0, /*group=*/2, /*pool=*/11);
  EXPECT_EQ(ledger.records()[static_cast<std::size_t>(a)].group, 2);
  EXPECT_EQ(ledger.records()[static_cast<std::size_t>(b)].group, 2);
  EXPECT_EQ(ledger.pool_of(a), 10);
  EXPECT_EQ(ledger.pool_of(b), 11);
  EXPECT_EQ(ledger.first_fit(10, 0.5), a);
  EXPECT_EQ(ledger.first_fit(11, 0.5), b);
  EXPECT_EQ(ledger.first_fit(2, 0.5), kNoBin);  // the group is no pool
}

TEST(Ledger, PoolQueriesFollowPlaceRemoveClose) {
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0, 0);
  const BinId b = ledger.open_bin(0.0, 0);
  ledger.place(0, 0.7, a, 0.0);
  ledger.place(1, 0.3, b, 0.0);
  EXPECT_EQ(ledger.best_fit(0, 0.2), a);   // fullest fitting
  EXPECT_EQ(ledger.worst_fit(0, 0.2), b);  // emptiest fitting
  EXPECT_EQ(ledger.newest_open_in_pool(0), b);
  ledger.place(2, 0.1, a, 1.0);
  ledger.remove(0, 2.0);  // a: load 0.1, still open
  EXPECT_EQ(ledger.worst_fit(0, 0.2), a);
  ledger.remove(2, 3.0);  // closes a
  EXPECT_EQ(ledger.best_fit(0, 0.2), b);
  EXPECT_EQ(ledger.newest_open_in_pool(0), b);
  ledger.remove(1, 4.0);  // closes b; pool empty
  EXPECT_EQ(ledger.first_fit(0, 0.01), kNoBin);
  EXPECT_EQ(ledger.newest_open_in_pool(0), kNoBin);
  EXPECT_EQ(ledger.worst_fit(0, 0.01), kNoBin);
}

TEST(Ledger, RemoveClampsNegativeResidue) {
  // Adding two sizes and subtracting them again can round below zero
  // ((t + a + b) - a - b < 0 for about half of all pairs); with a tiny
  // sentinel item keeping the bin open, that residue used to persist as a
  // negative load. remove() must clamp it back to zero.
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> unit(0.05, 0.45);
  const double t = 1e-18;  // sentinel: vanishes in every sum below
  int negatives_checked = 0;
  for (int k = 0; k < 1000 && negatives_checked < 10; ++k) {
    const double a = unit(rng);
    const double b = unit(rng);
    const double residue = ((t + a + b) - a) - b;  // ledger's exact op order
    if (residue >= 0.0) continue;
    ++negatives_checked;
    Ledger ledger;
    const BinId bin = ledger.open_bin(0.0);
    ledger.place(0, t, bin, 0.0);
    ledger.place(1, a, bin, 0.0);
    ledger.place(2, b, bin, 0.0);
    ledger.remove(1, 1.0);
    ledger.remove(2, 1.0);
    ASSERT_TRUE(ledger.is_open(bin));
    EXPECT_GE(ledger.load(bin), 0.0) << "a=" << a << " b=" << b;
    // An emptied-but-open bin must accept a full-size item again.
    EXPECT_TRUE(ledger.fits(bin, 1.0));
  }
  // The probe must have exercised real negative-residue cases, otherwise
  // this test is vacuous.
  EXPECT_GT(negatives_checked, 0);
}

TEST(Ledger, LoadStaysNonNegativeUnderChurn) {
  // Satellite regression for the remove() clamp: many place/remove cycles
  // with awkward sizes must never drive a bin's load negative, and an
  // exactly-fitting item must always be accepted.
  Ledger ledger;
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> unit(0.01, 0.3);
  const BinId b = ledger.open_bin(0.0);
  ledger.place(0, 1e-9, b, 0.0);  // sentinel keeps the bin open
  ItemId next = 1;
  std::vector<std::pair<ItemId, Load>> resident;
  Time now = 0.0;
  for (int step = 0; step < 100000; ++step) {
    now += 1e-6;
    const bool add = resident.size() < 3 ||
                     (resident.size() < 6 && (rng() & 1) != 0);
    if (add) {
      const Load s = unit(rng);
      if (ledger.fits(b, s)) {
        ledger.place(next, s, b, now);
        resident.emplace_back(next, s);
        ++next;
      }
    } else {
      const std::size_t pick = rng() % resident.size();
      ledger.remove(resident[pick].first, now);
      resident.erase(resident.begin() +
                     static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_GE(ledger.load(b), 0.0) << "step " << step;
    // Headroom the record claims must actually be grantable.
    const Load headroom = kBinCapacity - ledger.load(b);
    if (headroom > 0.0) {
      ASSERT_TRUE(ledger.fits(b, headroom));
    }
  }
}

}  // namespace
}  // namespace cdbp
