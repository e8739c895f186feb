#include "core/bin_index.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace cdbp {
namespace {

/// The largest load admitting `size`, by bisection over the bit patterns
/// of [0, 2), where non-negative doubles order like their values: the
/// exact boundary best_fit has to find (fits_in_bin is monotone in load).
Load admission_boundary(Load size) {
  std::uint64_t lo = std::bit_cast<std::uint64_t>(0.0);  // admits
  std::uint64_t hi = std::bit_cast<std::uint64_t>(2.0);  // does not
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    (fits_in_bin(std::bit_cast<double>(mid), size) ? lo : hi) = mid;
  }
  return std::bit_cast<double>(lo);
}

/// Bins one ulp either side of the boundary, two at it and an empty one:
/// best_fit must pick the earlier bin at the boundary, as a linear scan
/// does.
void expect_best_fit_at_boundary(Load size) {
  SCOPED_TRACE(testing::Message() << "size " << size);
  const Load bound = admission_boundary(size);
  const Load above = std::nextafter(bound, 2.0);
  ASSERT_TRUE(fits_in_bin(bound, size));
  ASSERT_FALSE(fits_in_bin(above, size));
  const std::vector<Load> loads = {above, std::nextafter(bound, 0.0), bound,
                                   bound, 0.0, above};
  BinCapacityIndex idx;
  BinId scan = kNoBin;
  for (std::size_t b = 0; b < loads.size(); ++b) {
    idx.set_load(idx.add_bin(static_cast<BinId>(b)), loads[b]);
    if (fits_in_bin(loads[b], size) &&
        (scan == kNoBin || loads[b] > loads[static_cast<std::size_t>(scan)]))
      scan = static_cast<BinId>(b);
  }
  ASSERT_EQ(loads[static_cast<std::size_t>(scan)], bound);
  EXPECT_EQ(idx.best_fit(size), scan);
}

TEST(BestFitBoundary, PicksTheEarliestBinAtTheAdmissionBoundary) {
  // Degenerate sizes: zero, tiny, near full, full, and the largest size an
  // empty bin admits (1 + eps, where the boundary is just above 0).
  const Load largest = kBinCapacity + kLoadEps;
  ASSERT_TRUE(valid_item_size(largest));
  for (const Load size : {0.0, 1e-300, 1e-18, 0.5, 0.999, 0.9999999,
                          1.0 - 1e-12, 1.0, largest})
    expect_best_fit_at_boundary(size);
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> unit(1e-6, 1.0);
  for (int k = 0; k < 2000; ++k) expect_best_fit_at_boundary(unit(rng));
}

TEST(BestFitBoundary, SizesNoBinAdmitsSelectNothing) {
  const Load past_largest = std::nextafter(
      kBinCapacity + kLoadEps, std::numeric_limits<double>::infinity());
  ASSERT_FALSE(valid_item_size(past_largest));
  BinCapacityIndex idx;
  idx.add_bin(0);
  idx.set_load(idx.add_bin(1), std::numeric_limits<double>::denorm_min());
  idx.set_load(idx.add_bin(2), 0.5);
  for (const Load size :
       {past_largest, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(idx.best_fit(size), kNoBin) << size;
    EXPECT_EQ(idx.first_fit(size), kNoBin) << size;
    EXPECT_EQ(idx.worst_fit(size), kNoBin) << size;
  }
}

TEST(BinCapacityIndex, EmptyIndexSelectsNothing) {
  BinCapacityIndex idx;
  EXPECT_EQ(idx.first_fit(0.5), kNoBin);
  EXPECT_EQ(idx.best_fit(0.5), kNoBin);
  EXPECT_EQ(idx.worst_fit(0.5), kNoBin);
  EXPECT_EQ(idx.newest_open(), kNoBin);
  EXPECT_EQ(idx.open_count(), 0u);
}

TEST(BinCapacityIndex, FirstFitIsEarliestOpened) {
  BinCapacityIndex idx;
  const auto s0 = idx.add_bin(10);
  const auto s1 = idx.add_bin(11);
  idx.add_bin(12);
  idx.set_load(s0, 0.9);
  idx.set_load(s1, 0.5);
  // 0.2 fits bins 11 and 12; earliest opened wins.
  EXPECT_EQ(idx.first_fit(0.2), 11);
  // 0.05 also fits bin 10.
  EXPECT_EQ(idx.first_fit(0.05), 10);
  EXPECT_EQ(idx.first_fit(0.9), 12);
}

TEST(BinCapacityIndex, BestFitPrefersFullestThenEarliest) {
  BinCapacityIndex idx;
  const auto s0 = idx.add_bin(0);
  const auto s1 = idx.add_bin(1);
  const auto s2 = idx.add_bin(2);
  idx.set_load(s0, 0.4);
  idx.set_load(s1, 0.7);
  idx.set_load(s2, 0.7);
  EXPECT_EQ(idx.best_fit(0.2), 1);  // 0.7 beats 0.4; tie -> earliest id
  EXPECT_EQ(idx.best_fit(0.5), 0);  // only 0.4 admits it
  EXPECT_EQ(idx.best_fit(0.95), kNoBin);
}

TEST(BinCapacityIndex, WorstFitPrefersEmptiestThenEarliest) {
  BinCapacityIndex idx;
  const auto s0 = idx.add_bin(0);
  const auto s1 = idx.add_bin(1);
  const auto s2 = idx.add_bin(2);
  idx.set_load(s0, 0.4);
  idx.set_load(s1, 0.2);
  idx.set_load(s2, 0.2);
  EXPECT_EQ(idx.worst_fit(0.3), 1);  // min load; tie -> earliest id
  // If the min-load bin cannot take it, nothing can.
  EXPECT_EQ(idx.worst_fit(0.9), kNoBin);
}

TEST(BinCapacityIndex, ClosedBinsAreNeverSelected) {
  BinCapacityIndex idx;
  const auto s0 = idx.add_bin(0);
  idx.add_bin(1);
  idx.set_load(s0, 0.1);
  idx.close(s0);
  EXPECT_EQ(idx.first_fit(0.1), 1);
  EXPECT_EQ(idx.best_fit(0.1), 1);
  EXPECT_EQ(idx.worst_fit(0.1), 1);
  EXPECT_EQ(idx.open_count(), 1u);
  EXPECT_EQ(idx.open_bins(), std::vector<BinId>{1});
}

TEST(BinCapacityIndex, NewestOpenSkipsClosedTail) {
  BinCapacityIndex idx;
  idx.add_bin(0);
  idx.add_bin(1);
  const auto s2 = idx.add_bin(2);
  EXPECT_EQ(idx.newest_open(), 2);
  idx.close(s2);
  EXPECT_EQ(idx.newest_open(), 1);
}

// Randomized cross-check against a straight linear scan, through a long
// open/load/close churn that also exercises tree growth.
TEST(BinCapacityIndex, AgreesWithLinearScanUnderChurn) {
  BinCapacityIndex idx;
  std::mt19937_64 rng(123);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  struct Slot {
    BinId bin;
    std::size_t slot;
    Load load = 0.0;
    bool open = true;
  };
  std::vector<Slot> shadow;

  const auto linear_first = [&](Load size) {
    for (const Slot& s : shadow)
      if (s.open && fits_in_bin(s.load, size)) return s.bin;
    return kNoBin;
  };
  const auto linear_best = [&](Load size) {
    BinId chosen = kNoBin;
    Load best = -1.0;
    for (const Slot& s : shadow)
      if (s.open && fits_in_bin(s.load, size) && s.load > best) {
        best = s.load;
        chosen = s.bin;
      }
    return chosen;
  };
  const auto linear_worst = [&](Load size) {
    BinId chosen = kNoBin;
    Load best = 2.0;
    for (const Slot& s : shadow)
      if (s.open && fits_in_bin(s.load, size) && s.load < best) {
        best = s.load;
        chosen = s.bin;
      }
    return chosen;
  };

  BinId next_bin = 0;
  for (int step = 0; step < 5000; ++step) {
    const double r = unit(rng);
    if (r < 0.3 || shadow.empty()) {
      Slot s;
      s.bin = next_bin++;
      s.slot = idx.add_bin(s.bin);
      shadow.push_back(s);
    } else if (r < 0.8) {
      Slot& s = shadow[static_cast<std::size_t>(unit(rng) *
                                                static_cast<double>(
                                                    shadow.size()))];
      if (s.open) {
        s.load = unit(rng);
        idx.set_load(s.slot, s.load);
      }
    } else {
      Slot& s = shadow[static_cast<std::size_t>(unit(rng) *
                                                static_cast<double>(
                                                    shadow.size()))];
      if (s.open) {
        s.open = false;
        idx.close(s.slot);
      }
    }
    const Load size = unit(rng);
    ASSERT_EQ(idx.first_fit(size), linear_first(size)) << "step " << step;
    ASSERT_EQ(idx.best_fit(size), linear_best(size)) << "step " << step;
    ASSERT_EQ(idx.worst_fit(size), linear_worst(size)) << "step " << step;
  }
}

// Compaction against a model that never compacts: the open bins keyed by
// id (= opening order), answering by linear scan, with no slots at all.
// Random add/set/close churn keeps the open count between 8 and 48, so the
// index compacts thousands of times; every first/best/worst/newest
// answer and open_bins() must match the model at every step, and after a
// close the index holds at most twice its open bins (or under 64 slots).
TEST(BinCapacityIndex, CompactionMatchesANeverCompactingModel) {
  BinCapacityIndex idx;
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  std::map<BinId, Load> model;       // open bins only, in opening order
  std::vector<std::size_t> slot_of;  // bin -> current slot
  std::vector<BinId> open;           // open bin ids, any order
  const auto scan = [&](Load size, auto better) {
    BinId chosen = kNoBin;
    Load chosen_load = 0.0;
    for (const auto& [bin, load] : model)
      if (fits_in_bin(load, size) &&
          (chosen == kNoBin || better(load, chosen_load))) {
        chosen = bin;
        chosen_load = load;
      }
    return chosen;
  };

  std::size_t compactions = 0;
  std::vector<BinId> want;
  for (int step = 0; step < 150000; ++step) {
    const double r = unit(rng);
    if (open.size() < 8 || (open.size() < 48 && r < 0.4)) {
      const auto bin = static_cast<BinId>(slot_of.size());
      model.emplace(bin, 0.0);
      slot_of.push_back(idx.add_bin(bin));
      open.push_back(bin);
    } else if (r < 0.55) {
      const BinId bin = open[rng() % open.size()];
      const Load load = static_cast<double>(rng() % 65) / 64.0;  // many ties
      model[bin] = load;
      idx.set_load(slot_of[static_cast<std::size_t>(bin)], load);
    } else {
      const std::size_t k = rng() % open.size();
      const BinId bin = open[k];
      open[k] = open.back();
      open.pop_back();
      model.erase(bin);
      if (idx.close(slot_of[static_cast<std::size_t>(bin)])) {
        ++compactions;
        ASSERT_EQ(idx.slot_count(), idx.open_count());
        for (std::size_t s = 0; s < idx.slot_count(); ++s)
          slot_of[static_cast<std::size_t>(idx.bin_at(s))] = s;
      }
      // After any close, closed slots never outnumber open ones in a pool
      // past the threshold.
      ASSERT_TRUE(idx.slot_count() < BinCapacityIndex::kCompactMinSlots ||
                  idx.slot_count() <= 2 * idx.open_count())
          << "step " << step;
    }
    const Load size = static_cast<double>(1 + rng() % 64) / 64.0;
    ASSERT_EQ(idx.first_fit(size),
              scan(size, [](Load, Load) { return false; }))
        << "step " << step;
    ASSERT_EQ(idx.best_fit(size),
              scan(size, [](Load a, Load b) { return a > b; }))
        << "step " << step;
    ASSERT_EQ(idx.worst_fit(size),
              scan(size, [](Load a, Load b) { return a < b; }))
        << "step " << step;
    ASSERT_EQ(idx.newest_open(), model.empty() ? kNoBin : model.rbegin()->first)
        << "step " << step;
    want.clear();
    for (const auto& [bin, load] : model) want.push_back(bin);
    ASSERT_EQ(idx.open_bins(), want) << "step " << step;
    ASSERT_EQ(idx.open_count(), model.size());
  }
  EXPECT_GT(compactions, 1000u);
}

}  // namespace
}  // namespace cdbp
