#include "core/simulator.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "core/validation.h"
#include "test_util.h"

namespace cdbp {
namespace {

using testutil::make_instance;

TEST(Simulator, SingleItemCostIsItsLength) {
  const Instance in = make_instance({{1.0, 5.0, 0.5}});
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run(in, ff);
  EXPECT_DOUBLE_EQ(r.cost, 4.0);
  EXPECT_EQ(r.bins_opened, 1u);
  EXPECT_EQ(r.max_open, 1u);
  EXPECT_TRUE(validate_run(in, r).ok());
}

TEST(Simulator, DeparturesProcessedBeforeArrivalsAtSameTime) {
  // Item 0 departs at t=1 exactly when item 1 arrives. The bin closes at
  // t=1, so First-Fit must open a fresh bin even though both items would
  // have fit together.
  const Instance in = make_instance({{0.0, 1.0, 0.6}, {1.0, 2.0, 0.6}});
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run(in, ff);
  EXPECT_EQ(r.bins_opened, 2u);
  EXPECT_DOUBLE_EQ(r.cost, 2.0);
  EXPECT_EQ(r.max_open, 1u);  // never simultaneously open
  EXPECT_TRUE(validate_run(in, r).ok());
}

TEST(Simulator, SameInstantDepartureFreesCapacityForArrival) {
  // Complement of the bin-closing case above: item 0 departs at t=1 but a
  // long-lived roommate keeps the bin open. Because departures drain
  // before arrivals (t- before t+, see docs/ALGORITHMS.md), the freed
  // capacity is visible to item 2 arriving at t=1, which therefore reuses
  // bin 0 instead of opening a second bin.
  const Instance in = make_instance({
      {0.0, 1.0, 0.6},  // departs exactly at t=1
      {0.0, 3.0, 0.3},  // roommate: keeps bin 0 open through t=1
      {1.0, 2.0, 0.6},  // would not fit bin 0 at t=1^-
  });
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run(in, ff);
  EXPECT_EQ(r.bins_opened, 1u);
  ASSERT_EQ(r.placements.size(), 3u);
  EXPECT_EQ(r.placements[2], 0);
  EXPECT_TRUE(validate_run(in, r).ok());
}

TEST(Simulator, SameTimeArrivalsPresentedInInstanceOrder) {
  // Two items at t=0; First-Fit packs the first into bin 0, the second
  // (too big for bin 0) into bin 1.
  const Instance in = make_instance({{0.0, 2.0, 0.7}, {0.0, 2.0, 0.5}});
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run(in, ff);
  ASSERT_EQ(r.placements.size(), 2u);
  EXPECT_EQ(r.placements[0], 0);
  EXPECT_EQ(r.placements[1], 1);
}

TEST(Simulator, CostEqualsOpenBinsIntegral) {
  const Instance in = make_instance({
      {0.0, 4.0, 0.9},
      {1.0, 3.0, 0.9},
      {2.0, 6.0, 0.9},
  });
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run(in, ff);
  EXPECT_NEAR(r.cost, open_bins_profile(r.bins, kInfTime).integral(), 1e-9);
  EXPECT_TRUE(validate_run(in, r).ok());
}

TEST(Simulator, KeepHistoryFalseOmitsRecords) {
  const Instance in = make_instance({{0.0, 1.0, 0.5}});
  algos::FirstFit ff;
  const RunResult r =
      Simulator{SimulatorOptions{.keep_history = false}}.run(in, ff);
  EXPECT_DOUBLE_EQ(r.cost, 1.0);
  EXPECT_TRUE(r.bins.empty());
  EXPECT_TRUE(r.placements.empty());
}

/// A test-local stream that yields its items as given, ids included.
class ListSource final : public ItemSource {
 public:
  explicit ListSource(std::vector<Item> items) : items_(std::move(items)) {}

  bool next(Item& out) override {
    if (pos_ == items_.size()) return false;
    out = items_[pos_++];
    return true;
  }

 private:
  std::vector<Item> items_;
  std::size_t pos_ = 0;
};

TEST(Simulator, RunSourceRejectsAGapInItemIds) {
  // Placements are logged in arrival order, which is item order only when
  // the ids are 0, 1, 2, ...; a gap breaks the contract, history or not.
  for (const bool keep_history : {true, false}) {
    ListSource gap({{0, 0.0, 1.0, 0.5}, {2, 0.5, 1.5, 0.25}});
    algos::FirstFit ff;
    EXPECT_THROW((void)Simulator{{.keep_history = keep_history}}.run_source(
                     gap, ff),
                 std::logic_error);
  }
  ListSource dense({{0, 0.0, 1.0, 0.5}, {1, 0.5, 1.5, 0.25}});
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run_source(dense, ff);
  EXPECT_EQ(r.placements, (std::vector<BinId>{0, 0}));
}

TEST(Simulator, ItemsByBinIsStableAndSkipsUnknownBins) {
  RunResult r;
  r.bins.resize(2);
  r.placements = {1, 0, 1, 5, kNoBin, 1};
  const ItemsByBin by_bin = items_by_bin(r);
  const auto items_of = [&](BinId b) {
    return std::vector<ItemId>(by_bin.of(b).begin(), by_bin.of(b).end());
  };
  EXPECT_EQ(items_of(0), std::vector<ItemId>{1});
  EXPECT_EQ(items_of(1), (std::vector<ItemId>{0, 2, 5}));
  EXPECT_TRUE(items_of(2).empty());
  EXPECT_TRUE(items_of(5).empty());
  EXPECT_TRUE(items_of(kNoBin).empty());
}

TEST(Simulator, ResetCalledBetweenRuns) {
  const Instance in = make_instance({{0.0, 1.0, 0.5}, {0.5, 2.0, 0.4}});
  algos::FirstFit ff;
  const RunResult r1 = Simulator{}.run(in, ff);
  const RunResult r2 = Simulator{}.run(in, ff);
  EXPECT_DOUBLE_EQ(r1.cost, r2.cost);
  EXPECT_EQ(r1.bins_opened, r2.bins_opened);
}

TEST(Simulator, EmptyInstance) {
  const Instance in;
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run(in, ff);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  EXPECT_EQ(r.bins_opened, 0u);
}

TEST(Simulator, MisbehavingAlgorithmDetected) {
  // An algorithm that opens a bin but "forgets" to place the item.
  class Broken : public Algorithm {
   public:
    std::string name() const override { return "Broken"; }
    BinId on_arrival(const Item& item, Ledger& ledger) override {
      return ledger.open_bin(item.arrival);  // no place()
    }
  };
  const Instance in = make_instance({{0.0, 1.0, 0.5}});
  Broken broken;
  EXPECT_THROW(Simulator{}.run(in, broken), std::logic_error);
}

TEST(RunCost, MatchesFullRun) {
  const Instance in = make_instance({
      {0.0, 3.0, 0.5},
      {1.0, 2.0, 0.5},
      {1.5, 4.0, 0.5},
  });
  algos::BestFit bf1, bf2;
  EXPECT_DOUBLE_EQ(run_cost(in, bf1), Simulator{}.run(in, bf2).cost);
}

}  // namespace
}  // namespace cdbp
