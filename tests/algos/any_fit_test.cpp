#include "algos/any_fit.h"

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "core/validation.h"
#include "oracles/select.h"
#include "test_util.h"

namespace cdbp {
namespace {

using testutil::make_instance;

TEST(AnyFit, FirstFitPrefersEarliestOpenBin) {
  // Bins: [0.7], [0.3]; a 0.3 item must join bin 0 (earliest with room).
  const Instance in = make_instance({
      {0.0, 10.0, 0.7},
      {0.0, 10.0, 0.8},
      {1.0, 5.0, 0.3},
  });
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run(in, ff);
  EXPECT_EQ(r.placements[2], 0);
  EXPECT_EQ(r.bins_opened, 2u);
}

TEST(AnyFit, BestFitPrefersFullestBin) {
  const Instance in = make_instance({
      {0.0, 10.0, 0.3},
      {0.0, 10.0, 0.6},
      {1.0, 5.0, 0.3},
  });
  algos::BestFit bf;
  const RunResult r = Simulator{}.run(in, bf);
  EXPECT_EQ(r.placements[2], 1);  // 0.6 is fuller than 0.3
}

TEST(AnyFit, WorstFitPrefersEmptiestBin) {
  const Instance in = make_instance({
      {0.0, 10.0, 0.6},
      {0.0, 10.0, 0.3},
      {1.0, 5.0, 0.3},
  });
  algos::WorstFit wf;
  const RunResult r = Simulator{}.run(in, wf);
  EXPECT_EQ(r.placements[2], 1);
}

TEST(AnyFit, NextFitOnlyConsidersNewestBin) {
  const Instance in = make_instance({
      {0.0, 10.0, 0.5},
      {0.0, 10.0, 0.9},  // forces a second bin
      {1.0, 5.0, 0.3},   // fits bin 0, but NextFit only looks at bin 1
  });
  algos::NextFit nf;
  const RunResult r = Simulator{}.run(in, nf);
  EXPECT_EQ(r.placements[2], 2);
  EXPECT_EQ(r.bins_opened, 3u);
}

TEST(AnyFit, ClosedBinsNeverReused) {
  const Instance in = make_instance({
      {0.0, 1.0, 0.5},
      {2.0, 3.0, 0.5},  // the old bin closed at t=1
  });
  algos::FirstFit ff;
  const RunResult r = Simulator{}.run(in, ff);
  EXPECT_EQ(r.bins_opened, 2u);
  EXPECT_DOUBLE_EQ(r.cost, 2.0);
}

TEST(AnyFit, PlacementIgnoresDepartures) {
  // First-Fit is non-clairvoyant: permuting departures must not change
  // the bin sequence chosen at arrival times.
  Instance in1, in2;
  const double sizes[] = {0.4, 0.5, 0.3, 0.6, 0.2, 0.7};
  for (int k = 0; k < 6; ++k) {
    in1.add(static_cast<Time>(k) * 0.1, 100.0 + k, sizes[k]);
    in2.add(static_cast<Time>(k) * 0.1, 200.0 - 7 * k, sizes[k]);
  }
  in1.finalize();
  in2.finalize();
  algos::FirstFit a, b;
  const RunResult r1 = Simulator{}.run(in1, a);
  const RunResult r2 = Simulator{}.run(in2, b);
  ASSERT_EQ(r1.placements.size(), r2.placements.size());
  for (std::size_t i = 0; i < r1.placements.size(); ++i)
    EXPECT_EQ(r1.placements[i], r2.placements[i]) << "item " << i;
}

TEST(AnyFit, NamesAndRules) {
  EXPECT_EQ(algos::FirstFit{}.name(), "FirstFit");
  EXPECT_EQ(algos::BestFit{}.name(), "BestFit");
  EXPECT_EQ(algos::NextFit{}.name(), "NextFit");
  EXPECT_EQ(algos::WorstFit{}.name(), "WorstFit");
  EXPECT_EQ(algos::FirstFit{}.rule(), algos::FitRule::kFirst);
}

TEST(AnyFit, PickBinHonorsCandidateOrder) {
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0);
  const BinId b = ledger.open_bin(0.0);
  ledger.place(0, 0.5, a, 0.0);
  ledger.place(1, 0.2, b, 0.0);
  // First: a (earliest). Best: a (fullest). Worst: b.
  EXPECT_EQ(oracles::pick_bin(ledger, {a, b}, 0.3, algos::FitRule::kFirst), a);
  EXPECT_EQ(oracles::pick_bin(ledger, {a, b}, 0.3, algos::FitRule::kBest), a);
  EXPECT_EQ(oracles::pick_bin(ledger, {a, b}, 0.3, algos::FitRule::kWorst), b);
  // Nothing fits 0.9.
  EXPECT_EQ(oracles::pick_bin(ledger, {a, b}, 0.9, algos::FitRule::kFirst),
            kNoBin);
  // Empty candidate list.
  EXPECT_EQ(oracles::pick_bin(ledger, {}, 0.1, algos::FitRule::kBest), kNoBin);
}

TEST(AnyFit, TieBreakingIsEarliestOpenedInBothModes) {
  // Three equally-loaded bins: kBest and kWorst both tie across all of
  // them; the contract (and what the competitive analyses implicitly
  // assume) is that ties break to the earliest-opened bin. Checked for
  // the linear reference and the indexed path side by side.
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0);
  const BinId b = ledger.open_bin(0.0);
  const BinId c = ledger.open_bin(0.0);
  ledger.place(0, 0.4, a, 0.0);
  ledger.place(1, 0.4, b, 0.0);
  ledger.place(2, 0.4, c, 0.0);
  for (const auto rule : {algos::FitRule::kFirst, algos::FitRule::kBest,
                          algos::FitRule::kWorst}) {
    EXPECT_EQ(oracles::pick_bin(ledger, {a, b, c}, 0.3, rule), a)
        << to_string(rule);
    EXPECT_EQ(algos::pick_bin_indexed(ledger, /*pool=*/0, 0.3, rule), a)
        << to_string(rule);
  }
  // Partial tie: a is excluded by load, b and c tie.
  ledger.place(3, 0.3, a, 1.0);  // a now 0.7
  for (const auto rule : {algos::FitRule::kBest, algos::FitRule::kWorst}) {
    EXPECT_EQ(oracles::pick_bin(ledger, {a, b, c}, 0.4, rule), b)
        << to_string(rule);
    EXPECT_EQ(algos::pick_bin_indexed(ledger, /*pool=*/0, 0.4, rule), b)
        << to_string(rule);
  }
}

TEST(AnyFit, SentinelWhenNothingFitsInBothModes) {
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0);
  const BinId b = ledger.open_bin(0.0);
  ledger.place(0, 0.95, a, 0.0);
  ledger.place(1, 0.9, b, 0.0);
  for (const auto rule : {algos::FitRule::kFirst, algos::FitRule::kBest,
                          algos::FitRule::kWorst, algos::FitRule::kNext}) {
    EXPECT_EQ(oracles::pick_bin(ledger, {a, b}, 0.2, rule), kNoBin)
        << to_string(rule);
    EXPECT_EQ(algos::pick_bin_indexed(ledger, /*pool=*/0, 0.2, rule), kNoBin)
        << to_string(rule);
  }
  // Unknown pool: the index has never seen it.
  EXPECT_EQ(algos::pick_bin_indexed(ledger, /*pool=*/7, 0.01,
                                    algos::FitRule::kFirst),
            kNoBin);
}

TEST(AnyFit, ExactFitAcceptedInBothModes) {
  // Boundary case for the index's best-fit load bound: an item that fills
  // the bin to exactly kBinCapacity must be accepted by every rule.
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0);
  ledger.place(0, 0.25, a, 0.0);
  const Load exact = 0.75;  // 0.25 + 0.75 == 1.0 exactly
  for (const auto rule : {algos::FitRule::kFirst, algos::FitRule::kBest,
                          algos::FitRule::kWorst, algos::FitRule::kNext}) {
    EXPECT_EQ(oracles::pick_bin(ledger, {a}, exact, rule), a)
        << to_string(rule);
    EXPECT_EQ(algos::pick_bin_indexed(ledger, /*pool=*/0, exact, rule), a)
        << to_string(rule);
  }
}

TEST(AnyFit, IndexedNextFitMatchesNewestOpenSemantics) {
  Ledger ledger;
  const BinId a = ledger.open_bin(0.0);
  const BinId b = ledger.open_bin(0.0);
  ledger.place(0, 0.2, a, 0.0);
  ledger.place(1, 0.8, b, 0.0);
  // Newest bin b cannot take 0.5; NextFit must NOT fall back to a.
  EXPECT_EQ(algos::pick_bin_indexed(ledger, 0, 0.5, algos::FitRule::kNext),
            kNoBin);
  ledger.place(2, 0.5, a, 1.0);
  ledger.remove(1, 2.0);  // closes b; newest open is again a
  EXPECT_EQ(algos::pick_bin_indexed(ledger, 0, 0.2, algos::FitRule::kNext),
            a);
}

TEST(AnyFit, AllVariantsProduceValidRuns) {
  const Instance in = make_instance({
      {0.0, 8.0, 0.55}, {0.0, 2.0, 0.50}, {1.0, 6.0, 0.25},
      {2.0, 4.0, 0.70}, {3.0, 9.0, 0.15}, {5.0, 7.0, 0.90},
  });
  for (auto& f : testutil::online_factories()) {
    auto algo = f.make();
    const RunResult r = Simulator{}.run(in, *algo);
    EXPECT_TRUE(validate_run(in, r).ok()) << f.name;
  }
}

}  // namespace
}  // namespace cdbp
