#include "core/session.h"

#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "algos/any_fit.h"
#include "core/simulator.h"
#include "test_util.h"
#include "workloads/general_random.h"

namespace cdbp {
namespace {

TEST(InteractiveSession, MatchesSimulatorOnSameStream) {
  algos::FirstFit a1, a2;

  InteractiveSession session(a1);
  session.offer(0.0, 3.0, 0.6);
  session.offer(1.0, 2.0, 0.6);
  session.offer(2.0, 5.0, 0.3);
  const Cost interactive = session.finish();

  Instance in;
  in.add(0.0, 3.0, 0.6);
  in.add(1.0, 2.0, 0.6);
  in.add(2.0, 5.0, 0.3);
  in.finalize();
  EXPECT_DOUBLE_EQ(interactive, run_cost(in, a2));
}

TEST(InteractiveSession, OpenBinCountObservable) {
  algos::FirstFit ff;
  InteractiveSession session(ff);
  EXPECT_EQ(session.open_bins(), 0u);
  session.offer(0.0, 10.0, 0.7);
  EXPECT_EQ(session.open_bins(), 1u);
  session.offer(0.0, 10.0, 0.7);
  EXPECT_EQ(session.open_bins(), 2u);
  session.offer(0.0, 10.0, 0.2);  // fits into the first bin
  EXPECT_EQ(session.open_bins(), 2u);
}

TEST(InteractiveSession, AdvanceProcessesDepartures) {
  algos::FirstFit ff;
  InteractiveSession session(ff);
  session.offer(0.0, 1.0, 0.5);
  session.offer(0.0, 4.0, 0.9);
  EXPECT_EQ(session.open_bins(), 2u);
  session.advance_to(2.0);
  EXPECT_EQ(session.open_bins(), 1u);
  EXPECT_DOUBLE_EQ(session.clock(), 2.0);
}

TEST(InteractiveSession, CostSoFarCountsOpenBins) {
  algos::FirstFit ff;
  InteractiveSession session(ff);
  session.offer(0.0, 10.0, 0.5);
  session.advance_to(4.0);
  EXPECT_DOUBLE_EQ(session.cost_so_far(), 4.0);
}

TEST(InteractiveSession, RejectsTimeTravel) {
  algos::FirstFit ff;
  InteractiveSession session(ff);
  session.offer(5.0, 6.0, 0.5);
  // Input validation, not an internal invariant: the serving front end
  // relies on std::invalid_argument specifically (and on no state change).
  EXPECT_THROW(session.offer(4.0, 6.0, 0.5), std::invalid_argument);
  EXPECT_THROW(session.advance_to(1.0), std::invalid_argument);
  EXPECT_THROW(session.offer(6.0, 6.0, 0.5), std::invalid_argument);
  EXPECT_THROW(session.offer(7.0, 7.0, 0.5), std::invalid_argument);
  EXPECT_EQ(session.clock(), 5.0);
  EXPECT_EQ(session.open_bins(), 1u);
  // A valid offer still goes through after the rejects.
  EXPECT_EQ(session.offer(5.0, 7.0, 0.5), 0);
}

// Regression (fixed seed): an oversized size reached the algorithm before
// the ledger refused it (HA bumped its per-type load and opened a bin),
// and a negative one was placed, overfilling its bin. Every out-of-range
// size must throw std::invalid_argument with no trace in any state: the
// clock, open bins, cost, and every later decision match a session that
// never saw the bad offers.
TEST(InteractiveSession, RejectsOutOfRangeSizesWithoutStateChange) {
  std::mt19937_64 rng(97);
  workloads::GeneralConfig cfg;
  cfg.target_items = 120;
  cfg.log2_mu = 5;
  cfg.horizon = 64.0;
  const Instance instance = workloads::make_general_random(cfg, rng);
  const double bad_sizes[] = {1.5,
                              -0.5,
                              1.0 + 1e-6,
                              std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
  for (const auto& factory : testutil::online_factories()) {
    const AlgorithmPtr probed_algo = factory.make();
    const AlgorithmPtr clean_algo = factory.make();
    InteractiveSession probed(*probed_algo);
    InteractiveSession clean(*clean_algo);
    for (std::size_t i = 0; i < instance.size(); ++i) {
      const Item& it = instance[i];
      if (i % 20 == 10) {
        const Time clock = probed.clock();
        const std::size_t open = probed.open_bins();
        const Cost cost = probed.cost_so_far();
        for (const double size : bad_sizes)
          EXPECT_THROW(probed.offer(it.arrival, it.departure, size),
                       std::invalid_argument)
              << factory.name << " size " << size;
        EXPECT_EQ(probed.clock(), clock) << factory.name;
        EXPECT_EQ(probed.open_bins(), open) << factory.name;
        EXPECT_EQ(probed.cost_so_far(), cost) << factory.name;
      }
      ASSERT_EQ(probed.offer(it.arrival, it.departure, it.size),
                clean.offer(it.arrival, it.departure, it.size))
          << factory.name << ": item " << i;
    }
    EXPECT_EQ(probed.finish(), clean.finish()) << factory.name;
  }
}

TEST(InteractiveSession, AcceptsSizesUpToAFullBin) {
  algos::FirstFit ff;
  InteractiveSession session(ff);
  EXPECT_EQ(session.offer(0.0, 1.0, 1.0), 0);
  EXPECT_EQ(session.offer(0.0, 1.0, 0.0), 0);  // a zero fits a full bin
  EXPECT_EQ(session.offer(0.0, 1.0, 1.0 + kLoadEps / 2), 1);
}

TEST(InteractiveSession, FinishOnEmptySessionIsZero) {
  algos::FirstFit ff;
  InteractiveSession session(ff);
  EXPECT_DOUBLE_EQ(session.finish(), 0.0);
}

/// Feeds `instance` to a Simulator run and an InteractiveSession built from
/// the same factory, comparing each item's bin and the final cost. The
/// session is the serving path; the simulator is the batch ground truth.
void check_session_matches_simulator(const testutil::NamedFactory& factory,
                                     const Instance& instance) {
  const AlgorithmPtr sim_algo = factory.make();
  SimulatorOptions opts;
  opts.keep_history = true;
  const RunResult batch = Simulator{opts}.run(instance, *sim_algo);
  ASSERT_EQ(batch.placements.size(), instance.size()) << factory.name;

  const AlgorithmPtr live_algo = factory.make();
  InteractiveSession session(*live_algo);
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const Item& it = instance[i];
    ASSERT_EQ(session.offer(it.arrival, it.departure, it.size),
              batch.placements[i].bin)
        << factory.name << ": placement diverged at item " << i;
  }
  EXPECT_EQ(session.finish(), batch.cost)
      << factory.name << ": costs not bit-identical";
}

TEST(InteractiveSession, MatchesSimulatorPerItemAcrossAlgorithms) {
  std::mt19937_64 rng(31);
  workloads::GeneralConfig cfg;
  cfg.target_items = 150;
  cfg.log2_mu = 6;
  cfg.horizon = 64.0;
  for (int trial = 0; trial < 3; ++trial) {
    const Instance instance = workloads::make_general_random(cfg, rng);
    for (const auto& factory : testutil::online_factories())
      check_session_matches_simulator(factory, instance);
  }
}

TEST(InteractiveSession, DepartureAtArrivalInstantIsDrainedFirst) {
  // The t-minus/t-plus boundary: an item departing at exactly t=4 leaves
  // BEFORE an item arriving at t=4 is placed. The emptied bin closes (bin
  // ids are usage periods, never reused), so the arrival opens a fresh bin
  // — but only ONE bin is open afterwards, and the cost is two disjoint
  // usage spans of 4, in both the simulator and the session.
  const Instance in =
      testutil::make_instance({{0.0, 4.0, 0.6}, {4.0, 8.0, 0.6}});
  for (const auto& factory : testutil::online_factories()) {
    const AlgorithmPtr algo = factory.make();
    SimulatorOptions opts;
    opts.keep_history = true;
    const RunResult batch = Simulator{opts}.run(in, *algo);
    EXPECT_NE(batch.placements[1].bin, batch.placements[0].bin)
        << factory.name << ": a closed bin must not be reused";

    const AlgorithmPtr live = factory.make();
    InteractiveSession session(*live);
    const BinId first = session.offer(0.0, 4.0, 0.6);
    const BinId second = session.offer(4.0, 8.0, 0.6);
    EXPECT_EQ(second, batch.placements[1].bin) << factory.name;
    EXPECT_NE(second, first) << factory.name;
    EXPECT_EQ(session.open_bins(), 1u)
        << factory.name << ": the t=4 departure was not drained first";
    EXPECT_EQ(session.finish(), batch.cost) << factory.name;
    EXPECT_DOUBLE_EQ(batch.cost, 8.0) << factory.name;
  }
}

TEST(InteractiveSession, SimultaneousDeparturesAllProcessedBeforeArrival) {
  // Several items leaving at the same instant must all clear before the
  // next arrival sees the bins: afterwards exactly one bin is open.
  const Instance in = testutil::make_instance({{0.0, 4.0, 0.6},
                                               {0.0, 4.0, 0.6},
                                               {0.0, 4.0, 0.6},
                                               {4.0, 5.0, 0.9}});
  algos::FirstFit ff;
  InteractiveSession session(ff);
  session.offer(0.0, 4.0, 0.6);
  session.offer(0.0, 4.0, 0.6);
  session.offer(0.0, 4.0, 0.6);
  EXPECT_EQ(session.open_bins(), 3u);
  session.offer(4.0, 5.0, 0.9);
  EXPECT_EQ(session.open_bins(), 1u);  // all three earlier bins drained

  algos::FirstFit ff2;
  SimulatorOptions opts;
  opts.keep_history = true;
  const RunResult batch = Simulator{opts}.run(in, ff2);
  EXPECT_EQ(session.finish(), batch.cost);
  // Three spans of 4 plus one span of 1; no overlap-inflated bins.
  EXPECT_DOUBLE_EQ(batch.cost, 13.0);
}

}  // namespace
}  // namespace cdbp
