// Equivalence and invariance properties across execution paths:
//  * the batch Simulator and the interactive Session must produce
//    identical costs/placements for every algorithm on the same stream;
//  * indexed bin selection (capacity index) must pick the bin the seed
//    linear scan picks, at every arrival of every algorithm that uses it;
//  * OPT bounds are invariant under same-instant presentation reordering
//    (they depend on the multiset of items only);
//  * shifting an instance in time shifts nothing but timestamps.
#include <algorithm>
#include <cmath>
#include <random>

#include <gtest/gtest.h>

#include "algos/cdff.h"
#include "algos/classify.h"
#include "algos/harmonic.h"
#include "algos/hybrid.h"
#include "core/session.h"
#include "core/simulator.h"
#include "opt/bounds.h"
#include "opt/repack.h"
#include "oracles/select.h"
#include "test_util.h"
#include "workloads/aligned_random.h"
#include "workloads/general_random.h"

namespace cdbp {
namespace {

class SessionEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SessionEquivalence, SimulatorAndSessionAgreeForEveryAlgorithm) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 120;
  cfg.log2_mu = 6;
  cfg.horizon = 48.0;
  const Instance in = workloads::make_general_random(cfg, rng);

  for (const auto& f : testutil::online_factories()) {
    auto batch_algo = f.make();
    const RunResult batch = Simulator{}.run(in, *batch_algo);

    auto live_algo = f.make();
    InteractiveSession session(*live_algo);
    std::vector<BinId> live_bins;
    for (const Item& r : in.items())
      live_bins.push_back(session.offer(r.arrival, r.departure, r.size));
    const Cost live_cost = session.finish();

    EXPECT_NEAR(batch.cost, live_cost, 1e-9) << f.name;
    ASSERT_EQ(batch.placements.size(), live_bins.size()) << f.name;
    for (std::size_t k = 0; k < live_bins.size(); ++k)
      EXPECT_EQ(batch.placements[k], live_bins[k])
          << f.name << " item " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionEquivalence,
                         ::testing::Range<std::uint64_t>(0, 8));

// --- Indexed selection vs the seed linear scan -----------------------------
//
// The capacity index must be a pure data-structure change. SelectionOracle
// (tests/oracles) checks it at every arrival of a real run: for every pool
// holding an open bin and every fit rule, pick_bin_indexed must pick the
// bin the seed linear scan picks over that pool's open bins. The decorated
// run must also cost exactly what the undecorated one costs. Both ledger
// layouts are checked, since each maintains its own indexes. Each instance
// also runs with its sizes rounded to sixteenths: random sizes almost never
// leave two bins at equal load, dyadic ones add exactly and tie often, so
// the tie-breaking rules are exercised too.

std::vector<testutil::NamedFactory> indexed_algorithms() {
  using namespace algos;
  auto out = testutil::online_factories();
  out.push_back({"HA-best", [] {
                   return std::make_unique<Hybrid>(&Hybrid::paper_threshold,
                                                   "HA-best", FitRule::kBest);
                 }});
  out.push_back({"Harmonic(8)", [] { return std::make_unique<HarmonicFit>(); }});
  return out;
}

Instance with_sixteenth_sizes(const Instance& in) {
  Instance out;
  for (const Item& r : in.items())
    out.add(r.arrival, r.departure,
            std::max(1.0, std::round(r.size * 16.0)) / 16.0);
  out.finalize();
  return out;
}

void expect_index_matches_scan(const Instance& in,
                               const testutil::NamedFactory& f) {
  for (const LedgerStorage storage :
       {LedgerStorage::kReference, LedgerStorage::kSoa}) {
    SCOPED_TRACE(f.name + " on " + to_string(storage));
    const Simulator sim{SimulatorOptions{.storage = storage}};
    oracles::SelectionOracle checked(f.make());
    const RunResult with_oracle = sim.run(in, checked);
    EXPECT_GT(checked.checks(), 0u);
    EXPECT_EQ(checked.mismatches().size(), 0u)
        << "first: " << oracles::to_string(checked.mismatches().front());
    auto plain = f.make();
    const RunResult without = sim.run(in, *plain);
    // Bitwise, not NEAR: identical selections must yield identical sums.
    EXPECT_EQ(with_oracle.cost, without.cost);
    ASSERT_EQ(with_oracle.placements.size(), without.placements.size());
    for (std::size_t k = 0; k < without.placements.size(); ++k)
      ASSERT_EQ(with_oracle.placements[k], without.placements[k])
          << "item " << k;
  }
}

class SelectionEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectionEquivalence, IndexedMatchesLinearScanOnGeneralInstances) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 220;
  cfg.log2_mu = 6;
  cfg.horizon = 40.0;  // dense enough to keep many bins open
  const Instance in = workloads::make_general_random(cfg, rng);
  const Instance tied = with_sixteenth_sizes(in);
  for (const auto& f : indexed_algorithms()) {
    expect_index_matches_scan(in, f);
    SCOPED_TRACE("sizes rounded to sixteenths");
    expect_index_matches_scan(tied, f);
  }
}

TEST_P(SelectionEquivalence, IndexedMatchesLinearScanOnAlignedInstances) {
  std::mt19937_64 rng(GetParam() + 1000);
  workloads::AlignedConfig cfg;
  cfg.max_bucket = 5;
  cfg.n = 6;
  const Instance in = workloads::make_aligned_random(cfg, rng);
  auto algorithms = indexed_algorithms();
  // CDFF is only defined on aligned inputs, so it is checked here.
  algorithms.push_back({"CDFF", [] { return std::make_unique<algos::Cdff>(); }});
  algorithms.push_back({"CDBF", [] {
                          return std::make_unique<algos::Cdff>(
                              algos::FitRule::kBest);
                        }});
  const Instance tied = with_sixteenth_sizes(in);
  for (const auto& f : algorithms) {
    expect_index_matches_scan(in, f);
    SCOPED_TRACE("sizes rounded to sixteenths");
    expect_index_matches_scan(tied, f);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionEquivalence,
                         ::testing::Range<std::uint64_t>(0, 18));

// --- SoA storage vs the reference AoS ledger layout ------------------------
//
// LedgerStorage::kSoa must be a pure data-layout change: every algorithm
// must produce bitwise-identical costs, the same placements (which are
// also each bin's item list), and the same per-bin records whether the
// ledger stores BinRecord structs or flat columns. Exercised on the same seed matrix as SelectionEquivalence, with
// both ledgers driven through the default (indexed) selection mode.

void expect_same_storage_run(const Instance& in,
                             const testutil::NamedFactory& f) {
  auto ref_algo = f.make();
  auto soa_algo = f.make();
  const RunResult ref =
      Simulator{SimulatorOptions{.storage = LedgerStorage::kReference}}.run(
          in, *ref_algo);
  const RunResult soa =
      Simulator{SimulatorOptions{.storage = LedgerStorage::kSoa}}.run(
          in, *soa_algo);
  // Bitwise, not NEAR: the SoA backend performs the identical FP ops in
  // the identical order.
  EXPECT_EQ(ref.cost, soa.cost) << f.name;
  EXPECT_EQ(ref.bins_opened, soa.bins_opened) << f.name;
  EXPECT_EQ(ref.max_open, soa.max_open) << f.name;
  ASSERT_EQ(ref.placements.size(), soa.placements.size()) << f.name;
  for (std::size_t k = 0; k < ref.placements.size(); ++k)
    ASSERT_EQ(ref.placements[k], soa.placements[k])
        << f.name << " item " << k;
  ASSERT_EQ(ref.bins.size(), soa.bins.size()) << f.name;
  for (std::size_t b = 0; b < ref.bins.size(); ++b) {
    EXPECT_EQ(ref.bins[b].group, soa.bins[b].group) << f.name << " bin " << b;
    EXPECT_EQ(ref.bins[b].opened, soa.bins[b].opened) << f.name << " bin " << b;
    EXPECT_EQ(ref.bins[b].closed, soa.bins[b].closed) << f.name << " bin " << b;
    EXPECT_EQ(ref.bins[b].load, soa.bins[b].load) << f.name << " bin " << b;
  }
}

class StorageEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageEquivalence, SoaMatchesReferenceOnGeneralInstances) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 220;
  cfg.log2_mu = 6;
  cfg.horizon = 40.0;  // dense enough to keep many bins open
  const Instance in = workloads::make_general_random(cfg, rng);
  for (const auto& f : testutil::online_factories())
    expect_same_storage_run(in, f);
}

TEST_P(StorageEquivalence, SoaMatchesReferenceOnAlignedInstances) {
  std::mt19937_64 rng(GetParam() + 1000);
  workloads::AlignedConfig cfg;
  cfg.max_bucket = 5;
  cfg.n = 6;
  const Instance in = workloads::make_aligned_random(cfg, rng);
  for (const auto& f : testutil::aligned_factories())
    expect_same_storage_run(in, f);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageEquivalence,
                         ::testing::Range<std::uint64_t>(0, 18));

class BoundsInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundsInvariance, ReorderingSameInstantItemsChangesNoBound) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 100;
  cfg.log2_mu = 5;
  cfg.horizon = 10.0;  // dense: many shared instants
  cfg.integer_times = true;
  const Instance in = workloads::make_general_random(cfg, rng);

  std::vector<Item> items = in.items();
  std::shuffle(items.begin(), items.end(), rng);
  const Instance shuffled{items};

  const opt::Bounds a = opt::compute_bounds(in);
  const opt::Bounds b = opt::compute_bounds(shuffled);
  EXPECT_NEAR(a.demand, b.demand, 1e-9);
  EXPECT_NEAR(a.span, b.span, 1e-9);
  EXPECT_NEAR(a.ceil_integral, b.ceil_integral, 1e-9);
  // The repacking witness consumes events time-ordered, so it is also
  // order-invariant.
  EXPECT_NEAR(opt::repack_witness(in).cost, opt::repack_witness(shuffled).cost,
              1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsInvariance,
                         ::testing::Range<std::uint64_t>(0, 8));

class TimeShiftInvariance : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimeShiftInvariance, ShiftingTimestampsShiftsNothingElse) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 80;
  cfg.log2_mu = 5;
  const Instance in = workloads::make_general_random(cfg, rng);

  const double delta = 1024.0;  // dyadic: exact in double
  Instance shifted;
  for (const Item& r : in.items())
    shifted.add(r.arrival + delta, r.departure + delta, r.size);
  shifted.finalize();

  const opt::Bounds a = opt::compute_bounds(in);
  const opt::Bounds b = opt::compute_bounds(shifted);
  EXPECT_NEAR(a.demand, b.demand, 1e-9);
  EXPECT_NEAR(a.span, b.span, 1e-9);
  EXPECT_NEAR(a.ceil_integral, b.ceil_integral, 1e-9);

  // First-Fit ignores absolute time entirely.
  algos::FirstFit f1, f2;
  EXPECT_NEAR(run_cost(in, f1), run_cost(shifted, f2), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeShiftInvariance,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace cdbp
