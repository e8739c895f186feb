// Cross-module property suite: every online algorithm, on every workload
// shape, across seeds, must produce a valid packing whose cost dominates
// the certified OPT bounds — and on tiny instances, the exact OPT.
#include <ostream>
#include <random>

#include <gtest/gtest.h>

#include "core/simulator.h"
#include "core/validation.h"
#include "opt/bounds.h"
#include "opt/exact.h"
#include "opt/offline_ffd.h"
#include "opt/repack.h"
#include "test_util.h"
#include "workloads/aligned_random.h"
#include "workloads/binary_input.h"
#include "workloads/cloud_gaming.h"
#include "workloads/general_random.h"

namespace cdbp {
namespace {

struct PropertyCase {
  std::string workload;
  std::uint64_t seed;
};

// Names the case in ctest and gtest output as `workload/seed`; without a
// printer gtest dumps the struct's raw bytes, a heap pointer among them.
void PrintTo(const PropertyCase& pc, std::ostream* os) {
  *os << pc.workload << '/' << pc.seed;
}

std::string case_name(const ::testing::TestParamInfo<PropertyCase>& info) {
  return info.param.workload + "_seed" + std::to_string(info.param.seed);
}

Instance build_workload(const std::string& kind, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  if (kind == "general") {
    workloads::GeneralConfig cfg;
    cfg.target_items = 150;
    cfg.log2_mu = 6;
    return workloads::make_general_random(cfg, rng);
  }
  if (kind == "bursts") {
    workloads::GeneralConfig cfg;
    cfg.shape = workloads::GeneralShape::kGeometricBursts;
    cfg.target_items = 150;
    cfg.log2_mu = 7;
    return workloads::make_general_random(cfg, rng);
  }
  if (kind == "twophase") {
    workloads::GeneralConfig cfg;
    cfg.shape = workloads::GeneralShape::kTwoPhase;
    cfg.target_items = 120;
    cfg.log2_mu = 5;
    return workloads::make_general_random(cfg, rng);
  }
  if (kind == "aligned") {
    workloads::AlignedConfig cfg;
    cfg.n = 6;
    cfg.max_bucket = 6;
    cfg.arrivals_per_slot = 1.0;
    return workloads::make_aligned_random(cfg, rng);
  }
  if (kind == "binary") {
    return workloads::make_binary_input(3 + static_cast<int>(seed % 4));
  }
  if (kind == "cloud") {
    workloads::CloudGamingConfig cfg;
    cfg.days = 0.15;
    return workloads::make_cloud_gaming(cfg, rng);
  }
  throw std::invalid_argument("unknown workload kind " + kind);
}

class AllAlgosAllWorkloads : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(AllAlgosAllWorkloads, ValidPackingAndBoundOrdering) {
  const PropertyCase& pc = GetParam();
  const Instance in = build_workload(pc.workload, pc.seed);
  ASSERT_GT(in.size(), 0u);

  const opt::Bounds bounds = opt::compute_bounds(in);
  const double repack = opt::repack_witness(in).cost;
  const double ffd = opt::offline_ffd_by_length(in).cost;

  // Bound lattice: LB <= repack <= 2*ceil-int; LB <= ffd.
  EXPECT_GE(repack, bounds.lower() - 1e-6);
  EXPECT_LE(repack, bounds.upper_ceil() + 1e-6);
  EXPECT_GE(ffd, bounds.lower() - 1e-6);

  const bool aligned = in.is_aligned();
  const auto factories =
      aligned ? testutil::aligned_factories() : testutil::online_factories();
  for (const auto& f : factories) {
    auto algo = f.make();
    const RunResult r = Simulator{}.run(in, *algo);
    const ValidationReport rep = validate_run(in, r);
    EXPECT_TRUE(rep.ok())
        << f.name << " on " << pc.workload << "/" << pc.seed << ": "
        << rep.to_string();
    // Online >= all OPT lower bounds.
    EXPECT_GE(r.cost, bounds.lower() - 1e-6)
        << f.name << " on " << pc.workload << "/" << pc.seed;
    // Cost equals the integral of the open-bin profile.
    EXPECT_NEAR(r.cost, open_bins_profile(r.bins, kInfTime).integral(),
                1e-6 * (1.0 + r.cost));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllAlgosAllWorkloads,
    ::testing::Values(
        PropertyCase{"general", 1}, PropertyCase{"general", 2},
        PropertyCase{"general", 3}, PropertyCase{"bursts", 1},
        PropertyCase{"bursts", 2}, PropertyCase{"twophase", 1},
        PropertyCase{"twophase", 2}, PropertyCase{"aligned", 1},
        PropertyCase{"aligned", 2}, PropertyCase{"aligned", 3},
        PropertyCase{"binary", 1}, PropertyCase{"binary", 2},
        PropertyCase{"cloud", 1}, PropertyCase{"cloud", 2}),
    case_name);

class TinyInstancesVsExact : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TinyInstancesVsExact, NoAlgorithmBeatsExactOpt) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.target_items = 8;
  cfg.log2_mu = 3;
  cfg.horizon = 8.0;
  cfg.size_max = 0.8;
  const Instance in = workloads::make_general_random(cfg, rng);
  const auto exact = opt::exact_opt_nonrepacking(in);
  ASSERT_TRUE(exact.has_value());
  EXPECT_GE(exact->cost, opt::compute_bounds(in).lower() - 1e-9);
  for (const auto& f : testutil::online_factories()) {
    auto algo = f.make();
    EXPECT_GE(run_cost(in, *algo) + 1e-9, exact->cost) << f.name;
  }
  // The repacking witness may beat OPT_NR (repacking is stronger), but
  // never the lower bound.
  EXPECT_GE(opt::repack_witness(in).cost,
            opt::compute_bounds(in).lower() - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TinyInstancesVsExact,
                         ::testing::Range<std::uint64_t>(0, 20));

TEST(Determinism, RepeatedRunsIdentical) {
  std::mt19937_64 rng(77);
  workloads::GeneralConfig cfg;
  cfg.target_items = 200;
  cfg.log2_mu = 8;
  const Instance in = workloads::make_general_random(cfg, rng);
  for (const auto& f : testutil::online_factories()) {
    auto a1 = f.make();
    auto a2 = f.make();
    const RunResult r1 = Simulator{}.run(in, *a1);
    const RunResult r2 = Simulator{}.run(in, *a2);
    EXPECT_DOUBLE_EQ(r1.cost, r2.cost) << f.name;
    EXPECT_EQ(r1.bins_opened, r2.bins_opened) << f.name;
    ASSERT_EQ(r1.placements.size(), r2.placements.size());
    for (std::size_t k = 0; k < r1.placements.size(); ++k)
      EXPECT_EQ(r1.placements[k], r2.placements[k]) << f.name;
  }
}

}  // namespace
}  // namespace cdbp
