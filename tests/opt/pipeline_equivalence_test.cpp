// Old-vs-new equivalence for every routine the certification pipeline
// rebuilt: on seeded random instances — general and aligned — the src/opt
// engines must reproduce the reference implementations in tests/oracles
// bit for bit: equal costs (EXPECT_EQ on doubles is bitwise) and equal
// assignments.
#include <random>

#include <gtest/gtest.h>

#include "opt/exact.h"
#include "opt/exact_repacking.h"
#include "opt/local_search.h"
#include "opt/offline_ffd.h"
#include "oracles/opt_reference.h"
#include "workloads/aligned_random.h"
#include "workloads/general_random.h"

namespace cdbp {
namespace {

void expect_equivalent(const Instance& in, const std::string& label) {
  SCOPED_TRACE(label);

  // --- exact OPT_R: reference sweep vs snapshot pipeline ------------------
  const auto rep_ref = oracles::exact_opt_repacking_reference(in);
  const auto rep_seq = opt::exact_opt_repacking(in);
  ASSERT_EQ(rep_ref.has_value(), rep_seq.has_value());
  if (rep_ref) {
    EXPECT_EQ(rep_ref->cost, rep_seq->cost);  // bit-identical integration
    EXPECT_EQ(rep_ref->max_active, rep_seq->max_active);
    // The quantized key can only merge multisets the exact-double map
    // keeps separate.
    EXPECT_LE(rep_seq->distinct_snapshots, rep_ref->distinct_snapshots);
    // And the parallel path must agree with the sequential one.
    opt::ExactRepackingOptions par;
    par.threads = 4;
    const auto rep_par = opt::exact_opt_repacking(in, par);
    ASSERT_TRUE(rep_par.has_value());
    EXPECT_EQ(rep_seq->cost, rep_par->cost);
  }

  // --- exact OPT_NR: optimized vs reference branch & bound ----------------
  const auto nr_ref = oracles::exact_opt_nonrepacking_reference(in);
  const auto nr_opt = opt::exact_opt_nonrepacking(in);
  ASSERT_EQ(nr_ref.has_value(), nr_opt.has_value());
  if (nr_ref) {
    EXPECT_EQ(nr_ref->cost, nr_opt->cost);
    EXPECT_EQ(nr_ref->assignment, nr_opt->assignment);
  }

  // --- offline FFD: envelope vs reference probes --------------------------
  const auto ffd_ref = oracles::offline_ffd_by_length_reference(in);
  const auto ffd_env = opt::offline_ffd_by_length(in);
  EXPECT_EQ(ffd_ref.cost, ffd_env.cost);
  EXPECT_EQ(ffd_ref.bins, ffd_env.bins);
  EXPECT_EQ(ffd_ref.assignment, ffd_env.assignment);

  // --- local search: envelope vs reference span deltas --------------------
  const auto s_ref = oracles::local_search_opt_nr_reference(in);
  const auto s_env = opt::local_search_opt_nr(in);
  EXPECT_EQ(s_ref.cost, s_env.cost);
  EXPECT_EQ(s_ref.assignment, s_env.assignment);
  EXPECT_EQ(s_ref.moves, s_env.moves);
  EXPECT_EQ(s_ref.rounds, s_env.rounds);
}

class PipelineEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineEquivalence, GeneralRandom) {
  std::mt19937_64 rng(GetParam());
  workloads::GeneralConfig cfg;
  cfg.shape = static_cast<workloads::GeneralShape>(GetParam() % 4);
  cfg.target_items = 11;
  cfg.log2_mu = 4;
  cfg.horizon = 12.0;
  cfg.size_max = 0.7;
  expect_equivalent(workloads::make_general_random(cfg, rng),
                    "general seed " + std::to_string(GetParam()));
}

TEST_P(PipelineEquivalence, AlignedRandom) {
  std::mt19937_64 rng(GetParam() ^ 0xA11A11);
  workloads::AlignedConfig cfg;
  cfg.n = 3;
  cfg.max_bucket = 3;
  cfg.arrivals_per_slot = 0.6;
  expect_equivalent(workloads::make_aligned_random(cfg, rng),
                    "aligned seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineEquivalence,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace cdbp
