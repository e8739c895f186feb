// Absolute results on fixed-seed inputs. Every equivalence suite compares
// two paths; these tests compare each path with numbers, so a change that
// edits both sides of a comparison still cannot move a decision unseen.
// Pinned: the exact bits of every cost, and a CRC-32 of every placement or
// assignment vector. The values were produced by the implementations these
// suites guard; if one moves, a decision changed.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "core/frame.h"
#include "core/simulator.h"
#include "opt/exact.h"
#include "opt/exact_repacking.h"
#include "opt/local_search.h"
#include "opt/offline_ffd.h"
#include "workloads/aligned_random.h"
#include "workloads/general_random.h"

namespace cdbp {
namespace {

struct Pin {
  std::uint64_t cost_bits = 0;
  /// CRC-32 of the placement / assignment vector; for OPT_R, which has
  /// none, the number of distinct snapshots solved.
  std::uint32_t crc = 0;
};

Instance general_instance(int items, int log2_mu, double horizon,
                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  workloads::GeneralConfig cfg;
  cfg.target_items = items;
  cfg.log2_mu = log2_mu;
  cfg.horizon = horizon;
  cfg.size_max = 0.7;
  return workloads::make_general_random(cfg, rng);
}

Instance aligned_instance() {
  std::mt19937_64 rng(1017);
  workloads::AlignedConfig cfg;
  cfg.max_bucket = 5;
  cfg.n = 6;
  return workloads::make_aligned_random(cfg, rng);
}

template <typename T>
std::uint32_t crc_of(const std::vector<T>& v) {
  return crc32(v.data(), v.size() * sizeof(T));
}

Pin run_pin(const Instance& in, const std::string& algo) {
  const AlgorithmPtr a = cli::make_algorithm(algo, in.mu());
  const RunResult r = Simulator{}.run(in, *a);
  return {std::bit_cast<std::uint64_t>(r.cost), crc_of(r.placements)};
}

/// The pin as a C++ initializer, so a failure message can be pasted back.
std::string show(const std::string& name, const Pin& p) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"%s\", {0x%016llxull, 0x%08xu}}",
                name.c_str(), static_cast<unsigned long long>(p.cost_bits),
                static_cast<unsigned>(p.crc));
  return buf;
}

void expect_pin(const std::string& name, const Pin& actual,
                const std::map<std::string, Pin>& expected) {
  const auto it = expected.find(name);
  ASSERT_NE(it, expected.end()) << "no pin for " << show(name, actual);
  EXPECT_EQ(actual.cost_bits, it->second.cost_bits)
      << name << " cost " << std::bit_cast<double>(actual.cost_bits)
      << ", actual " << show(name, actual);
  EXPECT_EQ(actual.crc, it->second.crc)
      << name << " placements, actual " << show(name, actual);
}

TEST(GoldenPin, EveryAlgorithmOnAGeneralInstance) {
  const Instance in = general_instance(200, 6, 40.0, 20261017);
  ASSERT_GE(in.size(), 150u);
  const std::map<std::string, Pin> expected = {
      {"ff", {0x409742dc250ad946ull, 0x01ab410cu}},
      {"bf", {0x40967b6ae320174bull, 0xec6342b4u}},
      {"nf", {0x40a0045a3e5dff77ull, 0x6230fb7eu}},
      {"wf", {0x409969204c32efaeull, 0xf8af2f41u}},
      {"cbd", {0x4097b586a38eae01ull, 0x685f24d7u}},
      {"cbd-ren", {0x40971e63c975df1cull, 0x9b9bc841u}},
      {"ha", {0x40982d5b8998e90aull, 0x10189ed5u}},
      {"dfit", {0x4094d7cd223a1e77ull, 0x2541106cu}},
      {"dfit-ne", {0x40948ef1e2aceb14ull, 0x20c8b49eu}},
      {"harmonic", {0x409bb2a8b8bf7031ull, 0xc12ff059u}},
  };
  for (const std::string& name : cli::algorithm_names())
    if (name != "cdff") expect_pin(name, run_pin(in, name), expected);
}

TEST(GoldenPin, EveryAlgorithmOnAnAlignedInstance) {
  const Instance in = aligned_instance();
  ASSERT_GE(in.size(), 100u);
  const std::map<std::string, Pin> expected = {
      {"ff", {0x4064000000000000ull, 0xa0ad1768u}},
      {"bf", {0x4064200000000000ull, 0x03f2a6a7u}},
      {"nf", {0x4067400000000000ull, 0x9a0f8e1cu}},
      {"wf", {0x4064000000000000ull, 0xa94c28adu}},
      {"cbd", {0x406fa00000000000ull, 0x334d108eu}},
      {"cbd-ren", {0x406b600000000000ull, 0x01332bb0u}},
      {"ha", {0x406be00000000000ull, 0x3c4e1115u}},
      {"cdff", {0x4069600000000000ull, 0x27e77b35u}},
      {"dfit", {0x4064000000000000ull, 0xa0ad1768u}},
      {"dfit-ne", {0x4064200000000000ull, 0x03f2a6a7u}},
      {"harmonic", {0x4071700000000000ull, 0x2ee64d02u}},
  };
  for (const std::string& name : cli::algorithm_names())
    expect_pin(name, run_pin(in, name), expected);
}

TEST(GoldenPin, OptRoutines) {
  const std::map<std::string, Pin> expected = {
      {"exact_opt_nonrepacking", {0x4042abf3d0f1ea47ull, 0x2567ff77u}},
      {"exact_opt_repacking", {0x4064af6cd69f80dfull, 0x00000076u}},
      {"offline_ffd_by_length", {0x4094e32a2813d64cull, 0xd20ac9b5u}},
      {"local_search_opt_nr", {0x4094cba4bd6188b7ull, 0x270cbb54u}},
  };

  const Instance small = general_instance(13, 4, 12.0, 1017);
  ASSERT_LE(small.size(), 14u);
  const auto nr = opt::exact_opt_nonrepacking(small);
  ASSERT_TRUE(nr.has_value());
  expect_pin("exact_opt_nonrepacking",
             {std::bit_cast<std::uint64_t>(nr->cost), crc_of(nr->assignment)},
             expected);

  const Instance medium = general_instance(60, 4, 48.0, 1017);
  const auto rep = opt::exact_opt_repacking(medium);
  ASSERT_TRUE(rep.has_value());
  expect_pin("exact_opt_repacking",
             {std::bit_cast<std::uint64_t>(rep->cost),
              static_cast<std::uint32_t>(rep->distinct_snapshots)},
             expected);

  const Instance large = general_instance(200, 6, 40.0, 20261017);
  const opt::OfflineResult ffd = opt::offline_ffd_by_length(large);
  expect_pin("offline_ffd_by_length",
             {std::bit_cast<std::uint64_t>(ffd.cost), crc_of(ffd.assignment)},
             expected);
  const opt::LocalSearchResult ls = opt::local_search_opt_nr(large);
  expect_pin("local_search_opt_nr",
             {std::bit_cast<std::uint64_t>(ls.cost), crc_of(ls.assignment)},
             expected);
}

}  // namespace
}  // namespace cdbp
