// Chaos matrix for the serve plane: sweep deterministic fault schedules
// (ENOSPC, EIO, sticky fsync, EINTR storms, power cuts) over every I/O
// operation index of a reference DurableSession run, and check the
// durability contract at each point:
//
//   1. every ACKED offer survives the fault + power loss (fsync=every:
//      ack happens only after the record's fsync returned);
//   2. recovery from the post-power-loss disk image either reproduces a
//      state bit-identical with the reference run (same placements, and —
//      after feeding the remaining offers — the same final cost) or
//      refuses with a clean std::runtime_error (never UB, never a crash,
//      never silently different data);
//   3. purely transient noise (EINTR storms, latency, short writes) is
//      absorbed by the retry layer: the run completes as if unfaulted.
//
// Fault points are harvested from a fault-free profiling run through a
// FaultInjectingEnv with history recording: the op stream is deterministic,
// so "the N-th write" in the profile is the N-th write in the faulted run.
//
// Used by tests/serve/fault_matrix_test.cpp: fixed seeds in tier-1, plus a
// randomized soak (a DISABLED_ test that CI runs) whose matrix seeds derive
// from gtest's random seed, so a failure reproduces with the
// `--gtest_random_seed=N` line the soak prints.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/algorithm.h"

namespace cdbp::serve {

struct ChaosConfig {
  /// Scratch directory for all matrix runs (created; wiped per case).
  std::string dir;
  /// Seeds to sweep; each seed derives its own workload + fault schedule.
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  /// Algorithm under test. The factory must produce a fresh deterministic
  /// instance per call (same contract as ShardRouter).
  std::function<AlgorithmPtr()> make_algo;
  std::string algo_name = "ff";
  /// Offers per run (small: every case replays the whole stream).
  std::size_t offers = 48;
  std::uint64_t checkpoint_every = 16;
  std::uint64_t wal_segment_bytes = 512;
  /// Cap on fault points tried per fault kind per seed; 0 = every point.
  /// Points are spread evenly over the op stream, so a cap still covers
  /// open/header/append/fsync/rotate/manifest/checkpoint windows.
  std::size_t max_points_per_kind = 16;
};

/// One matrix cell that violated the contract.
struct ChaosFailure {
  std::uint64_t seed = 0;
  std::string fault;     ///< e.g. "enospc", "power-cut"
  std::uint64_t op = 0;  ///< operation index the fault was scheduled at
  std::string detail;    ///< what went wrong
};

struct ChaosReport {
  std::uint64_t cases = 0;       ///< matrix cells executed
  std::uint64_t faulted = 0;     ///< cells where the fault actually fired
  std::uint64_t recoveries = 0;  ///< successful recover-and-continue paths
  std::uint64_t transparent = 0; ///< transient cells absorbed by retries
  std::vector<ChaosFailure> failures;
};

/// Runs the full matrix. Throws std::invalid_argument on a bad config
/// (empty dir/seeds, null factory); individual case outcomes — including
/// exceptions that violate the contract — are reported, not thrown.
[[nodiscard]] ChaosReport run_chaos_matrix(const ChaosConfig& config);

}  // namespace cdbp::serve
