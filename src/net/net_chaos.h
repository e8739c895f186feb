// Chaos matrix for the NETWORK path of the serve plane.
//
// The filesystem matrix (serve/chaos.h) proves the durability contract
// under disk faults; this one proves the wire contract under socket faults.
// Every case runs a real listener + router on loopback with a
// FaultInjectingEnv on the LISTENER's socket ops only (the WAL writes go to
// the real filesystem, so disk stays out of the experiment), drives it with
// the load-generating client, and checks:
//
//   1. no acked-offer loss: every offer the client saw ACKED (kApplied)
//      is a (tenant, stream_index) record in its shard's WAL — a fault may
//      kill a connection, but never an acknowledged offer (see
//      check_acks_in_wal);
//   2. transient noise transparency: EAGAIN/EINTR storms, short sends and
//      latency on accept/read/write are absorbed by the event loop — the
//      run completes with zero client-visible loss and zero errors;
//   3. hard faults degrade cleanly: an EIO on a connection's socket drops
//      that connection (client counts its offers lost), the server keeps
//      serving every other connection, and nothing crashes or hangs.
//
// Fault points for the hard-EIO sweep are harvested from a fault-free
// profiling run: socket op streams are NOT fully deterministic (thread
// interleaving moves read/write boundaries), so unlike the disk matrix the
// op index is a sampling knob, not an exact replay coordinate — the checked
// properties above hold at EVERY index, which is what makes that sound.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/algorithm.h"
#include "serve/shard_router.h"

namespace cdbp::net {

struct NetChaosConfig {
  /// Scratch directory for per-case WAL dirs (created; wiped per case).
  std::string dir;
  std::vector<std::uint64_t> seeds = {1, 2, 3};
  std::function<AlgorithmPtr()> make_algo;
  std::string algo_name = "ff";
  std::size_t offers = 64;
  std::size_t tenants = 4;
  std::size_t shards = 2;
  /// Hard-EIO points sampled per socket op kind per seed.
  std::size_t eio_points = 4;
  std::ostream* log = nullptr;  ///< per-case progress; nullptr = silent
};

struct NetChaosFailure {
  std::uint64_t seed = 0;
  std::string fault;   ///< e.g. "eagain-storm", "eio@37"
  std::string detail;  ///< what went wrong
};

struct NetChaosReport {
  std::uint64_t cases = 0;
  std::uint64_t faulted = 0;      ///< cases where a fault actually fired
  std::uint64_t transparent = 0;  ///< transient cases absorbed completely
  std::uint64_t conns_killed = 0; ///< connections lost to hard faults
  std::vector<NetChaosFailure> failures;
  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// Runs the matrix. Throws std::invalid_argument on bad config; per-case
/// contract violations are reported, not thrown.
[[nodiscard]] NetChaosReport run_net_chaos(const NetChaosConfig& config);

/// The ack-implies-durable oracle: every id in `applied_ids` (a client's
/// kApplied set; ids are stream indices of `stream`, which names each
/// one's tenant) must be logged as a (tenant, stream_index) record in the
/// WAL of that tenant's shard under `wal_dir` (`shards` WALs, laid out as
/// ShardRouter writes them). Read-only; streams each WAL, so memory is
/// O(acks). Returns "" when the contract holds, else the first violation.
[[nodiscard]] std::string check_acks_in_wal(
    const std::string& wal_dir, std::size_t shards,
    const std::vector<serve::ServeRequest>& stream,
    const std::vector<std::uint64_t>& applied_ids);

}  // namespace cdbp::net
