// Load-generating client for the CDBPNET1 serve front end.
//
// Drives one connection per tenant — tens of thousands when asked — from a
// single poll-based event thread (the generator is I/O-bound; one thread
// saturates a loopback listener long before it saturates itself). Used by
// `cdbp client`, the E18 networked bench cells, and the CI loopback soak.
//
// Determinism contract (matters for recover-diff): the server applies each
// shard's offers in arrival order and the session *throws* on regressions,
// so the client must never let offers for one shard overtake each other.
// Two modes:
//  - shard_window = 1 ("ordered"): at most one offer in flight per *shard*
//    across all connections — byte-identical recover output to the file-fed
//    path for any tenant mix;
//  - pipeline > 1: up to `pipeline` offers in flight per *connection*. Only
//    deterministic when each shard is fed by a single connection (e.g. the
//    bench's shard-pinned tenants), since one TCP stream preserves order.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/io_env.h"
#include "net/protocol.h"
#include "serve/request_stream.h"

namespace cdbp::net {

struct ClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Per-shard in-flight cap (cross-connection). 1 = fully ordered mode;
  /// 0 disables the shard window (pipeline alone limits).
  std::size_t shard_window = 1;
  /// Per-connection in-flight cap.
  std::size_t pipeline = 1;
  /// Connections being established concurrently (staged nonblocking
  /// connects, so 10k+ tenants don't SYN-flood the backlog at once).
  std::size_t connect_batch = 512;
  std::uint32_t timeout_ms = 60000;  ///< overall inactivity timeout
  io::Env* env = nullptr;
};

struct ClientReport {
  std::uint64_t sent = 0;      ///< offers written to the wire
  std::uint64_t applied = 0;   ///< acked kApplied
  std::uint64_t skipped = 0;   ///< acked kSkipped (resume dedup)
  std::uint64_t errored = 0;   ///< typed error responses to offers
  std::uint64_t lost = 0;      ///< unresolved (conn died / timeout)
  std::uint64_t conns_opened = 0;
  std::uint64_t conns_failed = 0;
  std::map<std::uint16_t, std::uint64_t> errors_by_code;
  /// Stream indices acked kApplied — the client's durability claim set.
  /// The network fault matrix and E18 check every one of these against
  /// the records its shard's WAL holds.
  std::vector<std::uint64_t> applied_ids;
  /// Client-observed offer->ack round-trip latencies, microseconds,
  /// unsorted. Percentiles are exact (computed by the caller via sort).
  std::vector<std::uint64_t> latencies_us;
  double wall_seconds = 0.0;
  bool timed_out = false;

  [[nodiscard]] std::uint64_t resolved() const noexcept {
    return applied + skipped + errored;
  }
};

/// Exact percentile over the report's latency samples (p in [0,100]).
/// Returns 0 when empty. Sorts a copy — call once per percentile set.
[[nodiscard]] std::uint64_t latency_percentile_us(
    const std::vector<std::uint64_t>& samples, double p);

/// Runs the load: groups `items` by tenant, opens one connection per
/// tenant, replays each tenant's offers in stream order, waits for every
/// terminal response. Item stream_index fields must be nonzero and unique;
/// per tenant they must be monotone in arrival order (generate_stream's
/// global 1-based indices satisfy both).
ClientReport run_load(const ClientConfig& config,
                      const std::vector<serve::ServeRequest>& items);

/// Raises RLIMIT_NOFILE toward `want` fds (best effort; returns the new
/// soft limit). The 10k-connection soak needs ~want+margin descriptors.
std::uint64_t raise_nofile_limit(std::uint64_t want);

}  // namespace cdbp::net
