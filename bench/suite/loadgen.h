// Open- and closed-loop CDBPNET1 load generator for the serve workloads.
//
// One thread drives one connection per tenant (the serve-net workload pins
// one tenant to each shard, so each shard is fed by a single TCP stream and
// the packing stays deterministic). Offers are encoded with the server's own
// codec (net/protocol.h).
//
// Open loop: offer i is due at t0 + i / rate whether or not earlier offers
// were answered, and its latency is measured from that *intended* time. A
// server stall therefore charges every offer scheduled behind it, not just
// the one in flight — the coordinated-omission trap that a closed loop (or
// timing from the actual send) falls into. The generator's own lateness
// (actual send - intended) is reported so a slow generator is visible.
//
// Closed loop: each connection keeps `window` offers in flight; used for
// the saturation rate, where latency is pure queueing.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "spans.h"

namespace cdbp::bench_suite {

struct GenOffer {
  double arrival = 0.0;
  double departure = 0.0;
  double size = 0.0;
};

/// Deterministic offer sequence of one tenant: offer k arrives at k/64,
/// stays a log-uniform duration in [1, 256] (mu = 2^8, the --mu-hint the
/// server runs with) and has a uniform size in [0.02, 0.6]. The steady
/// arrival clock keeps the working set (~3k active items per shard)
/// independent of how long the run lasts.
class OfferSequence {
 public:
  OfferSequence(std::uint64_t seed, std::size_t tenant_index);
  GenOffer next();

 private:
  std::mt19937_64 rng_;
  std::uint64_t k_ = 0;
};

/// Client-observed outcome of one load phase.
struct PhaseStats {
  std::string name;
  double rate = 0.0;     ///< scheduled offers/s; 0 = closed loop
  double seconds = 0.0;  ///< scheduled length (open loop)
  std::uint64_t sent = 0;
  std::uint64_t acked = 0;   ///< kApplied acks
  std::uint64_t failed = 0;  ///< error responses + offers never answered
  /// Per acked offer: ack receipt - intended send (open loop) or - actual
  /// send (closed loop), in nanoseconds, unsorted.
  std::vector<std::uint64_t> latency_ns;
  /// Per sent offer: actual send - intended send (open loop only).
  std::vector<std::uint64_t> late_ns;
  std::uint64_t inflight_max = 0;
  std::uint64_t offered_second_half = 0;  ///< scheduled in [T/2, T)
  std::uint64_t acked_second_half = 0;    ///< acks received in [T/2, T)
  double wall_s = 0.0;  ///< first send to last answer
};

struct GenCounters {
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t syscalls = 0;  ///< send + recv + ppoll calls
  std::uint64_t offers = 0;
};

class LoadGen {
 public:
  /// Connects one socket per tenant (1 to 16) to 127.0.0.1:port and
  /// completes the HELLO handshake on each. When `expected_shards` is
  /// non-empty, tenant i must be assigned shard expected_shards[i]. Throws
  /// on any failure.
  LoadGen(std::uint16_t port, const std::vector<std::string>& tenants,
          std::uint64_t seed, SpanLog& spans,
          const std::vector<std::uint64_t>& expected_shards = {},
          std::uint64_t timeout_ms = 10000);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Sends offers on the schedule t0 + i / rate for `seconds`, round-robin
  /// over the connections, then waits (up to `drain_ms`) for every answer.
  /// `trace` records a span per sampled offer.
  PhaseStats open_loop(const std::string& name, double rate, double seconds,
                       bool trace, std::uint64_t drain_ms = 10000);

  /// Keeps `window` offers in flight per connection until `offers` have
  /// been sent, then drains.
  PhaseStats closed_loop(const std::string& name, std::size_t window,
                         std::uint64_t offers, bool trace,
                         std::uint64_t drain_ms = 30000);

  /// True once a phase ended with unanswered offers or a connection broke;
  /// later phases are then meaningless.
  [[nodiscard]] bool broken() const noexcept { return !error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] const GenCounters& counters() const noexcept {
    return counters_;
  }
  /// Offers sent on connection `c` (ids 1..n, in order).
  [[nodiscard]] std::uint64_t sent(std::size_t c) const;
  /// Whether offer `id` on connection `c` was acked kApplied.
  [[nodiscard]] bool applied(std::size_t c, std::uint64_t id) const;

 private:
  struct Conn;
  /// The running phase: its second-half window and trace parent.
  struct PhaseCtx {
    PhaseStats* stats = nullptr;
    std::uint64_t half_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t span = 0;  ///< phase span id; 0 = offers not traced
    std::uint64_t last_answer_ns = 0;
  };

  void send_offer(Conn& c, std::uint64_t intended_ns);
  void flush(Conn& c);
  void wait_io(std::uint64_t timeout_ns, PhaseCtx& ctx);
  void read_ready(Conn& c, std::uint64_t recv_ns, PhaseCtx& ctx);
  void finish_phase(PhaseCtx& ctx, std::uint64_t start_ns);
  [[nodiscard]] std::uint64_t inflight() const;
  void fail(const std::string& why);

  std::vector<std::unique_ptr<Conn>> conns_;
  SpanLog& spans_;
  GenCounters counters_;
  std::string error_;
};

/// Connects, says HELLO as `tenant`, sends one PING and waits for the PONG.
/// Returns false on any failure or when `timeout_ms` passes.
[[nodiscard]] bool ping_roundtrip(std::uint16_t port, const std::string& tenant,
                                  std::uint64_t timeout_ms);

}  // namespace cdbp::bench_suite
