// NetListener: the networked serve stack — a ShardRouter behind a socket
// front end, built, served and stopped as one unit.
//
// Threads: the router's shard workers plus `loops` reader/writer event
// loops, each owning an epoll Poller and a wake pipe. Loop 0 also keeps the
// listening socket in its epoll set: it accepts until EAGAIN and assigns
// connections round-robin to loops (its own directly, the others through
// their pending-add inbox); from then on all of a connection's socket I/O
// happens on its loop thread. Shard workers never touch sockets: the
// listener's ack callback (ShardRouter::set_on_ack) encodes the response
// into the connection's mutex-guarded outbox and wakes the owning loop,
// which splices it into the loop-owned write buffer.
//
// Backpressure, layered:
//  - write side: a connection whose write buffer crosses `wbuf_high` stops
//    being read (its poller read interest is dropped) until the buffer
//    drains below `wbuf_low` — a slow-reading client throttles itself, not
//    the server;
//  - shard side: admission follows the router's policy
//    (ShardRouter::admission(), set by RouterConfig::admission). kReject/kShed
//    map a full queue to the typed kBackpressure error (shed admits, the
//    victim is acked kDropped by the router). kBlock must not block an
//    event loop, so the listener parks the offer on its connection, pauses
//    reads from it, and retries on loop ticks — the blocking producer,
//    reconstructed non-blockingly.
//  - tenant side: a per-tenant token bucket (quota_rate/quota_burst) maps
//    over-limit tenants to the typed kQuota error; the connection stays
//    usable.
//
// All socket I/O flows through io::Env (net_accept/net_read/net_write can
// be fault points of a test `io::Env`), so a test can storm EAGAIN, cut
// writes short, or power-cut the network path.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/io_env.h"
#include "net/poller.h"
#include "net/protocol.h"
#include "net/token_bucket.h"
#include "serve/shard_router.h"

namespace cdbp::net {

struct ListenerConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; see NetListener::port()
  std::size_t loops = 2;   ///< reader event loops (>= 1)
  int backlog = 1024;
  /// Tenant ids above this are rejected with kBadTenant. Ids are also
  /// restricted to [A-Za-z0-9_.-] at the protocol layer: the RAW id is the
  /// canonical identity (routing, quotas, WAL, dedup), so distinct raw ids
  /// must never alias. Sanitizing happens only at the metrics boundary
  /// (serve_metrics keys its table by raw id; only the exported metric
  /// NAME is squeezed through obs::sanitize_metric_label).
  std::size_t max_tenant_bytes = 64;
  double quota_rate = 0.0;   ///< offers/sec/tenant; 0 = unlimited
  double quota_burst = 0.0;  ///< bucket cap; 0 = same as rate
  std::size_t wbuf_high = 256 * 1024;
  std::size_t wbuf_low = 64 * 1024;
  io::Env* env = nullptr;   ///< nullptr = Env::posix()
};

/// Listener-level accounting, exported three ways: this snapshot (CLI serve
/// summary), obs counters `serve.net.*` (stats exporter), and the kStats
/// protocol reply. Works under CDBP_OBS_OFF (plain atomics).
struct ListenerCounters {
  std::uint64_t accepted = 0;
  std::uint64_t active = 0;
  std::uint64_t closed = 0;
  std::uint64_t accept_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t protocol_errors = 0;  ///< kError frames sent, any code
  std::uint64_t quota_rejected = 0;
  std::uint64_t backpressured = 0;
  std::uint64_t read_throttles = 0;
  std::uint64_t offers_admitted = 0;
  std::uint64_t offers_applied = 0;
  std::uint64_t offers_skipped = 0;
  std::uint64_t offers_failed = 0;  ///< invalid + dropped + refused
};

class NetListener {
 public:
  /// Builds the router (recovering every shard when router_config.resume),
  /// then binds, installs its ack callback on the router (the listener is
  /// the router's only producer) and starts the event loops. Throws when
  /// the router cannot be built, on bind failure, or when an event loop's
  /// epoll instance or wake pipe cannot be made; a throw leaves no
  /// descriptor open. `make_algo`/`algo_name` are as for ShardRouter.
  NetListener(ListenerConfig config, serve::RouterConfig router_config,
              const std::function<AlgorithmPtr()>& make_algo,
              std::string algo_name);
  /// stop(), swallowing the router's worker error as ~ShardRouter does.
  ~NetListener();

  NetListener(const NetListener&) = delete;
  NetListener& operator=(const NetListener&) = delete;

  /// Actual bound port (resolves port 0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// The router this listener feeds. Its stats are valid after stop().
  [[nodiscard]] const serve::ShardRouter& router() const noexcept {
    return router_;
  }

  /// Stops accepting; every subsequent offer is answered kShutdown and
  /// parked offers are flushed as kShutdown. Idempotent.
  void begin_drain();

  /// begin_drain(), then waits until every admitted offer has its terminal
  /// response written and flushed (or the deadline passes). Returns true
  /// when fully drained.
  bool drain(std::uint32_t timeout_ms);

  /// Closes every connection and joins the event loops, then stops the
  /// router: offers still queued are committed (their acks find their
  /// connections closed), and no ack arrives after stop() returns.
  /// Rethrows the router's first unexpected worker error. Idempotent.
  void stop();

  [[nodiscard]] ListenerCounters counters() const;
  /// Offers that reached a terminal outcome (ack or typed error). The CLI's
  /// --max-offers exit condition.
  [[nodiscard]] std::uint64_t terminal_offers() const noexcept;

 private:
  struct Connection;
  struct Loop;

  void event_loop(Loop& loop);
  void accept_ready(Loop& loop);
  void stop_accepting(Loop& loop);
  void handle_ack(const serve::ServeResult& result, serve::AckKind kind);

  // Loop-thread helpers (all run on the connection's owning loop).
  void on_readable(Loop& loop, const std::shared_ptr<Connection>& conn);
  void process_frames(Loop& loop, const std::shared_ptr<Connection>& conn);
  void handle_request(Loop& loop, const std::shared_ptr<Connection>& conn,
                      Request& req);
  void handle_offer(Loop& loop, const std::shared_ptr<Connection>& conn,
                    const Request& req);
  /// False = shard queue full under kBlock; the caller parks the offer.
  bool submit_offer(Loop& loop, const std::shared_ptr<Connection>& conn,
                    const Request& req);
  void retry_parked(Loop& loop, const std::shared_ptr<Connection>& conn);
  void send_response(Connection& conn, const Response& resp);
  void send_error(Loop& loop, Connection& conn, std::uint64_t id, ErrCode code,
                  const std::string& msg);
  void flush_conn(Loop& loop, const std::shared_ptr<Connection>& conn);
  void update_interest(Loop& loop, Connection& conn);
  void close_conn(Loop& loop, const std::shared_ptr<Connection>& conn);
  void drain_outbox(Connection& conn);
  [[nodiscard]] std::string stats_text() const;

  ListenerConfig config_;
  io::Env& env_;
  std::uint16_t port_ = 0;

  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::uint64_t> terminal_offers_{0};

  /// (tenant, stream_index) -> connection awaiting its ack, keyed as
  /// "tenant#id" ('#' is outside the validated tenant charset, so keys are
  /// unambiguous). Keyed per tenant because offer ids are client-chosen
  /// and connection-local: two tenants may legitimately use overlapping id
  /// ranges, and a bare-id map would hand one of them a spurious
  /// kDuplicate. Guarded by inflight_mu_; written by loop threads (submit)
  /// and shard workers (ack).
  std::unordered_map<std::string, std::shared_ptr<Connection>> inflight_;
  mutable std::mutex inflight_mu_;

  /// tenant -> bucket; shared across that tenant's connections.
  std::unordered_map<std::string, TokenBucket> buckets_;
  std::mutex buckets_mu_;

  struct AtomicCounters;
  std::unique_ptr<AtomicCounters> ctr_;

  /// Declared last, so destroyed first: its workers ack into everything
  /// above, and stop() has normally stopped it already.
  serve::ShardRouter router_;
};

}  // namespace cdbp::net
