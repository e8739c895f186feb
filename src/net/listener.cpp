#include "net/listener.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/time_types.h"
#include "obs/metrics.h"
#include "serve/serve_metrics.h"

namespace cdbp::net {

namespace {

// Listener-level obs mirrors, picked up by the stats exporter alongside the
// serve.* counters. The plain-atomic ListenerCounters snapshot is the
// CDBP_OBS_OFF-safe copy the CLI prints.
obs::Counter& gn_accepted =
    obs::MetricsRegistry::global().counter("serve.net.accepted");
obs::Gauge& gn_active =
    obs::MetricsRegistry::global().gauge("serve.net.active");
obs::Counter& gn_bytes_in =
    obs::MetricsRegistry::global().counter("serve.net.bytes_in");
obs::Counter& gn_bytes_out =
    obs::MetricsRegistry::global().counter("serve.net.bytes_out");
obs::Counter& gn_protocol_errors =
    obs::MetricsRegistry::global().counter("serve.net.protocol_errors");
obs::Counter& gn_quota_rejected =
    obs::MetricsRegistry::global().counter("serve.net.quota_rejected");
obs::Counter& gn_backpressured =
    obs::MetricsRegistry::global().counter("serve.net.backpressured");
obs::Counter& gn_read_throttles =
    obs::MetricsRegistry::global().counter("serve.net.read_throttles");
obs::Counter& gn_offers_admitted =
    obs::MetricsRegistry::global().counter("serve.net.offers_admitted");

/// Keeps the router's ack callback safe past the listener's lifetime: the
/// std::function installed in the router holds this relay shared_ptr, and
/// ~NetListener nulls the back-pointer, so acks arriving after destruction
/// (drain timeout, owner stopping the router later) no-op instead of
/// dangling.
struct AckRelay {
  std::mutex mu;
  NetListener* listener = nullptr;
};

/// Tenant-id charset gate: the raw id is the canonical identity for
/// routing, quotas, the WAL tenant field, and resume dedup, so it must be
/// safe as-is in metric names, log lines, and dump formats. Restricting to
/// obs::sanitize_metric_label's allowed set ([A-Za-z0-9_.-]) means the
/// identity IS its own sanitized form — distinct raw ids can never alias
/// into one quota bucket / shard / WAL tenant the way sanitize-and-merge
/// would ('acme/prod' and 'acme:prod' both becoming 'acme_prod').
bool valid_tenant_id(std::string_view tenant) noexcept {
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

/// Key for the in-flight offer map: offer ids are connection-local and
/// client-chosen, so only (tenant, id) is unique server-wide. '#' cannot
/// appear in a validated tenant id, so the encoding is unambiguous.
std::string inflight_key(std::string_view tenant, std::uint64_t id) {
  std::string key;
  key.reserve(tenant.size() + 21);
  key.append(tenant);
  key.push_back('#');
  key.append(std::to_string(id));
  return key;
}

}  // namespace

struct NetListener::AtomicCounters {
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> active{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> accept_errors{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> quota_rejected{0};
  std::atomic<std::uint64_t> backpressured{0};
  std::atomic<std::uint64_t> read_throttles{0};
  std::atomic<std::uint64_t> offers_admitted{0};
  std::atomic<std::uint64_t> offers_applied{0};
  std::atomic<std::uint64_t> offers_skipped{0};
  std::atomic<std::uint64_t> offers_failed{0};
};

struct NetListener::Connection {
  int fd = -1;
  std::size_t loop_idx = 0;

  // Loop-thread-owned (only the owning event loop touches these).
  std::size_t magic_got = 0;
  bool got_hello = false;
  std::string tenant;  ///< raw id, charset-validated at HELLO
  std::size_t shard = 0;
  double advance_time = -HUGE_VAL;
  std::uint64_t max_offer_id = 0;
  FrameDecoder decoder;
  std::string wbuf;
  std::size_t wbuf_off = 0;
  std::deque<Request> parked;
  bool reading_paused = false;
  bool close_after_flush = false;

  // Cross-thread.
  std::atomic<bool> closed{false};
  std::mutex out_mu;
  std::string outbox;  ///< responses encoded by ack (shard-worker) threads
};

struct NetListener::Loop {
  Loop(std::size_t i, bool force_poll) : idx(i), poller(force_poll) {}

  std::size_t idx;
  Poller poller;
  int wake_r = -1;
  int wake_w = -1;
  std::thread thread;
  std::atomic<bool> stop{false};
  /// Connections with unflushed output; recomputed each iteration once
  /// draining starts (initialized "unknown-nonzero" so drain() cannot
  /// succeed before every loop has run at least one draining iteration).
  std::atomic<std::size_t> unflushed{SIZE_MAX};

  // Loop-thread-owned.
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
  std::vector<std::shared_ptr<Connection>> parked_conns;

  // Cross-thread inboxes (both guarded by pending_mu).
  std::mutex pending_mu;
  std::vector<std::shared_ptr<Connection>> pending_adds;
  std::vector<std::shared_ptr<Connection>> dirty;

  void wake() const noexcept {
    const char b = 1;
    if (wake_w >= 0) {
      const ::ssize_t r = ::write(wake_w, &b, 1);
      (void)r;  // EAGAIN = a wake is already pending, which is all we need
    }
  }
};

NetListener::NetListener(ListenerConfig config, serve::ShardRouter& router)
    : config_(std::move(config)),
      router_(router),
      env_(io::env_or_posix(config_.env)),
      ctr_(std::make_unique<AtomicCounters>()) {
  if (config_.loops == 0) config_.loops = 1;
  if (config_.quota_burst <= 0.0) config_.quota_burst = config_.quota_rate;
  if (config_.wbuf_low > config_.wbuf_high) config_.wbuf_low = config_.wbuf_high;

  int err = 0;
  listen_fd_ =
      env_.net_listen(config_.host, config_.port, config_.backlog, err);
  if (listen_fd_ < 0)
    throw std::runtime_error("net: listen on " + config_.host + ":" +
                             std::to_string(config_.port) +
                             " failed: " + std::strerror(err));
  err = 0;
  port_ = env_.net_bound_port(listen_fd_, err);

  auto relay = std::make_shared<AckRelay>();
  relay->listener = this;
  ack_relay_ = relay;
  router_.set_on_ack([relay](const serve::ServeResult& r,
                             serve::AckKind kind) {
    std::lock_guard<std::mutex> lock(relay->mu);
    if (relay->listener != nullptr) relay->listener->handle_ack(r, kind);
  });

  try {
    for (std::size_t i = 0; i < config_.loops; ++i) {
      auto loop = std::make_unique<Loop>(i, config_.force_poll);
      int fds[2];
      if (::pipe(fds) != 0) throw std::runtime_error("net: wake pipe failed");
      for (const int fd : fds) {
        const int fl = ::fcntl(fd, F_GETFL, 0);
        (void)::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
      }
      loop->wake_r = fds[0];
      loop->wake_w = fds[1];
      loop->poller.add(loop->wake_r, true, false);
      loops_.push_back(std::move(loop));
    }
  } catch (...) {
    env_.net_close(listen_fd_);
    throw;
  }
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    l->thread = std::thread([this, l] { event_loop(*l); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

NetListener::~NetListener() {
  stop();
  if (auto relay = std::static_pointer_cast<AckRelay>(ack_relay_)) {
    std::lock_guard<std::mutex> lock(relay->mu);
    relay->listener = nullptr;
  }
}

void NetListener::accept_loop() {
  std::size_t next_loop = 0;
  while (!stopped_.load(std::memory_order_relaxed) &&
         !draining_.load(std::memory_order_relaxed)) {
    ::pollfd p{};
    p.fd = listen_fd_;
    p.events = POLLIN;
    const int pr = ::poll(&p, 1, 100);
    if (pr <= 0) continue;
    for (;;) {
      int err = 0;
      const int fd = env_.net_accept(listen_fd_, err);
      if (fd < 0) {
        if (!io::transient_errno(err))
          // ECONNABORTED and friends (or an injected EIO): count it and
          // keep accepting — a fault here must not kill the acceptor.
          ctr_->accept_errors.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->loop_idx = next_loop;
      Loop& loop = *loops_[next_loop];
      next_loop = (next_loop + 1) % loops_.size();
      ctr_->accepted.fetch_add(1, std::memory_order_relaxed);
      ctr_->active.fetch_add(1, std::memory_order_relaxed);
      gn_accepted.add();
      gn_active.add(1.0);
      {
        std::lock_guard<std::mutex> lock(loop.pending_mu);
        loop.pending_adds.push_back(std::move(conn));
      }
      loop.wake();
    }
  }
  env_.net_close(listen_fd_);
  listen_fd_ = -1;
}

void NetListener::event_loop(Loop& loop) {
  std::vector<PollEvent> events;
  std::vector<std::shared_ptr<Connection>> scratch;
  while (!loop.stop.load(std::memory_order_relaxed)) {
    // Adopt newly accepted connections.
    {
      std::lock_guard<std::mutex> lock(loop.pending_mu);
      for (auto& c : loop.pending_adds) {
        loop.poller.add(c->fd, true, false);
        loop.conns.emplace(c->fd, std::move(c));
      }
      loop.pending_adds.clear();
    }
    // Splice shard-worker responses into loop-owned write buffers.
    scratch.clear();
    {
      std::lock_guard<std::mutex> lock(loop.pending_mu);
      scratch.swap(loop.dirty);
    }
    for (auto& c : scratch) flush_conn(loop, c);

    const int timeout_ms = loop.parked_conns.empty() ? 50 : 2;
    loop.poller.wait(events, timeout_ms);
    for (const PollEvent& e : events) {
      if (e.fd == loop.wake_r) {
        char buf[256];
        while (::read(loop.wake_r, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      auto it = loop.conns.find(e.fd);
      if (it == loop.conns.end()) continue;
      const std::shared_ptr<Connection> conn = it->second;
      if (e.writable) flush_conn(loop, conn);
      if (conn->closed.load(std::memory_order_relaxed)) continue;
      if (e.broken && conn->reading_paused) {
        // A paused connection has its read interest masked off, but
        // EPOLLHUP/EPOLLERR are reported regardless of the interest mask
        // (level-triggered): without closing here, a dead parked
        // connection re-fires on every wait and spins the loop at 100%
        // CPU until its shard drains. Nothing is lost by closing — the
        // peer is gone, so pending output is undeliverable and parked
        // offers were never admitted.
        close_conn(loop, conn);
        continue;
      }
      if ((e.readable || e.broken) && !conn->reading_paused)
        on_readable(loop, conn);
    }
    // Re-offer parked requests (kBlock emulation) / flush them on drain.
    if (!loop.parked_conns.empty()) {
      scratch.clear();
      scratch.swap(loop.parked_conns);
      for (auto& c : scratch) retry_parked(loop, c);
    }
    if (draining_.load(std::memory_order_relaxed)) {
      // Snapshot first: flush_conn can close (and unmap) a connection, so
      // never flush while iterating the live map.
      scratch.clear();
      for (auto& [fd, c] : loop.conns) {
        (void)fd;
        bool has_out = c->wbuf.size() > c->wbuf_off;
        if (!has_out) {
          std::lock_guard<std::mutex> lock(c->out_mu);
          has_out = !c->outbox.empty();
        }
        if (has_out) scratch.push_back(c);
      }
      for (auto& c : scratch) flush_conn(loop, c);
      loop.unflushed.store(scratch.size(), std::memory_order_relaxed);
    }
  }
  // Shutdown: close every connection this loop owns.
  for (auto& [fd, c] : loop.conns) {
    (void)fd;
    if (!c->closed.exchange(true, std::memory_order_relaxed)) {
      env_.net_close(c->fd);
      ctr_->active.fetch_sub(1, std::memory_order_relaxed);
      ctr_->closed.fetch_add(1, std::memory_order_relaxed);
      gn_active.add(-1.0);
    }
  }
  loop.conns.clear();
}

void NetListener::on_readable(Loop& loop,
                              const std::shared_ptr<Connection>& conn) {
  // Level-triggered polling lets us cap the per-event read burst for
  // fairness: leftover bytes re-notify on the next wait().
  char buf[16384];
  for (int burst = 0; burst < 64; ++burst) {
    if (conn->reading_paused || conn->close_after_flush ||
        conn->closed.load(std::memory_order_relaxed))
      break;
    int err = 0;
    const std::int64_t r = env_.net_read(conn->fd, buf, sizeof(buf), err);
    if (r > 0) {
      ctr_->bytes_in.fetch_add(static_cast<std::uint64_t>(r),
                               std::memory_order_relaxed);
      gn_bytes_in.add(static_cast<std::uint64_t>(r));
      const char* p = buf;
      std::size_t n = static_cast<std::size_t>(r);
      if (conn->magic_got < kMagicLen) {
        const std::size_t take = std::min(kMagicLen - conn->magic_got, n);
        if (std::memcmp(p, kMagic + conn->magic_got, take) != 0) {
          send_error(loop, *conn, 0, ErrCode::kBadMagic, "expected CDBPNET1");
          conn->close_after_flush = true;
          break;
        }
        conn->magic_got += take;
        p += take;
        n -= take;
      }
      if (n > 0) conn->decoder.feed(p, n);
      process_frames(loop, conn);
      continue;
    }
    if (r == 0) {  // orderly peer close
      close_conn(loop, conn);
      return;
    }
    if (err == EINTR) continue;
    if (io::transient_errno(err)) break;  // EAGAIN: drained
    close_conn(loop, conn);  // hard error (incl. injected EIO / power cut)
    return;
  }
  flush_conn(loop, conn);
}

void NetListener::process_frames(Loop& loop,
                                 const std::shared_ptr<Connection>& conn) {
  std::string payload;
  for (;;) {
    if (conn->close_after_flush ||
        conn->closed.load(std::memory_order_relaxed))
      return;
    const DecodeStatus st = conn->decoder.next(payload);
    if (st == DecodeStatus::kNeedMore) return;
    if (st == DecodeStatus::kBad) {
      const ErrCode code =
          conn->decoder.error().find("exceeds cap") != std::string::npos
              ? ErrCode::kTooLarge
              : ErrCode::kBadFrame;
      send_error(loop, *conn, 0, code, conn->decoder.error());
      conn->close_after_flush = true;
      return;
    }
    ctr_->frames_in.fetch_add(1, std::memory_order_relaxed);
    std::string why;
    std::optional<Request> req = parse_request(payload, why);
    if (!req) {
      send_error(loop, *conn, 0, ErrCode::kBadFrame, why);
      conn->close_after_flush = true;
      return;
    }
    handle_request(loop, conn, *req);
  }
}

void NetListener::handle_request(Loop& loop,
                                 const std::shared_ptr<Connection>& conn,
                                 Request& req) {
  if (!conn->got_hello && req.type != MsgType::kHello) {
    send_error(loop, *conn, req.id, ErrCode::kNoHello,
               "first frame must be HELLO");
    conn->close_after_flush = true;
    return;
  }
  switch (req.type) {
    case MsgType::kHello: {
      if (conn->got_hello) {
        send_error(loop, *conn, 0, ErrCode::kBadFrame, "duplicate HELLO");
        conn->close_after_flush = true;
        return;
      }
      // Hostile-bytes gate: refuse the empty, the oversized, and anything
      // outside the tenant charset with a typed error. Rejection (not
      // sanitize-and-serve) is what preserves tenant isolation: a lossy
      // rewrite would merge distinct raw ids into one quota bucket, shard,
      // and WAL identity. The surviving raw id is safe everywhere by
      // construction — it is its own sanitized metric label.
      if (req.tenant.empty() || req.tenant.size() > config_.max_tenant_bytes ||
          !valid_tenant_id(req.tenant)) {
        send_error(loop, *conn, 0, ErrCode::kBadTenant,
                   req.tenant.empty()
                       ? "empty tenant id"
                       : req.tenant.size() > config_.max_tenant_bytes
                             ? "tenant id too long"
                             : "tenant id has bytes outside [A-Za-z0-9_.-]");
        conn->close_after_flush = true;
        return;
      }
      conn->tenant = req.tenant;
      conn->shard = router_.shard_of(conn->tenant);
      conn->got_hello = true;
      Response resp;
      resp.type = MsgType::kAck;
      resp.ack = AckStatus::kHello;
      resp.shard = conn->shard;
      send_response(*conn, resp);
      return;
    }
    case MsgType::kOffer:
      handle_offer(loop, conn, req);
      return;
    case MsgType::kDepart: {
      if (req.id > conn->max_offer_id) {
        send_error(loop, *conn, req.id, ErrCode::kUnknownId,
                   "depart for unknown offer id");
        return;
      }
      // Clairvoyant model: the departure was binding at offer time; this
      // acknowledges the already-known interval end.
      Response resp;
      resp.type = MsgType::kAck;
      resp.id = req.id;
      resp.ack = AckStatus::kDepart;
      resp.shard = conn->shard;
      send_response(*conn, resp);
      return;
    }
    case MsgType::kAdvance: {
      if (req.time < conn->advance_time) {
        send_error(loop, *conn, req.id, ErrCode::kTimeOrder,
                   "advance clock must be monotone");
        return;
      }
      conn->advance_time = req.time;
      Response resp;
      resp.type = MsgType::kAck;
      resp.id = req.id;
      resp.ack = AckStatus::kAdvance;
      resp.shard = conn->shard;
      send_response(*conn, resp);
      return;
    }
    case MsgType::kStats: {
      Response resp;
      resp.type = MsgType::kStatsReply;
      resp.id = req.id;
      resp.text = stats_text();
      send_response(*conn, resp);
      return;
    }
    case MsgType::kPing: {
      Response resp;
      resp.type = MsgType::kPong;
      resp.id = req.id;
      send_response(*conn, resp);
      return;
    }
    default:
      send_error(loop, *conn, req.id, ErrCode::kBadFrame,
                 "unhandled request type");
      conn->close_after_flush = true;
      return;
  }
}

void NetListener::handle_offer(Loop& loop,
                               const std::shared_ptr<Connection>& conn,
                               const Request& req) {
  const auto refuse = [&](ErrCode code, const char* msg) {
    terminal_offers_.fetch_add(1, std::memory_order_relaxed);
    ctr_->offers_failed.fetch_add(1, std::memory_order_relaxed);
    send_error(loop, *conn, req.id, code, msg);
  };
  if (req.id == 0) {
    refuse(ErrCode::kInvalid, "offer id 0");
    return;
  }
  if (req.id <= conn->max_offer_id) {
    refuse(ErrCode::kTimeOrder, "offer ids must increase");
    return;
  }
  if (req.departure <= req.arrival || !valid_item_size(req.size)) {
    refuse(ErrCode::kInvalid, "bad interval or size");
    return;
  }
  if (req.arrival < conn->advance_time) {
    refuse(ErrCode::kTimeOrder, "arrival below advance clock");
    return;
  }
  if (config_.quota_rate > 0.0) {
    bool ok;
    {
      std::lock_guard<std::mutex> lock(buckets_mu_);
      auto it = buckets_.find(conn->tenant);
      if (it == buckets_.end())
        it = buckets_
                 .emplace(conn->tenant,
                          TokenBucket(config_.quota_rate, config_.quota_burst,
                                      serve::mono_now_ns()))
                 .first;
      ok = it->second.try_take(serve::mono_now_ns());
    }
    if (!ok) {
      ctr_->quota_rejected.fetch_add(1, std::memory_order_relaxed);
      gn_quota_rejected.add();
      refuse(ErrCode::kQuota, "tenant over offer rate limit");
      return;
    }
  }
  if (draining_.load(std::memory_order_relaxed)) {
    refuse(ErrCode::kShutdown, "server draining");
    return;
  }
  conn->max_offer_id = req.id;
  // Per-connection FIFO: once anything is parked, later offers must queue
  // behind it or the shard would see them out of submission order.
  if (!conn->parked.empty()) {
    conn->parked.push_back(req);
    return;
  }
  if (!submit_offer(loop, conn, req)) {
    conn->parked.push_back(req);
    loop.parked_conns.push_back(conn);
    if (!conn->reading_paused) {
      conn->reading_paused = true;
      ctr_->read_throttles.fetch_add(1, std::memory_order_relaxed);
      gn_read_throttles.add();
    }
  }
}

bool NetListener::submit_offer(Loop& loop,
                               const std::shared_ptr<Connection>& conn,
                               const Request& req) {
  // Register the inflight entry BEFORE submitting: the shard worker may
  // ack before try_submit_as even returns.
  std::string key = inflight_key(conn->tenant, req.id);
  bool duplicate;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    duplicate = !inflight_.emplace(std::move(key), conn).second;
  }
  if (duplicate) {
    terminal_offers_.fetch_add(1, std::memory_order_relaxed);
    ctr_->offers_failed.fetch_add(1, std::memory_order_relaxed);
    send_error(loop, *conn, req.id, ErrCode::kDuplicate,
               "offer id already in flight for this tenant");
    return true;
  }
  serve::ServeRequest sreq;
  sreq.tenant = conn->tenant;
  sreq.stream_index = req.id;
  sreq.arrival = req.arrival;
  sreq.departure = req.departure;
  sreq.size = req.size;
  // The event loop must never block on a full shard queue: kBlock is
  // emulated with parking + read throttling, so the actual push downgrades
  // to kReject.
  const serve::AdmissionPolicy push_policy =
      config_.admission == serve::AdmissionPolicy::kBlock
          ? serve::AdmissionPolicy::kReject
          : config_.admission;
  const serve::SubmitStatus st =
      router_.try_submit_as(std::move(sreq), push_policy);
  switch (st) {
    case serve::SubmitStatus::kAccepted:
      ctr_->offers_admitted.fetch_add(1, std::memory_order_relaxed);
      gn_offers_admitted.add();
      return true;
    case serve::SubmitStatus::kQueueFull: {
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.erase(inflight_key(conn->tenant, req.id));
      }
      if (config_.admission == serve::AdmissionPolicy::kBlock)
        return false;  // caller parks
      terminal_offers_.fetch_add(1, std::memory_order_relaxed);
      ctr_->offers_failed.fetch_add(1, std::memory_order_relaxed);
      ctr_->backpressured.fetch_add(1, std::memory_order_relaxed);
      gn_backpressured.add();
      send_error(loop, *conn, req.id, ErrCode::kBackpressure,
                 "shard queue full");
      return true;
    }
    case serve::SubmitStatus::kShardDegraded: {
      {
        std::lock_guard<std::mutex> lock(inflight_mu_);
        inflight_.erase(inflight_key(conn->tenant, req.id));
      }
      terminal_offers_.fetch_add(1, std::memory_order_relaxed);
      ctr_->offers_failed.fetch_add(1, std::memory_order_relaxed);
      send_error(loop, *conn, req.id, ErrCode::kDegraded,
                 "tenant shard degraded");
      return true;
    }
  }
  return true;
}

void NetListener::retry_parked(Loop& loop,
                               const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  if (draining_.load(std::memory_order_relaxed)) {
    // Drain flushes parked offers as typed shutdown errors — they were
    // never admitted, so refusing them keeps the no-acked-loss contract.
    while (!conn->parked.empty()) {
      const Request& r = conn->parked.front();
      terminal_offers_.fetch_add(1, std::memory_order_relaxed);
      ctr_->offers_failed.fetch_add(1, std::memory_order_relaxed);
      send_error(loop, *conn, r.id, ErrCode::kShutdown, "server draining");
      conn->parked.pop_front();
    }
  }
  while (!conn->parked.empty()) {
    if (!submit_offer(loop, conn, conn->parked.front()))
      break;  // shard still full; stay parked
    conn->parked.pop_front();
  }
  if (!conn->parked.empty()) {
    loop.parked_conns.push_back(conn);
    flush_conn(loop, conn);
    return;
  }
  if (conn->reading_paused &&
      conn->wbuf.size() - conn->wbuf_off <= config_.wbuf_low) {
    conn->reading_paused = false;
    on_readable(loop, conn);  // catch up on bytes the kernel buffered
  } else {
    flush_conn(loop, conn);
  }
}

void NetListener::send_response(Connection& conn, const Response& resp) {
  // Append-only; the caller's surrounding on_readable/flush pass writes it
  // out (every request-handling path ends in flush_conn).
  encode_response(resp, conn.wbuf);
}

void NetListener::send_error(Loop& loop, Connection& conn, std::uint64_t id,
                             ErrCode code, const std::string& msg) {
  (void)loop;
  Response resp;
  resp.type = MsgType::kError;
  resp.id = id;
  resp.code = code;
  resp.text = msg;
  ctr_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
  gn_protocol_errors.add();
  send_response(conn, resp);
}

void NetListener::drain_outbox(Connection& conn) {
  std::lock_guard<std::mutex> lock(conn.out_mu);
  if (conn.outbox.empty()) return;
  conn.wbuf.append(conn.outbox);
  conn.outbox.clear();
}

void NetListener::flush_conn(Loop& loop,
                             const std::shared_ptr<Connection>& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  drain_outbox(*conn);
  while (conn->wbuf_off < conn->wbuf.size()) {
    int err = 0;
    const std::int64_t w =
        env_.net_write(conn->fd, conn->wbuf.data() + conn->wbuf_off,
                       conn->wbuf.size() - conn->wbuf_off, err);
    if (w < 0) {
      if (err == EINTR) continue;
      if (io::transient_errno(err)) break;  // kernel buffer full
      close_conn(loop, conn);
      return;
    }
    ctr_->bytes_out.fetch_add(static_cast<std::uint64_t>(w),
                              std::memory_order_relaxed);
    gn_bytes_out.add(static_cast<std::uint64_t>(w));
    conn->wbuf_off += static_cast<std::size_t>(w);
  }
  if (conn->wbuf_off == conn->wbuf.size()) {
    conn->wbuf.clear();
    conn->wbuf_off = 0;
    if (conn->close_after_flush) {
      close_conn(loop, conn);
      return;
    }
  } else if (conn->wbuf_off > (1u << 16)) {
    conn->wbuf.erase(0, conn->wbuf_off);
    conn->wbuf_off = 0;
  }
  const std::size_t unsent = conn->wbuf.size() - conn->wbuf_off;
  // Watermark throttling: a client that won't read its acks stops being
  // read itself once its output backlog crosses the high mark.
  if (!conn->reading_paused && unsent > config_.wbuf_high) {
    conn->reading_paused = true;
    ctr_->read_throttles.fetch_add(1, std::memory_order_relaxed);
    gn_read_throttles.add();
  } else if (conn->reading_paused && conn->parked.empty() &&
             unsent <= config_.wbuf_low) {
    conn->reading_paused = false;
  }
  update_interest(loop, *conn);
}

void NetListener::update_interest(Loop& loop, Connection& conn) {
  if (conn.closed.load(std::memory_order_relaxed)) return;
  const bool want_read = !conn.reading_paused && !conn.close_after_flush;
  const bool want_write = conn.wbuf_off < conn.wbuf.size();
  loop.poller.modify(conn.fd, want_read, want_write);
}

void NetListener::close_conn(Loop& loop,
                             const std::shared_ptr<Connection>& conn) {
  if (conn->closed.exchange(true, std::memory_order_relaxed)) return;
  loop.poller.remove(conn->fd);
  loop.conns.erase(conn->fd);
  env_.net_close(conn->fd);
  ctr_->active.fetch_sub(1, std::memory_order_relaxed);
  ctr_->closed.fetch_add(1, std::memory_order_relaxed);
  gn_active.add(-1.0);
  // Parked offers die with their connection: never admitted, terminally
  // unresolved for a client that no longer exists.
  terminal_offers_.fetch_add(conn->parked.size(), std::memory_order_relaxed);
  ctr_->offers_failed.fetch_add(conn->parked.size(),
                                std::memory_order_relaxed);
  conn->parked.clear();
  // Inflight entries stay: their acks resolve through handle_ack, which
  // sees closed==true and drops the response bytes.
}

void NetListener::handle_ack(const serve::ServeResult& result,
                             serve::AckKind kind) {
  std::shared_ptr<Connection> conn;
  {
    std::lock_guard<std::mutex> lock(inflight_mu_);
    auto it = inflight_.find(inflight_key(result.tenant, result.stream_index));
    if (it == inflight_.end()) return;
    conn = std::move(it->second);
    inflight_.erase(it);
  }
  Response resp;
  switch (kind) {
    case serve::AckKind::kApplied:
      ctr_->offers_applied.fetch_add(1, std::memory_order_relaxed);
      resp.type = MsgType::kAck;
      resp.id = result.stream_index;
      resp.ack = AckStatus::kApplied;
      resp.seq = result.seq;
      resp.bin = static_cast<std::int64_t>(result.bin);
      resp.shard = result.shard;
      break;
    case serve::AckKind::kSkipped:
      ctr_->offers_skipped.fetch_add(1, std::memory_order_relaxed);
      resp.type = MsgType::kAck;
      resp.id = result.stream_index;
      resp.ack = AckStatus::kSkipped;
      resp.shard = result.shard;
      break;
    case serve::AckKind::kInvalid:
      ctr_->offers_failed.fetch_add(1, std::memory_order_relaxed);
      ctr_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      gn_protocol_errors.add();
      resp.type = MsgType::kError;
      resp.id = result.stream_index;
      resp.code = ErrCode::kInvalid;
      resp.text = "rejected by session validation";
      break;
    case serve::AckKind::kDropped:
      ctr_->offers_failed.fetch_add(1, std::memory_order_relaxed);
      ctr_->protocol_errors.fetch_add(1, std::memory_order_relaxed);
      gn_protocol_errors.add();
      resp.type = MsgType::kError;
      resp.id = result.stream_index;
      resp.code = ErrCode::kDropped;
      resp.text = "dropped before apply (shed or degraded shard)";
      break;
  }
  // Terminal only after the response is (about to be) queued: drain()
  // checks inflight-empty + flushed, and this ordering keeps both honest.
  terminal_offers_.fetch_add(1, std::memory_order_relaxed);
  if (conn->closed.load(std::memory_order_relaxed)) return;
  bool first;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    first = conn->outbox.empty();
    encode_response(resp, conn->outbox);
  }
  // Wake coalescing: a non-empty outbox means an earlier ack already queued
  // this connection in loop.dirty (or its flush is mid-drain and will take
  // these bytes under out_mu) — waking again would just burn a pipe write
  // per ack when workers drain whole batches.
  if (first) {
    Loop& loop = *loops_[conn->loop_idx];
    {
      std::lock_guard<std::mutex> lock(loop.pending_mu);
      loop.dirty.push_back(std::move(conn));
    }
    loop.wake();
  }
}

void NetListener::begin_drain() {
  draining_.store(true, std::memory_order_relaxed);
  for (auto& loop : loops_) loop->wake();
}

bool NetListener::drain(std::uint32_t timeout_ms) {
  begin_drain();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // Require a few consecutive clean samples: there is a harmless window
  // between an ack leaving inflight_ and its bytes landing in an outbox
  // where a single sample could claim success too early.
  int clean = 0;
  for (;;) {
    bool empty;
    {
      std::lock_guard<std::mutex> lock(inflight_mu_);
      empty = inflight_.empty();
    }
    if (empty) {
      std::size_t unflushed = 0;
      for (auto& loop : loops_)
        unflushed += loop->unflushed.load(std::memory_order_relaxed);
      if (unflushed == 0) {
        if (++clean >= 3) return true;
      } else {
        clean = 0;
      }
    } else {
      clean = 0;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    for (auto& loop : loops_) loop->wake();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void NetListener::stop() {
  if (stopped_.exchange(true, std::memory_order_relaxed)) return;
  draining_.store(true, std::memory_order_relaxed);
  for (auto& loop : loops_) {
    loop->stop.store(true, std::memory_order_relaxed);
    loop->wake();
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
    if (loop->wake_r >= 0) ::close(loop->wake_r);
    if (loop->wake_w >= 0) ::close(loop->wake_w);
  }
  // Connections that were still in a pending-add inbox when the loop died.
  for (auto& loop : loops_) {
    std::lock_guard<std::mutex> lock(loop->pending_mu);
    for (auto& c : loop->pending_adds) {
      if (!c->closed.exchange(true, std::memory_order_relaxed)) {
        env_.net_close(c->fd);
        ctr_->active.fetch_sub(1, std::memory_order_relaxed);
        ctr_->closed.fetch_add(1, std::memory_order_relaxed);
        gn_active.add(-1.0);
      }
    }
    loop->pending_adds.clear();
    loop->dirty.clear();
  }
}

ListenerCounters NetListener::counters() const {
  ListenerCounters c;
  c.accepted = ctr_->accepted.load(std::memory_order_relaxed);
  c.active = ctr_->active.load(std::memory_order_relaxed);
  c.closed = ctr_->closed.load(std::memory_order_relaxed);
  c.accept_errors = ctr_->accept_errors.load(std::memory_order_relaxed);
  c.bytes_in = ctr_->bytes_in.load(std::memory_order_relaxed);
  c.bytes_out = ctr_->bytes_out.load(std::memory_order_relaxed);
  c.frames_in = ctr_->frames_in.load(std::memory_order_relaxed);
  c.protocol_errors = ctr_->protocol_errors.load(std::memory_order_relaxed);
  c.quota_rejected = ctr_->quota_rejected.load(std::memory_order_relaxed);
  c.backpressured = ctr_->backpressured.load(std::memory_order_relaxed);
  c.read_throttles = ctr_->read_throttles.load(std::memory_order_relaxed);
  c.offers_admitted = ctr_->offers_admitted.load(std::memory_order_relaxed);
  c.offers_applied = ctr_->offers_applied.load(std::memory_order_relaxed);
  c.offers_skipped = ctr_->offers_skipped.load(std::memory_order_relaxed);
  c.offers_failed = ctr_->offers_failed.load(std::memory_order_relaxed);
  return c;
}

std::uint64_t NetListener::terminal_offers() const noexcept {
  return terminal_offers_.load(std::memory_order_relaxed);
}

std::string NetListener::stats_text() const {
  const ListenerCounters c = counters();
  std::string out;
  const auto line = [&out](const char* k, std::uint64_t v) {
    out += k;
    out += ' ';
    out += std::to_string(v);
    out += '\n';
  };
  line("net.accepted", c.accepted);
  line("net.active", c.active);
  line("net.closed", c.closed);
  line("net.accept_errors", c.accept_errors);
  line("net.bytes_in", c.bytes_in);
  line("net.bytes_out", c.bytes_out);
  line("net.frames_in", c.frames_in);
  line("net.protocol_errors", c.protocol_errors);
  line("net.quota_rejected", c.quota_rejected);
  line("net.backpressured", c.backpressured);
  line("net.read_throttles", c.read_throttles);
  line("net.offers_admitted", c.offers_admitted);
  line("net.offers_applied", c.offers_applied);
  line("net.offers_skipped", c.offers_skipped);
  line("net.offers_failed", c.offers_failed);
  return out;
}

}  // namespace cdbp::net
