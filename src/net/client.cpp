#include "net/client.h"

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>

#include "net/poller.h"
#include "serve/serve_metrics.h"

namespace cdbp::net {

namespace {

/// One simulated tenant's connection. All state is owned by the single
/// client event thread — no locking anywhere in the generator.
struct CConn {
  enum class St : std::uint8_t {
    kHello,  // connect in flight or HELLO awaiting its ack
    kReady,  // handshake done, shard known
    kDead,   // closed (error, server hangup, or connect failure)
  };

  int fd = -1;
  std::size_t idx = 0;  // index into the conns vector
  St st = St::kHello;
  std::uint64_t shard = 0;
  FrameDecoder decoder;
  std::string wbuf;
  std::size_t wbuf_off = 0;
  bool cur_want_write = true;  // poller interest cache (added read+write)
  /// This tenant's offers, as indices into the item stream, in order.
  std::vector<std::size_t> list;
  std::size_t next_item = 0;  // pipeline-mode cursor into `list`
  std::size_t inflight = 0;
};

struct Pending {
  std::uint64_t send_ns = 0;
  std::size_t conn = 0;
  std::uint64_t shard = 0;
};

class LoadRun {
 public:
  LoadRun(const ClientConfig& config,
          const std::vector<serve::ServeRequest>& items)
      : cfg_(config),
        items_(items),
        env_(config.env != nullptr ? *config.env : io::Env::posix()) {}

  ClientReport go();

 private:
  void start_connects();
  void mark_dead(CConn& c, bool connect_failure);
  void on_ready(CConn& c);
  void start_pumping();
  void pump_shard(std::uint64_t shard);
  void pump_conn(CConn& c);
  void send_offer(CConn& c, std::size_t item_idx);
  bool flush(CConn& c);  // false = connection died (already marked)
  void on_readable(CConn& c);
  void read_burst(CConn& c);
  void handle_response(CConn& c, const Response& resp);
  void resolve(std::uint64_t id, AckStatus ack, bool errored,
               std::uint16_t code);
  void touch() { last_progress_ns_ = serve::mono_now_ns(); }

  const ClientConfig& cfg_;
  const std::vector<serve::ServeRequest>& items_;
  io::Env& env_;
  Poller poller_;

  std::vector<std::unique_ptr<CConn>> conns_;
  std::vector<std::size_t> item_owner_;  // item index -> conns_ index
  std::unordered_map<int, std::size_t> by_fd_;
  std::size_t next_connect_ = 0;   // next conns_ entry to dial
  std::size_t connecting_ = 0;     // conns in St::kHello
  std::size_t alive_unready_ = 0;  // hello barrier countdown
  bool pumping_ = false;

  /// shard-window mode: per-shard FIFO of item indices in global order.
  std::unordered_map<std::uint64_t, std::deque<std::size_t>> shard_queue_;
  std::unordered_map<std::uint64_t, std::size_t> shard_inflight_;

  std::unordered_map<std::uint64_t, Pending> inflight_;
  std::uint64_t resolved_or_lost_ = 0;
  std::uint64_t total_offers_ = 0;
  std::uint64_t last_progress_ns_ = 0;

  ClientReport rep_;
};

ClientReport LoadRun::go() {
  const std::uint64_t t0 = serve::mono_now_ns();
  last_progress_ns_ = t0;

  // Group the stream by tenant in first-appearance order; one CConn each.
  std::unordered_map<std::string, std::size_t> tenant_idx;
  item_owner_.reserve(items_.size());
  for (std::size_t i = 0; i < items_.size(); ++i) {
    auto [it, fresh] =
        tenant_idx.emplace(items_[i].tenant, tenant_idx.size());
    if (fresh) {
      conns_.push_back(std::make_unique<CConn>());
      conns_.back()->idx = conns_.size() - 1;
    }
    conns_[it->second]->list.push_back(i);
    item_owner_.push_back(it->second);
  }
  total_offers_ = items_.size();
  alive_unready_ = conns_.size();
  rep_.latencies_us.reserve(items_.size());

  start_connects();

  std::vector<PollEvent> events;
  while (resolved_or_lost_ < total_offers_ || total_offers_ == 0) {
    if (total_offers_ == 0 && alive_unready_ == 0) break;
    const std::size_t n = poller_.wait(events, 50);
    for (std::size_t i = 0; i < n; ++i) {
      const PollEvent& ev = events[i];
      const auto it = by_fd_.find(ev.fd);
      if (it == by_fd_.end()) continue;
      CConn& c = *conns_[it->second];
      if (c.st == CConn::St::kDead) continue;
      if (ev.writable || ev.broken) {
        if (!flush(c)) continue;  // death surfaces via the write error
      }
      if (ev.readable || ev.broken) on_readable(c);
    }
    start_connects();  // slots freed by ready/dead transitions
    // Sampled AFTER event processing: touch() moves last_progress_ns_
    // forward during the loop above, and an earlier timestamp would
    // underflow the unsigned difference.
    const std::uint64_t now = serve::mono_now_ns();
    if (now > last_progress_ns_ &&
        now - last_progress_ns_ >
            static_cast<std::uint64_t>(cfg_.timeout_ms) * 1000000ULL) {
      rep_.timed_out = true;
      break;
    }
  }

  if (rep_.timed_out) rep_.lost += total_offers_ - resolved_or_lost_;

  for (auto& cp : conns_) {
    if (cp->fd >= 0) {
      poller_.remove(cp->fd);
      env_.net_close(cp->fd);
      cp->fd = -1;
    }
  }
  rep_.wall_seconds =
      static_cast<double>(serve::mono_now_ns() - t0) * 1e-9;
  return rep_;
}

void LoadRun::start_connects() {
  while (connecting_ < cfg_.connect_batch && next_connect_ < conns_.size()) {
    CConn& c = *conns_[next_connect_++];
    int err = 0;
    c.fd = env_.net_connect(cfg_.host, cfg_.port, err);
    if (c.fd < 0) {
      c.st = CConn::St::kDead;
      ++rep_.conns_failed;
      --alive_unready_;
      continue;
    }
    ++rep_.conns_opened;
    ++connecting_;
    by_fd_.emplace(c.fd, c.idx);
    // Optimistically queue magic + HELLO; the first writable event (i.e.
    // the connect completing) flushes it. A refused connect surfaces as a
    // write/read error on the same path.
    c.wbuf.append(kMagic, kMagicLen);
    Request hello;
    hello.type = MsgType::kHello;
    hello.id = 0;
    hello.tenant = items_[c.list.front()].tenant;
    encode_request(hello, c.wbuf);
    c.cur_want_write = true;
    poller_.add(c.fd, true, true);
  }
}

void LoadRun::mark_dead(CConn& c, bool connect_failure) {
  if (c.st == CConn::St::kDead) return;
  const bool was_hello = c.st == CConn::St::kHello;
  c.st = CConn::St::kDead;
  if (was_hello) {
    --connecting_;
    --alive_unready_;
    if (connect_failure) ++rep_.conns_failed;
  }
  if (c.fd >= 0) {
    poller_.remove(c.fd);
    by_fd_.erase(c.fd);
    env_.net_close(c.fd);
    c.fd = -1;
  }
  // Release this connection's in-flight slots (a stuck shard window would
  // otherwise deadlock the run) and count them lost.
  for (auto it = inflight_.begin(); it != inflight_.end();) {
    if (it->second.conn == c.idx) {
      auto si = shard_inflight_.find(it->second.shard);
      if (si != shard_inflight_.end() && si->second > 0) --si->second;
      ++rep_.lost;
      ++resolved_or_lost_;
      it = inflight_.erase(it);
    } else {
      ++it;
    }
  }
  c.inflight = 0;
  if (cfg_.shard_window == 0 && pumping_) {
    // Pipeline mode: unsent remainder is lost now. (Shard-window mode
    // counts unsent items lazily when the pump pops them.)
    rep_.lost += c.list.size() - c.next_item;
    resolved_or_lost_ += c.list.size() - c.next_item;
    c.next_item = c.list.size();
  } else if (!pumping_) {
    // Died before the hello barrier completed: nothing was queued yet; the
    // queue build (or pipeline pump) skips dead connections' items.
  }
  if (pumping_ && cfg_.shard_window > 0) pump_shard(c.shard);
  if (alive_unready_ == 0 && !pumping_) start_pumping();
}

void LoadRun::on_ready(CConn& c) {
  c.st = CConn::St::kReady;
  --connecting_;
  --alive_unready_;
  touch();
  if (alive_unready_ == 0 && !pumping_) start_pumping();
}

void LoadRun::start_pumping() {
  pumping_ = true;
  if (cfg_.shard_window > 0) {
    // Per-shard queues in global (stream) order, dead tenants skipped and
    // counted lost up front.
    for (std::size_t i = 0; i < items_.size(); ++i) {
      const CConn& c = *conns_[item_owner_[i]];
      if (c.st == CConn::St::kDead) {
        ++rep_.lost;
        ++resolved_or_lost_;
        continue;
      }
      shard_queue_[c.shard].push_back(i);
    }
    std::vector<std::uint64_t> shards;
    shards.reserve(shard_queue_.size());
    for (const auto& [shard, q] : shard_queue_) shards.push_back(shard);
    for (std::uint64_t shard : shards) pump_shard(shard);
  } else {
    for (const auto& cp : conns_) {
      if (cp->st == CConn::St::kDead) {
        rep_.lost += cp->list.size();
        resolved_or_lost_ += cp->list.size();
        cp->next_item = cp->list.size();
        continue;
      }
      pump_conn(*cp);
    }
  }
}

void LoadRun::pump_shard(std::uint64_t shard) {
  auto qi = shard_queue_.find(shard);
  if (qi == shard_queue_.end()) return;
  std::deque<std::size_t>& q = qi->second;
  std::size_t& inflight = shard_inflight_[shard];
  std::vector<CConn*> touched;
  while (!q.empty() && inflight < cfg_.shard_window) {
    const std::size_t item = q.front();
    CConn& c = *conns_[item_owner_[item]];
    if (c.st == CConn::St::kDead) {
      q.pop_front();
      ++rep_.lost;
      ++resolved_or_lost_;
      continue;
    }
    if (cfg_.pipeline > 0 && c.inflight >= cfg_.pipeline) break;
    q.pop_front();
    send_offer(c, item);
    ++inflight;
    if (std::find(touched.begin(), touched.end(), &c) == touched.end())
      touched.push_back(&c);
  }
  for (CConn* c : touched) (void)flush(*c);
}

void LoadRun::pump_conn(CConn& c) {
  if (c.st != CConn::St::kReady) return;
  bool wrote = false;
  while (c.next_item < c.list.size() &&
         (cfg_.pipeline == 0 || c.inflight < cfg_.pipeline)) {
    send_offer(c, c.list[c.next_item++]);
    wrote = true;
  }
  if (wrote) (void)flush(c);
}

void LoadRun::send_offer(CConn& c, std::size_t item_idx) {
  const serve::ServeRequest& it = items_[item_idx];
  Request rq;
  rq.type = MsgType::kOffer;
  rq.id = it.stream_index;
  rq.arrival = it.arrival;
  rq.departure = it.departure;
  rq.size = it.size;
  encode_request(rq, c.wbuf);
  inflight_.emplace(rq.id, Pending{serve::mono_now_ns(), c.idx, c.shard});
  ++c.inflight;
  ++rep_.sent;
}

bool LoadRun::flush(CConn& c) {
  if (c.st == CConn::St::kDead) return false;
  while (c.wbuf_off < c.wbuf.size()) {
    int err = 0;
    const std::int64_t n =
        env_.net_write(c.fd, c.wbuf.data() + c.wbuf_off,
                       c.wbuf.size() - c.wbuf_off, err);
    if (n > 0) {
      c.wbuf_off += static_cast<std::size_t>(n);
      continue;
    }
    if (err == EINTR) continue;
    if (io::transient_errno(err)) break;
    mark_dead(c, c.st == CConn::St::kHello);
    return false;
  }
  if (c.wbuf_off == c.wbuf.size()) {
    c.wbuf.clear();
    c.wbuf_off = 0;
  } else if (c.wbuf_off > 64 * 1024) {
    c.wbuf.erase(0, c.wbuf_off);
    c.wbuf_off = 0;
  }
  const bool want_write = c.wbuf_off < c.wbuf.size();
  if (want_write != c.cur_want_write) {
    c.cur_want_write = want_write;
    poller_.modify(c.fd, true, want_write);
  }
  return true;
}

void LoadRun::on_readable(CConn& c) {
  read_burst(c);
  // Pipeline mode: acks for `c` arrive only on `c` itself, so one refill
  // after the whole burst replaces a pump-and-flush (a write syscall) per
  // ack — resolve() defers to this. Ordered mode pumps per ack instead,
  // since a freed shard slot can belong to any other connection.
  if (cfg_.shard_window == 0 && pumping_ && c.st == CConn::St::kReady)
    pump_conn(c);
}

void LoadRun::read_burst(CConn& c) {
  char buf[65536];
  for (int burst = 0; burst < 16 && c.st != CConn::St::kDead; ++burst) {
    int err = 0;
    const std::int64_t n = env_.net_read(c.fd, buf, sizeof(buf), err);
    if (n > 0) {
      touch();
      c.decoder.feed(buf, static_cast<std::size_t>(n));
      std::string_view payload;
      for (;;) {
        const DecodeStatus st = c.decoder.next(payload);
        if (st == DecodeStatus::kNeedMore) break;
        if (st == DecodeStatus::kBad) {
          mark_dead(c, false);
          return;
        }
        std::string why;
        const std::optional<Response> resp = parse_response(payload, why);
        if (!resp.has_value()) {
          mark_dead(c, false);
          return;
        }
        handle_response(c, *resp);
        if (c.st == CConn::St::kDead) return;
      }
      continue;
    }
    if (n == 0) {  // orderly server hangup
      mark_dead(c, c.st == CConn::St::kHello);
      return;
    }
    if (err == EINTR) continue;
    if (io::transient_errno(err)) return;
    mark_dead(c, c.st == CConn::St::kHello);
    return;
  }
}

void LoadRun::handle_response(CConn& c, const Response& resp) {
  switch (resp.type) {
    case MsgType::kAck:
      switch (resp.ack) {
        case AckStatus::kHello:
          if (c.st == CConn::St::kHello) {
            c.shard = resp.shard;
            on_ready(c);
          }
          return;
        case AckStatus::kApplied:
          resolve(resp.id, AckStatus::kApplied, false, 0);
          return;
        case AckStatus::kSkipped:
          resolve(resp.id, AckStatus::kSkipped, false, 0);
          return;
        case AckStatus::kAdvance:
        case AckStatus::kDepart:
          return;  // not used by the generator
      }
      return;
    case MsgType::kError: {
      const auto code = static_cast<std::uint16_t>(resp.code);
      ++rep_.errors_by_code[code];
      if (resp.id != 0) resolve(resp.id, AckStatus::kApplied, true, code);
      if (err_closes(resp.code)) mark_dead(c, c.st == CConn::St::kHello);
      return;
    }
    case MsgType::kPong:
    case MsgType::kStatsReply:
      return;
    default:
      return;  // a request type from the server: ignore
  }
}

void LoadRun::resolve(std::uint64_t id, AckStatus ack, bool errored,
                      std::uint16_t code) {
  (void)code;
  const auto it = inflight_.find(id);
  if (it == inflight_.end()) return;  // duplicate/unknown ack
  const Pending p = it->second;
  inflight_.erase(it);
  touch();
  ++resolved_or_lost_;
  CConn& c = *conns_[p.conn];
  if (c.inflight > 0) --c.inflight;
  if (errored) {
    ++rep_.errored;
  } else {
    rep_.latencies_us.push_back((serve::mono_now_ns() - p.send_ns) / 1000);
    if (ack == AckStatus::kApplied) {
      ++rep_.applied;
      rep_.applied_ids.push_back(id);
    } else {
      ++rep_.skipped;
    }
  }
  if (cfg_.shard_window > 0) {
    auto si = shard_inflight_.find(p.shard);
    if (si != shard_inflight_.end() && si->second > 0) --si->second;
    pump_shard(p.shard);
  }
  // Pipeline mode: on_readable refills `c` once after its read burst.
}

}  // namespace

std::uint64_t latency_percentile_us(const std::vector<std::uint64_t>& samples,
                                    double p) {
  if (samples.empty()) return 0;
  std::vector<std::uint64_t> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size());
  std::size_t idx =
      rank <= 1.0 ? 0 : static_cast<std::size_t>(std::ceil(rank)) - 1;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

ClientReport run_load(const ClientConfig& config,
                      const std::vector<serve::ServeRequest>& items) {
  LoadRun run(config, items);
  return run.go();
}

std::uint64_t raise_nofile_limit(std::uint64_t want) {
  struct rlimit rl {};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 0;
  if (static_cast<std::uint64_t>(rl.rlim_cur) < want) {
    rlim_t target = static_cast<rlim_t>(want);
    if (rl.rlim_max != RLIM_INFINITY && target > rl.rlim_max)
      target = rl.rlim_max;
    rl.rlim_cur = target;
    (void)::setrlimit(RLIMIT_NOFILE, &rl);
    (void)::getrlimit(RLIMIT_NOFILE, &rl);
  }
  return static_cast<std::uint64_t>(rl.rlim_cur);
}

}  // namespace cdbp::net
