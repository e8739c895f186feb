#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <thread>

namespace cdbp::bench_suite {

namespace {

/// Connections one generator drives (one ppoll set on the stack).
constexpr std::size_t kMaxConns = 16;

/// One in this many offers (by id) gets a span in traced phases: enough to
/// see every phase in Perfetto without a million-event trace file.
constexpr std::uint64_t kOfferSpanEvery = 64;

double unit_double(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::uint64_t deadline_after(std::uint64_t timeout_ms) {
  return now_ns() + timeout_ms * 1'000'000ULL;
}

/// Blocking loopback connect with TCP_NODELAY (small frames + Nagle +
/// delayed ACK stall for tens of ms). Retries refusals until `deadline`.
int connect_loopback(std::uint16_t port, std::uint64_t deadline) {
  for (;;) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    const int err = errno;
    ::close(fd);
    if (err != ECONNREFUSED || now_ns() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool write_all(int fd, const std::string& data) {
  for (std::size_t off = 0; off < data.size();) {
    const ssize_t put = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    off += static_cast<std::size_t>(put);
  }
  return true;
}

/// Reads one response frame from a blocking socket before `deadline`.
std::optional<net::Response> read_response(int fd, net::FrameDecoder& dec,
                                           std::uint64_t deadline) {
  std::string payload;
  for (;;) {
    const net::DecodeStatus st = dec.next(payload);
    if (st == net::DecodeStatus::kBad) return std::nullopt;
    if (st == net::DecodeStatus::kFrame) {
      std::string why;
      return net::parse_response(payload, why);
    }
    const std::uint64_t now = now_ns();
    if (now >= deadline) return std::nullopt;
    pollfd p{fd, POLLIN, 0};
    const int wait_ms = static_cast<int>((deadline - now) / 1'000'000ULL) + 1;
    if (::poll(&p, 1, wait_ms) <= 0) continue;
    char buf[4096];
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got == 0 || (got < 0 && errno != EINTR)) return std::nullopt;
    if (got > 0) dec.feed(buf, static_cast<std::size_t>(got));
  }
}

/// Magic + HELLO; returns the shard the server assigned, or nullopt.
std::optional<std::uint64_t> handshake(int fd, net::FrameDecoder& dec,
                                       const std::string& tenant,
                                       std::uint64_t deadline) {
  std::string out(net::kMagic, net::kMagicLen);
  net::Request hello;
  hello.type = net::MsgType::kHello;
  hello.tenant = tenant;
  net::encode_request(hello, out);
  if (!write_all(fd, out)) return std::nullopt;
  const auto resp = read_response(fd, dec, deadline);
  if (!resp || resp->type != net::MsgType::kAck ||
      resp->ack != net::AckStatus::kHello)
    return std::nullopt;
  return resp->shard;
}

}  // namespace

OfferSequence::OfferSequence(std::uint64_t seed, std::size_t tenant_index)
    : rng_(seed * 0x9E3779B97F4A7C15ULL ^
           (static_cast<std::uint64_t>(tenant_index) + 1) * 0xBF58476D1CE4E5B9ULL) {}

GenOffer OfferSequence::next() {
  ++k_;
  GenOffer o;
  o.arrival = static_cast<double>(k_) / 64.0;
  o.departure = o.arrival + std::exp2(8.0 * unit_double(rng_));
  o.size = 0.02 + 0.58 * unit_double(rng_);
  return o;
}

struct LoadGen::Conn {
  Conn(std::uint64_t seed, std::size_t i) : index(i), seq(seed, i) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  std::size_t index;
  int fd = -1;
  OfferSequence seq;
  net::FrameDecoder dec;
  std::string wbuf;
  std::size_t woff = 0;
  std::uint64_t next_id = 1;
  std::vector<std::uint64_t> intended;  ///< by id - 1
  std::vector<std::uint8_t> applied;    ///< by id - 1
  std::uint64_t inflight = 0;
};

LoadGen::LoadGen(std::uint16_t port, const std::vector<std::string>& tenants,
                 std::uint64_t seed, SpanLog& spans,
                 const std::vector<std::uint64_t>& expected_shards,
                 std::uint64_t timeout_ms)
    : spans_(spans) {
  if (tenants.empty() || tenants.size() > kMaxConns)
    throw std::invalid_argument("loadgen: 1 to 16 tenants");
  // Default timer slack (50 us) would delay every scheduled wake-up and
  // show up as generator lateness; open-loop sends need tighter wakes.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const std::uint64_t deadline = deadline_after(timeout_ms);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    auto c = std::make_unique<Conn>(seed, i);
    c->fd = connect_loopback(port, deadline);
    if (c->fd < 0)
      throw std::runtime_error("loadgen: connect failed for " + tenants[i]);
    const auto shard = handshake(c->fd, c->dec, tenants[i], deadline);
    if (!shard) throw std::runtime_error("loadgen: HELLO failed for " + tenants[i]);
    if (!expected_shards.empty() && *shard != expected_shards[i])
      throw std::runtime_error("loadgen: tenant " + tenants[i] + " landed on shard " +
                               std::to_string(*shard));
    ::fcntl(c->fd, F_SETFL, ::fcntl(c->fd, F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(c));
  }
}

LoadGen::~LoadGen() = default;

std::uint64_t LoadGen::sent(std::size_t c) const {
  return conns_.at(c)->next_id - 1;
}

bool LoadGen::applied(std::size_t c, std::uint64_t id) const {
  const Conn& conn = *conns_.at(c);
  return id >= 1 && id < conn.next_id && conn.applied[id - 1] != 0;
}

std::uint64_t LoadGen::inflight() const {
  std::uint64_t n = 0;
  for (const auto& c : conns_) n += c->inflight;
  return n;
}

void LoadGen::fail(const std::string& why) {
  if (error_.empty()) error_ = why;
}

void LoadGen::send_offer(Conn& c, std::uint64_t intended_ns) {
  const GenOffer o = c.seq.next();
  net::Request req;
  req.type = net::MsgType::kOffer;
  req.id = c.next_id++;
  req.arrival = o.arrival;
  req.departure = o.departure;
  req.size = o.size;
  net::encode_request(req, c.wbuf);
  c.intended.push_back(intended_ns);
  c.applied.push_back(0);
  ++c.inflight;
  ++counters_.offers;
}

void LoadGen::flush(Conn& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t put =
        ::send(c.fd, c.wbuf.data() + c.woff, c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    ++counters_.syscalls;
    if (put > 0) {
      c.woff += static_cast<std::size_t>(put);
      counters_.bytes_out += static_cast<std::uint64_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    fail("loadgen: send failed: " + std::string(std::strerror(errno)));
    return;
  }
  c.wbuf.clear();
  c.woff = 0;
}

void LoadGen::wait_io(std::uint64_t timeout_ns, PhaseCtx& ctx) {
  pollfd pfds[kMaxConns];
  const std::size_t n = conns_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Conn& c = *conns_[i];
    pfds[i] = pollfd{c.fd, static_cast<short>(POLLIN | (c.woff < c.wbuf.size() ? POLLOUT : 0)), 0};
  }
  timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000ULL),
              static_cast<long>(timeout_ns % 1'000'000'000ULL)};
  const int ready = ::ppoll(pfds, n, &ts, nullptr);
  ++counters_.syscalls;
  if (ready <= 0) return;
  const std::uint64_t recv_ns = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    Conn& c = *conns_[i];
    if ((pfds[i].revents & POLLOUT) != 0) flush(c);
    if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) read_ready(c, recv_ns, ctx);
  }
}

void LoadGen::read_ready(Conn& c, std::uint64_t recv_ns, PhaseCtx& ctx) {
  PhaseStats& ps = *ctx.stats;
  char buf[65536];
  for (;;) {
    const ssize_t got = ::recv(c.fd, buf, sizeof buf, 0);
    ++counters_.syscalls;
    if (got < 0 && errno == EINTR) continue;
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (got <= 0) {
      fail("loadgen: connection " + std::to_string(c.index) + " closed by server");
      return;
    }
    counters_.bytes_in += static_cast<std::uint64_t>(got);
    c.dec.feed(buf, static_cast<std::size_t>(got));
    if (static_cast<std::size_t>(got) < sizeof buf) break;
  }
  std::string payload;
  net::DecodeStatus st;
  while ((st = c.dec.next(payload)) == net::DecodeStatus::kFrame) {
    std::string why;
    const auto resp = net::parse_response(payload, why);
    if (!resp) {
      fail("loadgen: bad response: " + why);
      return;
    }
    const std::uint64_t id = resp->id;
    if (id == 0 || id >= c.next_id) {
      fail("loadgen: response for unknown offer id " + std::to_string(id));
      return;
    }
    --c.inflight;
    ctx.last_answer_ns = recv_ns;
    if (resp->type == net::MsgType::kAck && resp->ack == net::AckStatus::kApplied) {
      c.applied[id - 1] = 1;
      const std::uint64_t intended = c.intended[id - 1];
      ps.latency_ns.push_back(recv_ns - intended);
      ++ps.acked;
      if (recv_ns >= ctx.half_ns && recv_ns < ctx.end_ns) ++ps.acked_second_half;
      if (ctx.span != 0 && id % kOfferSpanEvery == 0)
        spans_.add("net.offer", intended, recv_ns, ctx.span, id,
                   static_cast<std::uint32_t>(1 + c.index));
    } else {
      ++ps.failed;  // typed error, or an ack kind an offer must not get
    }
  }
  if (st == net::DecodeStatus::kBad) fail("loadgen: corrupt frame: " + c.dec.error());
}

void LoadGen::finish_phase(PhaseCtx& ctx, std::uint64_t start_ns) {
  PhaseStats& ps = *ctx.stats;
  const std::uint64_t unanswered = inflight();
  ps.failed += unanswered;
  if (unanswered > 0) fail("loadgen: " + std::to_string(unanswered) +
                           " offers unanswered after phase " + ps.name);
  for (auto& c : conns_) c->inflight = 0;
  const std::uint64_t end = std::max(ctx.last_answer_ns, start_ns);
  ps.wall_s = static_cast<double>(end - start_ns) / 1e9;
  if (ctx.span != 0)
    spans_.record(Span{"gen.phase." + ps.name, start_ns, end, ctx.span, 0, 0, 0});
}

PhaseStats LoadGen::open_loop(const std::string& name, double rate,
                              double seconds, bool trace,
                              std::uint64_t drain_ms) {
  PhaseStats ps;
  ps.name = name;
  ps.rate = rate;
  ps.seconds = seconds;
  if (broken() || rate <= 0.0 || seconds <= 0.0) return ps;
  const auto total = static_cast<std::uint64_t>(std::llround(rate * seconds));
  const double period_ns = 1e9 / rate;
  ps.late_ns.reserve(total);
  ps.latency_ns.reserve(total);
  const std::uint64_t t0 = now_ns() + 100'000;
  const auto len_ns = static_cast<std::uint64_t>(seconds * 1e9);
  PhaseCtx ctx{&ps, t0 + len_ns / 2, t0 + len_ns, trace ? spans_.reserve_id() : 0, 0};
  const std::uint64_t drain_deadline = t0 + len_ns + drain_ms * 1'000'000ULL;
  std::uint64_t i = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    bool queued = false;
    for (; i < total; ++i) {
      const std::uint64_t due = t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
      if (due > now) break;
      send_offer(*conns_[i % conns_.size()], due);
      ps.late_ns.push_back(now - due);
      if (due >= ctx.half_ns && due < ctx.end_ns) ++ps.offered_second_half;
      queued = true;
    }
    if (queued)
      for (auto& c : conns_) flush(*c);
    ps.inflight_max = std::max(ps.inflight_max, inflight());
    if (broken() || (i == total && inflight() == 0)) break;
    const std::uint64_t after = now_ns();
    if (i == total && after > drain_deadline) break;
    std::uint64_t timeout = 1'000'000;  // draining: wake at least every ms
    if (i < total) {
      const std::uint64_t due = t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
      timeout = due > after ? due - after : 0;
    }
    wait_io(timeout, ctx);
  }
  ps.sent = i;
  finish_phase(ctx, t0);
  return ps;
}

PhaseStats LoadGen::closed_loop(const std::string& name, std::size_t window,
                                std::uint64_t offers, bool trace,
                                std::uint64_t drain_ms) {
  PhaseStats ps;
  ps.name = name;
  if (broken() || offers == 0) return ps;
  ps.latency_ns.reserve(offers);
  const std::uint64_t t0 = now_ns();
  PhaseCtx ctx{&ps, 0, 0, trace ? spans_.reserve_id() : 0, 0};
  const std::uint64_t deadline = t0 + drain_ms * 1'000'000ULL;
  std::uint64_t sent = 0;
  for (;;) {
    const std::uint64_t now = now_ns();
    for (auto& c : conns_) {
      bool queued = false;
      while (c->inflight < window && sent < offers) {
        send_offer(*c, now);
        ++sent;
        queued = true;
      }
      if (queued) flush(*c);
    }
    ps.inflight_max = std::max(ps.inflight_max, inflight());
    if (broken() || (sent == offers && inflight() == 0) || now > deadline) break;
    wait_io(10'000'000, ctx);
  }
  ps.sent = sent;
  finish_phase(ctx, t0);
  return ps;
}

bool ping_roundtrip(std::uint16_t port, const std::string& tenant,
                    std::uint64_t timeout_ms) {
  const std::uint64_t deadline = deadline_after(timeout_ms);
  const int fd = connect_loopback(port, deadline);
  if (fd < 0) return false;
  net::FrameDecoder dec;
  bool ok = handshake(fd, dec, tenant, deadline).has_value();
  if (ok) {
    net::Request ping;
    ping.type = net::MsgType::kPing;
    ping.id = 1;
    std::string out;
    net::encode_request(ping, out);
    ok = write_all(fd, out);
    const auto resp = ok ? read_response(fd, dec, deadline) : std::nullopt;
    ok = resp && resp->type == net::MsgType::kPong && resp->id == 1;
  }
  ::close(fd);
  return ok;
}

}  // namespace cdbp::bench_suite
