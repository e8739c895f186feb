// Self-test of the benchmark's own machinery: exact quantiles, the
// supportable-percentile rule, backlog detection, rate bisection, and the
// open-loop generator's coordinated-omission accounting against a fake
// server that stalls.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "net/protocol.h"
#include "spans.h"
#include "stats.h"

namespace cdbp::bench_suite {
namespace {

TEST(Stats, ExactPercentilesOnKnownVectors) {
  std::vector<int> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 99.5), 100);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(std::vector<int>{7}, 99), 7);
  EXPECT_EQ(percentile(std::vector<int>{}, 50), 0);
  // A value between buckets stays exact: no power-of-two rounding.
  EXPECT_EQ(percentile(std::vector<std::uint64_t>{16383, 16384, 20000}, 100), 20000);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Stats, SupportablePercentileNeedsTenSamplesBeyond) {
  EXPECT_EQ(supportable_percentile(19), 0.0);
  EXPECT_EQ(supportable_percentile(20), 50.0);
  EXPECT_EQ(supportable_percentile(999), 90.0);
  EXPECT_EQ(supportable_percentile(1000), 99.0);
  EXPECT_EQ(supportable_percentile(100'000), 99.99);
  EXPECT_EQ(supportable_percentile(10'000'000), 99.999);
}

/// Acks received in the second half of a `seconds`-long phase offered at
/// `offered` per second to a FIFO server completing `service` per second.
std::uint64_t simulated_second_half_acks(double offered, double service,
                                         double seconds) {
  double backlog = 0.0, t = 0.0, acked = 0.0;
  const double dt = 0.001;
  for (; t < seconds - 1e-9; t += dt) {
    backlog += offered * dt;
    const double done = std::min(backlog, service * dt);
    backlog -= done;
    if (t >= seconds / 2) acked += done;
  }
  return static_cast<std::uint64_t>(acked + 0.5);
}

TEST(Stats, BacklogDetection) {
  EXPECT_TRUE(backlog_ok(1000, 990));
  EXPECT_FALSE(backlog_ok(1000, 989));
  EXPECT_FALSE(backlog_ok(0, 0));
  // A server that keeps up acks what the second half offered...
  EXPECT_TRUE(backlog_ok(500, simulated_second_half_acks(100, 120, 10)));
  // ...one 10% too slow acks at its own rate while the queue grows.
  EXPECT_FALSE(backlog_ok(500, simulated_second_half_acks(100, 90, 10)));
}

TEST(Stats, BisectionConvergesBelowTheBoundary) {
  const double lo = 25'000, hi = 300'000, boundary = 123'456;
  const BisectResult r =
      bisect_max_rate(lo, hi, 5, [&](double rate) { return rate <= boundary; });
  ASSERT_EQ(r.probes.size(), 5u);
  EXPECT_LE(r.best, boundary);
  EXPECT_LE(boundary - r.best, (hi - lo) / 32);
  for (const auto& [rate, ok] : r.probes) EXPECT_EQ(ok, rate <= boundary);

  EXPECT_EQ(bisect_max_rate(lo, hi, 5, [](double) { return false; }).best, 0.0);
  EXPECT_DOUBLE_EQ(bisect_max_rate(lo, hi, 5, [](double) { return true; }).best,
                   hi - (hi - lo) / 32);
}

/// A one-connection CDBPNET1 server that acks every offer, except that it
/// stops reading for `stall` once it sees offer `stall_at`.
class FakeServer {
 public:
  FakeServer(std::uint64_t stall_at, std::chrono::milliseconds stall)
      : stall_at_(stall_at), stall_(stall) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof addr;
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listen_fd_, 4) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      throw std::runtime_error("fake server: cannot listen");
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { serve(); });
  }
  ~FakeServer() {
    thread_.join();  // returns once the client hangs up
    ::close(listen_fd_);
  }
  FakeServer(const FakeServer&) = delete;
  FakeServer& operator=(const FakeServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  void serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    net::FrameDecoder dec;
    std::size_t magic_left = net::kMagicLen;
    bool stalled = false;
    char buf[65536];
    for (;;) {
      const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
      if (got <= 0) break;
      std::size_t off = std::min<std::size_t>(magic_left, static_cast<std::size_t>(got));
      magic_left -= off;
      dec.feed(buf + off, static_cast<std::size_t>(got) - off);
      std::string payload, why, out;
      while (dec.next(payload) == net::DecodeStatus::kFrame) {
        const auto req = net::parse_request(payload, why);
        if (!req) break;
        net::Response resp;
        resp.id = req->id;
        if (req->type == net::MsgType::kHello) {
          resp.type = net::MsgType::kAck;
          resp.ack = net::AckStatus::kHello;
        } else if (req->type == net::MsgType::kOffer) {
          if (!stalled && req->id >= stall_at_) {
            stalled = true;
            std::this_thread::sleep_for(stall_);
          }
          resp.type = net::MsgType::kAck;
          resp.ack = net::AckStatus::kApplied;
          resp.seq = req->id;
        } else {
          resp.type = net::MsgType::kPong;
        }
        net::encode_response(resp, out);
      }
      for (std::size_t sent = 0; sent < out.size();) {
        const ssize_t put = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
        if (put <= 0) break;
        sent += static_cast<std::size_t>(put);
      }
    }
    ::close(fd);
  }

  std::uint64_t stall_at_;
  std::chrono::milliseconds stall_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(LoadGen, StallIsChargedToEveryOfferQueuedBehindIt) {
  constexpr double kRate = 10'000;  // one offer every 100 us
  constexpr auto kStall = std::chrono::milliseconds(50);
  FakeServer server(/*stall_at=*/1000, kStall);  // ~0.1 s into the phase
  SpanLog spans(false);
  PhaseStats ps;
  {
    LoadGen gen(server.port(), {"t0"}, /*seed=*/1, spans);
    ps = gen.open_loop("stall", kRate, 0.4, false);
    ASSERT_FALSE(gen.broken()) << gen.error();
  }
  EXPECT_EQ(ps.failed, 0u);
  EXPECT_EQ(ps.acked, ps.sent);
  EXPECT_EQ(ps.sent, 4000u);
  // Timed from intended send, the offers due during the first 40 ms of the
  // stall each waited at least 10 ms; timing from the actual send (or a
  // closed loop) would report about one slow offer instead of hundreds.
  std::uint64_t slow = 0;
  for (const std::uint64_t ns : ps.latency_ns) slow += ns >= 10'000'000 ? 1 : 0;
  EXPECT_GE(slow, static_cast<std::uint64_t>(0.8 * kRate * 0.040));
  EXPECT_GE(percentile(ps.latency_ns, 100), 45e6);
  // The generator kept sending while the server stalled instead of waiting
  // for answers: the offers due during the stall were all in flight.
  EXPECT_GE(ps.inflight_max, static_cast<std::uint64_t>(0.8 * kRate * 0.040));
}

}  // namespace
}  // namespace cdbp::bench_suite
