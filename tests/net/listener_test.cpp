// End-to-end tests for the socket front end: a real NetListener over
// loopback, driven either by the load-generator client (happy paths) or by
// a raw blocking socket (hostile bytes, protocol-level error contracts).
#include "net/listener.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/cli.h"
#include "net/client.h"
#include "net/net_chaos.h"
#include "net/protocol.h"
#include "serve/request_stream.h"
#include "serve/shard_router.h"
#include "serve/wal_segment.h"

namespace cdbp::net {
namespace {

namespace fs = std::filesystem;

/// Blocking loopback connection speaking raw bytes — deliberately NOT the
/// production client, so tests can send malformed and hostile input.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  void send_bytes(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t w =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(w, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(w);
    }
  }

  void send_magic() { send_bytes(std::string(kMagic, kMagicLen)); }

  void send_request(const Request& req) {
    std::string wire;
    encode_request(req, wire);
    send_bytes(wire);
  }

  void hello(const std::string& tenant) {
    Request req;
    req.type = MsgType::kHello;
    req.tenant = tenant;
    send_request(req);
  }

  void offer(std::uint64_t id, double arrival, double departure, double size) {
    Request req;
    req.type = MsgType::kOffer;
    req.id = id;
    req.arrival = arrival;
    req.departure = departure;
    req.size = size;
    send_request(req);
  }

  /// Next framed response, or nullopt on timeout/EOF/corruption.
  std::optional<Response> recv_response(int timeout_ms = 5000) {
    std::string payload;
    for (;;) {
      const DecodeStatus st = decoder_.next(payload);
      if (st == DecodeStatus::kBad) return std::nullopt;
      if (st == DecodeStatus::kFrame) {
        std::string why;
        return parse_response(payload, why);
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr <= 0) return std::nullopt;
      char buf[4096];
      const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r <= 0) return std::nullopt;  // EOF or error
      decoder_.feed(buf, static_cast<std::size_t>(r));
    }
  }

  /// True once the server hangs up (orderly EOF within the timeout).
  bool wait_eof(int timeout_ms = 5000) {
    for (;;) {
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr <= 0) return false;
      char buf[4096];
      const ssize_t r = ::recv(fd_, buf, sizeof(buf), 0);
      if (r == 0) return true;
      if (r < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

class NetListenerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("cdbp_net_test_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override {
    listener_.reset();
    router_.reset();
    fs::remove_all(dir_);
  }

  /// Builds router + listener; tweak the configs via the callback.
  void start(std::size_t shards,
             const std::function<void(serve::RouterConfig&, ListenerConfig&)>&
                 tweak = {}) {
    serve::RouterConfig rc;
    rc.wal_dir = dir_.string();
    rc.shards = shards;
    rc.fsync = serve::FsyncPolicy::kNone;
    ListenerConfig lc;
    lc.loops = 2;
    if (tweak) tweak(rc, lc);
    router_ = std::make_unique<serve::ShardRouter>(
        rc, [] { return cli::make_algorithm("ff"); }, "ff");
    listener_ = std::make_unique<NetListener>(lc, *router_);
  }

  void finish() {
    listener_->begin_drain();
    EXPECT_TRUE(listener_->drain(10000));
    counters_ = listener_->counters();
    listener_->stop();
    router_->stop();
  }

  /// Offers applied across all shards (valid after finish()).
  [[nodiscard]] std::uint64_t applied_total() const {
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < router_->shards(); ++i)
      n += router_->stats(i).applied;
    return n;
  }

  /// Every record in every shard's WAL, shard by shard (after finish()).
  [[nodiscard]] std::vector<serve::WalRecord> wal_records() const {
    std::vector<serve::WalRecord> out;
    for (std::size_t i = 0; i < router_->shards(); ++i) {
      const serve::SegmentedWalScan scan = serve::scan_segmented_wal(
          (dir_ / ("shard-" + std::to_string(i) + ".wal")).string());
      out.insert(out.end(), scan.records.begin(), scan.records.end());
    }
    return out;
  }

  fs::path dir_;
  std::unique_ptr<serve::ShardRouter> router_;
  std::unique_ptr<NetListener> listener_;
  ListenerCounters counters_;
};

TEST_F(NetListenerTest, LoadGeneratorRoundTripAllApplied) {
  start(4);
  const std::vector<serve::ServeRequest> stream =
      serve::generate_stream(serve::StreamGenConfig{200, 8, 11, 5, 64.0});
  ClientConfig cc;
  cc.port = listener_->port();
  const ClientReport rep = run_load(cc, stream);
  EXPECT_EQ(rep.applied, stream.size());
  EXPECT_EQ(rep.lost, 0u);
  EXPECT_EQ(rep.errored, 0u);
  EXPECT_EQ(rep.conns_failed, 0u);
  EXPECT_FALSE(rep.timed_out);
  finish();
  EXPECT_EQ(counters_.accepted, 8u);
  EXPECT_EQ(counters_.offers_applied, stream.size());
  EXPECT_EQ(counters_.protocol_errors, 0u);
  EXPECT_GT(counters_.bytes_in, 0u);
  EXPECT_GT(counters_.bytes_out, 0u);
  EXPECT_EQ(applied_total(), stream.size());
  EXPECT_EQ(wal_records().size(), stream.size());
}

// The ack-implies-durable oracle the chaos matrix and E18 use: it accepts
// a clean run's acks, and it catches an ack with no WAL record behind it,
// whether the id was never logged or was logged under another tenant.
TEST_F(NetListenerTest, AckOracleChecksEveryAckAgainstTheShardWals) {
  start(2);
  const std::vector<serve::ServeRequest> stream =
      serve::generate_stream(serve::StreamGenConfig{60, 4, 13, 5, 64.0});
  ClientConfig cc;
  cc.port = listener_->port();
  const ClientReport rep = run_load(cc, stream);
  ASSERT_EQ(rep.applied, stream.size());
  finish();
  const std::string dir = dir_.string();
  EXPECT_EQ(check_acks_in_wal(dir, 2, stream, rep.applied_ids), "");

  std::vector<serve::ServeRequest> longer = stream;
  longer.push_back(stream.back());
  longer.back().stream_index = stream.size() + 1;  // offered, never sent
  std::vector<std::uint64_t> ghost = rep.applied_ids;
  ghost.push_back(stream.size() + 1);
  EXPECT_NE(check_acks_in_wal(dir, 2, longer, ghost), "");

  std::vector<serve::ServeRequest> renamed = stream;
  renamed[5].tenant += "-other";
  EXPECT_NE(check_acks_in_wal(dir, 2, renamed, rep.applied_ids)
                .find("stream index " +
                      std::to_string(renamed[5].stream_index) + " "),
            std::string::npos);
}

TEST_F(NetListenerTest, PollFallbackServesIdentically) {
  start(2, [](serve::RouterConfig&, ListenerConfig& lc) {
    lc.force_poll = true;
    lc.loops = 1;
  });
  const std::vector<serve::ServeRequest> stream =
      serve::generate_stream(serve::StreamGenConfig{80, 4, 5, 5, 64.0});
  ClientConfig cc;
  cc.port = listener_->port();
  const ClientReport rep = run_load(cc, stream);
  EXPECT_EQ(rep.applied, stream.size());
  EXPECT_EQ(rep.lost, 0u);
  finish();
  EXPECT_EQ(counters_.offers_applied, stream.size());
}

TEST_F(NetListenerTest, BadMagicGetsTypedErrorThenClose) {
  start(1);
  RawConn conn(listener_->port());
  conn.send_bytes("HTTP/1.1");
  const std::optional<Response> resp = conn.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kError);
  EXPECT_EQ(resp->code, ErrCode::kBadMagic);
  EXPECT_TRUE(conn.wait_eof());
  finish();
  EXPECT_EQ(counters_.protocol_errors, 1u);
}

TEST_F(NetListenerTest, RequestBeforeHelloIsRefused) {
  start(1);
  RawConn conn(listener_->port());
  conn.send_magic();
  conn.offer(1, 0.0, 1.0, 0.5);
  const std::optional<Response> resp = conn.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kError);
  EXPECT_EQ(resp->code, ErrCode::kNoHello);
  EXPECT_TRUE(conn.wait_eof());
  finish();
}

TEST_F(NetListenerTest, HostileTenantIdsAreGatedAtTheProtocolLayer) {
  start(1);
  {  // zero-length tenant: typed error frame, then hangup
    RawConn conn(listener_->port());
    conn.send_magic();
    conn.hello("");
    const std::optional<Response> resp = conn.recv_response();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->type, MsgType::kError);
    EXPECT_EQ(resp->code, ErrCode::kBadTenant);
    EXPECT_TRUE(conn.wait_eof());
  }
  {  // oversized tenant (default cap is 64 bytes)
    RawConn conn(listener_->port());
    conn.send_magic();
    conn.hello(std::string(65, 'a'));
    const std::optional<Response> resp = conn.recv_response();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->type, MsgType::kError);
    EXPECT_EQ(resp->code, ErrCode::kBadTenant);
    EXPECT_TRUE(conn.wait_eof());
  }
  {  // hostile bytes inside the cap: rejected outright, never sanitized
    // into an aliasing identity ("a/b" and "a_b" must not share a quota
    // bucket, shard, or dedup space)
    RawConn conn(listener_->port());
    conn.send_magic();
    conn.hello("t\x01!/x\xFF{}");
    const std::optional<Response> resp = conn.recv_response();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->type, MsgType::kError);
    EXPECT_EQ(resp->code, ErrCode::kBadTenant);
    EXPECT_TRUE(conn.wait_eof());
  }
  {  // the full allowed charset serves fine
    RawConn conn(listener_->port());
    conn.send_magic();
    conn.hello("Tenant_0.9-ok");
    const std::optional<Response> hello = conn.recv_response();
    ASSERT_TRUE(hello.has_value());
    ASSERT_EQ(hello->type, MsgType::kAck);
    EXPECT_EQ(hello->ack, AckStatus::kHello);
    conn.offer(1, 0.0, 2.0, 0.25);
    const std::optional<Response> ack = conn.recv_response();
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->type, MsgType::kAck);
    EXPECT_EQ(ack->ack, AckStatus::kApplied);
  }
  finish();
  // Only the validated raw id reaches the router.
  EXPECT_EQ(applied_total(), 1u);
  const std::vector<serve::WalRecord> logged = wal_records();
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged.front().tenant, "Tenant_0.9-ok");
}

TEST_F(NetListenerTest, TenantsSharingAShardMayReuseOfferIds) {
  // One shard, so both tenants land on it. Their id spaces are
  // uncoordinated and overlap exactly; dedup and inflight tracking key by
  // (tenant, id), so every offer must be applied — no spurious kDuplicate
  // (inflight collision) and no silent kSkipped (shard-global high-water
  // mark swallowing tenant B's ids after tenant A pushed larger ones).
  start(1);
  RawConn a(listener_->port());
  a.send_magic();
  a.hello("tenant-a");
  ASSERT_TRUE(a.recv_response().has_value());
  RawConn b(listener_->port());
  b.send_magic();
  b.hello("tenant-b");
  ASSERT_TRUE(b.recv_response().has_value());

  // A runs its ids up to 3 first; B then starts from 1.
  for (std::uint64_t id = 1; id <= 3; ++id) {
    a.offer(id, 0.0, 1.0, 0.1);
    const std::optional<Response> ack = a.recv_response();
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, MsgType::kAck) << "tenant-a id " << id;
    EXPECT_EQ(ack->ack, AckStatus::kApplied);
  }
  for (std::uint64_t id = 1; id <= 3; ++id) {
    b.offer(id, 0.0, 1.0, 0.1);
    const std::optional<Response> ack = b.recv_response();
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, MsgType::kAck) << "tenant-b id " << id;
    EXPECT_EQ(ack->ack, AckStatus::kApplied)
        << "tenant-b id " << id << " must not collide with tenant-a's ids";
  }
  finish();
  EXPECT_EQ(counters_.offers_applied, 6u);
  EXPECT_EQ(counters_.offers_skipped, 0u);
  EXPECT_EQ(counters_.protocol_errors, 0u);
  EXPECT_EQ(applied_total(), 6u);
  const std::vector<serve::WalRecord> logged = wal_records();
  ASSERT_EQ(logged.size(), 6u);
  for (std::size_t i = 0; i < logged.size(); ++i) {
    EXPECT_EQ(logged[i].tenant, i < 3 ? "tenant-a" : "tenant-b");
    EXPECT_EQ(logged[i].stream_index, i % 3 + 1);
  }
}

// Regression (fixed input): an OFFER with size 1.5 passed the listener's
// check, and the ledger's capacity logic_error then degraded the shard.
// Out-of-range sizes are typed kInvalid at the door; the connection and
// the shard keep serving.
TEST_F(NetListenerTest, OutOfRangeSizeIsInvalidAndTheShardKeepsServing) {
  start(1);
  RawConn conn(listener_->port());
  conn.send_magic();
  conn.hello("t0");
  ASSERT_TRUE(conn.recv_response().has_value());  // hello ack
  std::uint64_t id = 1;
  for (const double size : {1.5, -0.5, 1.0 + 1e-6}) {
    conn.offer(id, 0.0, 2.0, size);
    const std::optional<Response> resp = conn.recv_response();
    ASSERT_TRUE(resp.has_value()) << "size " << size;
    EXPECT_EQ(resp->type, MsgType::kError) << "size " << size;
    EXPECT_EQ(resp->code, ErrCode::kInvalid) << "size " << size;
    EXPECT_EQ(resp->id, id);
    ++id;
  }
  conn.offer(id, 0.0, 2.0, 0.5);
  const std::optional<Response> ack = conn.recv_response();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->type, MsgType::kAck);
  EXPECT_EQ(ack->ack, AckStatus::kApplied);
  finish();
  EXPECT_FALSE(router_->stats(0).degraded) << router_->stats(0).degrade_reason;
  EXPECT_EQ(counters_.offers_failed, 3u);
  EXPECT_EQ(applied_total(), 1u);
  const std::vector<serve::WalRecord> logged = wal_records();
  ASSERT_EQ(logged.size(), 1u);
  EXPECT_EQ(logged.front().size, 0.5);
}

TEST_F(NetListenerTest, CorruptFrameClosesWithBadFrame) {
  start(1);
  RawConn conn(listener_->port());
  conn.send_magic();
  conn.hello("t0");
  ASSERT_TRUE(conn.recv_response().has_value());  // hello ack
  Request req;
  req.type = MsgType::kPing;
  req.id = 1;
  std::string wire;
  encode_request(req, wire);
  wire[wire.size() - 1] = static_cast<char>(wire[wire.size() - 1] ^ 0xFF);
  conn.send_bytes(wire);
  const std::optional<Response> resp = conn.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kError);
  EXPECT_EQ(resp->code, ErrCode::kBadFrame);
  EXPECT_TRUE(conn.wait_eof());
  finish();
}

TEST_F(NetListenerTest, QuotaExhaustionIsTypedAndTheConnectionSurvives) {
  start(1, [](serve::RouterConfig&, ListenerConfig& lc) {
    lc.quota_rate = 0.001;  // effectively: the burst is all you get
    lc.quota_burst = 1.0;
  });
  RawConn conn(listener_->port());
  conn.send_magic();
  conn.hello("greedy");
  ASSERT_TRUE(conn.recv_response().has_value());

  conn.offer(1, 0.0, 1.0, 0.1);
  const std::optional<Response> first = conn.recv_response();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, MsgType::kAck);
  EXPECT_EQ(first->ack, AckStatus::kApplied);

  conn.offer(2, 0.0, 1.0, 0.1);
  const std::optional<Response> second = conn.recv_response();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->type, MsgType::kError);
  EXPECT_EQ(second->code, ErrCode::kQuota);
  EXPECT_EQ(second->id, 2u);

  // The contract: quota errors do NOT close. The same connection keeps
  // answering other request types.
  Request ping;
  ping.type = MsgType::kPing;
  ping.id = 3;
  conn.send_request(ping);
  const std::optional<Response> pong = conn.recv_response();
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, MsgType::kPong);
  EXPECT_EQ(pong->id, 3u);
  finish();
  EXPECT_EQ(counters_.quota_rejected, 1u);
  EXPECT_EQ(counters_.offers_applied, 1u);
}

TEST_F(NetListenerTest, RejectAdmissionMapsFullQueueToBackpressure) {
  start(1, [](serve::RouterConfig& rc, ListenerConfig& lc) {
    rc.queue_capacity = 2;
    rc.admission = serve::AdmissionPolicy::kReject;
    rc.worker_delay_us = 3000;  // slow consumer: the queue must fill
    lc.admission = serve::AdmissionPolicy::kReject;
  });
  RawConn conn(listener_->port());
  conn.send_magic();
  conn.hello("burst");
  ASSERT_TRUE(conn.recv_response().has_value());

  constexpr std::uint64_t kOffers = 32;
  for (std::uint64_t id = 1; id <= kOffers; ++id)
    conn.offer(id, 0.0, 1.0, 0.01);
  std::uint64_t acked = 0, backpressured = 0;
  for (std::uint64_t i = 0; i < kOffers; ++i) {
    const std::optional<Response> resp = conn.recv_response(10000);
    ASSERT_TRUE(resp.has_value()) << "offer " << i << " got no response";
    if (resp->type == MsgType::kAck) {
      EXPECT_EQ(resp->ack, AckStatus::kApplied);
      ++acked;
    } else {
      ASSERT_EQ(resp->type, MsgType::kError);
      EXPECT_EQ(resp->code, ErrCode::kBackpressure);
      ++backpressured;
    }
  }
  EXPECT_EQ(acked + backpressured, kOffers) << "every offer must terminate";
  EXPECT_GT(backpressured, 0u) << "a 2-deep queue cannot absorb 32 offers";
  finish();
  EXPECT_EQ(counters_.backpressured, backpressured);
  EXPECT_EQ(counters_.offers_applied, acked);
}

TEST_F(NetListenerTest, TimeOrderViolationsAreTyped) {
  start(1);
  RawConn conn(listener_->port());
  conn.send_magic();
  conn.hello("t0");
  ASSERT_TRUE(conn.recv_response().has_value());

  conn.offer(5, 1.0, 2.0, 0.1);
  ASSERT_TRUE(conn.recv_response().has_value());  // applied
  conn.offer(3, 1.5, 2.5, 0.1);                   // id going backwards
  const std::optional<Response> resp = conn.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kError);
  EXPECT_EQ(resp->code, ErrCode::kTimeOrder);

  Request adv;  // still usable: advance the clock, then offer below it
  adv.type = MsgType::kAdvance;
  adv.id = 6;
  adv.time = 5.0;
  conn.send_request(adv);
  const std::optional<Response> advAck = conn.recv_response();
  ASSERT_TRUE(advAck.has_value());
  EXPECT_EQ(advAck->type, MsgType::kAck);
  EXPECT_EQ(advAck->ack, AckStatus::kAdvance);
  conn.offer(7, 4.0, 6.0, 0.1);  // arrival below the advance clock
  const std::optional<Response> stale = conn.recv_response();
  ASSERT_TRUE(stale.has_value());
  EXPECT_EQ(stale->type, MsgType::kError);
  EXPECT_EQ(stale->code, ErrCode::kTimeOrder);
  finish();
}

TEST_F(NetListenerTest, DepartStatsAndPingRoundTrip) {
  start(1);
  RawConn conn(listener_->port());
  conn.send_magic();
  conn.hello("t0");
  ASSERT_TRUE(conn.recv_response().has_value());
  conn.offer(1, 0.0, 4.0, 0.3);
  ASSERT_TRUE(conn.recv_response().has_value());

  Request depart;
  depart.type = MsgType::kDepart;
  depart.id = 1;
  depart.time = 4.0;
  conn.send_request(depart);
  std::optional<Response> resp = conn.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kAck);
  EXPECT_EQ(resp->ack, AckStatus::kDepart);

  depart.id = 99;  // never offered
  conn.send_request(depart);
  resp = conn.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kError);
  EXPECT_EQ(resp->code, ErrCode::kUnknownId);

  Request stats;
  stats.type = MsgType::kStats;
  stats.id = 2;
  conn.send_request(stats);
  resp = conn.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kStatsReply);
  EXPECT_NE(resp->text.find("accepted"), std::string::npos);
  finish();
}

TEST_F(NetListenerTest, DrainAnswersNewOffersWithShutdown) {
  start(1);
  RawConn conn(listener_->port());
  conn.send_magic();
  conn.hello("t0");
  ASSERT_TRUE(conn.recv_response().has_value());
  conn.offer(1, 0.0, 1.0, 0.1);
  ASSERT_TRUE(conn.recv_response().has_value());

  listener_->begin_drain();
  conn.offer(2, 0.0, 1.0, 0.1);
  const std::optional<Response> resp = conn.recv_response();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->type, MsgType::kError);
  EXPECT_EQ(resp->code, ErrCode::kShutdown);
  finish();
  EXPECT_EQ(counters_.offers_applied, 1u);
}

TEST_F(NetListenerTest, MiniSoakManyTenantsZeroLoss) {
  start(4);
  const std::vector<serve::ServeRequest> stream =
      serve::generate_stream(serve::StreamGenConfig{1024, 128, 3, 5, 256.0});
  raise_nofile_limit(256 + 64);
  ClientConfig cc;
  cc.port = listener_->port();
  cc.timeout_ms = 60000;
  const ClientReport rep = run_load(cc, stream);
  EXPECT_EQ(rep.conns_opened, 128u);
  EXPECT_EQ(rep.conns_failed, 0u);
  EXPECT_EQ(rep.applied, stream.size());
  EXPECT_EQ(rep.lost, 0u);
  finish();
  EXPECT_EQ(counters_.accepted, 128u);
  EXPECT_EQ(counters_.active, 0u);
  EXPECT_EQ(counters_.closed, 128u);
  EXPECT_EQ(counters_.offers_applied, stream.size());
  EXPECT_EQ(applied_total(), stream.size());
}

}  // namespace
}  // namespace cdbp::net
