#include "net/protocol.h"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace cdbp::net {
namespace {

Request make_offer(std::uint64_t id) {
  Request req;
  req.type = MsgType::kOffer;
  req.id = id;
  req.arrival = 1.5;
  req.departure = 7.25;
  req.size = 0.375;
  return req;
}

/// Feeds one buffer and expects exactly one well-formed frame.
std::string decode_one(const std::string& wire) {
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(dec.next(payload), DecodeStatus::kFrame);
  EXPECT_EQ(dec.pending_bytes(), 0u);
  return payload;
}

TEST(NetProtocol, RequestRoundTripsEveryType) {
  std::vector<Request> reqs;
  Request hello;
  hello.type = MsgType::kHello;
  hello.tenant = "tenant-42";
  reqs.push_back(hello);
  reqs.push_back(make_offer(9));
  Request depart;
  depart.type = MsgType::kDepart;
  depart.id = 10;
  depart.time = 3.5;
  reqs.push_back(depart);
  Request advance;
  advance.type = MsgType::kAdvance;
  advance.id = 11;
  advance.time = 4.0;
  reqs.push_back(advance);
  Request stats;
  stats.type = MsgType::kStats;
  stats.id = 12;
  reqs.push_back(stats);
  Request ping;
  ping.type = MsgType::kPing;
  ping.id = 13;
  reqs.push_back(ping);

  for (const Request& req : reqs) {
    std::string wire;
    encode_request(req, wire);
    std::string why;
    const std::optional<Request> back = parse_request(decode_one(wire), why);
    ASSERT_TRUE(back.has_value()) << why;
    EXPECT_EQ(back->type, req.type);
    EXPECT_EQ(back->id, req.id);
    EXPECT_EQ(back->tenant, req.tenant);
    EXPECT_EQ(back->arrival, req.arrival);
    EXPECT_EQ(back->departure, req.departure);
    EXPECT_EQ(back->size, req.size);
    EXPECT_EQ(back->time, req.time);
  }
}

TEST(NetProtocol, ResponseRoundTripsEveryType) {
  std::vector<Response> resps;
  Response ack;
  ack.type = MsgType::kAck;
  ack.id = 5;
  ack.ack = AckStatus::kApplied;
  ack.seq = 77;
  ack.bin = 3;
  ack.shard = 2;
  resps.push_back(ack);
  Response err;
  err.type = MsgType::kError;
  err.id = 6;
  err.code = ErrCode::kQuota;
  err.text = "tenant over offer rate limit";
  resps.push_back(err);
  Response pong;
  pong.type = MsgType::kPong;
  pong.id = 7;
  resps.push_back(pong);
  Response stats;
  stats.type = MsgType::kStatsReply;
  stats.id = 8;
  stats.text = "accepted=3\nactive=1\n";
  resps.push_back(stats);

  for (const Response& resp : resps) {
    std::string wire;
    encode_response(resp, wire);
    std::string why;
    const std::optional<Response> back = parse_response(decode_one(wire), why);
    ASSERT_TRUE(back.has_value()) << why;
    EXPECT_EQ(back->type, resp.type);
    EXPECT_EQ(back->id, resp.id);
    EXPECT_EQ(back->ack, resp.ack);
    EXPECT_EQ(back->seq, resp.seq);
    EXPECT_EQ(back->bin, resp.bin);
    EXPECT_EQ(back->shard, resp.shard);
    EXPECT_EQ(back->code, resp.code);
    EXPECT_EQ(back->text, resp.text);
  }
}

TEST(NetProtocol, EveryStrictPrefixNeedsMoreBytes) {
  std::string wire;
  encode_request(make_offer(1), wire);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(wire.data(), cut);
    std::string payload;
    EXPECT_EQ(dec.next(payload), DecodeStatus::kNeedMore)
        << "prefix of " << cut << " bytes decoded a frame";
    EXPECT_EQ(dec.pending_bytes(), cut);
    // Completing the torn frame must still yield the original message.
    dec.feed(wire.data() + cut, wire.size() - cut);
    ASSERT_EQ(dec.next(payload), DecodeStatus::kFrame);
    std::string why;
    const std::optional<Request> back = parse_request(payload, why);
    ASSERT_TRUE(back.has_value()) << why;
    EXPECT_EQ(back->id, 1u);
  }
}

TEST(NetProtocol, ByteFlipAtEveryOffsetNeverYieldsTheFrame) {
  std::string wire;
  encode_request(make_offer(2), wire);
  for (std::size_t at = 0; at < wire.size(); ++at) {
    std::string bad = wire;
    bad[at] = static_cast<char>(bad[at] ^ 0x5A);
    FrameDecoder dec;
    dec.feed(bad.data(), bad.size());
    std::string payload;
    const DecodeStatus st = dec.next(payload);
    // A corrupted length waits for bytes that never come; everything else
    // trips the CRC or the size cap. Decoding a frame from flipped bytes
    // would mean the checksum is not protecting the payload.
    EXPECT_NE(st, DecodeStatus::kFrame) << "flip at offset " << at;
    if (st == DecodeStatus::kBad) {
      EXPECT_FALSE(dec.error().empty());
    }
  }
}

TEST(NetProtocol, OversizeLengthPrefixIsRejectedNotBuffered) {
  std::string wire;
  const std::uint32_t huge = kMaxFrameBytes + 1;
  for (std::size_t i = 0; i < 4; ++i)
    wire.push_back(static_cast<char>((huge >> (8 * i)) & 0xFF));
  wire.append(4, '\0');  // crc placeholder — never reached
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(dec.next(payload), DecodeStatus::kBad);
  EXPECT_EQ(dec.error_code(), FrameError::kTooLarge);
  EXPECT_NE(dec.error().find("exceeds cap"), std::string::npos);
}

TEST(NetProtocol, DecoderStaysPoisonedAfterBadFrame) {
  std::string bad;
  encode_request(make_offer(3), bad);
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0xFF);
  FrameDecoder dec;
  dec.feed(bad.data(), bad.size());
  std::string payload;
  ASSERT_EQ(dec.next(payload), DecodeStatus::kBad);

  std::string good;
  encode_request(make_offer(4), good);
  dec.feed(good.data(), good.size());
  EXPECT_EQ(dec.next(payload), DecodeStatus::kBad)
      << "a poisoned stream must never resynchronize";
}

TEST(NetProtocol, ByteAtATimeFeedRecoversEveryFrame) {
  std::string wire;
  for (std::uint64_t id = 1; id <= 5; ++id) encode_request(make_offer(id), wire);
  FrameDecoder dec;
  std::vector<std::uint64_t> ids;
  std::string payload;
  for (const char b : wire) {
    dec.feed(&b, 1);
    while (dec.next(payload) == DecodeStatus::kFrame) {
      std::string why;
      const std::optional<Request> req = parse_request(payload, why);
      ASSERT_TRUE(req.has_value()) << why;
      ids.push_back(req->id);
    }
  }
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
}

TEST(NetProtocol, EmptyPayloadFrameIsRejectedAtTheFramingLayer) {
  std::string wire;
  append_frame(wire, "");
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  std::string payload;
  EXPECT_EQ(dec.next(payload), DecodeStatus::kBad)
      << "a frame without even a type byte cannot be valid";
  EXPECT_NE(dec.error().find("empty"), std::string::npos);
}

TEST(NetProtocol, UnknownTypeAndTrailingBytesAreRejected) {
  std::string why;
  EXPECT_FALSE(parse_request(std::string(1, '\x7F'), why).has_value());

  std::string wire;
  encode_request(make_offer(6), wire);
  FrameDecoder dec;
  dec.feed(wire.data(), wire.size());
  std::string payload;
  ASSERT_EQ(dec.next(payload), DecodeStatus::kFrame);
  payload.push_back('\0');
  EXPECT_FALSE(parse_request(payload, why).has_value())
      << "trailing bytes must not be ignored";
  // A response parsed as a request (and vice versa) is a type error.
  Response pong;
  pong.type = MsgType::kPong;
  std::string pw;
  encode_response(pong, pw);
  FrameDecoder dec2;
  dec2.feed(pw.data(), pw.size());
  ASSERT_EQ(dec2.next(payload), DecodeStatus::kFrame);
  EXPECT_FALSE(parse_request(payload, why).has_value());
}

TEST(NetProtocol, NonFiniteOfferFieldsAreRejected) {
  for (const double evil : {std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    Request req = make_offer(7);
    req.departure = evil;
    std::string wire;
    encode_request(req, wire);
    FrameDecoder dec;
    dec.feed(wire.data(), wire.size());
    std::string payload;
    ASSERT_EQ(dec.next(payload), DecodeStatus::kFrame);
    std::string why;
    EXPECT_FALSE(parse_request(payload, why).has_value());
  }
}

TEST(NetProtocol, ErrorCodeTableIsStable) {
  EXPECT_TRUE(err_closes(ErrCode::kBadFrame));
  EXPECT_TRUE(err_closes(ErrCode::kBadMagic));
  EXPECT_TRUE(err_closes(ErrCode::kNoHello));
  EXPECT_TRUE(err_closes(ErrCode::kBadTenant));
  EXPECT_TRUE(err_closes(ErrCode::kTooLarge));
  EXPECT_FALSE(err_closes(ErrCode::kQuota));
  EXPECT_FALSE(err_closes(ErrCode::kBackpressure));
  EXPECT_FALSE(err_closes(ErrCode::kDegraded));
  EXPECT_FALSE(err_closes(ErrCode::kTimeOrder));
  EXPECT_FALSE(err_closes(ErrCode::kShutdown));
  EXPECT_STREQ(err_name(ErrCode::kQuota), "quota");
  EXPECT_STREQ(err_name(ErrCode::kBadMagic), "bad-magic");
}

}  // namespace
}  // namespace cdbp::net
