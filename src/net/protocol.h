// CDBPNET1 — the serve plane's wire protocol.
//
// A connection opens with the 8-byte magic "CDBPNET1" (client → server,
// nothing else precedes it). After the magic, both directions speak the
// core/frame.h envelope the WAL and .cdbpi use:
//
//     u32 payload_len | u32 crc32(payload) | payload
//     payload := u8 type | body            (StateWriter/Reader encoding,
//                                           core/checkpoint.h: fixed-width
//                                           little-endian, f64 as bit
//                                           patterns, strings u64-length
//                                           prefixed)
//
// Every request except HELLO carries a u64 `id` directly after the type
// byte; the matching response echoes it. For OFFER the id doubles as the
// durable *stream index*: (tenant, id) keys resume deduplication in the
// WAL, so a client that reconnects after a crash re-sends with the same ids
// and already-applied offers come back as kAckSkipped instead of
// double-placing. Ids are client-chosen, nonzero, and strictly increasing
// in arrival order WITHIN a tenant — a contract each client can satisfy on
// its own. (Dedup deliberately does not span tenants: independent tenants
// sharing a shard cannot see each other's ids, so any cross-tenant ordering
// requirement would be unsatisfiable.)
//
// The protocol is deliberately tiny: no negotiation, no compression, no
// partial frames larger than kMaxFrameBytes. A malformed frame (bad CRC,
// oversize, truncated type, trailing bytes) is answered with a typed kError
// frame and the connection is closed; *semantic* errors (quota, time order,
// backpressure) are answered with kError and the connection stays usable.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/checkpoint.h"
#include "core/frame.h"

namespace cdbp::net {

/// Connection-opening magic; exactly these 8 bytes, no frame around them.
inline constexpr char kMagic[8] = {'C', 'D', 'B', 'P', 'N', 'E', 'T', '1'};
inline constexpr std::size_t kMagicLen = 8;

/// Hard cap on a frame's payload (type byte + body). Large enough for any
/// message this protocol defines (the biggest is a kStatsReply text dump);
/// small enough that a hostile length prefix cannot balloon a connection's
/// read buffer.
inline constexpr std::uint32_t kMaxFrameBytes = 4096;

// ---------------------------------------------------------------------------
// Message types

enum class MsgType : std::uint8_t {
  // Requests (client → server).
  kHello = 1,    // str tenant — must be the first frame on the connection
  kOffer = 2,    // u64 id | f64 arrival | f64 departure | f64 size
  kDepart = 3,   // u64 id | f64 time — advisory notice for an offered item
  kAdvance = 4,  // u64 id | f64 time — monotone clock advance for this conn
  kStats = 5,    // u64 id — server stats snapshot as text
  kPing = 6,     // u64 id

  // Responses (server → client).
  kAck = 17,         // u64 id | u8 kind | u64 seq | i64 bin | u64 shard
  kError = 18,       // u64 id (0 = connection-level) | u32 code | str msg
  kPong = 19,        // u64 id
  kStatsReply = 20,  // u64 id | str text
};

/// kAck body discriminator.
enum class AckStatus : std::uint8_t {
  kApplied = 0,  // offer placed; seq/bin/shard are meaningful
  kSkipped = 1,  // resume dedup: id at or below the tenant's high-water mark
  kAdvance = 2,  // advance accepted (seq/bin zero)
  kDepart = 3,   // departure noted (advisory in the clairvoyant model)
  kHello = 4,    // handshake done; `shard` tells the client its tenant shard
};

/// kError codes. "closes" means the server drops the connection after
/// writing the frame; everything else leaves it usable.
enum class ErrCode : std::uint16_t {
  kBadFrame = 1,      // CRC mismatch / truncated / malformed body (closes)
  kBadMagic = 2,      // first bytes were not CDBPNET1 (closes)
  kNoHello = 3,       // request before handshake (closes)
  kBadTenant = 4,     // empty, oversized, or outside [A-Za-z0-9_.-] (closes)
  kQuota = 5,         // token bucket empty — retry later
  kBackpressure = 6,  // shard queue full under kReject
  kDegraded = 7,      // tenant's shard is degraded
  kInvalid = 8,       // offer rejected by the session (bad interval)
  kTimeOrder = 9,     // arrival below the connection's advance clock, or
                      // id not increasing
  kUnknownId = 10,    // depart for an id never offered
  kTooLarge = 11,     // frame payload above kMaxFrameBytes (closes)
  kShutdown = 12,     // server draining — offer not accepted
  kDropped = 13,      // accepted but lost to shard degradation mid-flight
  kDuplicate = 14,    // id already in flight for this tenant
};

/// True for codes the server hangs up after.
[[nodiscard]] constexpr bool err_closes(ErrCode c) noexcept {
  switch (c) {
    case ErrCode::kBadFrame:
    case ErrCode::kBadMagic:
    case ErrCode::kNoHello:
    case ErrCode::kBadTenant:
    case ErrCode::kTooLarge:
      return true;
    default:
      return false;
  }
}

[[nodiscard]] const char* err_name(ErrCode c) noexcept;

// ---------------------------------------------------------------------------
// Decoded messages. One struct per direction keeps the listener's dispatch
// a single switch; unused fields are zero.

struct Request {
  MsgType type = MsgType::kPing;
  std::uint64_t id = 0;
  std::string tenant;      // kHello
  double arrival = 0.0;    // kOffer
  double departure = 0.0;  // kOffer
  double size = 0.0;       // kOffer
  double time = 0.0;       // kDepart / kAdvance
};

struct Response {
  MsgType type = MsgType::kPong;
  std::uint64_t id = 0;
  AckStatus ack = AckStatus::kApplied;  // kAck
  std::uint64_t seq = 0;                // kAck
  std::int64_t bin = -1;                // kAck
  std::uint64_t shard = 0;              // kAck
  ErrCode code = ErrCode::kBadFrame;    // kError
  std::string text;                     // kError msg / kStatsReply body
};

// ---------------------------------------------------------------------------
// Encoding. Appends one complete frame (header + payload) to `out`.

void encode_request(const Request& req, std::string& out);
void encode_response(const Response& resp, std::string& out);

// ---------------------------------------------------------------------------
// Incremental decoding: the core/frame.h decoder with the kMaxFrameBytes cap.
// A bad frame poisons it (kBad, typed error_code()); the caller must close.

using DecodeStatus = FrameStatus;

class FrameDecoder : public cdbp::FrameDecoder {
 public:
  FrameDecoder() : cdbp::FrameDecoder(kMaxFrameBytes) {}

  using cdbp::FrameDecoder::next;
  /// next() copying the payload (type byte + body) out; parse_request /
  /// parse_response parse it.
  DecodeStatus next(std::string& payload) {
    std::string_view view;
    const DecodeStatus st = next(view);
    if (st == DecodeStatus::kFrame) payload.assign(view);
    return st;
  }
};

/// Parses a decoded payload into a Request/Response. Returns nullopt (with
/// `why` set) on any malformation: unknown type, truncated body, trailing
/// bytes, non-finite floats.
[[nodiscard]] std::optional<Request> parse_request(std::string_view payload,
                                                   std::string& why);
[[nodiscard]] std::optional<Response> parse_response(std::string_view payload,
                                                     std::string& why);

}  // namespace cdbp::net
