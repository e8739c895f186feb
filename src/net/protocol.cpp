#include "net/protocol.h"

#include <cmath>

namespace cdbp::net {

const char* err_name(ErrCode c) noexcept {
  switch (c) {
    case ErrCode::kBadFrame:
      return "bad-frame";
    case ErrCode::kBadMagic:
      return "bad-magic";
    case ErrCode::kNoHello:
      return "no-hello";
    case ErrCode::kBadTenant:
      return "bad-tenant";
    case ErrCode::kQuota:
      return "quota";
    case ErrCode::kBackpressure:
      return "backpressure";
    case ErrCode::kDegraded:
      return "degraded";
    case ErrCode::kInvalid:
      return "invalid";
    case ErrCode::kTimeOrder:
      return "time-order";
    case ErrCode::kUnknownId:
      return "unknown-id";
    case ErrCode::kTooLarge:
      return "too-large";
    case ErrCode::kShutdown:
      return "shutdown";
    case ErrCode::kDropped:
      return "dropped";
    case ErrCode::kDuplicate:
      return "duplicate";
  }
  return "unknown";
}

void encode_request(const Request& req, std::string& out) {
  StateWriter w;
  w.u8(static_cast<std::uint8_t>(req.type));
  switch (req.type) {
    case MsgType::kHello:
      w.str(req.tenant);
      break;
    case MsgType::kOffer:
      w.u64(req.id);
      w.f64(req.arrival);
      w.f64(req.departure);
      w.f64(req.size);
      break;
    case MsgType::kDepart:
    case MsgType::kAdvance:
      w.u64(req.id);
      w.f64(req.time);
      break;
    case MsgType::kStats:
    case MsgType::kPing:
      w.u64(req.id);
      break;
    default:
      w.u64(req.id);  // forward-compat: unknown request types carry an id
      break;
  }
  append_frame(out, w.buffer());
}

void encode_response(const Response& resp, std::string& out) {
  StateWriter w;
  w.u8(static_cast<std::uint8_t>(resp.type));
  switch (resp.type) {
    case MsgType::kAck:
      w.u64(resp.id);
      w.u8(static_cast<std::uint8_t>(resp.ack));
      w.u64(resp.seq);
      w.i64(resp.bin);
      w.u64(resp.shard);
      break;
    case MsgType::kError:
      w.u64(resp.id);
      w.u32(static_cast<std::uint32_t>(resp.code));
      w.str(resp.text);
      break;
    case MsgType::kPong:
      w.u64(resp.id);
      break;
    case MsgType::kStatsReply:
      w.u64(resp.id);
      w.str(resp.text);
      break;
    default:
      w.u64(resp.id);
      break;
  }
  append_frame(out, w.buffer());
}

// ---------------------------------------------------------------------------
// Payload parsing

namespace {

bool finite(double v) noexcept { return std::isfinite(v); }

}  // namespace

std::optional<Request> parse_request(std::string_view payload,
                                     std::string& why) {
  try {
    StateReader r(payload);
    Request req;
    req.type = static_cast<MsgType>(r.u8());
    switch (req.type) {
      case MsgType::kHello:
        req.tenant = r.str();
        break;
      case MsgType::kOffer:
        req.id = r.u64();
        req.arrival = r.f64();
        req.departure = r.f64();
        req.size = r.f64();
        if (!finite(req.arrival) || !finite(req.departure) ||
            !finite(req.size)) {
          why = "non-finite offer field";
          return std::nullopt;
        }
        break;
      case MsgType::kDepart:
      case MsgType::kAdvance:
        req.id = r.u64();
        req.time = r.f64();
        if (!finite(req.time)) {
          why = "non-finite time";
          return std::nullopt;
        }
        break;
      case MsgType::kStats:
      case MsgType::kPing:
        req.id = r.u64();
        break;
      default:
        why = "unknown request type " +
              std::to_string(static_cast<unsigned>(req.type));
        return std::nullopt;
    }
    if (!r.at_end()) {
      why = "trailing bytes after request body";
      return std::nullopt;
    }
    return req;
  } catch (const std::exception&) {
    why = "truncated request body";
    return std::nullopt;
  }
}

std::optional<Response> parse_response(std::string_view payload,
                                       std::string& why) {
  try {
    StateReader r(payload);
    Response resp;
    resp.type = static_cast<MsgType>(r.u8());
    switch (resp.type) {
      case MsgType::kAck:
        resp.id = r.u64();
        resp.ack = static_cast<AckStatus>(r.u8());
        resp.seq = r.u64();
        resp.bin = r.i64();
        resp.shard = r.u64();
        break;
      case MsgType::kError:
        resp.id = r.u64();
        resp.code = static_cast<ErrCode>(r.u32());
        resp.text = r.str();
        break;
      case MsgType::kPong:
        resp.id = r.u64();
        break;
      case MsgType::kStatsReply:
        resp.id = r.u64();
        resp.text = r.str();
        break;
      default:
        why = "unknown response type " +
              std::to_string(static_cast<unsigned>(resp.type));
        return std::nullopt;
    }
    if (!r.at_end()) {
      why = "trailing bytes after response body";
      return std::nullopt;
    }
    return resp;
  } catch (const std::exception&) {
    why = "truncated response body";
    return std::nullopt;
  }
}

}  // namespace cdbp::net
