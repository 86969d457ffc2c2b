#include "wire/protocol.h"

#include <any>

#include "support/checksum.h"
#include "support/varint.h"
#include "wire/payload.h"

namespace mobivine::wire {

namespace {

using support::GetVarint;
using support::VarintStatus;

/// A request's retry-round cap; more is a malformed body.
constexpr std::uint64_t kMaxAttempts = 1000;

bool IsKnown(gateway::Platform platform) {
  return static_cast<std::size_t>(platform) < gateway::kPlatformCount;
}

// The payload layouts: each kind's field order, checks and error labels.

/// One request property: string name, then u8 tag = the index of its lane
/// in BorrowedProperty's variant (string, int, double, bool), then the
/// value. Any other tag is malformed.
template <typename IO>
bool PropertyLayout(IO& io, gateway::BorrowedProperty& property) {
  auto& value = property.value;
  auto tag = static_cast<std::uint8_t>(value.index());
  if (!io.String(property.name, "property name") ||
      !io.Byte(tag, "property tag")) {
    return false;
  }
  switch (tag) {
    case 0:
      return io.String(io.template Lane<0>(value), "property string");
    case 1:
      return io.Zigzag(io.template Lane<1>(value), "property int");
    case 2:
      return io.Double(io.template Lane<2>(value), "property double");
    case 3:
      return io.Byte(io.template Lane<3>(value), "property bool");
  }
  return io.Check(false, "property tag", "unknown");
}

/// The writer's side of an owning property: borrowed, then laid out. A
/// native handle (std::any) has no wire form and travels as a false bool,
/// which descriptor validation rejects if the name is scalar-typed.
bool PropertyLayout(PayloadWriter& io,
                    const std::pair<std::string, core::PropertyValue>& owned) {
  gateway::BorrowedProperty property{owned.first, false};
  std::visit(
      [&](const auto& value) {
        if constexpr (!std::is_same_v<std::decay_t<decltype(value)>,
                                      std::any>) {
          property.value = value;  // a std::string lands as its view
        }
      },
      owned.second.stored());
  return PropertyLayout(io, property);
}

constexpr auto RequestLayout = [](auto& io, auto& request_id, auto& r) {
  return io.Id(request_id, "request_id") &&
         io.Varint(r.client_id, "client_id") &&
         io.Byte(r.platform, "platform") && io.Byte(r.op, "op") &&
         io.Check(IsKnown(r.platform), "platform", "unknown code") &&
         io.Check(gateway::FindOp(r.op) != nullptr, "op", "unknown code") &&
         io.Varint(r.timeout_micros, "timeout") &&
         io.Varint(r.max_attempts, "max_attempts", kMaxAttempts) &&
         io.String(r.target, "target") && io.String(r.payload, "payload") &&
         io.String(r.content_type, "content_type") &&
         io.Seq(r.properties, kMaxProperties, "property_count", nullptr,
                [&](auto& property) { return PropertyLayout(io, property); }) &&
         io.End("request body");
};

constexpr auto ResponseLayout = [](auto& io, auto& r, auto& body) {
  return io.Varint(r.request_id, "request_id") &&
         io.Byte(r.status, "status") &&
         io.Byte(r.served_platform, "served_platform") &&
         io.Varint(r.attempts, "attempts") &&
         io.Varint(r.latency_micros, "latency") && io.String(body, "body") &&
         io.End("response body") &&
         io.Check(IsKnown(r.served_platform), "served_platform",
                  "unknown code");
};

constexpr auto ScriptLayout = [](auto& io, auto& request_id, auto& s) {
  return io.Id(request_id, "request_id") &&
         io.Varint(s.client_id, "client_id") &&
         io.Varint(s.timeout_micros, "timeout") &&
         io.Varint(s.step_budget, "step_budget") &&
         io.Varint(s.virtual_us_budget, "virtual_us_budget") &&
         io.Varint(s.max_result_bytes, "max_result_bytes") &&
         io.String(s.source, "source") &&
         io.Check(!s.source.empty(), "source", "empty") &&
         io.Seq(s.args, kMaxProperties, "arg_count", nullptr,
                [&](auto& arg) {
                  return io.String(arg.first, "arg name") &&
                         io.String(arg.second, "arg value");
                }) &&
         io.End("script body");
};

constexpr auto SubscribeLayout = [](auto& io, auto& s) {
  return io.Id(s.request_id, "request_id") &&
         io.Varint(s.client_id, "client_id") && io.Byte(s.topic, "topic") &&
         io.Byte(s.mode, "mode") &&
         io.Check(IsKnown(s.topic), "topic", "unknown code") &&
         io.Check(IsKnown(s.mode), "mode", "unknown code") &&
         io.Varint(s.cursor, "cursor") && io.End("subscribe body");
};

constexpr auto UnsubscribeLayout = [](auto& io, auto& u) {
  return io.Id(u.request_id, "request_id") &&
         io.Varint(u.subscription_id, "subscription_id") &&
         io.End("unsubscribe body");
};

constexpr auto SubscribeAckLayout = [](auto& io, auto& a) {
  return io.Varint(a.request_id, "request_id") &&
         io.Byte(a.status, "status") &&
         io.Varint(a.subscription_id, "subscription_id") &&
         io.Varint(a.start_cursor, "start_cursor") && io.End("ack body");
};

constexpr auto EventLayout = [](auto& io, auto& e) {
  return io.Varint(e.subscription_id, "subscription_id") &&
         io.Byte(e.kind, "kind") && io.Byte(e.topic, "topic") &&
         io.Varint(e.cursor, "cursor") && io.Varint(e.aux, "aux") &&
         io.String(e.body, "body") && io.End("event body") &&
         io.Check(IsKnown(e.kind), "kind", "unknown code") &&
         io.Check(IsKnown(e.topic), "topic", "unknown code");
};

}  // namespace

/// Retrofits the header in front of the payload (one memmove of the
/// tail). The header builds on the stack: this runs once per frame and
/// must not allocate.
bool FinishFrame(std::vector<std::uint8_t>& out, std::size_t frame_start,
                 FrameType type) {
  const std::size_t payload_size = out.size() - frame_start;
  std::uint8_t header[4 + support::kMaxVarintBytes] = {
      kMagic0, kMagic1, kWireVersion, static_cast<std::uint8_t>(type)};
  const std::size_t header_len =
      4 + support::PutVarint(header + 4, payload_size);
  const std::uint32_t crc =
      support::Crc32(out.data() + frame_start, payload_size);
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(frame_start), header,
             header + header_len);
  for (int i = 0; i < 32; i += 8) out.push_back(std::uint8_t(crc >> i));
  return payload_size <= kMaxFramePayload;
}

const char* ToString(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return "ok";
    case WireStatus::kMalformedRequest:
      return "malformed-request";
    case WireStatus::kTransportError:
      return "transport-error";
    case WireStatus::kWrongWorker:
      return "wrong-worker";
    case WireStatus::kUnsupportedFrame:
      return "unsupported-frame";
    case WireStatus::kScriptError:
      return "script-error";
    default:
      return core::ToString(ToErrorCode(status));
  }
}

WireStatus FromErrorCode(core::ErrorCode code) {
  switch (code) {
#define MOBIVINE_X(code, name, wire, doc) \
  case core::ErrorCode::code:             \
    return WireStatus::code;
    MOBIVINE_ERROR_CODES(MOBIVINE_X)
#undef MOBIVINE_X
  }
  return WireStatus::kUnknown;
}

core::ErrorCode ToErrorCode(WireStatus status) {
  switch (status) {
#define MOBIVINE_X(code, name, wire, doc) \
  case WireStatus::code:                  \
    return core::ErrorCode::code;
    MOBIVINE_ERROR_CODES(MOBIVINE_X)
#undef MOBIVINE_X
    default:
      return core::ErrorCode::kUnknown;
  }
}

bool EncodeRequest(const WireRequest& request,
                   std::vector<std::uint8_t>& out) {
  return EncodeRequest(request, request.request_id, out);
}

bool EncodeRequest(const WireRequest& request, std::uint64_t request_id,
                   std::vector<std::uint8_t>& out) {
  return WriteFrame(out, FrameType::kRequest, RequestLayout, request_id,
                    request);
}

bool EncodeResponse(const WireResponse& response,
                    std::vector<std::uint8_t>& out) {
  return EncodeResponse(response, response.body, out);
}

bool EncodeResponse(const WireResponse& response, std::string_view body,
                    std::vector<std::uint8_t>& out) {
  return WriteFrame(out, FrameType::kResponse, ResponseLayout, response, body);
}

bool EncodeScript(const WireScriptRequest& script,
                  std::vector<std::uint8_t>& out) {
  return EncodeScript(script, script.request_id, out);
}

bool EncodeScript(const WireScriptRequest& script, std::uint64_t request_id,
                  std::vector<std::uint8_t>& out) {
  return WriteFrame(out, FrameType::kScript, ScriptLayout, request_id, script);
}

bool EncodeSubscribe(const WireSubscribe& subscribe,
                     std::vector<std::uint8_t>& out) {
  return WriteFrame(out, FrameType::kSubscribe, SubscribeLayout, subscribe);
}

bool EncodeUnsubscribe(const WireUnsubscribe& unsubscribe,
                       std::vector<std::uint8_t>& out) {
  return WriteFrame(out, FrameType::kUnsubscribe, UnsubscribeLayout,
                    unsubscribe);
}

bool EncodeSubscribeAck(const WireSubscribeAck& ack,
                        std::vector<std::uint8_t>& out) {
  return WriteFrame(out, FrameType::kSubscribeAck, SubscribeAckLayout, ack);
}

bool EncodeEvent(const WireEvent& event, std::vector<std::uint8_t>& out) {
  return WriteFrame(out, FrameType::kEvent, EventLayout, event);
}

DecodeStatus DecodeFrame(const std::uint8_t* data, std::size_t size,
                         FrameView* frame, std::size_t* consumed,
                         std::string* error) {
  const auto malformed = [error](const char* why) {
    if (error != nullptr) *error = why;
    return DecodeStatus::kMalformed;
  };
  if (size < 4) return DecodeStatus::kNeedMore;
  if (data[0] != kMagic0 || data[1] != kMagic1) return malformed("bad magic");
  if (data[2] != kWireVersion) return malformed("unsupported version");
  // The type byte is NOT validated here: an unknown-but-well-framed type
  // must survive decoding so the receiver can answer kUnsupportedFrame
  // in-band instead of killing the connection (mixed-version fleets).
  std::uint64_t payload_size = 0;
  std::size_t len_bytes = 0;
  switch (GetVarint(data + 4, size - 4, &payload_size, &len_bytes)) {
    case VarintStatus::kTruncated:
      return DecodeStatus::kNeedMore;
    case VarintStatus::kMalformed:
      return malformed("malformed length varint");
    case VarintStatus::kOk:
      break;
  }
  // Cap check BEFORE waiting for (or allocating) the declared bytes: an
  // absurd length must kill the connection now, not stall it.
  if (payload_size > kMaxFramePayload) {
    return malformed("payload length over cap");
  }
  const std::size_t header = 4 + len_bytes;
  const std::size_t total =
      header + static_cast<std::size_t>(payload_size) + 4;  // + CRC
  if (size < total) return DecodeStatus::kNeedMore;
  const std::uint8_t* payload = data + header;
  const std::uint8_t* trailer = payload + payload_size;
  std::uint32_t stated = 0;
  for (int i = 0; i < 4; ++i) stated |= std::uint32_t{trailer[i]} << (8 * i);
  const std::uint32_t actual =
      support::Crc32(payload, static_cast<std::size_t>(payload_size));
  if (stated != actual) return malformed("payload crc mismatch");
  frame->type = static_cast<FrameType>(data[3]);
  frame->payload = payload;
  frame->payload_size = static_cast<std::size_t>(payload_size);
  *consumed = total;
  return DecodeStatus::kOk;
}

BodyStatus DecodeRequestView(const std::uint8_t* payload, std::size_t size,
                             WireRequestView* view, std::string* error) {
  view->properties.clear();  // reusable scratch: capacity is retained
  return ReadPayload<BodyStatus>(payload, size, error, RequestLayout,
                                 view->request_id, *view);
}

BodyStatus DecodeRequest(const std::uint8_t* payload, std::size_t size,
                         WireRequest* request, std::string* error) {
  WireRequestView view;
  const BodyStatus status = DecodeRequestView(payload, size, &view, error);
  request->request_id = view.request_id;  // recovered even on kBadBody
  if (status != BodyStatus::kOk) return status;
  request->client_id = view.client_id;
  request->platform = view.platform;
  request->op = view.op;
  request->timeout_micros = view.timeout_micros;
  request->max_attempts = view.max_attempts;
  request->target = view.target;
  request->payload = view.payload;
  request->content_type = view.content_type;
  request->properties.clear();
  request->properties.reserve(view.properties.size());
  for (const gateway::BorrowedProperty& property : view.properties) {
    request->properties.push_back(gateway::ToOwned(property));
  }
  return BodyStatus::kOk;
}

BodyStatus DecodeScript(const std::uint8_t* payload, std::size_t size,
                        WireScriptRequest* script, std::string* error) {
  return ReadPayload<BodyStatus>(payload, size, error, ScriptLayout,
                                 script->request_id, *script);
}

bool DecodeResponse(const std::uint8_t* payload, std::size_t size,
                    WireResponse* response, std::string* error) {
  return ReadPayload<bool>(payload, size, error, ResponseLayout, *response,
                           response->body);
}

BodyStatus DecodeSubscribe(const std::uint8_t* payload, std::size_t size,
                           WireSubscribe* subscribe, std::string* error) {
  return ReadPayload<BodyStatus>(payload, size, error, SubscribeLayout,
                                 *subscribe);
}

BodyStatus DecodeUnsubscribe(const std::uint8_t* payload, std::size_t size,
                             WireUnsubscribe* unsubscribe,
                             std::string* error) {
  return ReadPayload<BodyStatus>(payload, size, error, UnsubscribeLayout,
                                 *unsubscribe);
}

bool DecodeSubscribeAck(const std::uint8_t* payload, std::size_t size,
                        WireSubscribeAck* ack, std::string* error) {
  return ReadPayload<bool>(payload, size, error, SubscribeAckLayout, *ack);
}

bool DecodeEvent(const std::uint8_t* payload, std::size_t size,
                 WireEvent* event, std::string* error) {
  return ReadPayload<bool>(payload, size, error, EventLayout, *event);
}

bool PeekPayloadId(const std::uint8_t* payload, std::size_t size,
                   std::uint64_t* id) {
  std::size_t consumed = 0;
  return GetVarint(payload, size, id, &consumed) == VarintStatus::kOk;
}

}  // namespace mobivine::wire
