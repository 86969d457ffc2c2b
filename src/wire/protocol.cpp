#include "wire/protocol.h"

#include <cstring>

#include "support/checksum.h"
#include "support/varint.h"
#include "wire/payload.h"

namespace mobivine::wire {

namespace {

using support::GetVarint;
using support::PutVarint;
using support::VarintStatus;

/// Property value tags. The four descriptor-declared scalar lanes; a
/// request carrying any other tag is malformed (native handles — the
/// std::any lane — deliberately have no wire form).
enum class ValueTag : std::uint8_t {
  kString = 0,
  kInt = 1,
  kDouble = 2,
  kBool = 3,
};

void PutFixed32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void PutFixed64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

}  // namespace

/// Wrap an encoded payload in the frame header + CRC trailer. The payload
/// was appended to `out` starting at `payload_start` by the caller; this
/// retrofits the header in front (single memmove on the tail). The header
/// builds on the stack: this runs once per frame and must not allocate.
void FinishFrame(std::vector<std::uint8_t>& out, std::size_t frame_start,
                 FrameType type) {
  const std::size_t payload_size = out.size() - frame_start;
  std::uint8_t header[4 + support::kMaxVarintBytes];
  header[0] = kMagic0;
  header[1] = kMagic1;
  header[2] = kWireVersion;
  header[3] = static_cast<std::uint8_t>(type);
  const std::size_t header_len = 4 + PutVarint(header + 4, payload_size);
  const std::uint32_t crc =
      support::Crc32(out.data() + frame_start, payload_size);
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(frame_start), header,
             header + header_len);
  PutFixed32(out, crc);
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

void EncodeRequest(const WireRequest& request,
                   std::vector<std::uint8_t>& out) {
  EncodeRequest(request, request.request_id, out);
}

void EncodeRequest(const WireRequest& request, std::uint64_t request_id,
                   std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  PutVarint(out, request_id);
  PutVarint(out, request.client_id);
  out.push_back(static_cast<std::uint8_t>(request.platform));
  out.push_back(static_cast<std::uint8_t>(request.op));
  PutVarint(out, request.timeout_micros);
  PutVarint(out, request.max_attempts);
  PutString(out, request.target);
  PutString(out, request.payload);
  PutString(out, request.content_type);
  PutVarint(out, request.properties.size());
  for (const auto& [name, value] : request.properties) {
    PutString(out, name);
    if (const std::string* s = value.AsString()) {
      out.push_back(static_cast<std::uint8_t>(ValueTag::kString));
      PutString(out, *s);
    } else if (const long long* i = value.AsInt()) {
      out.push_back(static_cast<std::uint8_t>(ValueTag::kInt));
      PutVarint(out, support::ZigzagEncode(*i));
    } else if (const double* d = std::get_if<double>(&value.stored())) {
      out.push_back(static_cast<std::uint8_t>(ValueTag::kDouble));
      std::uint64_t bits = 0;
      static_assert(sizeof bits == sizeof *d);
      std::memcpy(&bits, d, sizeof bits);
      PutFixed64(out, bits);
    } else if (const bool* b = std::get_if<bool>(&value.stored())) {
      out.push_back(static_cast<std::uint8_t>(ValueTag::kBool));
      out.push_back(*b ? 1 : 0);
    } else {
      // Native-handle (std::any) properties have no wire form; encode a
      // false bool so the frame stays well-formed — the server-side
      // descriptor validation will reject it if the name is scalar-typed.
      out.push_back(static_cast<std::uint8_t>(ValueTag::kBool));
      out.push_back(0);
    }
  }
  FinishFrame(out, frame_start, FrameType::kRequest);
}

void EncodeResponse(const WireResponse& response,
                    std::vector<std::uint8_t>& out) {
  EncodeResponse(response, response.body, out);
}

void EncodeResponse(const WireResponse& response, std::string_view body,
                    std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  PutVarint(out, response.request_id);
  out.push_back(static_cast<std::uint8_t>(response.status));
  out.push_back(static_cast<std::uint8_t>(response.served_platform));
  PutVarint(out, response.attempts);
  PutVarint(out, response.latency_micros);
  PutString(out, body);
  FinishFrame(out, frame_start, FrameType::kResponse);
}

void EncodeScript(const WireScriptRequest& script,
                  std::vector<std::uint8_t>& out) {
  EncodeScript(script, script.request_id, out);
}

void EncodeScript(const WireScriptRequest& script, std::uint64_t request_id,
                  std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  PutVarint(out, request_id);
  PutVarint(out, script.client_id);
  PutVarint(out, script.timeout_micros);
  PutVarint(out, script.step_budget);
  PutVarint(out, script.virtual_us_budget);
  PutVarint(out, script.max_result_bytes);
  PutString(out, script.source);
  PutVarint(out, script.args.size());
  for (const auto& [name, value] : script.args) {
    PutString(out, name);
    PutString(out, value);
  }
  FinishFrame(out, frame_start, FrameType::kScript);
}

void EncodeSubscribe(const WireSubscribe& subscribe,
                     std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  PutVarint(out, subscribe.request_id);
  PutVarint(out, subscribe.client_id);
  out.push_back(static_cast<std::uint8_t>(subscribe.topic));
  out.push_back(static_cast<std::uint8_t>(subscribe.mode));
  PutVarint(out, subscribe.cursor);
  FinishFrame(out, frame_start, FrameType::kSubscribe);
}

void EncodeUnsubscribe(const WireUnsubscribe& unsubscribe,
                       std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  PutVarint(out, unsubscribe.request_id);
  PutVarint(out, unsubscribe.subscription_id);
  FinishFrame(out, frame_start, FrameType::kUnsubscribe);
}

void EncodeSubscribeAck(const WireSubscribeAck& ack,
                        std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  PutVarint(out, ack.request_id);
  out.push_back(static_cast<std::uint8_t>(ack.status));
  PutVarint(out, ack.subscription_id);
  PutVarint(out, ack.start_cursor);
  FinishFrame(out, frame_start, FrameType::kSubscribeAck);
}

void EncodeEvent(const WireEvent& event, std::vector<std::uint8_t>& out) {
  EncodeEvent(event, event.body, out);
}

void EncodeEvent(const WireEvent& event, std::string_view body,
                 std::vector<std::uint8_t>& out) {
  const std::size_t frame_start = out.size();
  PutVarint(out, event.subscription_id);
  out.push_back(static_cast<std::uint8_t>(event.kind));
  out.push_back(static_cast<std::uint8_t>(event.topic));
  PutVarint(out, event.cursor);
  PutVarint(out, event.aux);
  PutString(out, body);
  FinishFrame(out, frame_start, FrameType::kEvent);
}

BodyStatus DecodeScript(const std::uint8_t* payload, std::size_t size,
                        WireScriptRequest* script, std::string* error) {
  PayloadReader reader(payload, size);
  if (!reader.Varint(&script->request_id, "request_id")) {
    return reader.Report(BodyStatus::kBadId, error);
  }
  std::string_view source;
  std::uint64_t arg_count = 0;
  if (!reader.Varint(&script->client_id, "client_id") ||
      !reader.Varint(&script->timeout_micros, "timeout") ||
      !reader.Varint(&script->step_budget, "step_budget") ||
      !reader.Varint(&script->virtual_us_budget, "virtual_us_budget") ||
      !reader.Varint(&script->max_result_bytes, "max_result_bytes") ||
      !reader.String(&source, "source") ||
      (source.empty() && !reader.Fail("source", "empty")) ||
      !reader.Varint(&arg_count, "arg_count") ||
      (arg_count > kMaxProperties && !reader.Fail("arg_count", "over cap"))) {
    return reader.Report(BodyStatus::kBadBody, error);
  }
  script->source.assign(source.data(), source.size());
  script->args.clear();
  script->args.reserve(static_cast<std::size_t>(arg_count));
  for (std::uint64_t i = 0; i < arg_count; ++i) {
    std::string_view name;
    std::string_view value;
    if (!reader.String(&name, "arg name") ||
        !reader.String(&value, "arg value")) {
      return reader.Report(BodyStatus::kBadBody, error);
    }
    script->args.emplace_back(std::string(name), std::string(value));
  }
  if (!reader.End("script body")) {
    return reader.Report(BodyStatus::kBadBody, error);
  }
  return BodyStatus::kOk;
}

BodyStatus DecodeSubscribe(const std::uint8_t* payload, std::size_t size,
                           WireSubscribe* subscribe, std::string* error) {
  PayloadReader reader(payload, size);
  if (!reader.Varint(&subscribe->request_id, "request_id")) {
    return reader.Report(BodyStatus::kBadId, error);
  }
  std::uint8_t topic = 0;
  std::uint8_t mode = 0;
  if (!reader.Varint(&subscribe->client_id, "client_id") ||
      !reader.Byte(&topic, "topic") || !reader.Byte(&mode, "mode") ||
      (!IsKnownPushTopic(topic) && !reader.Fail("topic", "unknown code")) ||
      (mode > static_cast<std::uint8_t>(SubscribeMode::kDrainOnce) &&
       !reader.Fail("mode", "unknown code"))) {
    return reader.Report(BodyStatus::kBadBody, error);
  }
  subscribe->topic = static_cast<PushTopic>(topic);
  subscribe->mode = static_cast<SubscribeMode>(mode);
  if (!reader.Varint(&subscribe->cursor, "cursor") ||
      !reader.End("subscribe body")) {
    return reader.Report(BodyStatus::kBadBody, error);
  }
  return BodyStatus::kOk;
}

BodyStatus DecodeUnsubscribe(const std::uint8_t* payload, std::size_t size,
                             WireUnsubscribe* unsubscribe,
                             std::string* error) {
  PayloadReader reader(payload, size);
  if (!reader.Varint(&unsubscribe->request_id, "request_id")) {
    return reader.Report(BodyStatus::kBadId, error);
  }
  if (!reader.Varint(&unsubscribe->subscription_id, "subscription_id") ||
      !reader.End("unsubscribe body")) {
    return reader.Report(BodyStatus::kBadBody, error);
  }
  return BodyStatus::kOk;
}

bool DecodeSubscribeAck(const std::uint8_t* payload, std::size_t size,
                        WireSubscribeAck* ack, std::string* error) {
  PayloadReader reader(payload, size);
  std::uint8_t status = 0;
  if (!reader.Varint(&ack->request_id, "request_id") ||
      !reader.Byte(&status, "status") ||
      !reader.Varint(&ack->subscription_id, "subscription_id") ||
      !reader.Varint(&ack->start_cursor, "start_cursor") ||
      !reader.End("ack body")) {
    return reader.Report(false, error);
  }
  ack->status = static_cast<WireStatus>(status);
  return true;
}

bool DecodeEvent(const std::uint8_t* payload, std::size_t size,
                 WireEvent* event, std::string* error) {
  PayloadReader reader(payload, size);
  std::uint8_t kind = 0;
  std::uint8_t topic = 0;
  std::string_view body;
  if (!reader.Varint(&event->subscription_id, "subscription_id") ||
      !reader.Byte(&kind, "kind") || !reader.Byte(&topic, "topic") ||
      !reader.Varint(&event->cursor, "cursor") ||
      !reader.Varint(&event->aux, "aux") || !reader.String(&body, "body") ||
      !reader.End("event body") ||
      (kind > static_cast<std::uint8_t>(EventKind::kEndOfDrain) &&
       !reader.Fail("kind", "unknown code")) ||
      (!IsKnownPushTopic(topic) && !reader.Fail("topic", "unknown code"))) {
    return reader.Report(false, error);
  }
  event->kind = static_cast<EventKind>(kind);
  event->topic = static_cast<PushTopic>(topic);
  event->body.assign(body.data(), body.size());
  return true;
}

DecodeStatus DecodeFrame(const std::uint8_t* data, std::size_t size,
                         FrameView* frame, std::size_t* consumed,
                         std::string* error) {
  if (size < 4) return DecodeStatus::kNeedMore;
  if (data[0] != kMagic0 || data[1] != kMagic1) {
    if (error != nullptr) *error = "bad magic";
    return DecodeStatus::kMalformed;
  }
  if (data[2] != kWireVersion) {
    if (error != nullptr) *error = "unsupported version";
    return DecodeStatus::kMalformed;
  }
  // The type byte is NOT validated here: an unknown-but-well-framed type
  // must survive decoding so the receiver can answer kUnsupportedFrame
  // in-band instead of killing the connection (mixed-version fleets).
  const std::uint8_t type = data[3];
  std::uint64_t payload_size = 0;
  std::size_t len_bytes = 0;
  switch (GetVarint(data + 4, size - 4, &payload_size, &len_bytes)) {
    case VarintStatus::kTruncated:
      return DecodeStatus::kNeedMore;
    case VarintStatus::kMalformed:
      if (error != nullptr) *error = "malformed length varint";
      return DecodeStatus::kMalformed;
    case VarintStatus::kOk:
      break;
  }
  // Cap check BEFORE waiting for (or allocating) the declared bytes: an
  // absurd length must kill the connection now, not stall it.
  if (payload_size > kMaxFramePayload) {
    if (error != nullptr) *error = "payload length over cap";
    return DecodeStatus::kMalformed;
  }
  const std::size_t header = 4 + len_bytes;
  const std::size_t total =
      header + static_cast<std::size_t>(payload_size) + 4;  // + CRC
  if (size < total) return DecodeStatus::kNeedMore;
  const std::uint8_t* payload = data + header;
  const std::uint8_t* trailer = payload + payload_size;
  const std::uint32_t stated =
      static_cast<std::uint32_t>(trailer[0]) |
      (static_cast<std::uint32_t>(trailer[1]) << 8) |
      (static_cast<std::uint32_t>(trailer[2]) << 16) |
      (static_cast<std::uint32_t>(trailer[3]) << 24);
  const std::uint32_t actual =
      support::Crc32(payload, static_cast<std::size_t>(payload_size));
  if (stated != actual) {
    if (error != nullptr) *error = "payload crc mismatch";
    return DecodeStatus::kMalformed;
  }
  frame->type = static_cast<FrameType>(type);
  frame->payload = payload;
  frame->payload_size = static_cast<std::size_t>(payload_size);
  *consumed = total;
  return DecodeStatus::kOk;
}

BodyStatus DecodeRequestView(const std::uint8_t* payload, std::size_t size,
                             WireRequestView* view, std::string* error) {
  view->properties.clear();  // reusable scratch: capacity is retained
  PayloadReader reader(payload, size);
  if (!reader.Varint(&view->request_id, "request_id")) {
    return reader.Report(BodyStatus::kBadId, error);
  }
  const auto bad_body = [&] {
    return reader.Report(BodyStatus::kBadBody, error);
  };
  std::uint8_t platform = 0;
  std::uint8_t op = 0;
  std::uint64_t max_attempts = 0;
  std::uint64_t property_count = 0;
  if (!reader.Varint(&view->client_id, "client_id") ||
      !reader.Byte(&platform, "platform") || !reader.Byte(&op, "op") ||
      (platform >= gateway::kPlatformCount &&
       !reader.Fail("platform", "unknown code")) ||
      (op >= gateway::kOpCount && !reader.Fail("op", "unknown code")) ||
      !reader.Varint(&view->timeout_micros, "timeout") ||
      !reader.Varint(&max_attempts, "max_attempts") ||
      (max_attempts > 1000 && !reader.Fail("max_attempts", "over cap")) ||
      !reader.String(&view->target, "target") ||
      !reader.String(&view->payload, "payload") ||
      !reader.String(&view->content_type, "content_type") ||
      !reader.Varint(&property_count, "property_count") ||
      (property_count > kMaxProperties &&
       !reader.Fail("property_count", "over cap"))) {
    return bad_body();
  }
  view->platform = static_cast<gateway::Platform>(platform);
  view->op = static_cast<gateway::Op>(op);
  view->max_attempts = static_cast<std::uint32_t>(max_attempts);
  view->properties.reserve(static_cast<std::size_t>(property_count));
  for (std::uint64_t i = 0; i < property_count; ++i) {
    gateway::BorrowedProperty property;
    std::uint8_t tag = 0;
    if (!reader.String(&property.name, "property name") ||
        !reader.Byte(&tag, "property tag")) {
      return bad_body();
    }
    switch (static_cast<ValueTag>(tag)) {
      case ValueTag::kString: {
        std::string_view value;
        if (!reader.String(&value, "property string")) return bad_body();
        property.value = value;
        break;
      }
      case ValueTag::kInt: {
        std::uint64_t zz = 0;
        if (!reader.Varint(&zz, "property int")) return bad_body();
        property.value = static_cast<long long>(support::ZigzagDecode(zz));
        break;
      }
      case ValueTag::kDouble: {
        std::uint64_t bits = 0;
        if (!reader.Fixed64(&bits, "property double")) return bad_body();
        double value = 0;
        std::memcpy(&value, &bits, sizeof value);
        property.value = value;
        break;
      }
      case ValueTag::kBool: {
        std::uint8_t value = 0;
        if (!reader.Byte(&value, "property bool")) return bad_body();
        property.value = (value != 0);
        break;
      }
      default:
        reader.Fail("property tag", "unknown");
        return bad_body();
    }
    view->properties.push_back(property);
  }
  if (!reader.End("request body")) return bad_body();
  return BodyStatus::kOk;
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
  request->target.assign(view.target.data(), view.target.size());
  request->payload.assign(view.payload.data(), view.payload.size());
  request->content_type.assign(view.content_type.data(),
                               view.content_type.size());
  request->properties.clear();
  request->properties.reserve(view.properties.size());
  for (const gateway::BorrowedProperty& property : view.properties) {
    request->properties.push_back(gateway::ToOwned(property));
  }
  return BodyStatus::kOk;
}

bool DecodeResponse(const std::uint8_t* payload, std::size_t size,
                    WireResponse* response, std::string* error) {
  PayloadReader reader(payload, size);
  std::uint8_t status = 0;
  std::uint8_t served = 0;
  std::uint64_t attempts = 0;
  std::string_view body;
  if (!reader.Varint(&response->request_id, "request_id") ||
      !reader.Byte(&status, "status") ||
      !reader.Byte(&served, "served_platform") ||
      !reader.Varint(&attempts, "attempts") ||
      !reader.Varint(&response->latency_micros, "latency") ||
      !reader.String(&body, "body") || !reader.End("response body") ||
      (served >= gateway::kPlatformCount &&
       !reader.Fail("served_platform", "unknown code"))) {
    return reader.Report(false, error);
  }
  response->status = static_cast<WireStatus>(status);
  response->served_platform = static_cast<gateway::Platform>(served);
  response->attempts = static_cast<std::uint32_t>(attempts);
  response->body.assign(body.data(), body.size());
  return true;
}

bool PeekPayloadId(const std::uint8_t* payload, std::size_t size,
                   std::uint64_t* id) {
  std::size_t consumed = 0;
  return GetVarint(payload, size, id, &consumed) == VarintStatus::kOk;
}

}  // namespace mobivine::wire
