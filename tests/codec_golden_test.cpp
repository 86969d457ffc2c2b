// The committed codec sweep: every payload decoder of the data plane, the
// cluster control decoder and the frame envelope decoder, fed a fixed
// corpus of valid frames and every truncation, single-bit flip and 1-3
// byte padding of each. Each input leaves one verdict line: its status,
// its error string, and the decoded fields (on success, plus the request
// id a kBadBody verdict recovers).
//
// Two golden files pin the codec:
//  * tests/golden/codec_frames.hex — every corpus frame as the encoders
//    write it, one hex line each: the byte layout of all nine payload
//    kinds and of the envelope.
//  * tests/golden/codec_sweep.digest — a line count and FNV-1a 64 digest
//    of the verdict lines per decoder: what every decoder accepts, what
//    it refuses and with which error string.
//
// The golden files are never regenerated by this test. When a verdict
// differs, the actual digest and verdict lines (or the actual frames) are
// written into the test build directory and the failure names them; diff
// the lines against the same sweep of a known good checkout before
// replacing a golden file by hand.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "cluster/control.h"
#include "support/seed.h"
#include "wire/protocol.h"

namespace mobivine {
namespace {

using wire::BodyStatus;
using wire::DecodeStatus;
using wire::FrameType;
using wire::FrameView;
using Bytes = std::vector<std::uint8_t>;

// ---------------------------------------------------------------------------
// Verdict formatting
// ---------------------------------------------------------------------------

/// One verdict line's field list: "name=value" pairs, strings quoted with
/// every byte outside printable ASCII (and the quote and backslash)
/// escaped, so the line stays one line.
class Fields {
 public:
  Fields& U(const char* name, std::uint64_t value) {
    out_ << ' ' << name << '=' << value;
    return *this;
  }
  Fields& S(const char* name, std::string_view value) {
    out_ << ' ' << name << "=\"";
    for (const char c : value) {
      const auto byte = static_cast<unsigned char>(c);
      if (byte < 0x20 || byte >= 0x7f || c == '"' || c == '\\') {
        char escaped[8];
        std::snprintf(escaped, sizeof escaped, "\\x%02x", byte);
        out_ << escaped;
      } else {
        out_ << c;
      }
    }
    out_ << '"';
    return *this;
  }
  Fields& D(const char* name, double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    char hex[24];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(bits));
    out_ << ' ' << name << "=d:" << hex;
    return *this;
  }
  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

const char* Name(BodyStatus status) {
  switch (status) {
    case BodyStatus::kOk:
      return "ok";
    case BodyStatus::kBadId:
      return "bad-id";
    case BodyStatus::kBadBody:
      return "bad-body";
  }
  return "?";
}

const char* Name(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kNeedMore:
      return "need-more";
    case DecodeStatus::kMalformed:
      return "malformed";
  }
  return "?";
}

template <typename T>
std::uint64_t Code(T value) {
  return static_cast<std::uint64_t>(value);
}

std::string Verdict(const char* status, const std::string& error,
                    const std::string& fields) {
  Fields quoted;
  quoted.S("error", error);
  return std::string(status) + quoted.str() + fields;
}

// One function per decoder: run it on `payload` and format its verdict.

std::string RequestFields(const wire::WireRequest& r) {
  Fields f;
  f.U("client_id", r.client_id)
      .U("platform", Code(r.platform))
      .U("op", Code(r.op))
      .U("timeout", r.timeout_micros)
      .U("max_attempts", r.max_attempts)
      .S("target", r.target)
      .S("payload", r.payload)
      .S("content_type", r.content_type)
      .U("properties", r.properties.size());
  for (const auto& [name, value] : r.properties) {
    f.S("name", name);
    const auto& stored = value.stored();
    if (const auto* s = std::get_if<std::string>(&stored)) {
      f.S("str", *s);
    } else if (const auto* i = std::get_if<long long>(&stored)) {
      f.U("int", static_cast<std::uint64_t>(*i));
    } else if (const auto* d = std::get_if<double>(&stored)) {
      f.D("dbl", *d);
    } else if (const auto* b = std::get_if<bool>(&stored)) {
      f.U("bool", *b ? 1 : 0);
    } else {
      f.S("other", "any");
    }
  }
  return f.str();
}

std::string SweepRequest(const std::uint8_t* p, std::size_t n) {
  wire::WireRequest r;
  std::string error;
  const BodyStatus status = wire::DecodeRequest(p, n, &r, &error);
  Fields id;
  if (status != BodyStatus::kBadId) id.U("request_id", r.request_id);
  return Verdict(Name(status), error,
                 id.str() + (status == BodyStatus::kOk ? RequestFields(r)
                                                        : std::string()));
}

std::string SweepRequestView(const std::uint8_t* p, std::size_t n) {
  wire::WireRequestView v;
  std::string error;
  const BodyStatus status = wire::DecodeRequestView(p, n, &v, &error);
  Fields f;
  if (status != BodyStatus::kBadId) f.U("request_id", v.request_id);
  if (status == BodyStatus::kOk) {
    f.U("client_id", v.client_id)
        .U("platform", Code(v.platform))
        .U("op", Code(v.op))
        .U("timeout", v.timeout_micros)
        .U("max_attempts", v.max_attempts)
        .S("target", v.target)
        .S("payload", v.payload)
        .S("content_type", v.content_type)
        .U("properties", v.properties.size());
    for (const gateway::BorrowedProperty& property : v.properties) {
      f.S("name", property.name);
      std::visit(
          [&](auto value) {
            using T = decltype(value);
            if constexpr (std::is_same_v<T, std::string_view>) {
              f.S("str", value);
            } else if constexpr (std::is_same_v<T, long long>) {
              f.U("int", static_cast<std::uint64_t>(value));
            } else if constexpr (std::is_same_v<T, double>) {
              f.D("dbl", value);
            } else {
              f.U("bool", value ? 1 : 0);
            }
          },
          property.value);
    }
  }
  return Verdict(Name(status), error, f.str());
}

std::string SweepScript(const std::uint8_t* p, std::size_t n) {
  wire::WireScriptRequest s;
  std::string error;
  const BodyStatus status = wire::DecodeScript(p, n, &s, &error);
  Fields f;
  if (status != BodyStatus::kBadId) f.U("request_id", s.request_id);
  if (status == BodyStatus::kOk) {
    f.U("client_id", s.client_id)
        .U("timeout", s.timeout_micros)
        .U("step_budget", s.step_budget)
        .U("virtual_us_budget", s.virtual_us_budget)
        .U("max_result_bytes", s.max_result_bytes)
        .S("source", s.source)
        .U("args", s.args.size());
    for (const auto& [name, value] : s.args) f.S("name", name).S("value", value);
  }
  return Verdict(Name(status), error, f.str());
}

std::string SweepResponse(const std::uint8_t* p, std::size_t n) {
  wire::WireResponse r;
  std::string error;
  const bool ok = wire::DecodeResponse(p, n, &r, &error);
  Fields f;
  if (ok) {
    f.U("request_id", r.request_id)
        .U("status", Code(r.status))
        .U("served_platform", Code(r.served_platform))
        .U("attempts", r.attempts)
        .U("latency", r.latency_micros)
        .S("body", r.body);
  }
  return Verdict(ok ? "ok" : "fail", error, f.str());
}

std::string SweepSubscribe(const std::uint8_t* p, std::size_t n) {
  wire::WireSubscribe s;
  std::string error;
  const BodyStatus status = wire::DecodeSubscribe(p, n, &s, &error);
  Fields f;
  if (status != BodyStatus::kBadId) f.U("request_id", s.request_id);
  if (status == BodyStatus::kOk) {
    f.U("client_id", s.client_id)
        .U("topic", Code(s.topic))
        .U("mode", Code(s.mode))
        .U("cursor", s.cursor);
  }
  return Verdict(Name(status), error, f.str());
}

std::string SweepUnsubscribe(const std::uint8_t* p, std::size_t n) {
  wire::WireUnsubscribe u;
  std::string error;
  const BodyStatus status = wire::DecodeUnsubscribe(p, n, &u, &error);
  Fields f;
  if (status != BodyStatus::kBadId) f.U("request_id", u.request_id);
  if (status == BodyStatus::kOk) f.U("subscription_id", u.subscription_id);
  return Verdict(Name(status), error, f.str());
}

std::string SweepSubscribeAck(const std::uint8_t* p, std::size_t n) {
  wire::WireSubscribeAck a;
  std::string error;
  const bool ok = wire::DecodeSubscribeAck(p, n, &a, &error);
  Fields f;
  if (ok) {
    f.U("request_id", a.request_id)
        .U("status", Code(a.status))
        .U("subscription_id", a.subscription_id)
        .U("start_cursor", a.start_cursor);
  }
  return Verdict(ok ? "ok" : "fail", error, f.str());
}

std::string SweepEvent(const std::uint8_t* p, std::size_t n) {
  wire::WireEvent e;
  std::string error;
  const bool ok = wire::DecodeEvent(p, n, &e, &error);
  Fields f;
  if (ok) {
    f.U("subscription_id", e.subscription_id)
        .U("kind", Code(e.kind))
        .U("topic", Code(e.topic))
        .U("cursor", e.cursor)
        .U("aux", e.aux)
        .S("body", e.body);
  }
  return Verdict(ok ? "ok" : "fail", error, f.str());
}

std::string SweepControl(const std::uint8_t* p, std::size_t n) {
  cluster::ControlMessage m;
  std::string error;
  const bool ok = cluster::DecodeControl(p, n, &m, &error);
  Fields f;
  if (ok) {
    f.U("correlation_id", m.correlation_id)
        .U("op", Code(m.op))
        .U("worker_id", m.worker_id)
        .U("data_port", m.data_port)
        .U("epoch", m.epoch)
        .U("status", Code(m.status))
        .U("plan_epoch", m.plan.epoch)
        .U("members", m.plan.members.size());
    for (const cluster::PlanMember& member : m.plan.members) {
      f.U("worker", member.worker_id).U("port", member.data_port);
    }
    f.S("message", m.message);
  }
  return Verdict(ok ? "ok" : "fail", error, f.str());
}

std::string SweepFrame(const std::uint8_t* p, std::size_t n) {
  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  const DecodeStatus status = wire::DecodeFrame(p, n, &frame, &consumed, &error);
  Fields f;
  if (status == DecodeStatus::kOk) {
    f.U("type", Code(frame.type))
        .U("known", wire::IsKnownFrameType(frame.type) ? 1 : 0)
        .U("payload_offset",
           static_cast<std::uint64_t>(frame.payload - p))
        .U("payload_size", frame.payload_size)
        .U("consumed", consumed);
  }
  return Verdict(Name(status), error, f.str());
}

using Sweep = std::string (*)(const std::uint8_t*, std::size_t);

struct Decoder {
  const char* name;
  Sweep sweep;
  FrameType kind;  ///< the frame kind whose payloads it is swept over
};

/// Every payload decoder, in digest order.
const Decoder kDecoders[] = {
    {"request", SweepRequest, FrameType::kRequest},
    {"request_view", SweepRequestView, FrameType::kRequest},
    {"script", SweepScript, FrameType::kScript},
    {"response", SweepResponse, FrameType::kResponse},
    {"subscribe", SweepSubscribe, FrameType::kSubscribe},
    {"unsubscribe", SweepUnsubscribe, FrameType::kUnsubscribe},
    {"subscribe_ack", SweepSubscribeAck, FrameType::kSubscribeAck},
    {"event", SweepEvent, FrameType::kEvent},
    {"control", SweepControl, FrameType::kControl},
};

// ---------------------------------------------------------------------------
// The corpus
// ---------------------------------------------------------------------------

constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();

/// Every corpus frame, encoded by the current encoders, in a fixed order.
std::vector<Bytes> CorpusFrames() {
  std::vector<Bytes> frames;
  const auto add = [&](const std::function<void(Bytes&)>& encode) {
    frames.emplace_back();
    encode(frames.back());
  };

  // kRequest: every platform and op, every property lane, the extreme
  // scalars, empty strings and the id supplied apart from the struct.
  wire::WireRequest request;
  request.request_id = 1;
  request.client_id = 7;
  request.platform = gateway::Platform::kAndroid;
  request.op = gateway::Op::kHttpGet;
  request.timeout_micros = 250'000;
  request.max_attempts = 3;
  request.target = "http://example.test/a?b=c";
  request.payload = "";
  request.content_type = "text/plain";
  request.properties.emplace_back("powerConsumption", std::string("low"));
  request.properties.emplace_back("timeout", 30LL);
  request.properties.emplace_back("accuracy", 2.5);
  request.properties.emplace_back("cached", true);
  add([&](Bytes& out) { wire::EncodeRequest(request, out); });

  wire::WireRequest bare;
  bare.platform = gateway::Platform::kIphone;
  bare.op = gateway::Op::kSegmentCount;
  add([&](Bytes& out) { wire::EncodeRequest(bare, out); });

  wire::WireRequest extreme;
  extreme.request_id = kMax64;
  extreme.client_id = kMax64 - 1;
  extreme.platform = gateway::Platform::kS60;
  extreme.op = gateway::Op::kSendSms;
  extreme.timeout_micros = 1ull << 35;
  extreme.max_attempts = 1000;
  extreme.target = "+15550100";
  extreme.payload = std::string("line\none\0two\xff", 13);
  extreme.properties.emplace_back("negative", -1LL);
  extreme.properties.emplace_back("min", std::numeric_limits<long long>::min());
  extreme.properties.emplace_back("max", std::numeric_limits<long long>::max());
  extreme.properties.emplace_back("nan", std::numeric_limits<double>::quiet_NaN());
  extreme.properties.emplace_back("negzero", -0.0);
  extreme.properties.emplace_back("inf", -std::numeric_limits<double>::infinity());
  extreme.properties.emplace_back("off", false);
  extreme.properties.emplace_back("", std::string());
  extreme.properties.emplace_back("handle", core::PropertyValue(42));
  add([&](Bytes& out) { wire::EncodeRequest(extreme, 300, out); });

  wire::WireRequest post;
  post.request_id = 128;
  post.client_id = 16384;
  post.platform = gateway::Platform::kIphone;
  post.op = gateway::Op::kHttpPost;
  post.target = "http://example.test/post";
  post.payload = std::string(200, 'p');
  post.content_type = "application/json";
  add([&](Bytes& out) { wire::EncodeRequest(post, out); });

  wire::WireRequest locate;
  locate.request_id = 2;
  locate.op = gateway::Op::kGetLocation;
  locate.platform = gateway::Platform::kS60;
  add([&](Bytes& out) { wire::EncodeRequest(locate, out); });

  // kResponse: success, error statuses (mirrored and wire-only bands),
  // a status byte no enumerator names, and the separately supplied body.
  wire::WireResponse response;
  response.request_id = 1;
  response.status = wire::WireStatus::kOk;
  response.served_platform = gateway::Platform::kS60;
  response.attempts = 2;
  response.latency_micros = 1234;
  response.body = "pong";
  add([&](Bytes& out) { wire::EncodeResponse(response, out); });
  response.request_id = kMax64;
  response.status = wire::WireStatus::kMalformedRequest;
  response.served_platform = gateway::Platform::kIphone;
  response.attempts = std::numeric_limits<std::uint32_t>::max();
  response.latency_micros = kMax64;
  add([&](Bytes& out) {
    wire::EncodeResponse(response, "request_id: bad varint", out);
  });
  response.request_id = 0;
  response.status = static_cast<wire::WireStatus>(200);
  response.served_platform = gateway::Platform::kAndroid;
  response.attempts = 0;
  response.latency_micros = 0;
  response.body.clear();
  add([&](Bytes& out) { wire::EncodeResponse(response, out); });
  response.status = wire::WireStatus::kTimeout;
  response.body = std::string(150, 'b');
  add([&](Bytes& out) { wire::EncodeResponse(response, out); });

  // kScript: args, budgets, the id supplied apart from the struct.
  wire::WireScriptRequest script;
  script.request_id = 2;
  script.client_id = 1;
  script.timeout_micros = 50'000;
  script.step_budget = 1000;
  script.virtual_us_budget = 2'000'000;
  script.max_result_bytes = 4096;
  script.source = "mobile.invoke('android', 'getLocation')";
  script.args.emplace_back("k", "v");
  script.args.emplace_back("to", "+15550100");
  add([&](Bytes& out) { wire::EncodeScript(script, out); });
  wire::WireScriptRequest tiny;
  tiny.source = "1";
  add([&](Bytes& out) { wire::EncodeScript(tiny, kMax64, out); });
  wire::WireScriptRequest empty_args;
  empty_args.request_id = 129;
  empty_args.client_id = kMax64;
  empty_args.step_budget = kMax64;
  empty_args.source =
      "var x = args.a + args.b; var n = 0; for (var i = 0; i < 10; i++) { "
      "n = n + i; } if (n > 40) { x = x + n; } else { x = 'small'; } x";
  empty_args.args.emplace_back("", "");
  empty_args.args.emplace_back("a", std::string("\0\x80", 2));
  add([&](Bytes& out) { wire::EncodeScript(empty_args, out); });

  // kSubscribe: every topic and mode.
  wire::WireSubscribe subscribe;
  subscribe.request_id = 3;
  subscribe.client_id = 1;
  subscribe.topic = wire::PushTopic::kAll;
  subscribe.mode = wire::SubscribeMode::kLiveOnly;
  add([&](Bytes& out) { wire::EncodeSubscribe(subscribe, out); });
  subscribe.request_id = 300;
  subscribe.client_id = kMax64;
  subscribe.topic = wire::PushTopic::kNotification;
  subscribe.mode = wire::SubscribeMode::kDrainOnce;
  subscribe.cursor = 1ull << 40;
  add([&](Bytes& out) { wire::EncodeSubscribe(subscribe, out); });
  subscribe.topic = wire::PushTopic::kSmsDelivery;
  subscribe.mode = wire::SubscribeMode::kFromCursor;
  subscribe.cursor = 5;
  add([&](Bytes& out) { wire::EncodeSubscribe(subscribe, out); });
  subscribe.topic = wire::PushTopic::kProximity;
  add([&](Bytes& out) { wire::EncodeSubscribe(subscribe, out); });
  subscribe.topic = wire::PushTopic::kCallState;
  add([&](Bytes& out) { wire::EncodeSubscribe(subscribe, out); });

  // kUnsubscribe.
  wire::WireUnsubscribe unsubscribe;
  unsubscribe.request_id = 4;
  unsubscribe.subscription_id = 1;
  add([&](Bytes& out) { wire::EncodeUnsubscribe(unsubscribe, out); });
  unsubscribe.request_id = kMax64;
  unsubscribe.subscription_id = 1ull << 56;
  add([&](Bytes& out) { wire::EncodeUnsubscribe(unsubscribe, out); });

  // kSubscribeAck.
  wire::WireSubscribeAck ack;
  ack.request_id = 3;
  ack.status = wire::WireStatus::kOk;
  ack.subscription_id = 9;
  ack.start_cursor = 10'000;
  add([&](Bytes& out) { wire::EncodeSubscribeAck(ack, out); });
  ack.request_id = 5;
  ack.status = wire::WireStatus::kWrongWorker;
  ack.subscription_id = 0;
  ack.start_cursor = kMax64;
  add([&](Bytes& out) { wire::EncodeSubscribeAck(ack, out); });

  // kEvent: every kind and topic.
  wire::WireEvent event;
  event.subscription_id = 17;
  event.kind = wire::EventKind::kData;
  event.topic = wire::PushTopic::kNotification;
  event.cursor = 10'001;
  event.aux = 42;
  event.body = "{\"level\":3}";
  add([&](Bytes& out) { wire::EncodeEvent(event, out); });
  event.kind = wire::EventKind::kEventsDropped;
  event.topic = wire::PushTopic::kAll;
  event.cursor = 90;
  event.aux = 12;
  event.body.clear();
  add([&](Bytes& out) { wire::EncodeEvent(event, out); });
  event.kind = wire::EventKind::kEndOfDrain;
  event.topic = wire::PushTopic::kCallState;
  event.subscription_id = kMax64;
  event.cursor = kMax64;
  event.aux = 0;
  add([&](Bytes& out) { wire::EncodeEvent(event, out); });
  event.kind = wire::EventKind::kData;
  event.topic = wire::PushTopic::kProximity;
  event.body = std::string(130, 'e');
  add([&](Bytes& out) { wire::EncodeEvent(event, out); });
  event.topic = wire::PushTopic::kSmsDelivery;
  event.body = "delivered";
  add([&](Bytes& out) { wire::EncodeEvent(event, out); });

  // kControl: every op, both ack statuses, plans, messages.
  cluster::ControlMessage control;
  control.correlation_id = 1;
  control.op = cluster::ControlOp::kRegister;
  control.worker_id = 3;
  control.data_port = 40'000;
  add([&](Bytes& out) { cluster::EncodeControl(control, out); });
  control.op = cluster::ControlOp::kRegisterAck;
  control.epoch = 2;
  control.plan.epoch = 2;
  control.plan.members = {{64, 40'001}, {3, 40'000}, {kMax64, 65'535}};
  add([&](Bytes& out) { cluster::EncodeControl(control, out); });
  control.correlation_id = 0;
  control.op = cluster::ControlOp::kPlanPush;
  control.data_port = 65'535;
  add([&](Bytes& out) { cluster::EncodeControl(control, out); });
  control.correlation_id = kMax64;
  control.op = cluster::ControlOp::kError;
  control.status = cluster::AckStatus::kRejected;
  control.plan = {};
  control.message = "unknown control op";
  add([&](Bytes& out) { cluster::EncodeControl(control, out); });
  for (const cluster::ControlOp op :
       {cluster::ControlOp::kHeartbeat, cluster::ControlOp::kHeartbeatAck,
        cluster::ControlOp::kPlanGet, cluster::ControlOp::kLeave,
        cluster::ControlOp::kLeaveAck, cluster::ControlOp::kDrain,
        cluster::ControlOp::kDrainAck}) {
    cluster::ControlMessage m;
    m.correlation_id = 10 + static_cast<std::uint64_t>(op);
    m.op = op;
    m.worker_id = 2;
    m.epoch = 7;
    add([&](Bytes& out) { cluster::EncodeControl(m, out); });
  }
  return frames;
}

std::string Hex(const Bytes& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  return hex;
}

/// Every input derived from one valid byte string, with its tag: the
/// string itself, each proper prefix, each single-bit flip, and 1-3
/// padding bytes.
void ForEachMutation(
    const Bytes& valid,
    const std::function<void(const std::string&, const Bytes&)>& visit) {
  visit("valid", valid);
  for (std::size_t len = 0; len < valid.size(); ++len) {
    visit("trunc:" + std::to_string(len),
          Bytes(valid.begin(), valid.begin() + static_cast<long>(len)));
  }
  Bytes flipped = valid;
  for (std::size_t i = 0; i < valid.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      flipped[i] ^= static_cast<std::uint8_t>(1u << bit);
      visit("flip:" + std::to_string(i) + "." + std::to_string(bit), flipped);
      flipped[i] = valid[i];
    }
  }
  static constexpr std::uint8_t kPadding[] = {0x00, 0x7f, 0xff};
  for (std::size_t pad = 1; pad <= 3; ++pad) {
    Bytes padded = valid;
    padded.insert(padded.end(), kPadding, kPadding + pad);
    visit("pad:" + std::to_string(pad), padded);
  }
}

/// The sweep's verdict lines, one block per decoder: each decoder over
/// every mutation of every corpus payload of its kind, then over every
/// other kind's valid payloads; last, DecodeFrame over every mutation of
/// every whole frame.
std::vector<std::pair<std::string, std::vector<std::string>>> SweepLines(
    const std::vector<Bytes>& frames) {
  struct Payload {
    FrameType kind;
    Bytes bytes;
  };
  std::vector<Payload> payloads;
  for (const Bytes& frame : frames) {
    FrameView view;
    std::size_t consumed = 0;
    EXPECT_EQ(wire::DecodeFrame(frame.data(), frame.size(), &view, &consumed,
                                nullptr),
              DecodeStatus::kOk);
    payloads.push_back(
        {view.type, Bytes(view.payload, view.payload + view.payload_size)});
  }
  std::vector<std::pair<std::string, std::vector<std::string>>> blocks;
  for (const Decoder& decoder : kDecoders) {
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      const Payload& payload = payloads[i];
      const std::string prefix = "#" + std::to_string(i) + " ";
      if (payload.kind != decoder.kind) {
        lines.push_back(prefix + "valid " +
                        decoder.sweep(payload.bytes.data(),
                                      payload.bytes.size()));
        continue;
      }
      ForEachMutation(payload.bytes, [&](const std::string& tag,
                                         const Bytes& input) {
        lines.push_back(prefix + tag + " " +
                        decoder.sweep(input.data(), input.size()));
      });
    }
    blocks.emplace_back(decoder.name, std::move(lines));
  }
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::string prefix = "#" + std::to_string(i) + " ";
    ForEachMutation(frames[i], [&](const std::string& tag, const Bytes& input) {
      lines.push_back(prefix + tag + " " + SweepFrame(input.data(), input.size()));
    });
  }
  blocks.emplace_back("frame", std::move(lines));
  return blocks;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string GoldenPath(const char* name) {
  return std::string(MOBIVINE_GOLDEN_DIR) + "/" + name;
}

/// Write `text` into the test build directory and return the path.
std::string WriteActual(const char* name, const std::string& text) {
  const std::string path = std::string(MOBIVINE_TEST_OUTPUT_DIR) + "/" + name;
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

TEST(CodecGolden, CorpusFramesMatchCommittedBytes) {
  std::string actual;
  for (const Bytes& frame : CorpusFrames()) actual += Hex(frame) + "\n";
  if (actual != ReadAll(GoldenPath("codec_frames.hex"))) {
    FAIL() << "encoded corpus differs from " << GoldenPath("codec_frames.hex")
           << "; actual frames written to "
           << WriteActual("codec_frames.actual.hex", actual);
  }
}

TEST(CodecGolden, SweepVerdictsMatchCommittedDigest) {
  const auto blocks = SweepLines(CorpusFrames());
  std::string digest;
  std::string all;
  std::size_t total = 0;
  for (const auto& [name, lines] : blocks) {
    std::string text;
    for (const std::string& line : lines) text += name + " " + line + "\n";
    char row[96];
    std::snprintf(row, sizeof row, "%s lines=%zu fnv1a64=%016llx\n",
                  name.c_str(), lines.size(),
                  static_cast<unsigned long long>(support::Fnv1a64(text)));
    digest += row;
    total += lines.size();
    all += text;
  }
  char row[96];
  std::snprintf(row, sizeof row, "total lines=%zu fnv1a64=%016llx\n", total,
                static_cast<unsigned long long>(support::Fnv1a64(all)));
  digest += row;
  if (digest != ReadAll(GoldenPath("codec_sweep.digest"))) {
    FAIL() << "sweep verdicts differ from " << GoldenPath("codec_sweep.digest")
           << "\nactual digest (written to "
           << WriteActual("codec_sweep.actual.digest", digest) << "):\n"
           << digest << "actual verdict lines written to "
           << WriteActual("codec_sweep.actual.txt", all);
  }
}

}  // namespace
}  // namespace mobivine
