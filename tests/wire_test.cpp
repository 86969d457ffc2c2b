// M-Wire: the binary protocol and the epoll TCP front-end.
//
// What must hold:
//  * every encodable request/response round-trips bit-exactly, and every
//    strict prefix of a valid frame decodes as kNeedMore, never as
//    malformed or as a shorter valid frame;
//  * framing violations (bad magic/version/type, oversized length
//    prefix, CRC mismatch) are kMalformed and close the connection; a
//    well-framed body violation gets a typed kMalformedRequest response
//    and the connection lives on;
//  * the server serves every gateway op over real loopback sockets with
//    the same bodies, typed errors and property semantics as in-process
//    calls, under deep pipelining;
//  * hostile bytes (deterministic frame-mutation fuzz, run under ASan)
//    never crash or leak the server, and a fresh connection is always
//    served afterwards;
//  * output backpressure pauses reading at the watermark and resumes —
//    no unbounded buffering, no lost responses;
//  * the client surfaces connection death as kTransportError on every
//    outstanding callback, exactly once each.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "support/checksum.h"
#include "support/metrics.h"
#include "support/seed.h"
#include "support/varint.h"
#include "tests/raw_conn.h"
#include "wire/client.h"
#include "wire/connection.h"
#include "wire/protocol.h"
#include "wire/server.h"

namespace mobivine {
namespace {

using core::ErrorCode;
using gateway::Gateway;
using gateway::GatewayConfig;
using gateway::Op;
using gateway::Platform;
using wire::BodyStatus;
using wire::ByteRing;
using wire::DecodeFrame;
using wire::DecodeRequest;
using wire::DecodeRequestView;
using wire::DecodeStatus;
using wire::EncodeRequest;
using wire::EncodeResponse;
using wire::FrameType;
using wire::FrameView;
using wire::WireClient;
using wire::WireRequest;
using wire::WireRequestView;
using wire::WireResponse;
using wire::WireServer;
using wire::WireServerConfig;
using wire::WireStatus;
using wire_testing::RawConn;

const core::DescriptorStore& Store() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

GatewayConfig BaseConfig(int shards) {
  GatewayConfig config;
  config.shards = shards;
  config.store = &Store();
  return config;
}

WireRequest HttpGet(std::uint64_t client_id) {
  WireRequest request;
  request.client_id = client_id;
  request.platform = Platform::kAndroid;
  request.op = Op::kHttpGet;
  request.target = std::string("http://") + gateway::kGatewayHttpHost + "/ping";
  return request;
}

/// splitmix64: the fuzz suite's only entropy source — same seed, same
/// mutations, same verdicts, every run.
using support::SplitMix64;

// ---------------------------------------------------------------------------
// Protocol: round trips
// ---------------------------------------------------------------------------

TEST(WireProtocol, RequestRoundTripsAllFields) {
  WireRequest request;
  request.request_id = 0xdeadbeefcafe1234ull;
  request.client_id = 77;
  request.platform = Platform::kS60;
  request.op = Op::kHttpPost;
  request.timeout_micros = 250000;
  request.max_attempts = 5;
  request.target = "http://gw.example/echo";
  request.payload = std::string("body with \0 bytes", 17);
  request.content_type = "text/plain";
  request.properties.emplace_back("horizontalAccuracy", 25LL);
  request.properties.emplace_back("powerConsumption", std::string("low"));
  request.properties.emplace_back("threshold", 2.5);
  request.properties.emplace_back("enabled", true);

  std::vector<std::uint8_t> bytes;
  EncodeRequest(request, bytes);

  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error),
            DecodeStatus::kOk)
      << error;
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.type, FrameType::kRequest);

  WireRequest decoded;
  ASSERT_EQ(DecodeRequest(frame.payload, frame.payload_size, &decoded, &error),
            BodyStatus::kOk)
      << error;
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.client_id, request.client_id);
  EXPECT_EQ(decoded.platform, request.platform);
  EXPECT_EQ(decoded.op, request.op);
  EXPECT_EQ(decoded.timeout_micros, request.timeout_micros);
  EXPECT_EQ(decoded.max_attempts, request.max_attempts);
  EXPECT_EQ(decoded.target, request.target);
  EXPECT_EQ(decoded.payload, request.payload);
  EXPECT_EQ(decoded.content_type, request.content_type);
  ASSERT_EQ(decoded.properties.size(), 4u);
  EXPECT_EQ(decoded.properties[0].first, "horizontalAccuracy");
  ASSERT_NE(decoded.properties[0].second.AsInt(), nullptr);
  EXPECT_EQ(*decoded.properties[0].second.AsInt(), 25LL);
  ASSERT_NE(decoded.properties[1].second.AsString(), nullptr);
  EXPECT_EQ(*decoded.properties[1].second.AsString(), "low");
  const double* threshold =
      std::get_if<double>(&decoded.properties[2].second.stored());
  ASSERT_NE(threshold, nullptr);
  EXPECT_EQ(*threshold, 2.5);
  const bool* enabled =
      std::get_if<bool>(&decoded.properties[3].second.stored());
  ASSERT_NE(enabled, nullptr);
  EXPECT_TRUE(*enabled);
}

TEST(WireProtocol, ResponseRoundTrips) {
  WireResponse response;
  response.request_id = 42;
  response.status = WireStatus::kAllBackendsFailed;
  response.served_platform = Platform::kIphone;
  response.attempts = 3;
  response.latency_micros = 123456;
  response.body = "every platform refused";

  std::vector<std::uint8_t> bytes;
  EncodeResponse(response, bytes);

  FrameView frame;
  std::size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, nullptr),
            DecodeStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kResponse);

  WireResponse decoded;
  ASSERT_TRUE(wire::DecodeResponse(frame.payload, frame.payload_size, &decoded,
                                   nullptr));
  EXPECT_EQ(decoded.request_id, response.request_id);
  EXPECT_EQ(decoded.status, response.status);
  EXPECT_EQ(decoded.served_platform, response.served_platform);
  EXPECT_EQ(decoded.attempts, response.attempts);
  EXPECT_EQ(decoded.latency_micros, response.latency_micros);
  EXPECT_EQ(decoded.body, response.body);
}

TEST(WireProtocol, BackToBackFramesDecodeIndependently) {
  std::vector<std::uint8_t> bytes;
  EncodeRequest(HttpGet(1), bytes);
  const std::size_t first_size = bytes.size();
  WireRequest second = HttpGet(2);
  second.request_id = 9;
  EncodeRequest(second, bytes);

  FrameView frame;
  std::size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, nullptr),
            DecodeStatus::kOk);
  EXPECT_EQ(consumed, first_size);
  WireRequest decoded;
  ASSERT_EQ(DecodeRequest(frame.payload, frame.payload_size, &decoded, nullptr),
            BodyStatus::kOk);
  EXPECT_EQ(decoded.client_id, 1u);

  ASSERT_EQ(DecodeFrame(bytes.data() + consumed, bytes.size() - consumed,
                        &frame, &consumed, nullptr),
            DecodeStatus::kOk);
  ASSERT_EQ(DecodeRequest(frame.payload, frame.payload_size, &decoded, nullptr),
            BodyStatus::kOk);
  EXPECT_EQ(decoded.request_id, 9u);
}

// ---------------------------------------------------------------------------
// Protocol: incremental and malformed input
// ---------------------------------------------------------------------------

TEST(WireProtocol, EveryStrictPrefixNeedsMoreBytes) {
  std::vector<std::uint8_t> bytes;
  WireRequest request = HttpGet(3);
  request.properties.emplace_back("powerConsumption", std::string("low"));
  EncodeRequest(request, bytes);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    FrameView frame;
    std::size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(bytes.data(), len, &frame, &consumed, nullptr),
              DecodeStatus::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(WireProtocol, CrcMismatchIsMalformed) {
  std::vector<std::uint8_t> bytes;
  EncodeRequest(HttpGet(4), bytes);
  bytes[bytes.size() / 2] ^= 0x40;  // corrupt the payload, not the CRC
  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error),
            DecodeStatus::kMalformed);
  EXPECT_NE(error.find("crc"), std::string::npos) << error;
}

TEST(WireProtocol, BadMagicAndVersionAreMalformed) {
  std::vector<std::uint8_t> good;
  EncodeRequest(HttpGet(5), good);
  FrameView frame;
  std::size_t consumed = 0;

  std::vector<std::uint8_t> bad = good;
  bad[0] = 'X';
  EXPECT_EQ(DecodeFrame(bad.data(), bad.size(), &frame, &consumed, nullptr),
            DecodeStatus::kMalformed);

  bad = good;
  bad[2] = wire::kWireVersion + 1;
  EXPECT_EQ(DecodeFrame(bad.data(), bad.size(), &frame, &consumed, nullptr),
            DecodeStatus::kMalformed);
}

TEST(WireProtocol, UnknownFrameTypeDecodesForInBandRejection) {
  // An unknown type byte is NOT a framing violation: the envelope still
  // parses (the CRC covers the payload, not the type), so a server can
  // answer kUnsupportedFrame in-band instead of hard-closing — that is
  // how an old server tells a newer peer "I don't speak that" without
  // killing every other request pipelined on the connection.
  std::vector<std::uint8_t> bytes;
  EncodeRequest(HttpGet(5), bytes);
  bytes[3] = 0x7f;  // type from the future
  FrameView frame;
  std::size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed,
                        nullptr),
            DecodeStatus::kOk);
  EXPECT_EQ(static_cast<std::uint8_t>(frame.type), 0x7f);
  EXPECT_FALSE(IsKnownFrameType(frame.type));
  EXPECT_EQ(consumed, bytes.size());

  // The request id survives (the payload still leads with a varint id),
  // so the rejection can be correlated.
  std::uint64_t id = 0;
  EXPECT_TRUE(wire::PeekPayloadId(frame.payload, frame.payload_size, &id));
  // HttpGet(5) stamps no id; EncodeRequest without an explicit id writes
  // the struct's request_id verbatim.
  EXPECT_EQ(id, 0u);
}

TEST(WireProtocol, OversizedLengthPrefixIsMalformedBeforePayloadArrives) {
  // Header declares 2 MiB — over the cap. The decoder must reject it
  // from the header alone instead of waiting for (or allocating) 2 MiB.
  std::vector<std::uint8_t> bytes = {wire::kMagic0, wire::kMagic1,
                                     wire::kWireVersion,
                                     static_cast<std::uint8_t>(1)};
  support::PutVarint(bytes, 2u << 20);
  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error),
            DecodeStatus::kMalformed);
  EXPECT_NE(error.find("cap"), std::string::npos) << error;
}

TEST(WireProtocol, BodyRuleViolationsAreBadBodyWithRecoveredId) {
  // Too many properties: well-framed, decodable id, rejected body.
  WireRequest request = HttpGet(6);
  request.request_id = 31337;
  for (std::size_t i = 0; i <= wire::kMaxProperties; ++i) {
    request.properties.emplace_back("p" + std::to_string(i),
                                    static_cast<long long>(i));
  }
  std::vector<std::uint8_t> bytes;
  EncodeRequest(request, bytes);
  FrameView frame;
  std::size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, nullptr),
            DecodeStatus::kOk);
  WireRequest decoded;
  std::string error;
  EXPECT_EQ(DecodeRequest(frame.payload, frame.payload_size, &decoded, &error),
            BodyStatus::kBadBody);
  EXPECT_EQ(decoded.request_id, 31337u) << "id must survive for the response";

  // Unknown platform code: same deal.
  WireRequest bad_platform = HttpGet(7);
  bad_platform.request_id = 99;
  bytes.clear();
  EncodeRequest(bad_platform, bytes);
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, nullptr),
            DecodeStatus::kOk);
  // Patch the platform byte (right after the varint request id +
  // varint client id) and re-frame with a fresh CRC.
  std::vector<std::uint8_t> payload(frame.payload,
                                    frame.payload + frame.payload_size);
  std::uint64_t value = 0;
  std::size_t off = 0, used = 0;
  ASSERT_EQ(support::GetVarint(payload.data(), payload.size(), &value, &used),
            support::VarintStatus::kOk);
  off += used;
  ASSERT_EQ(
      support::GetVarint(payload.data() + off, payload.size() - off, &value,
                         &used),
      support::VarintStatus::kOk);
  off += used;
  payload[off] = 0x7f;  // no such platform
  bytes.assign({wire::kMagic0, wire::kMagic1, wire::kWireVersion,
                static_cast<std::uint8_t>(1)});
  support::PutVarint(bytes, payload.size());
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  const std::uint32_t crc = support::Crc32(payload.data(), payload.size());
  for (int shift = 0; shift < 32; shift += 8) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, nullptr),
            DecodeStatus::kOk);
  EXPECT_EQ(DecodeRequest(frame.payload, frame.payload_size, &decoded, &error),
            BodyStatus::kBadBody);
  EXPECT_EQ(decoded.request_id, 99u);
}

TEST(WireProtocol, StatusAndErrorCodeMappingsAreInverse) {
  const ErrorCode codes[] = {
      ErrorCode::kSecurity,         ErrorCode::kIllegalArgument,
      ErrorCode::kLocationUnavailable, ErrorCode::kTimeout,
      ErrorCode::kUnreachable,      ErrorCode::kRadioFailure,
      ErrorCode::kUnsupported,      ErrorCode::kInvalidState,
      ErrorCode::kNetwork,          ErrorCode::kOverloaded,
      ErrorCode::kDeadlineExceeded, ErrorCode::kAllBackendsFailed,
      ErrorCode::kUnknown};
  for (ErrorCode code : codes) {
    const WireStatus status = wire::FromErrorCode(code);
    EXPECT_EQ(wire::ToErrorCode(status), code);
    EXPECT_NE(wire::ToString(status), nullptr);
    EXPECT_NE(std::string(wire::ToString(status)), "");
  }
  EXPECT_EQ(wire::ToErrorCode(WireStatus::kMalformedRequest),
            ErrorCode::kUnknown);
  EXPECT_EQ(wire::ToErrorCode(WireStatus::kTransportError),
            ErrorCode::kUnknown);
}

// ---------------------------------------------------------------------------
// Protocol: deterministic decoder fuzz (no sockets)
// ---------------------------------------------------------------------------

TEST(WireFuzz, MutatedFramesNeverCrashTheDecoder) {
  SplitMix64 rng{0x5eedf00dull};
  WireRequest base = HttpGet(11);
  base.payload = "fuzz body";
  base.properties.emplace_back("powerConsumption", std::string("low"));
  std::vector<std::uint8_t> pristine;
  EncodeRequest(base, pristine);

  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::vector<std::uint8_t> bytes = pristine;
    switch (rng.Next() % 4) {
      case 0:  // single bit flip
        bytes[rng.Next() % bytes.size()] ^=
            static_cast<std::uint8_t>(1u << (rng.Next() % 8));
        break;
      case 1:  // truncate
        bytes.resize(rng.Next() % bytes.size());
        break;
      case 2:  // splice random garbage into the middle
        bytes[rng.Next() % bytes.size()] =
            static_cast<std::uint8_t>(rng.Next());
        bytes[rng.Next() % bytes.size()] =
            static_cast<std::uint8_t>(rng.Next());
        break;
      default:  // pure noise, random length
        bytes.assign(rng.Next() % 64, 0);
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Next());
        break;
    }
    FrameView frame;
    std::size_t consumed = 0;
    std::string error;
    const DecodeStatus status =
        DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error);
    if (status != DecodeStatus::kOk) continue;
    // A frame that still decodes must parse or fail typed — never crash.
    WireRequest decoded;
    const BodyStatus owning =
        DecodeRequest(frame.payload, frame.payload_size, &decoded, &error);
    // Differential check: the zero-copy decoder must agree with the
    // owning one, verdict for verdict, on every mutation — and, when
    // both accept, field for field (views compared against the owned
    // copies while the frame bytes are still alive).
    WireRequestView view;
    const BodyStatus borrowed =
        DecodeRequestView(frame.payload, frame.payload_size, &view, &error);
    ASSERT_EQ(borrowed, owning) << "iteration " << iteration;
    if (owning != BodyStatus::kOk) {
      if (owning == BodyStatus::kBadBody) {
        ASSERT_EQ(view.request_id, decoded.request_id);
      }
      continue;
    }
    ASSERT_EQ(view.request_id, decoded.request_id);
    ASSERT_EQ(view.client_id, decoded.client_id);
    ASSERT_EQ(view.platform, decoded.platform);
    ASSERT_EQ(view.op, decoded.op);
    ASSERT_EQ(view.timeout_micros, decoded.timeout_micros);
    ASSERT_EQ(view.max_attempts, decoded.max_attempts);
    ASSERT_EQ(view.target, decoded.target);
    ASSERT_EQ(view.payload, decoded.payload);
    ASSERT_EQ(view.content_type, decoded.content_type);
    ASSERT_EQ(view.properties.size(), decoded.properties.size());
    for (std::size_t i = 0; i < view.properties.size(); ++i) {
      const gateway::BorrowedProperty& bp = view.properties[i];
      const auto& [name, value] = decoded.properties[i];
      ASSERT_EQ(bp.name, name);
      if (const auto* s = std::get_if<std::string_view>(&bp.value)) {
        ASSERT_NE(value.AsString(), nullptr);
        ASSERT_EQ(*s, *value.AsString());
      } else if (const auto* n = std::get_if<long long>(&bp.value)) {
        ASSERT_NE(value.AsInt(), nullptr);
        ASSERT_EQ(*n, *value.AsInt());
      } else if (const auto* d = std::get_if<double>(&bp.value)) {
        const auto* owned = std::get_if<double>(&value.stored());
        ASSERT_NE(owned, nullptr);
        ASSERT_EQ(*d, *owned);
      } else {
        const auto* owned = std::get_if<bool>(&value.stored());
        ASSERT_NE(owned, nullptr);
        ASSERT_EQ(std::get<bool>(bp.value), *owned);
      }
    }
  }
}

TEST(WireFuzz, MutatedPushFramesNeverCrashTheDecoders) {
  // Same mutation engine as the request sweep, over all four M-Push
  // frame families: whatever survives framing must decode or fail typed.
  SplitMix64 rng{0x9057f7a3e5ull};
  std::vector<std::vector<std::uint8_t>> pristine;

  wire::WireSubscribe subscribe;
  subscribe.request_id = 31;
  subscribe.client_id = 9;
  subscribe.topic = wire::PushTopic::kSmsDelivery;
  subscribe.mode = wire::SubscribeMode::kFromCursor;
  subscribe.cursor = 777;
  pristine.emplace_back();
  wire::EncodeSubscribe(subscribe, pristine.back());

  wire::WireUnsubscribe unsubscribe;
  unsubscribe.request_id = 32;
  unsubscribe.subscription_id = 4;
  pristine.emplace_back();
  wire::EncodeUnsubscribe(unsubscribe, pristine.back());

  wire::WireSubscribeAck ack;
  ack.request_id = 33;
  ack.status = WireStatus::kOk;
  ack.subscription_id = 4;
  ack.start_cursor = 777;
  pristine.emplace_back();
  wire::EncodeSubscribeAck(ack, pristine.back());

  wire::WireEvent event;
  event.subscription_id = 4;
  event.kind = wire::EventKind::kData;
  event.topic = wire::PushTopic::kSmsDelivery;
  event.cursor = 778;
  event.aux = 9;
  event.body = "314159:submitted";
  pristine.emplace_back();
  wire::EncodeEvent(event, pristine.back());

  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::vector<std::uint8_t> bytes = pristine[iteration % pristine.size()];
    switch (rng.Next() % 4) {
      case 0:
        bytes[rng.Next() % bytes.size()] ^=
            static_cast<std::uint8_t>(1u << (rng.Next() % 8));
        break;
      case 1:
        bytes.resize(rng.Next() % bytes.size());
        break;
      case 2:
        bytes[rng.Next() % bytes.size()] =
            static_cast<std::uint8_t>(rng.Next());
        bytes[rng.Next() % bytes.size()] =
            static_cast<std::uint8_t>(rng.Next());
        break;
      default:
        bytes.assign(rng.Next() % 64, 0);
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Next());
        break;
    }
    FrameView frame;
    std::size_t consumed = 0;
    std::string error;
    if (DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error) !=
        DecodeStatus::kOk) {
      continue;
    }
    switch (frame.type) {
      case FrameType::kSubscribe: {
        wire::WireSubscribe out;
        (void)wire::DecodeSubscribe(frame.payload, frame.payload_size, &out,
                                    &error);
        break;
      }
      case FrameType::kUnsubscribe: {
        wire::WireUnsubscribe out;
        (void)wire::DecodeUnsubscribe(frame.payload, frame.payload_size, &out,
                                      &error);
        break;
      }
      case FrameType::kSubscribeAck: {
        wire::WireSubscribeAck out;
        (void)wire::DecodeSubscribeAck(frame.payload, frame.payload_size, &out,
                                       &error);
        break;
      }
      case FrameType::kEvent: {
        wire::WireEvent out;
        (void)wire::DecodeEvent(frame.payload, frame.payload_size, &out,
                                &error);
        break;
      }
      default: {
        // Mutation flipped the type byte into another family (or an
        // unknown one): the unsupported-frame answer path peeks the id.
        std::uint64_t id = 0;
        (void)wire::PeekPayloadId(frame.payload, frame.payload_size, &id);
        break;
      }
    }
  }
}

TEST(WireFuzz, MutatedScriptFramesNeverCrashTheDecoder) {
  // kScript carries the largest, most structured body on the wire (a
  // whole program plus an argument table), so it gets the same
  // deterministic mutation sweep as requests and push frames.
  SplitMix64 rng{0x5c21b7d00dull};
  wire::WireScriptRequest base;
  base.request_id = 41;
  base.client_id = 6;
  base.timeout_micros = 250'000;
  base.step_budget = 10'000;
  base.virtual_us_budget = 500'000;
  base.max_result_bytes = 2048;
  base.source = "var loc = mobile.invoke('android', 'getLocation'); loc";
  base.args.emplace_back("url", "http://gw.example/ingest");
  base.args.emplace_back("note", std::string(120, 'n'));
  std::vector<std::uint8_t> pristine;
  wire::EncodeScript(base, pristine);

  for (int iteration = 0; iteration < 2000; ++iteration) {
    std::vector<std::uint8_t> bytes = pristine;
    switch (rng.Next() % 4) {
      case 0:
        bytes[rng.Next() % bytes.size()] ^=
            static_cast<std::uint8_t>(1u << (rng.Next() % 8));
        break;
      case 1:
        bytes.resize(rng.Next() % bytes.size());
        break;
      case 2:
        bytes[rng.Next() % bytes.size()] =
            static_cast<std::uint8_t>(rng.Next());
        bytes[rng.Next() % bytes.size()] =
            static_cast<std::uint8_t>(rng.Next());
        break;
      default:
        bytes.assign(rng.Next() % 64, 0);
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Next());
        break;
    }
    FrameView frame;
    std::size_t consumed = 0;
    std::string error;
    if (DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error) !=
        DecodeStatus::kOk) {
      continue;
    }
    // Whatever survived framing must decode or fail typed — never crash.
    // A kBadBody verdict must still recover the request id so the server
    // can answer kMalformedRequest in-band.
    wire::WireScriptRequest out;
    const BodyStatus status =
        wire::DecodeScript(frame.payload, frame.payload_size, &out, &error);
    if (status == BodyStatus::kBadBody) {
      ASSERT_FALSE(error.empty()) << "iteration " << iteration;
    }
  }
}

// ---------------------------------------------------------------------------
// ByteRing: the zero-copy staleness contract
// ---------------------------------------------------------------------------

TEST(WireRing, WriteWindowCommitAndConsumeMoveBytesThrough) {
  ByteRing ring(64);
  std::size_t available = 0;
  std::uint8_t* window = ring.WriteWindow(16, &available);
  ASSERT_NE(window, nullptr);
  ASSERT_GE(available, 16u);
  const char payload[] = "direct-read bytes";
  std::memcpy(window, payload, sizeof payload - 1);
  ring.CommitWrite(sizeof payload - 1);
  ASSERT_EQ(ring.size(), sizeof payload - 1);
  const std::uint8_t* data = ring.Contiguous();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(data), ring.size()),
            payload);
  ring.Consume(7);  // "direct-"
  data = ring.Contiguous();
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(data), ring.size()),
            "read bytes");
  ring.Consume(ring.size());
  EXPECT_EQ(ring.size(), 0u);
}

TEST(WireRing, GenerationBumpsOnConsumeGrowAndRotation) {
  ByteRing ring(64);
  const std::uint8_t bytes[32] = {};
  ring.Append(bytes, sizeof bytes);
  const std::uint64_t at_rest = ring.generation();
  // Contiguous on unwrapped data moves nothing: views stay valid.
  (void)ring.Contiguous();
  EXPECT_EQ(ring.generation(), at_rest);

  // Consume marks the recycle horizon — generation must advance.
  ring.Consume(16);
  const std::uint64_t after_consume = ring.generation();
  EXPECT_GT(after_consume, at_rest);

  // Wrap the ring (append past the end with a consumed head), then
  // linearize: the storage rotates in place, so views move.
  std::size_t available = 0;
  (void)ring.WriteWindow(1, &available);
  const std::uint8_t tail[40] = {};
  ring.Append(tail, sizeof tail);
  (void)ring.Contiguous();
  const std::uint64_t after_rotate = ring.generation();
  EXPECT_GT(after_rotate, after_consume);

  // Growing reallocates the backing store — generation must advance.
  std::vector<std::uint8_t> big(4096, 0xab);
  ring.Append(big.data(), big.size());
  EXPECT_GT(ring.generation(), after_rotate);
}

// The use-after-recycle canary: decode a zero-copy view out of a ring,
// recycle the frame's bytes, and show the generation guard is exactly
// what separates the valid window from the stale one. This is the
// contract WireServer::HandleRequest asserts after every borrowed
// Submit.
TEST(WireRing, RequestViewsAreGuardedByTheGenerationCounter) {
  WireRequest request = HttpGet(42);
  request.payload = "canary payload that exceeds SSO length for certain";
  std::vector<std::uint8_t> frame_bytes;
  EncodeRequest(request, frame_bytes);

  ByteRing ring(frame_bytes.size() * 2);
  ring.Append(frame_bytes.data(), frame_bytes.size());

  FrameView frame;
  std::size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(ring.Contiguous(), ring.size(), &frame, &consumed,
                        nullptr),
            DecodeStatus::kOk);
  WireRequestView view;
  ASSERT_EQ(DecodeRequestView(frame.payload, frame.payload_size, &view,
                              nullptr),
            BodyStatus::kOk);
  const std::uint64_t generation = ring.generation();

  // Within the generation window the views alias live frame bytes:
  // materializing now must observe the encoded strings.
  ASSERT_EQ(ring.generation(), generation);
  const std::string materialized_payload(view.payload);
  EXPECT_EQ(materialized_payload, request.payload);

  // Recycle the frame (the server does this once dispatch returns) and
  // land fresh bytes over the old range. The guard trips: any view still
  // held is now past the recycle horizon and must not be read.
  ring.Consume(consumed);
  std::vector<std::uint8_t> overwrite(frame_bytes.size(), 0x5a);
  ring.Append(overwrite.data(), overwrite.size());
  EXPECT_NE(ring.generation(), generation);

  // The copy taken inside the window is untouched by the recycle.
  EXPECT_EQ(materialized_payload, request.payload);
}

// ---------------------------------------------------------------------------
// Server fixture (RawConn, the raw-socket helper, is in tests/raw_conn.h)
// ---------------------------------------------------------------------------

class WireServerTest : public ::testing::Test {
 protected:
  void StartAll(GatewayConfig gateway_config, WireServerConfig wire_config) {
    gateway_ = std::make_unique<Gateway>(std::move(gateway_config));
    server_ = std::make_unique<WireServer>(*gateway_, wire_config);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  // Shutdown contract: server first (stops reading), then the gateway
  // (drains; completions land on closed connections and drop).
  void TearDown() override {
    if (server_) server_->Stop();
    if (gateway_) gateway_->Stop();
  }

  std::unique_ptr<Gateway> gateway_;
  std::unique_ptr<WireServer> server_;
};

// ---------------------------------------------------------------------------
// Server: serving semantics over real sockets
// ---------------------------------------------------------------------------

TEST_F(WireServerTest, RunsOneThreadPerEventLoop) {
  gateway_ = std::make_unique<Gateway>(BaseConfig(2));
  WireServerConfig wire_config;
  wire_config.event_loops = 3;
  server_ = std::make_unique<WireServer>(*gateway_, wire_config);
  const std::size_t before = wire_testing::ProcessThreads();
  ASSERT_TRUE(server_->Start());
  // The loops are the whole server: loop 0 also accepts.
  EXPECT_EQ(wire_testing::ProcessThreads(), before + 3);
  server_->Stop();
  EXPECT_EQ(wire_testing::ProcessThreads(), before);
}

TEST_F(WireServerTest, BacklogWaitingAtStartIsServedOnEveryLoop) {
  // A fixed port with clients already dialling when Start runs (a
  // restart under retrying clients): their connects land in the listen
  // backlog before any loop runs, and loop 0's first accept pass deals
  // them to every loop at once. Each must be answered.
  const int probe = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(probe);

  constexpr int kClients = 4;
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      RawConn conn;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!conn.Connect(port)) {
        if (std::chrono::steady_clock::now() > deadline) return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      WireRequest request = HttpGet(static_cast<std::uint64_t>(i));
      request.request_id = 1;
      std::vector<std::uint8_t> bytes;
      EncodeRequest(request, bytes);
      WireResponse response;
      if (conn.Send(bytes) && conn.RecvResponse(&response) &&
          response.status == WireStatus::kOk) {
        answered.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // all dialling
  gateway_ = std::make_unique<Gateway>(BaseConfig(2));
  WireServerConfig wire_config;
  wire_config.port = port;
  wire_config.event_loops = 2;
  server_ = std::make_unique<WireServer>(*gateway_, wire_config);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(answered.load(), kClients);
}

TEST_F(WireServerTest, ServesEveryOpOverLoopback) {
  StartAll(BaseConfig(2), {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  const Platform platforms[] = {Platform::kAndroid, Platform::kS60,
                                Platform::kIphone};
  for (Platform platform : platforms) {
    WireRequest get = HttpGet(7);
    get.platform = platform;
    WireResponse response;
    ASSERT_TRUE(client.Call(get, &response));
    EXPECT_EQ(response.status, WireStatus::kOk) << response.body;
    EXPECT_EQ(response.body, "pong");
    EXPECT_EQ(response.served_platform, platform);
    EXPECT_EQ(response.attempts, 1u);

    WireRequest location;
    location.client_id = 7;
    location.platform = platform;
    location.op = Op::kGetLocation;
    ASSERT_TRUE(client.Call(location, &response));
    EXPECT_EQ(response.status, WireStatus::kOk) << response.body;
    EXPECT_NE(response.body.find(','), std::string::npos);

    WireRequest sms;
    sms.client_id = 7;
    sms.platform = platform;
    sms.op = Op::kSendSms;
    sms.target = gateway::kGatewaySmsPeer;
    sms.payload = "hello over the wire";
    ASSERT_TRUE(client.Call(sms, &response));
    EXPECT_EQ(response.status, WireStatus::kOk) << response.body;
    EXPECT_GT(std::stoll(response.body), 0);

    WireRequest segments;
    segments.client_id = 7;
    segments.platform = platform;
    segments.op = Op::kSegmentCount;
    segments.payload = std::string(200, 'x');
    ASSERT_TRUE(client.Call(segments, &response));
    EXPECT_EQ(response.status, WireStatus::kOk) << response.body;
    EXPECT_EQ(response.body, "2");
  }
  client.Close();

  const wire::WireStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.requests_dispatched, 12u);
  EXPECT_EQ(stats.frames_in, 12u);
  EXPECT_EQ(stats.frames_out, 12u);
  EXPECT_EQ(stats.decode_errors, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(WireServerTest, PipelinedRequestsAllCompleteOnce) {
  StartAll(BaseConfig(4), {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  constexpr int kInFlight = 200;
  std::mutex mutex;
  std::condition_variable cv;
  int completions = 0;
  int ok = 0;
  for (int i = 0; i < kInFlight; ++i) {
    // Spread over client ids so every shard serves part of the burst.
    client.Submit(HttpGet(static_cast<std::uint64_t>(i)),
                  [&](const WireResponse& response) {
                    std::lock_guard<std::mutex> lock(mutex);
                    ++completions;
                    if (response.status == WireStatus::kOk &&
                        response.body == "pong") {
                      ++ok;
                    }
                    cv.notify_one();
                  });
  }
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return completions == kInFlight; }));
  EXPECT_EQ(ok, kInFlight);
  EXPECT_EQ(client.outstanding(), 0u);
  lock.unlock();
  client.Close();

  const wire::WireStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.requests_dispatched, static_cast<std::uint64_t>(kInFlight));
  EXPECT_EQ(stats.frames_out, static_cast<std::uint64_t>(kInFlight));
}

TEST_F(WireServerTest, BatchWithPerRequestCallbacksFiresEachExactlyOnce) {
  StartAll(BaseConfig(2), {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // Distinct segment counts per request prove each callback got ITS
  // response, not just any response from the batch.
  constexpr int kBatch = 8;
  std::vector<WireRequest> requests;
  std::vector<WireClient::Callback> callbacks;
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<int> fires(kBatch, 0);
  std::vector<std::string> bodies(kBatch);
  for (int i = 0; i < kBatch; ++i) {
    WireRequest request;
    request.client_id = static_cast<std::uint64_t>(i);
    request.platform = Platform::kAndroid;
    request.op = Op::kSegmentCount;
    request.payload = std::string(static_cast<std::size_t>(i) * 160 + 10, 'x');
    requests.push_back(std::move(request));
    callbacks.emplace_back([&, i](const WireResponse& response) {
      std::lock_guard<std::mutex> lock(mutex);
      ++fires[static_cast<std::size_t>(i)];
      bodies[static_cast<std::size_t>(i)] = response.body;
      cv.notify_one();
    });
  }
  EXPECT_EQ(client.SubmitBatch(requests, std::move(callbacks)),
            static_cast<std::size_t>(kBatch));
  {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30), [&] {
      int total = 0;
      for (int f : fires) total += f;
      return total == kBatch;
    }));
  }
  for (int i = 0; i < kBatch; ++i) {
    EXPECT_EQ(fires[static_cast<std::size_t>(i)], 1) << i;
    EXPECT_EQ(bodies[static_cast<std::size_t>(i)], std::to_string(i + 1)) << i;
  }

  // Length mismatch never reaches the socket: every callback fails
  // in-line with kTransportError.
  std::vector<WireClient::Callback> short_callbacks;
  int mismatch_fires = 0;
  short_callbacks.emplace_back([&](const WireResponse& response) {
    EXPECT_EQ(response.status, WireStatus::kTransportError);
    ++mismatch_fires;
  });
  EXPECT_EQ(client.SubmitBatch(requests, std::move(short_callbacks)), 0u);
  EXPECT_EQ(mismatch_fires, 1);
  client.Close();
}

TEST_F(WireServerTest, PropertiesApplyPerRequestOverTheWire) {
  StartAll(BaseConfig(1), {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  // Impossible criteria -> typed kLocationUnavailable over the wire.
  WireRequest strict;
  strict.client_id = 1;
  strict.platform = Platform::kS60;
  strict.op = Op::kGetLocation;
  strict.max_attempts = 1;
  strict.properties.emplace_back("horizontalAccuracy", 10LL);
  strict.properties.emplace_back("powerConsumption", std::string("low"));
  WireResponse response;
  ASSERT_TRUE(client.Call(strict, &response));
  EXPECT_EQ(response.status, WireStatus::kLocationUnavailable);

  // Same shard, no properties: must not inherit the strict criteria.
  WireRequest plain;
  plain.client_id = 1;
  plain.platform = Platform::kS60;
  plain.op = Op::kGetLocation;
  plain.max_attempts = 1;
  ASSERT_TRUE(client.Call(plain, &response));
  EXPECT_EQ(response.status, WireStatus::kOk)
      << "wire properties leaked across requests: " << response.body;

  // Unknown property -> descriptor validation -> kIllegalArgument.
  WireRequest bad = HttpGet(1);
  bad.properties.emplace_back("noSuchProperty", 1LL);
  ASSERT_TRUE(client.Call(bad, &response));
  EXPECT_EQ(response.status, WireStatus::kIllegalArgument);
  EXPECT_EQ(response.attempts, 1u);
  client.Close();
}

TEST_F(WireServerTest, OverloadShedsWithTypedWireStatus) {
  GatewayConfig config = BaseConfig(1);
  config.queue_capacity = 4;
  config.shed_watermark = 4;
  StartAll(config, {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  constexpr int kBurst = 400;
  std::mutex mutex;
  std::condition_variable cv;
  int completions = 0;
  int ok = 0;
  int shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    // One client id: every request lands on the same 4-slot shard queue.
    client.Submit(HttpGet(1), [&](const WireResponse& response) {
      std::lock_guard<std::mutex> lock(mutex);
      ++completions;
      if (response.status == WireStatus::kOk) ++ok;
      if (response.status == WireStatus::kOverloaded) ++shed;
      cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                          [&] { return completions == kBurst; }));
  EXPECT_EQ(ok + shed, kBurst) << "only kOk / kOverloaded expected";
  EXPECT_GT(shed, 0) << "the burst must overrun a 4-slot queue";
  EXPECT_GT(ok, 0);
  lock.unlock();
  client.Close();
}

// ---------------------------------------------------------------------------
// Server: protocol violations over real sockets
// ---------------------------------------------------------------------------

TEST_F(WireServerTest, MalformedBodyGetsTypedResponseAndConnectionSurvives) {
  StartAll(BaseConfig(1), {});
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));

  // Well-framed request whose body violates the property cap.
  WireRequest bad = HttpGet(1);
  bad.request_id = 555;
  for (std::size_t i = 0; i <= wire::kMaxProperties; ++i) {
    bad.properties.emplace_back("p" + std::to_string(i),
                                static_cast<long long>(i));
  }
  std::vector<std::uint8_t> bytes;
  EncodeRequest(bad, bytes);
  ASSERT_TRUE(conn.Send(bytes));
  WireResponse response;
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_EQ(response.status, WireStatus::kMalformedRequest);
  EXPECT_EQ(response.request_id, 555u);

  // The same connection still serves valid traffic afterwards.
  bytes.clear();
  WireRequest good = HttpGet(1);
  good.request_id = 556;
  EncodeRequest(good, bytes);
  ASSERT_TRUE(conn.Send(bytes));
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_EQ(response.status, WireStatus::kOk);
  EXPECT_EQ(response.request_id, 556u);
  EXPECT_EQ(response.body, "pong");

  EXPECT_EQ(server_->Stats().decode_errors, 1u);
  EXPECT_EQ(server_->Stats().protocol_errors, 0u);
}

TEST_F(WireServerTest, FramingErrorClosesConnectionFreshOneIsServed) {
  StartAll(BaseConfig(1), {});

  {  // Bad magic: connection must close.
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server_->port()));
    ASSERT_TRUE(conn.Send({'X', 'Y', 0x01, 0x01, 0x00}));
    EXPECT_TRUE(conn.WaitForClose());
  }
  {  // Oversized declared length: close before any payload arrives.
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server_->port()));
    std::vector<std::uint8_t> bytes = {wire::kMagic0, wire::kMagic1,
                                       wire::kWireVersion,
                                       static_cast<std::uint8_t>(1)};
    support::PutVarint(bytes, 8u << 20);
    ASSERT_TRUE(conn.Send(bytes));
    EXPECT_TRUE(conn.WaitForClose());
  }
  {  // CRC corruption: close.
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server_->port()));
    std::vector<std::uint8_t> bytes;
    EncodeRequest(HttpGet(1), bytes);
    bytes[bytes.size() - 1] ^= 0xff;
    ASSERT_TRUE(conn.Send(bytes));
    EXPECT_TRUE(conn.WaitForClose());
  }
  EXPECT_GE(server_->Stats().protocol_errors, 3u);

  // The server itself is unharmed: a fresh connection round-trips.
  RawConn fresh;
  ASSERT_TRUE(fresh.Connect(server_->port()));
  std::vector<std::uint8_t> bytes;
  WireRequest good = HttpGet(2);
  good.request_id = 1;
  EncodeRequest(good, bytes);
  ASSERT_TRUE(fresh.Send(bytes));
  WireResponse response;
  ASSERT_TRUE(fresh.RecvResponse(&response));
  EXPECT_EQ(response.status, WireStatus::kOk);
}

TEST_F(WireServerTest, DuplicateRequestIdsBothGetAnswered) {
  StartAll(BaseConfig(1), {});
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));

  // The server treats ids as opaque correlation tokens — no dedupe.
  std::vector<std::uint8_t> bytes;
  WireRequest first = HttpGet(1);
  first.request_id = 777;
  EncodeRequest(first, bytes);
  WireRequest second = HttpGet(1);
  second.request_id = 777;
  second.op = Op::kSegmentCount;
  second.target.clear();
  second.payload = std::string(10, 'x');
  EncodeRequest(second, bytes);
  ASSERT_TRUE(conn.Send(bytes));

  WireResponse a, b;
  ASSERT_TRUE(conn.RecvResponse(&a));
  ASSERT_TRUE(conn.RecvResponse(&b));
  EXPECT_EQ(a.request_id, 777u);
  EXPECT_EQ(b.request_id, 777u);
  // Same shard, same client: responses arrive in submit order.
  EXPECT_EQ(a.body, "pong");
  EXPECT_EQ(b.body, "1");
}

// ---------------------------------------------------------------------------
// Server: socket-level fuzz
// ---------------------------------------------------------------------------

/// What a server does with `bytes` sent on a fresh connection: it answers
/// each well-framed frame with exactly one reply until the bytes run out
/// (it then waits for more) or a frame makes it close: a framing error, a
/// server-to-client frame type, or a client frame whose id is unreadable.
struct ServerVerdict {
  int replies = 0;
  bool closes = false;
};

ServerVerdict PredictServer(const std::vector<std::uint8_t>& bytes) {
  ServerVerdict verdict;
  std::size_t offset = 0;
  while (true) {
    FrameView frame;
    std::size_t consumed = 0;
    const DecodeStatus status = DecodeFrame(
        bytes.data() + offset, bytes.size() - offset, &frame, &consumed,
        nullptr);
    if (status == DecodeStatus::kNeedMore) return verdict;
    if (status == DecodeStatus::kMalformed) break;
    offset += consumed;
    const std::uint8_t* payload = frame.payload;
    const std::size_t size = frame.payload_size;
    BodyStatus body = BodyStatus::kOk;
    switch (frame.type) {
      case FrameType::kRequest: {
        WireRequest request;
        body = DecodeRequest(payload, size, &request, nullptr);
        break;
      }
      case FrameType::kScript: {
        wire::WireScriptRequest script;
        body = wire::DecodeScript(payload, size, &script, nullptr);
        break;
      }
      case FrameType::kSubscribe: {
        wire::WireSubscribe subscribe;
        body = wire::DecodeSubscribe(payload, size, &subscribe, nullptr);
        break;
      }
      case FrameType::kUnsubscribe: {
        wire::WireUnsubscribe unsubscribe;
        body = wire::DecodeUnsubscribe(payload, size, &unsubscribe, nullptr);
        break;
      }
      case FrameType::kResponse:
      case FrameType::kEvent:
      case FrameType::kSubscribeAck:
        body = BodyStatus::kBadId;  // a direction violation closes too
        break;
      default:  // answered kUnsupportedFrame
        break;
    }
    if (body == BodyStatus::kBadId) break;
    ++verdict.replies;
  }
  verdict.closes = true;
  return verdict;
}

TEST_F(WireServerTest, SocketFuzzNeverKillsTheServer) {
  StartAll(BaseConfig(1), {});
  SplitMix64 rng{0xfeedbeefull};
  // Rotate through the client-originated frame families so the server's
  // kScript, kSubscribe and kUnsubscribe dispatch paths face the same
  // hostile bytes as kRequest.
  std::vector<std::vector<std::uint8_t>> corpus(4);
  WireRequest base = HttpGet(1);
  base.request_id = 1;
  base.properties.emplace_back("powerConsumption", std::string("low"));
  EncodeRequest(base, corpus[0]);
  wire::WireScriptRequest script;
  script.request_id = 2;
  script.client_id = 1;
  script.step_budget = 1000;
  script.source = "mobile.invoke('android', 'getLocation')";
  script.args.emplace_back("k", "v");
  wire::EncodeScript(script, corpus[1]);
  wire::WireSubscribe subscribe;
  subscribe.request_id = 3;
  subscribe.client_id = 1;
  subscribe.mode = wire::SubscribeMode::kLiveOnly;
  wire::EncodeSubscribe(subscribe, corpus[2]);
  wire::WireUnsubscribe unsubscribe;
  unsubscribe.request_id = 4;
  unsubscribe.subscription_id = 1;
  wire::EncodeUnsubscribe(unsubscribe, corpus[3]);

  for (int round = 0; round < 48; ++round) {
    const std::vector<std::uint8_t>& pristine = corpus[round % corpus.size()];
    RawConn conn;
    ASSERT_TRUE(conn.Connect(server_->port()))
        << "server died on round " << round;
    std::vector<std::uint8_t> bytes = pristine;
    switch (rng.Next() % 4) {
      case 0:
        bytes[rng.Next() % bytes.size()] ^=
            static_cast<std::uint8_t>(1u << (rng.Next() % 8));
        break;
      case 1:
        bytes.resize(1 + rng.Next() % (bytes.size() - 1));
        break;
      case 2: {  // duplicate the frame then corrupt the second copy
        const std::size_t n = bytes.size();
        bytes.insert(bytes.end(), pristine.begin(), pristine.end());
        bytes[n + rng.Next() % n] ^= 0x10;
        break;
      }
      default:
        bytes.assign(4 + rng.Next() % 64, 0);
        for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.Next());
        break;
    }
    // Read exactly what the server owes these bytes, never waiting out
    // a timeout: the predicted replies, or everything up to the close.
    // The close may drop answers still in flight. A crash shows up as
    // Connect failing on the next round or the final round trip failing.
    const ServerVerdict expected = PredictServer(bytes);
    if (!conn.Send(bytes)) {  // server closed mid-send
      EXPECT_TRUE(expected.closes) << "round " << round;
      continue;
    }
    FrameType type{};
    std::vector<std::uint8_t> payload;
    int replies = 0;
    while ((expected.closes || replies < expected.replies) &&
           conn.RecvFrame(&type, &payload)) {
      ++replies;
    }
    if (expected.closes) {
      EXPECT_TRUE(conn.peer_closed()) << "round " << round;
      EXPECT_LE(replies, expected.replies) << "round " << round;
    } else {
      EXPECT_EQ(replies, expected.replies) << "round " << round;
    }
  }

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));
  std::vector<std::uint8_t> bytes;
  WireRequest good = HttpGet(1);
  good.request_id = 9999;
  EncodeRequest(good, bytes);
  ASSERT_TRUE(conn.Send(bytes));
  WireResponse response;
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_EQ(response.status, WireStatus::kOk);
  EXPECT_EQ(response.body, "pong");
  // Every fuzzed connection is gone, and with it every subscription a
  // surviving kSubscribe opened: none outlives its connection.
  conn.CloseNow();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->Stats().connections_open != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server_->Stats().connections_open, 0u);
  EXPECT_EQ(server_->Stats().subscriptions_active(), 0u);
}

// ---------------------------------------------------------------------------
// Server: backpressure
// ---------------------------------------------------------------------------

/// Largest send buffer the kernel autotunes a TCP socket to (tcp_wmem's
/// third field; the server never sets SO_SNDBUF).
std::size_t KernelSendBufferMax() {
  std::ifstream in("/proc/sys/net/ipv4/tcp_wmem");
  std::size_t min = 0;
  std::size_t initial = 0;
  std::size_t max = 0;
  if (in >> min >> initial >> max && max > 0) return max;
  return std::size_t{4} << 20;  // the Linux default
}

TEST_F(WireServerTest, OutputBackpressurePausesAndEveryResponseArrives) {
  WireServerConfig wire_config;
  wire_config.output_high_watermark = 8 * 1024;
  wire_config.output_low_watermark = 2 * 1024;
  StartAll(BaseConfig(2), wire_config);

  // Big echoes, tiny client receive buffer, and no reading until the
  // server has paused: it must hit the watermark, pause, and still
  // deliver everything once we drain. The kernel absorbs up to a whole
  // autotuned send buffer of unsent output (several MiB on loopback)
  // before the server's own queue grows at all, so the echoes must
  // outweigh that buffer — a fixed 768 KiB sometimes fit in it entirely.
  const std::string body(48 * 1024, 'e');
  const int posts = std::max<int>(
      16, static_cast<int>((KernelSendBufferMax() + 256 * 1024) /
                           body.size()) + 1);
  RawConn conn;
  // Generous receive timeout: megabytes drain through a 4 KiB receive
  // buffer in many small reads, and a saturated CI host (the full suite
  // under ctest -j) can starve this thread between them.
  ASSERT_TRUE(
      conn.Connect(server_->port(), /*rcvbuf=*/4096, /*rcvtimeo_ms=*/60000));
  std::vector<std::uint8_t> bytes;
  for (int i = 0; i < posts; ++i) {
    WireRequest post;
    post.request_id = static_cast<std::uint64_t>(i) + 1;
    post.client_id = 1;
    post.platform = Platform::kAndroid;
    post.op = Op::kHttpPost;
    post.target = std::string("http://") + gateway::kGatewayHttpHost + "/echo";
    post.payload = body;
    post.content_type = "text/plain";
    EncodeRequest(post, bytes);
  }
  // A paused server stops reading too, so the requests go out from
  // their own thread: the tail of a multi-MiB send may only fit once the
  // drain below resumes the connection.
  std::atomic<bool> sent{false};
  std::thread sender([&] { sent = conn.Send(bytes); });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server_->Stats().backpressure_stalls == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::uint64_t stalls_before_draining =
      server_->Stats().backpressure_stalls;

  int received = 0;
  for (; received < posts; ++received) {
    WireResponse response;
    if (!conn.RecvResponse(&response)) break;
    EXPECT_EQ(response.status, WireStatus::kOk);
    EXPECT_EQ(response.body, body) << "echo body mangled under backpressure";
  }
  sender.join();
  EXPECT_TRUE(sent);
  EXPECT_EQ(received, posts);
  EXPECT_GE(stalls_before_draining, 1u)
      << posts << " x 48 KiB echoes to a connection nobody reads must stall";
}

// ---------------------------------------------------------------------------
// Server: lifecycle and client failure semantics
// ---------------------------------------------------------------------------

TEST_F(WireServerTest, StopWithBusyClientsFailsOutstandingExactlyOnce) {
  StartAll(BaseConfig(2), {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  constexpr int kInFlight = 64;
  std::atomic<int> fired{0};
  for (int i = 0; i < kInFlight; ++i) {
    client.Submit(HttpGet(static_cast<std::uint64_t>(i)),
                  [&](const WireResponse&) { fired.fetch_add(1); });
  }
  server_->Stop();
  gateway_->Stop();
  client.Close();  // reader sees EOF; outstanding fail with kTransportError
  EXPECT_EQ(fired.load(), kInFlight) << "every callback fires exactly once";
  EXPECT_EQ(client.outstanding(), 0u);
}

TEST_F(WireServerTest, ClientSurfacesTransportErrorAfterServerStops) {
  StartAll(BaseConfig(1), {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  WireResponse warm;
  ASSERT_TRUE(client.Call(HttpGet(1), &warm));
  ASSERT_EQ(warm.status, WireStatus::kOk);

  server_->Stop();
  gateway_->Stop();

  WireResponse response;
  EXPECT_FALSE(client.Call(HttpGet(1), &response));
  EXPECT_EQ(response.status, WireStatus::kTransportError);
  client.Close();

  // A closed client fails fast, synchronously.
  bool called = false;
  EXPECT_FALSE(client.Submit(HttpGet(1), [&](const WireResponse& dead) {
    called = true;
    EXPECT_EQ(dead.status, WireStatus::kTransportError);
  }));
  EXPECT_TRUE(called);
}

/// Twenty 60 KB arguments: every string is within kMaxStringBytes, but
/// the payload is past kMaxFramePayload.
wire::WireScriptRequest OversizedScript() {
  wire::WireScriptRequest script;
  script.client_id = 1;
  script.source = "args.a0";
  for (int i = 0; i < 20; ++i) {
    script.args.emplace_back("a" + std::to_string(i),
                             std::string(60'000, 'x'));
  }
  return script;
}

TEST_F(WireServerTest, OversizedFrameIsRefusedByTheClientNotSent) {
  StartAll(BaseConfig(1), {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  WireResponse response;
  EXPECT_TRUE(client.CallScript(OversizedScript(), &response));
  EXPECT_EQ(response.status, WireStatus::kMalformedRequest);
  EXPECT_EQ(response.body, "payload length over cap");

  // The connection lives on: the server never saw the frame.
  ASSERT_TRUE(client.Call(HttpGet(1), &response));
  EXPECT_EQ(response.status, WireStatus::kOk);
  EXPECT_EQ(response.body, "pong");
  EXPECT_EQ(server_->Stats().protocol_errors, 0u);
}

TEST_F(WireServerTest, OversizedFrameInABatchFailsAloneAndTheRestIsSent) {
  StartAll(BaseConfig(1), {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  WireRequest oversized = HttpGet(1);
  for (int i = 0; i < 20; ++i) {
    oversized.properties.emplace_back("p" + std::to_string(i),
                                      std::string(60'000, 'x'));
  }
  const std::vector<WireRequest> batch = {HttpGet(1), oversized, HttpGet(2)};
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<WireResponse> responses(batch.size());
  int fired = 0;
  std::vector<WireClient::Callback> callbacks;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    callbacks.emplace_back([&, i](const WireResponse& response) {
      std::lock_guard<std::mutex> lock(mutex);
      responses[i] = response;
      ++fired;
      cv.notify_one();
    });
  }
  EXPECT_EQ(client.SubmitBatch(batch, std::move(callbacks)), 2u);
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return fired == 3; }));
  EXPECT_EQ(responses[0].status, WireStatus::kOk);
  EXPECT_EQ(responses[1].status, WireStatus::kMalformedRequest);
  EXPECT_EQ(responses[1].body, "payload length over cap");
  EXPECT_EQ(responses[2].status, WireStatus::kOk);
  EXPECT_TRUE(client.connected());
}

TEST(WireClientTeardown, ClosedClientFailsEachSendOnceUnderItsOwnId) {
  // Every sender draws its correlation id first and fails with it: the
  // synthetic kTransportError carries an id this client stamped — never
  // 0, never the caller's ignored request_id — and each send fails once.
  Gateway gateway(BaseConfig(1));
  WireServer server(gateway, {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  WireClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  client.Close();

  std::vector<std::pair<std::string, std::uint64_t>> fired;
  const auto response_sink = [&](const char* name) {
    return [&fired, name](const WireResponse& dead) {
      EXPECT_EQ(dead.status, WireStatus::kTransportError) << name;
      fired.emplace_back(name, dead.request_id);
    };
  };
  const auto ack_sink = [&](const char* name) {
    return [&fired, name](const wire::WireSubscribeAck& dead) {
      EXPECT_EQ(dead.status, WireStatus::kTransportError) << name;
      fired.emplace_back(name, dead.request_id);
    };
  };
  WireRequest request = HttpGet(1);
  request.request_id = 777;  // ignored by the client, never echoed
  EXPECT_FALSE(client.Submit(request, response_sink("submit")));
  EXPECT_EQ(client.SubmitBatch({request}, response_sink("batch")), 0u);
  wire::WireScriptRequest script;
  script.request_id = 777;
  script.client_id = 1;
  script.source = "'x';";
  EXPECT_FALSE(client.SubmitScript(script, response_sink("script")));
  wire::WireSubscribe subscribe;
  subscribe.request_id = 777;
  EXPECT_FALSE(client.Subscribe(
      subscribe, [](const wire::WireEvent&) {}, ack_sink("subscribe")));
  EXPECT_FALSE(client.Unsubscribe(1, ack_sink("unsubscribe")));

  ASSERT_EQ(fired.size(), 5u);
  std::vector<std::uint64_t> ids;
  for (const auto& [name, id] : fired) {
    EXPECT_NE(id, 0u) << name;
    EXPECT_NE(id, 777u) << name;
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "synthetic failures share an id";
  EXPECT_EQ(client.outstanding(), 0u);
  server.Stop();
  gateway.Stop();
}

TEST_F(WireServerTest, MetricsSourceExportsWireCounters) {
  StartAll(BaseConfig(1), {});
  support::MetricsRegistry registry;
  const auto registration = server_->RegisterMetrics(registry);

  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  WireResponse response;
  ASSERT_TRUE(client.Call(HttpGet(1), &response));
  ASSERT_EQ(response.status, WireStatus::kOk);
  client.Close();

  // The loop thread books bytes_out after its write() returns, and the
  // client can observe the response a hair earlier — give the counter a
  // moment to settle before snapshotting.
  for (int i = 0; i < 2000; ++i) {
    if (registry.Snapshot().Find("wire.bytes_out")->count > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const support::MetricsSnapshot snapshot = registry.Snapshot();
  const char* names[] = {
      "wire.connections_accepted", "wire.connections_closed",
      "wire.connections_active",   "wire.frames_in",
      "wire.frames_out",           "wire.bytes_in",
      "wire.bytes_out",            "wire.decode_errors",
      "wire.protocol_errors",      "wire.backpressure_stalls",
      "wire.requests_dispatched"};
  for (const char* name : names) {
    ASSERT_NE(snapshot.Find(name), nullptr) << name;
  }
  EXPECT_EQ(snapshot.Find("wire.frames_in")->count, 1u);
  EXPECT_EQ(snapshot.Find("wire.requests_dispatched")->count, 1u);
  EXPECT_GT(snapshot.Find("wire.bytes_in")->count, 0u);
  EXPECT_GT(snapshot.Find("wire.bytes_out")->count, 0u);
}

// ---------------------------------------------------------------------------
// Server: forward compatibility and cluster routing fence
// ---------------------------------------------------------------------------

TEST_F(WireServerTest, UnknownFrameTypeAnsweredInBandConnectionSurvives) {
  StartAll(BaseConfig(1), {});
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port()));

  // A frame with a type byte from the future, its payload leading with a
  // varint id (the cross-family convention) so the rejection correlates.
  std::vector<std::uint8_t> frame;
  EncodeRequest(HttpGet(3), 77, frame);
  frame[3] = 0x2a;  // no such frame family here
  ASSERT_TRUE(conn.Send(frame));

  WireResponse response;
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_EQ(response.status, WireStatus::kUnsupportedFrame);
  EXPECT_EQ(response.request_id, 77u);

  // Not a hard close: the same connection still serves real requests.
  std::vector<std::uint8_t> good;
  EncodeRequest(HttpGet(3), 78, good);
  ASSERT_TRUE(conn.Send(good));
  ASSERT_TRUE(conn.RecvResponse(&response));
  EXPECT_EQ(response.status, WireStatus::kOk);
  EXPECT_EQ(response.request_id, 78u);

  const wire::WireStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.unsupported_frames, 1u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

TEST_F(WireServerTest, OwnershipFilterAnswersWrongWorkerWithEpoch) {
  // Fence odd client ids behind a plan at epoch 42 — the shape the
  // cluster worker agent backs this callback with.
  WireServerConfig config;
  config.ownership = [](std::uint64_t client_id, std::uint64_t* epoch) {
    *epoch = 42;
    return client_id % 2 == 0;
  };
  StartAll(BaseConfig(1), config);
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  WireResponse response;
  ASSERT_TRUE(client.Call(HttpGet(2), &response));
  EXPECT_EQ(response.status, WireStatus::kOk);

  ASSERT_TRUE(client.Call(HttpGet(3), &response));
  EXPECT_EQ(response.status, WireStatus::kWrongWorker);
  EXPECT_EQ(response.body, "42");  // the epoch travels as the body

  // Scripts pass the same fence: a kScript frame for a fenced client is
  // answered in-band with the same decimal epoch, before any sandbox work.
  wire::WireScriptRequest script;
  script.client_id = 5;
  script.source = "'never runs';";
  ASSERT_TRUE(client.CallScript(script, &response));
  EXPECT_EQ(response.status, WireStatus::kWrongWorker);
  EXPECT_EQ(response.body, "42");

  // The fence answers before dispatch: the gateway never saw request 3
  // or the script.
  client.Close();
  const wire::WireStatsSnapshot stats = server_->Stats();
  EXPECT_EQ(stats.wrong_worker, 2u);
  EXPECT_EQ(stats.requests_dispatched, 1u);
  EXPECT_EQ(stats.scripts_dispatched, 0u);
}

// ---------------------------------------------------------------------------
// Client: bounded connects and reconnection
// ---------------------------------------------------------------------------

TEST(WireClientConnect, RefusedPortFailsFastNotAfterKernelPatience) {
  // Grab a port with no listener behind it: bind, learn the number,
  // close — connects then get ECONNREFUSED immediately.
  const int probe = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const std::uint16_t dead_port = ntohs(addr.sin_port);
  ::close(probe);

  wire::ConnectOptions options;
  options.max_attempts = 3;
  options.initial_backoff = std::chrono::microseconds(2'000);
  options.backoff_multiplier = 2.0;
  const auto start = std::chrono::steady_clock::now();
  WireClient client;
  std::string error;
  EXPECT_FALSE(client.Connect(dead_port, options, &error));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(error.empty());
  // 3 refused attempts + 2ms and 4ms backoffs: well under a second, and
  // provably more than the backoff floor (the retries really slept).
  EXPECT_GE(elapsed, std::chrono::microseconds(6'000));
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST_F(WireServerTest, ClientReconnectsAfterServerRestart) {
  StartAll(BaseConfig(1), {});
  const std::uint16_t port = server_->port();

  WireClient client;
  ASSERT_TRUE(client.Connect(port));
  WireResponse response;
  ASSERT_TRUE(client.Call(HttpGet(1), &response));
  EXPECT_EQ(response.status, WireStatus::kOk);

  // Kill the server under the client. In-flight and future submits fail
  // with kTransportError (the exactly-once contract)…
  server_->Stop();
  for (int i = 0; i < 2000 && client.connected(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(client.connected());
  EXPECT_FALSE(client.Call(HttpGet(1), &response));

  // …and a fresh server on the same port is reachable through the SAME
  // client object: Connect reclaims the dead reader and dials again.
  WireServerConfig config;
  config.port = port;
  server_ = std::make_unique<WireServer>(*gateway_, config);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;

  wire::ConnectOptions retry;
  retry.max_attempts = 20;
  retry.initial_backoff = std::chrono::microseconds(10'000);
  retry.backoff_multiplier = 1.0;
  ASSERT_TRUE(client.Connect(port, retry, &error)) << error;
  ASSERT_TRUE(client.Call(HttpGet(1), &response));
  EXPECT_EQ(response.status, WireStatus::kOk);
  EXPECT_EQ(client.outstanding(), 0u);
  client.Close();
}

}  // namespace
}  // namespace mobivine
