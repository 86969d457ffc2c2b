// M-Wire binary protocol: the gateway's request/response envelope as
// compact, versioned, length-prefixed frames.
//
// The M-Proxy semantic plane (platform-neutral method name, typed
// parameter list, return object) is already a de-facto RPC schema; this
// header pins its on-the-wire form. Proxy and method symbols travel as
// single-byte enum codes (the wire-level analogue of the in-process
// interner: one agreed small integer per distinct symbol), parameters as
// tagged scalars, and per-request properties as (name, tagged value)
// pairs the server re-interns on arrival.
//
// Frame layout (all integers little-endian, lengths varint — see
// support/varint.h):
//
//     u8   magic0 = 'M'      u8  magic1 = 'V'
//     u8   version (kWireVersion)
//     u8   type    (FrameType)
//     var  payload_length    (<= kMaxFramePayload)
//     u8[] payload
//     u32  crc32(payload)    (fixed 4 bytes; support/checksum.h)
//
// Hard caps — a malformed or hostile peer must not be able to OOM the
// server: payload length, string field length and property count are all
// bounded, and every bound is checked BEFORE allocating. A frame whose
// declared length exceeds the cap is a framing error (the connection
// closes); a well-framed payload that violates a body rule gets a typed
// kMalformedRequest response when its request id was recoverable.
//
// Request ids are client-chosen correlation tokens echoed verbatim in
// the response. The server does not dedupe them: two in-flight frames
// with the same id get two responses with that id (the client library
// never does this; the fuzz suite does it on purpose).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/errors.h"
#include "gateway/request.h"
#include "support/small_vector.h"

namespace mobivine::wire {

inline constexpr std::uint8_t kMagic0 = 'M';
inline constexpr std::uint8_t kMagic1 = 'V';
inline constexpr std::uint8_t kWireVersion = 1;

/// Caps checked before any allocation sized from peer input.
inline constexpr std::size_t kMaxFramePayload = 1u << 20;  // 1 MiB
inline constexpr std::size_t kMaxStringBytes = 64u << 10;  // per field
inline constexpr std::size_t kMaxProperties = 64;

/// Declares a one-byte wire enum from its rows X(enumerator, code, doc),
/// together with IsKnown(Name): true for exactly the declared codes, so a
/// decoder's validity check reads the declaration instead of comparing
/// with a last enumerator.
#define MOBIVINE_WIRE_ENUM(Name, ROWS)                               \
  enum class Name : std::uint8_t { ROWS(MOBIVINE_WIRE_ENUM_VALUE) }; \
  [[nodiscard]] constexpr bool IsKnown(Name value) {                 \
    switch (static_cast<std::uint8_t>(value)) {                      \
      ROWS(MOBIVINE_WIRE_ENUM_CASE)                                  \
      return true;                                                   \
    }                                                                \
    return false;                                                    \
  }
#define MOBIVINE_WIRE_ENUM_VALUE(name, code, doc) name = code,
#define MOBIVINE_WIRE_ENUM_CASE(name, code, doc) case code:

/// The frame types. Client -> server: kRequest; kScript (M-Script: a
/// MiniJS program plus named string arguments, run inside the owning
/// shard and answered with one ordinary kResponse: the result (kOk), the
/// thrown value (kScriptError) or a budget/queue outcome); kSubscribe
/// (M-Push: open a topic subscription, optionally replaying from a
/// cursor; answered with a kSubscribeAck, then zero or more kEvent
/// frames); kUnsubscribe (answered with a kSubscribeAck). Server ->
/// client: kResponse; kSubscribeAck (the typed outcome, the assigned
/// subscription id and the cursor the stream starts from); kEvent (a
/// pushed callback, a gap marker or an end-of-drain marker, never
/// acknowledged: the server sheds instead of waiting). kControl is the
/// M-Cluster control plane (src/cluster/control.h): same envelope,
/// another payload; data-plane peers that predate it answer
/// kUnsupportedFrame.
#define MOBIVINE_WIRE_FRAME_TYPES(X)      \
  X(kRequest, 1, "request")               \
  X(kResponse, 2, "response")             \
  X(kControl, 3, "cluster control")       \
  X(kSubscribe, 4, "push subscribe")      \
  X(kEvent, 5, "push event")              \
  X(kUnsubscribe, 6, "push unsubscribe")  \
  X(kSubscribeAck, 7, "push ack")         \
  X(kScript, 8, "composite script")
MOBIVINE_WIRE_ENUM(FrameType, MOBIVINE_WIRE_FRAME_TYPES)

/// Is this a frame type this build knows how to handle? Unknown types
/// still *frame* correctly (DecodeFrame validates the envelope only), so
/// a newer peer's frames can be answered in-band instead of killing the
/// connection — mixed-version fleets degrade gracefully.
[[nodiscard]] constexpr bool IsKnownFrameType(FrameType type) {
  return IsKnown(type);
}

/// Wire status codes. 0 is success; 1..13 mirror core::ErrorCode one to
/// one — generated from the error-code table (MOBIVINE_ERROR_CODES in
/// core/errors.h), whose wire column fixes each byte; docs/failure-
/// semantics.md holds the table. The >= 64 band is wire-layer-only:
/// protocol violations and client-side transport failures that never had
/// a gateway outcome.
enum class WireStatus : std::uint8_t {
  kOk = 0,
#define MOBIVINE_X(code, name, wire, doc) code = wire,
  MOBIVINE_ERROR_CODES(MOBIVINE_X)
#undef MOBIVINE_X
  kMalformedRequest = 64,  ///< well-framed payload violated a body rule
  kTransportError = 65,    ///< client-side: connection died mid-flight
  /// M-Cluster: this worker does not own the request's client id under
  /// its current partition plan. The response body carries the worker's
  /// plan epoch as a decimal string — the cluster client refreshes to at
  /// least that epoch and re-routes.
  kWrongWorker = 66,
  /// The frame was well-formed but its type byte is not one this peer
  /// implements (a newer protocol revision, or a control frame sent to a
  /// plain data server). Answered in-band; the connection lives on.
  kUnsupportedFrame = 67,
  /// M-Script: the script was well-formed and admitted but its execution
  /// threw (an uncaught script `throw`, a sandbox budget kill, or an
  /// oversized result). The response body carries the thrown value's
  /// display string. Time-budget exhaustion maps to kDeadlineExceeded
  /// instead — it is a deadline outcome, not a script bug.
  kScriptError = 68,
};

// The mirrored band is wire bytes: pin both ends, and keep every row
// clear of kOk and of the wire-only band.
static_assert(static_cast<std::uint8_t>(WireStatus::kSecurity) == 1);
static_assert(static_cast<std::uint8_t>(WireStatus::kUnknown) == 13);
#define MOBIVINE_X(code, name, wire, doc) \
  static_assert((wire) > 0 && (wire) < 64, "wire code of " name);
MOBIVINE_ERROR_CODES(MOBIVINE_X)
#undef MOBIVINE_X

[[nodiscard]] const char* ToString(WireStatus status);
[[nodiscard]] WireStatus FromErrorCode(core::ErrorCode code);
/// Inverse for the mirrored band; the wire-only band maps to kUnknown.
[[nodiscard]] core::ErrorCode ToErrorCode(WireStatus status);

// Each message struct below is one payload kind. Its byte layout is
// declared once, by its layout template in wire/protocol.cpp (or
// cluster/control.cpp); docs/wire-protocol.md lists the fields in order
// and tests/golden/codec_frames.hex pins the bytes.

/// A request as it travels: the gateway::Request envelope minus the
/// completion callback, plus the correlation id.
struct WireRequest {
  std::uint64_t request_id = 0;
  std::uint64_t client_id = 0;  ///< shard affinity key, forwarded as-is
  gateway::Platform platform = gateway::Platform::kAndroid;
  gateway::Op op = gateway::Op::kGetLocation;
  std::uint64_t timeout_micros = 0;  ///< 0: server default
  std::uint32_t max_attempts = 0;    ///< retry rounds; 0: server default
  std::string target;
  std::string payload;
  std::string content_type;
  /// Tagged scalar properties (string / int64 / double / bool) — the four
  /// descriptor-declared lanes. Native-handle properties do not travel.
  std::vector<std::pair<std::string, core::PropertyValue>> properties;
};

/// A response as it travels: outcome, the M-Failover summary (attempts,
/// which platform actually served), and the return value or error detail.
struct WireResponse {
  std::uint64_t request_id = 0;
  WireStatus status = WireStatus::kUnknown;
  gateway::Platform served_platform = gateway::Platform::kAndroid;
  std::uint32_t attempts = 0;
  std::uint64_t latency_micros = 0;  ///< server-side submit -> completion
  std::string body;  ///< op result when kOk; error detail otherwise
};

// ---------------------------------------------------------------------------
// M-Script frame body (kScript)
// ---------------------------------------------------------------------------

/// A kScript body. Budget fields of 0 mean "server default" — the server
/// clamps everything to its own ceilings anyway, so a client cannot buy
/// itself a bigger sandbox than the operator allows. Answered with an
/// ordinary kResponse frame (same correlation id).
struct WireScriptRequest {
  std::uint64_t request_id = 0;
  std::uint64_t client_id = 0;       ///< shard/plan routing key
  std::uint64_t timeout_micros = 0;  ///< queue+execution deadline; 0: default
  std::uint64_t step_budget = 0;       ///< interpreter steps; 0: default
  std::uint64_t virtual_us_budget = 0; ///< virtual-clock budget; 0: default
  std::uint64_t max_result_bytes = 0;  ///< result display cap; 0: default
  std::string source;  ///< MiniJS program (<= kMaxStringBytes)
  /// Named string arguments, exposed to the script as the `args` host
  /// object (<= kMaxProperties entries, each side <= kMaxStringBytes).
  std::vector<std::pair<std::string, std::string>> args;
};

// ---------------------------------------------------------------------------
// M-Push frame bodies (kSubscribe / kSubscribeAck / kEvent / kUnsubscribe)
// ---------------------------------------------------------------------------

/// What a subscription listens to. Topics are small enum codes like the
/// proxy/method symbols: one agreed byte per distinct callback family.
#define MOBIVINE_PUSH_TOPICS(X)                                          \
  X(kAll, 0, "wildcard: every topic on the owning shard")                \
  X(kProximity, 1, "ProximityListener::proximityEvent")                  \
  X(kSmsDelivery, 2, "SmsListener::smsStatusChanged delivery reports")   \
  X(kCallState, 3, "CallListener::callStateChanged")                     \
  X(kNotification, 4, "WebView NotificationTable posts (paper Fig 6)")
MOBIVINE_WIRE_ENUM(PushTopic, MOBIVINE_PUSH_TOPICS)

/// How the subscription starts relative to the shard's replay ring.
/// kDrainOnce is the poll primitive (bench baseline and migration path
/// for NotificationTable-style clients).
#define MOBIVINE_SUBSCRIBE_MODES(X)                                     \
  X(kLiveOnly, 0, "events from now on; cursor ignored")                 \
  X(kFromCursor, 1, "replay retained events after cursor, then live")   \
  X(kDrainOnce, 2,                                                      \
    "replay retained events after cursor, emit an end-of-drain "        \
    "marker, and auto-close")
MOBIVINE_WIRE_ENUM(SubscribeMode, MOBIVINE_SUBSCRIBE_MODES)

/// A kSubscribe body; client_id is the shard/plan routing key, as in
/// requests.
struct WireSubscribe {
  std::uint64_t request_id = 0;
  std::uint64_t client_id = 0;
  PushTopic topic = PushTopic::kAll;
  SubscribeMode mode = SubscribeMode::kLiveOnly;
  std::uint64_t cursor = 0;  ///< last cursor already seen (kFromCursor)
};

/// A kUnsubscribe body.
struct WireUnsubscribe {
  std::uint64_t request_id = 0;
  std::uint64_t subscription_id = 0;
};

/// A kSubscribeAck body. Acks both subscribe (the assigned id + the
/// cursor the stream starts after — a clamped start_cursor < the
/// requested cursor means the ring no longer retained the gap) and
/// unsubscribe (ids echo back).
struct WireSubscribeAck {
  std::uint64_t request_id = 0;
  WireStatus status = WireStatus::kUnknown;
  std::uint64_t subscription_id = 0;
  std::uint64_t start_cursor = 0;
};

/// What a kEvent frame carries. On kEventsDropped the per-connection
/// queue overflowed and events [aux, cursor] were shed — re-sync from
/// `cursor` instead of silently missing them.
#define MOBIVINE_EVENT_KINDS(X)                                        \
  X(kData, 0, "a pushed platform callback; body is the payload")       \
  X(kEventsDropped, 1, "events [aux, cursor] were shed")               \
  X(kEndOfDrain, 2, "kDrainOnce replay finished; subscription closed")
MOBIVINE_WIRE_ENUM(EventKind, MOBIVINE_EVENT_KINDS)

/// A kEvent body:
///  * kData:          cursor = the event's ring cursor; aux = origin
///                    client id (0 = device-wide broadcast).
///  * kEventsDropped: [aux, cursor] is the shed cursor range; body empty.
///  * kEndOfDrain:    cursor = last cursor replayed (resume point for the
///                    next kDrainOnce); aux 0; body empty.
struct WireEvent {
  std::uint64_t subscription_id = 0;
  EventKind kind = EventKind::kData;
  PushTopic topic = PushTopic::kAll;
  std::uint64_t cursor = 0;
  std::uint64_t aux = 0;
  std::string body;
};

/// A request decoded without copying: every string field is a view into
/// the frame payload the decoder was handed (a connection's input ring).
/// Valid only until that buffer is consumed, grown or linearized — the
/// ring's generation counter is the caller's staleness guard. Reusable:
/// a long-lived view retains its property capacity across decodes.
struct WireRequestView {
  std::uint64_t request_id = 0;
  std::uint64_t client_id = 0;
  gateway::Platform platform = gateway::Platform::kAndroid;
  gateway::Op op = gateway::Op::kGetLocation;
  std::uint64_t timeout_micros = 0;
  std::uint32_t max_attempts = 0;
  std::string_view target;
  std::string_view payload;
  std::string_view content_type;
  /// Borrowed (name, tagged scalar) pairs — the exact shape
  /// gateway::Submit's borrowed-request overload consumes.
  support::SmallVector<gateway::BorrowedProperty, 8> properties;
};

// ---------------------------------------------------------------------------
// Encoding (append-to-buffer; callers reuse buffers across frames)
// ---------------------------------------------------------------------------
//
// Every encoder appends one whole frame and returns false when its
// payload is over kMaxFramePayload: every string may be within its cap
// while their sum is not. The frame is written all the same (a peer
// would close the connection on it); a sender rolls it back instead of
// sending it, as WireClient does.

bool EncodeRequest(const WireRequest& request, std::vector<std::uint8_t>& out);
/// Encode with the correlation id supplied separately, so a client can
/// stamp ids without mutating (or copying) the caller's request.
bool EncodeRequest(const WireRequest& request, std::uint64_t request_id,
                   std::vector<std::uint8_t>& out);
bool EncodeResponse(const WireResponse& response,
                    std::vector<std::uint8_t>& out);
/// Encode with the body supplied separately as a borrowed view — the
/// server's completion path hands the gateway payload straight through
/// without copying it into a WireResponse first. `response.body` is
/// ignored.
bool EncodeResponse(const WireResponse& response, std::string_view body,
                    std::vector<std::uint8_t>& out);

bool EncodeScript(const WireScriptRequest& script,
                  std::vector<std::uint8_t>& out);
/// Encode with the correlation id supplied separately (client id-stamping,
/// mirroring the EncodeRequest overload).
bool EncodeScript(const WireScriptRequest& script, std::uint64_t request_id,
                  std::vector<std::uint8_t>& out);

bool EncodeSubscribe(const WireSubscribe& subscribe,
                     std::vector<std::uint8_t>& out);
bool EncodeUnsubscribe(const WireUnsubscribe& unsubscribe,
                       std::vector<std::uint8_t>& out);
bool EncodeSubscribeAck(const WireSubscribeAck& ack,
                        std::vector<std::uint8_t>& out);
bool EncodeEvent(const WireEvent& event, std::vector<std::uint8_t>& out);

/// Wrap payload bytes the caller appended at out[payload_start..) in the
/// frame header + CRC trailer (the payload is moved right by the header
/// length — one insert). Every encoder ends with it, the cluster control
/// codec's too. False when the payload is over kMaxFramePayload.
bool FinishFrame(std::vector<std::uint8_t>& out, std::size_t payload_start,
                 FrameType type);

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

enum class DecodeStatus : std::uint8_t {
  kOk,
  kNeedMore,   ///< valid so far, frame incomplete — wait for bytes
  kMalformed,  ///< can never become valid — framing error, close the peer
};

/// A decoded frame boundary: `payload` points into the caller's buffer
/// (valid until the buffer is consumed/moved).
struct FrameView {
  FrameType type = FrameType::kRequest;
  const std::uint8_t* payload = nullptr;
  std::size_t payload_size = 0;
};

/// Scan one frame from [data, data+size). kOk sets `frame` and `consumed`
/// (total frame bytes including header and CRC trailer); kNeedMore means
/// feed more bytes and retry from the same offset; kMalformed fills
/// `error` (bad magic/version, length over cap, CRC mismatch, malformed
/// length varint). An *unknown type byte* is NOT a framing error: the
/// envelope is validated and the frame returned with its raw type, so
/// the caller can answer kUnsupportedFrame in-band (IsKnownFrameType).
[[nodiscard]] DecodeStatus DecodeFrame(const std::uint8_t* data,
                                       std::size_t size, FrameView* frame,
                                       std::size_t* consumed,
                                       std::string* error);

enum class BodyStatus : std::uint8_t {
  kOk,
  kBadId,    ///< request id itself unreadable — treat as a framing error
  kBadBody,  ///< id recovered; answer it with kMalformedRequest
};

/// Decode a kRequest frame payload. On kBadBody, request_id is valid and
/// `error` says what was wrong; on kBadId nothing is usable.
[[nodiscard]] BodyStatus DecodeRequest(const std::uint8_t* payload,
                                       std::size_t size, WireRequest* request,
                                       std::string* error);

/// Zero-copy variant: identical validation and semantics (DecodeRequest
/// is implemented on top of it), but string fields come back as views
/// into `payload` — nothing is allocated on success. The view is cleared
/// first; on kBadBody its request_id is valid, like DecodeRequest.
[[nodiscard]] BodyStatus DecodeRequestView(const std::uint8_t* payload,
                                           std::size_t size,
                                           WireRequestView* view,
                                           std::string* error);

/// Decode a kScript frame payload. Same contract as DecodeRequest: on
/// kBadBody the request_id is valid and can be answered with a typed
/// kMalformedRequest response; on kBadId nothing is usable.
[[nodiscard]] BodyStatus DecodeScript(const std::uint8_t* payload,
                                      std::size_t size,
                                      WireScriptRequest* script,
                                      std::string* error);

/// Decode a kResponse frame payload (client side). True on success.
[[nodiscard]] bool DecodeResponse(const std::uint8_t* payload,
                                  std::size_t size, WireResponse* response,
                                  std::string* error);

/// Decode a kSubscribe frame payload. Same contract as DecodeRequest:
/// on kBadBody the request_id is valid and can be answered with a typed
/// kMalformedRequest ack; on kBadId nothing is usable.
[[nodiscard]] BodyStatus DecodeSubscribe(const std::uint8_t* payload,
                                         std::size_t size,
                                         WireSubscribe* subscribe,
                                         std::string* error);

/// Decode a kUnsubscribe frame payload (same kBadId/kBadBody contract).
[[nodiscard]] BodyStatus DecodeUnsubscribe(const std::uint8_t* payload,
                                           std::size_t size,
                                           WireUnsubscribe* unsubscribe,
                                           std::string* error);

/// Decode a kSubscribeAck frame payload (client side). True on success.
[[nodiscard]] bool DecodeSubscribeAck(const std::uint8_t* payload,
                                      std::size_t size, WireSubscribeAck* ack,
                                      std::string* error);

/// Decode a kEvent frame payload (client side). True on success.
[[nodiscard]] bool DecodeEvent(const std::uint8_t* payload, std::size_t size,
                               WireEvent* event, std::string* error);

/// Best-effort correlation id for a frame whose type this peer does not
/// implement: every frame family in this protocol leads its payload with
/// a varint id, so an unsupported frame can still be answered with the
/// id its sender will recognize. False when no clean leading varint.
[[nodiscard]] bool PeekPayloadId(const std::uint8_t* payload,
                                 std::size_t size, std::uint64_t* id);

}  // namespace mobivine::wire
