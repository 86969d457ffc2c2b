// M-Gateway request envelope.
//
// A Request names an operation on the uniform M-Proxy surface — which
// platform binding to serve it on, which semantic operation, the operands,
// optional per-request properties — plus the serving-plane metadata the
// gateway acts on: a client id (shard affinity), a wall-clock deadline,
// and a retry policy for transient binding failures. Every submitted
// request receives exactly one Response through its completion callback,
// whether it was served, shed at admission, or expired in queue.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/errors.h"
#include "core/property.h"

namespace mobivine::gateway {

using Clock = std::chrono::steady_clock;

/// The platforms the gateway serves on, declared once: X(enumerator,
/// name). The name is ToString(Platform), ParsePlatformName's input, and
/// the platform tag fault rules and proxies' fault gates match on.
#define MOBIVINE_GATEWAY_PLATFORMS(X) \
  X(kAndroid, "android")              \
  X(kS60, "s60")                      \
  X(kIphone, "iphone")

/// Which platform binding serves the request. The whole point of the
/// layer below: the request shape is identical for all of them.
enum class Platform : std::uint8_t {
#define MOBIVINE_X(platform, name) platform,
  MOBIVINE_GATEWAY_PLATFORMS(MOBIVINE_X)
#undef MOBIVINE_X
};

inline constexpr const char* kPlatformNames[] = {
#define MOBIVINE_X(platform, name) name,
    MOBIVINE_GATEWAY_PLATFORMS(MOBIVINE_X)
#undef MOBIVINE_X
};
inline constexpr std::size_t kPlatformCount = std::size(kPlatformNames);

/// The proxy interface an op is served by; with Platform it indexes a
/// shard's [family][platform] proxy array.
enum class ProxyFamily : std::uint8_t { kLocation, kSms, kHttp };
inline constexpr std::size_t kProxyFamilyCount =
    static_cast<std::size_t>(ProxyFamily::kHttp) + 1;

/// The uniform operations the gateway serves, declared once: X(enumerator,
/// name, fault key, family, interface, method, parameters). The name is
/// ToString(Op) and the script op name; the fault key is what the bindings
/// pass to AdmitDispatch, so what a FaultRule must name; the last three
/// are the semantic-plane method the op invokes (parameter count without
/// callbacks), checked against the loaded descriptors at Gateway start.
/// Operands: sendSms(target, payload), httpGet(target), httpPost(target,
/// payload, content_type), segmentCount(payload).
#define MOBIVINE_GATEWAY_OPS(X)                                            \
  X(kGetLocation, "getLocation", "getLocation", kLocation, "Location",     \
    "getLocation", 0)                                                      \
  X(kSendSms, "sendSms", "sendTextMessage", kSms, "Sms", "sendTextMessage", \
    2)                                                                     \
  X(kHttpGet, "httpGet", "httpGet", kHttp, "Http", "get", 1)               \
  X(kHttpPost, "httpPost", "httpPost", kHttp, "Http", "post", 3)           \
  X(kSegmentCount, "segmentCount", "segmentCount", kSms, "Sms",            \
    "segmentCount", 1)

enum class Op : std::uint8_t {
#define MOBIVINE_X(op, name, fault_key, family, interface, method, params) op,
  MOBIVINE_GATEWAY_OPS(MOBIVINE_X)
#undef MOBIVINE_X
};

/// One row of the op table; kOps is indexed by Op.
struct OpInfo {
  const char* name;
  const char* fault_key;
  ProxyFamily family;
  const char* interface_name;
  const char* method;
  std::size_t parameters;
};

inline constexpr OpInfo kOps[] = {
#define MOBIVINE_X(op, name, fault_key, family, interface, method, params) \
  {name, fault_key, ProxyFamily::family, interface, method, params},
    MOBIVINE_GATEWAY_OPS(MOBIVINE_X)
#undef MOBIVINE_X
};
inline constexpr std::size_t kOpCount = std::size(kOps);

// Platform and Op travel as single wire bytes (wire/protocol.h): a
// reordered table must not compile.
static_assert(static_cast<int>(Platform::kAndroid) == 0);
static_assert(static_cast<int>(Platform::kIphone) == 2 && kPlatformCount == 3);
static_assert(static_cast<int>(Op::kGetLocation) == 0);
static_assert(static_cast<int>(Op::kSegmentCount) == 4 && kOpCount == 5);

/// The table row of `op`; nullptr for a value outside the table.
[[nodiscard]] constexpr const OpInfo* FindOp(Op op) {
  const auto index = static_cast<std::size_t>(op);
  return index < kOpCount ? &kOps[index] : nullptr;
}

[[nodiscard]] const char* ToString(Platform platform);
[[nodiscard]] const char* ToString(Op op);

/// Bounded exponential backoff for transient binding failures (timeouts,
/// radio failures, lost fixes). max_attempts counts every execution, so
/// max_attempts = 1 means "no retries"; 0 defers to the gateway default.
struct RetryPolicy {
  int max_attempts = 0;
  std::chrono::microseconds initial_backoff{200};
  double multiplier = 2.0;
  std::chrono::microseconds max_backoff{5'000};
};

struct Response {
  bool ok = false;
  core::ErrorCode error = core::ErrorCode::kUnknown;
  std::string message;  ///< error detail; empty on success
  std::string payload;  ///< op result (body, message id, "lat,lon", ...)
  int attempts = 0;     ///< dispatches performed (0 when shed/expired);
                        ///< with failover/hedging one retry round may
                        ///< issue several dispatches
  std::uint32_t shard = 0;
  /// Which platform actually produced the successful payload. Equals the
  /// request's platform unless M-Failover re-dispatched (failover/hedge)
  /// — the caller never had to know, but M-Scope does.
  Platform served_platform = Platform::kAndroid;
  std::chrono::microseconds latency{0};  ///< submit -> completion, wall clock
};

struct Request {
  std::uint64_t client_id = 0;  ///< shard affinity key
  /// Tenant this request bills against (gateway/tenant.h). 0 — the
  /// default for every pre-tenancy caller — is the built-in "default"
  /// tenant; unknown ids also resolve there, never to a rejection.
  std::uint32_t tenant = 0;
  Platform platform = Platform::kAndroid;
  Op op = Op::kGetLocation;
  std::string target;        ///< url / destination number
  std::string payload;       ///< post body / sms text
  std::string content_type;  ///< kHttpPost only
  /// Applied via setProperty() before the op runs (descriptor-validated).
  std::vector<std::pair<std::string, core::PropertyValue>> properties;
  /// Wall-clock budget from submission; zero means no deadline. Checked
  /// at dequeue and between retry attempts — a blocking binding call in
  /// progress is never interrupted.
  std::chrono::microseconds timeout{0};
  RetryPolicy retry;  ///< max_attempts == 0 defers to the gateway default
  /// Invoked exactly once: on the owning shard's worker thread after
  /// service, or on the submitting thread when the request is shed.
  std::function<void(const Response&)> on_complete;
};

/// One borrowed property: the name and any string value are views into
/// caller-owned memory, valid only for the duration of the Submit call.
/// The value lanes mirror the four wire-encodable PropertyValue scalars.
struct BorrowedProperty {
  std::string_view name;
  std::variant<std::string_view, long long, double, bool> value;
};

/// Owning copy of one borrowed property: the one conversion shared by the
/// gateway's queueing path and wire::DecodeRequest.
[[nodiscard]] inline std::pair<std::string, core::PropertyValue> ToOwned(
    const BorrowedProperty& property) {
  return {std::string(property.name),
          std::visit([](auto value) { return core::PropertyValue(value); },
                     property.value)};
}

/// A Request whose string operands are borrowed views — the zero-copy
/// envelope the wire layer decodes straight out of a connection's input
/// ring. Gateway::Submit(const BorrowedRequest&, ...) materializes owning
/// copies only when the request is actually queued; a shed decision
/// (overload, stopping) is taken first and never copies a byte, so the
/// overload path costs nothing beyond the completion callback itself.
/// Every view must stay valid until Submit returns; nothing retains them.
struct BorrowedRequest {
  std::uint64_t client_id = 0;
  std::uint32_t tenant = 0;  ///< same resolution rules as Request::tenant
  Platform platform = Platform::kAndroid;
  Op op = Op::kGetLocation;
  std::string_view target;
  std::string_view payload;
  std::string_view content_type;
  const BorrowedProperty* properties = nullptr;
  std::size_t property_count = 0;
  std::chrono::microseconds timeout{0};
  RetryPolicy retry;
};

}  // namespace mobivine::gateway
