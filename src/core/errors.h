// MobiVine's unified error model.
//
// Each platform throws its own exception hierarchy (android::*, s60::*) or
// propagates error codes (the WebView JS bridge). The binding plane of a
// proxy declares the platform's exception set; at runtime every native
// failure is mapped onto one ProxyError so application code handles errors
// identically on every platform.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace mobivine::core {

/// The unified error vocabulary, declared once: X(enumerator, name, wire
/// code, doc). The table generates ErrorCode, ToString(ErrorCode) and
/// ErrorCodeFromName here, and the mirrored 1..13 band of
/// wire::WireStatus with FromErrorCode/ToErrorCode in wire/protocol.h —
/// adding a code is one row. Rows must keep their order: the enumerator
/// values are pinned below, and the wire codes are part of the protocol.
#define MOBIVINE_ERROR_CODES(X)                                               \
  X(kSecurity, "security", 1,                                                 \
    "missing permission on the underlying platform")                          \
  X(kIllegalArgument, "illegal-argument", 2,                                  \
    "bad parameter rejected by the platform")                                 \
  X(kLocationUnavailable, "location-unavailable", 3,                          \
    "no fix / provider cannot serve the request")                             \
  X(kTimeout, "timeout", 4, "operation exceeded the platform's time budget")  \
  X(kUnreachable, "unreachable", 5,                                           \
    "destination (host/subscriber) unreachable")                              \
  X(kRadioFailure, "radio-failure", 6, "transient radio-level failure")       \
  X(kUnsupported, "unsupported", 7,                                           \
    "interface not exposed on this platform/version")                         \
  X(kInvalidState, "invalid-state", 8,                                        \
    "call sequencing error (closed handle, busy line)")                       \
  X(kNetwork, "network", 9, "generic network-layer failure")                  \
  X(kOverloaded, "overloaded", 10,                                            \
    "gateway shed the request (admission control)")                           \
  X(kDeadlineExceeded, "deadline-exceeded", 11,                               \
    "request deadline expired before/while serving")                          \
  X(kAllBackendsFailed, "all-backends-failed", 12,                            \
    "failover exhausted every healthy platform")                              \
  X(kUnknown, "unknown", 13, "anything the rows above do not name")

enum class ErrorCode {
#define MOBIVINE_X(code, name, wire, doc) code,
  MOBIVINE_ERROR_CODES(MOBIVINE_X)
#undef MOBIVINE_X
};

// No enumerator value leaves the process: a script sees a code's name
// (`e.code`) and a wire client its wire byte. The values are pinned anyway,
// so that reordering the table is a deliberate edit of these lines too.
static_assert(static_cast<int>(ErrorCode::kSecurity) == 0);
static_assert(static_cast<int>(ErrorCode::kTimeout) == 3);
static_assert(static_cast<int>(ErrorCode::kAllBackendsFailed) == 11);
static_assert(static_cast<int>(ErrorCode::kUnknown) == 12);

[[nodiscard]] const char* ToString(ErrorCode code);

/// Inverse of ToString: "timeout" -> kTimeout, etc. Unrecognised names map
/// to kUnknown, as "unknown" itself does. Lets layers below core/
/// (support::FaultPlan) name error codes as strings without depending on
/// this enum.
[[nodiscard]] ErrorCode ErrorCodeFromName(std::string_view name);

/// The single exception type the MobiVine public API throws.
class ProxyError : public std::runtime_error {
 public:
  ProxyError(ErrorCode code, const std::string& message,
             std::string platform = "", std::string native_type = "")
      : std::runtime_error("[" + std::string(ToString(code)) + "] " + message),
        code_(code),
        platform_(std::move(platform)),
        native_type_(std::move(native_type)) {}

  ErrorCode code() const { return code_; }
  /// Which binding raised it ("android", "s60", "webview"); empty when the
  /// error originated in the MobiVine layer itself.
  const std::string& platform() const { return platform_; }
  /// The native exception type that was absorbed (diagnostics).
  const std::string& native_type() const { return native_type_; }

 private:
  ErrorCode code_;
  std::string platform_;
  std::string native_type_;
};

/// Map the in-flight exception (rethrown internally) from a given platform
/// to a ProxyError, which is then thrown. Must be called inside a catch
/// block. ProxyError passes through unchanged.
[[noreturn]] void RethrowAsProxyError(const std::string& platform);

/// Map a WebView bridge error code (webview::kErrorCode*) to ErrorCode.
[[nodiscard]] ErrorCode FromWebViewErrorCode(int code);

}  // namespace mobivine::core
