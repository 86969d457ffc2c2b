#include "core/errors.h"

#include <iterator>

#include "android/exceptions.h"
#include "s60/exceptions.h"
#include "support/trace.h"
#include "webview/bridge.h"

namespace mobivine::core {

namespace {

constexpr const char* kErrorCodeNames[] = {
#define MOBIVINE_X(code, name, wire, doc) name,
    MOBIVINE_ERROR_CODES(MOBIVINE_X)
#undef MOBIVINE_X
};

}  // namespace

const char* ToString(ErrorCode code) {
  const auto index = static_cast<std::size_t>(code);
  return index < std::size(kErrorCodeNames) ? kErrorCodeNames[index] : "?";
}

ErrorCode ErrorCodeFromName(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kErrorCodeNames); ++i) {
    if (name == kErrorCodeNames[i]) return static_cast<ErrorCode>(i);
  }
  return ErrorCode::kUnknown;
}

void RethrowAsProxyError(const std::string& platform) {
  // The span brackets the native -> ProxyError mapping itself; it ends
  // when the mapped exception unwinds out of this frame.
  support::trace::Span span("core.exceptionMap");
  try {
    throw;  // dispatch on the in-flight exception's dynamic type
  } catch (const ProxyError&) {
    throw;  // already unified
  }
  // --- Android exception set ---------------------------------------------
  catch (const android::SecurityException& e) {
    throw ProxyError(ErrorCode::kSecurity, e.what(), platform,
                     "android.SecurityException");
  } catch (const android::IllegalArgumentException& e) {
    throw ProxyError(ErrorCode::kIllegalArgument, e.what(), platform,
                     "android.IllegalArgumentException");
  } catch (const android::UnsupportedOperationException& e) {
    throw ProxyError(ErrorCode::kUnsupported, e.what(), platform,
                     "android.UnsupportedOperationException");
  } catch (const android::IllegalStateException& e) {
    throw ProxyError(ErrorCode::kInvalidState, e.what(), platform,
                     "android.IllegalStateException");
  } catch (const android::ConnectTimeoutException& e) {
    throw ProxyError(ErrorCode::kTimeout, e.what(), platform,
                     "android.ConnectTimeoutException");
  } catch (const android::ClientProtocolException& e) {
    throw ProxyError(ErrorCode::kUnreachable, e.what(), platform,
                     "android.ClientProtocolException");
  } catch (const android::RemoteException& e) {
    throw ProxyError(ErrorCode::kUnknown, e.what(), platform,
                     "android.RemoteException");
  }
  // --- S60 / J2ME exception set -----------------------------------------
  catch (const s60::SecurityException& e) {
    throw ProxyError(ErrorCode::kSecurity, e.what(), platform,
                     "s60.SecurityException");
  } catch (const s60::LocationException& e) {
    throw ProxyError(ErrorCode::kLocationUnavailable, e.what(), platform,
                     "s60.LocationException");
  } catch (const s60::IllegalArgumentException& e) {
    throw ProxyError(ErrorCode::kIllegalArgument, e.what(), platform,
                     "s60.IllegalArgumentException");
  } catch (const s60::NullPointerException& e) {
    throw ProxyError(ErrorCode::kIllegalArgument, e.what(), platform,
                     "s60.NullPointerException");
  } catch (const s60::InterruptedIOException& e) {
    throw ProxyError(ErrorCode::kRadioFailure, e.what(), platform,
                     "s60.InterruptedIOException");
  } catch (const s60::ConnectionNotFoundException& e) {
    throw ProxyError(ErrorCode::kIllegalArgument, e.what(), platform,
                     "s60.ConnectionNotFoundException");
  } catch (const s60::IOException& e) {
    throw ProxyError(ErrorCode::kNetwork, e.what(), platform,
                     "s60.IOException");
  }
  // --- anything else -----------------------------------------------------
  catch (const std::exception& e) {
    throw ProxyError(ErrorCode::kUnknown, e.what(), platform,
                     "std.exception");
  }
}

ErrorCode FromWebViewErrorCode(int code) {
  switch (code) {
    case webview::kErrorCodeSecurity:
      return ErrorCode::kSecurity;
    case webview::kErrorCodeIllegalArgument:
      return ErrorCode::kIllegalArgument;
    case webview::kErrorCodeUnsupportedOperation:
      return ErrorCode::kUnsupported;
    case webview::kErrorCodeIllegalState:
      return ErrorCode::kInvalidState;
    case webview::kErrorCodeConnectTimeout:
      return ErrorCode::kTimeout;
    case webview::kErrorCodeClientProtocol:
      return ErrorCode::kUnreachable;
    case webview::kErrorCodeRemote:
      return ErrorCode::kUnknown;
    default:
      return ErrorCode::kUnknown;
  }
}

}  // namespace mobivine::core
