// iPhone OS binding-plane implementations — the §7 future-work platform.
//
// What these absorb:
//  * CoreLocation's streaming-only, delegate-based model: the uniform
//    blocking getLocation() is synthesized by pumping the run loop until
//    the first fix (exactly what 2009 iPhone apps did), and the uniform
//    continuous proximity semantics are synthesized client-side from the
//    update stream (no CLRegion before iOS 4).
//  * Consent-dialog security: location denial arrives as a delegate
//    NSError (kCLErrorDenied), not an exception — mapped to the same
//    ProxyError(kSecurity) as Android's and S60's SecurityException.
//  * openURL-based messaging/telephony: no silent sends; the user
//    confirmation and its cancellation surface as uniform SMS/call
//    statuses.
//  * NSError-out-parameter HTTP — mapped to the uniform error codes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/call_proxy.h"
#include "core/http_proxy.h"
#include "core/location_proxy.h"
#include "core/pim_proxy.h"
#include "core/sms_proxy.h"
#include "iphone/core_location.h"
#include "iphone/iphone_platform.h"

namespace mobivine::core {

class IPhoneLocationProxy : public LocationProxy {
 public:
  IPhoneLocationProxy(iphone::IPhonePlatform& platform,
                      const BindingPlane* binding);
  ~IPhoneLocationProxy() override;

  void addProximityAlert(double latitude, double longitude, double altitude,
                         float radius_m, long long timer_ms,
                         ProximityListener* listener) override;
  void removeProximityAlert(ProximityListener* listener) override;
  Location getLocation() override;

 private:
  struct AlertState;
  class StreamDelegate;

  double DesiredAccuracy();
  void Teardown(AlertState& state);

  iphone::IPhonePlatform& platform_;
  std::vector<std::shared_ptr<AlertState>> alerts_;
};

class IPhoneSmsProxy : public SmsProxy {
 public:
  IPhoneSmsProxy(iphone::IPhonePlatform& platform, const BindingPlane* binding);

  long long sendTextMessage(const std::string& destination,
                            const std::string& text,
                            SmsListener* listener) override;
  int segmentCount(const std::string& text) override;

 private:
  iphone::IPhonePlatform& platform_;
  long long next_message_id_ = 1;
  /// Expires with the proxy, so a compose that finishes after the
  /// proxy is gone reports nothing.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

class IPhoneCallProxy : public CallProxy {
 public:
  IPhoneCallProxy(iphone::IPhonePlatform& platform,
                  const BindingPlane* binding);

  bool makeCall(const std::string& number, CallListener* listener) override;
  void endCall() override;
  CallProgress currentState() override;

 private:
  iphone::IPhonePlatform& platform_;
  CallProgress last_known_ = CallProgress::kEnded;
  bool composing_ = false;
  /// Expires with the proxy, so a dial that finishes after the proxy is
  /// gone reports nothing.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

class IPhoneHttpProxy : public HttpProxy {
 public:
  IPhoneHttpProxy(iphone::IPhonePlatform& platform,
                  const BindingPlane* binding);

  HttpResult get(const std::string& url) override;
  HttpResult post(const std::string& url, const std::string& body,
                  const std::string& content_type) override;
  void setHeader(const std::string& name, const std::string& value) override;

 private:
  HttpResult Execute(const std::string& method, const std::string& url,
                     const std::string& body, const std::string& content_type);
  iphone::IPhonePlatform& platform_;
  std::vector<std::pair<std::string, std::string>> headers_;
};

class IPhonePimProxy : public PimProxy {
 public:
  IPhonePimProxy(iphone::IPhonePlatform& platform,
                 const BindingPlane* binding);

  std::vector<Contact> listContacts() override;
  std::optional<Contact> findByNumber(const std::string& phone_number) override;
  std::vector<Contact> findByName(const std::string& fragment) override;

 private:
  iphone::IPhonePlatform& platform_;
};

}  // namespace mobivine::core
