// Nokia S60 binding-plane implementations.
//
// What these absorb (paper §2, §4.1):
//  * Criteria-driven provider acquisition — criteria values arrive through
//    setProperty() ("preferredResponseTime", "horizontalAccuracy",
//    "verticalAccuracy", "powerConsumption", "costAllowed").
//  * JSR-179's ONE-SHOT proximity listener — adapted to the uniform
//    continuous entry/exit semantics by (a) re-registering after each
//    entry, (b) running a location listener while inside the region to
//    detect the exit, and (c) emulating the expiration timer. This is the
//    logic the paper's Figure 2(b) forces into every application, moved
//    into the binding once.
//  * The S60 exception set — mapped to ProxyError.
//
// No Call proxy: S60 does not expose the core call functionality.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/calendar_proxy.h"
#include "core/http_proxy.h"
#include "core/location_proxy.h"
#include "core/pim_proxy.h"
#include "core/sms_proxy.h"
#include "s60/location_provider.h"
#include "s60/messaging.h"
#include "s60/pim.h"
#include "s60/s60_platform.h"

namespace mobivine::core {

class S60LocationProxy : public LocationProxy {
 public:
  S60LocationProxy(s60::S60Platform& platform, const BindingPlane* binding);
  ~S60LocationProxy() override;

  void addProximityAlert(double latitude, double longitude, double altitude,
                         float radius_m, long long timer_ms,
                         ProximityListener* listener) override;
  void removeProximityAlert(ProximityListener* listener) override;
  Location getLocation() override;

 private:
  struct AlertState;
  class EntryListener;
  class ExitDetector;

  /// Build a Criteria object from this proxy's properties.
  [[nodiscard]] s60::Criteria CriteriaFromProperties();
  std::shared_ptr<s60::LocationProvider> AcquireProvider();
  void StartExitDetection(const std::shared_ptr<AlertState>& state);
  void Teardown(AlertState& state);
  void Rearm(const std::shared_ptr<AlertState>& state);

  s60::S60Platform& platform_;
  std::vector<std::shared_ptr<AlertState>> alerts_;
};

class S60SmsProxy : public SmsProxy {
 public:
  S60SmsProxy(s60::S60Platform& platform, const BindingPlane* binding);

  long long sendTextMessage(const std::string& destination,
                            const std::string& text,
                            SmsListener* listener) override;
  int segmentCount(const std::string& text) override;

 private:
  s60::S60Platform& platform_;
  long long next_message_id_ = 1;
};

class S60PimProxy : public PimProxy {
 public:
  S60PimProxy(s60::S60Platform& platform, const BindingPlane* binding);

  std::vector<Contact> listContacts() override;
  std::optional<Contact> findByNumber(const std::string& phone_number) override;
  std::vector<Contact> findByName(const std::string& fragment) override;

 private:
  std::vector<Contact> Convert(const std::vector<s60::PIMItem>& items);
  s60::S60Platform& platform_;
};

class S60CalendarProxy : public CalendarProxy {
 public:
  S60CalendarProxy(s60::S60Platform& platform, const BindingPlane* binding);

  std::vector<CalendarEvent> listEvents() override;
  std::vector<CalendarEvent> eventsBetween(long long from_ms,
                                           long long to_ms) override;
  std::optional<CalendarEvent> nextEvent(long long now_ms) override;

 private:
  std::vector<CalendarEvent> Convert(const std::vector<s60::PIMEvent>& items);
  s60::S60Platform& platform_;
};

class S60HttpProxy : public HttpProxy {
 public:
  S60HttpProxy(s60::S60Platform& platform, const BindingPlane* binding);

  HttpResult get(const std::string& url) override;
  HttpResult post(const std::string& url, const std::string& body,
                  const std::string& content_type) override;
  void setHeader(const std::string& name, const std::string& value) override;

 private:
  HttpResult Execute(const std::string& method, const std::string& url,
                     const std::string& body, const std::string& content_type);

  s60::S60Platform& platform_;
  std::vector<std::pair<std::string, std::string>> headers_;
};

}  // namespace mobivine::core
