#include "core/bindings/iphone_bindings.h"

#include <algorithm>
#include <cctype>

#include "core/errors.h"
#include "iphone/address_book.h"
#include "support/geo_units.h"
#include "support/trace.h"

namespace mobivine::core {

namespace {
constexpr const char* kPlatform = "iphone";

Location ToUniform(const iphone::CLLocation& native) {
  Location out;
  out.latitude = native.latitude;
  out.longitude = native.longitude;
  out.altitude = native.altitude;
  out.accuracy_m = native.horizontalAccuracy;
  out.speed_mps = native.speed >= 0 ? native.speed : 0.0;
  out.heading_deg = native.course >= 0 ? native.course : 0.0;
  out.timestamp_ms = native.timestamp_ms;
  out.valid = native.valid();
  return out;
}

/// Map a CoreLocation NSError to the uniform error model. Denial is a
/// SECURITY condition even though no exception was thrown natively.
[[noreturn]] void ThrowFromCLError(const iphone::NSError& error) {
  if (error.code == iphone::kCLErrorDenied) {
    throw ProxyError(ErrorCode::kSecurity, error.localized_description,
                     kPlatform, "NSError(kCLErrorDomain/denied)");
  }
  throw ProxyError(ErrorCode::kLocationUnavailable,
                   error.localized_description, kPlatform,
                   "NSError(kCLErrorDomain)");
}
}  // namespace

// ===========================================================================
// IPhoneLocationProxy
// ===========================================================================

struct IPhoneLocationProxy::AlertState {
  ProximityListener* uniform_listener = nullptr;
  double latitude = 0, longitude = 0, altitude = 0;
  float radius_m = 0;
  bool inside = false;
  bool active = true;
  std::unique_ptr<iphone::CLLocationManager> manager;
  std::unique_ptr<StreamDelegate> delegate;
  sim::EventId expiry_event = 0;
};

/// Synthesizes enter/exit transitions from the CoreLocation update stream
/// (client-side geofencing — the only option before iOS 4's CLRegion).
class IPhoneLocationProxy::StreamDelegate
    : public iphone::CLLocationManagerDelegate {
 public:
  // Holds the alert weakly: the state owns the delegate (unique_ptr), so a
  // strong back-pointer would form an unreclaimable shared_ptr cycle once
  // the alert leaves alerts_.
  StreamDelegate(IPhoneLocationProxy& owner, std::shared_ptr<AlertState> state)
      : owner_(owner), state_(state) {}

  void locationManagerDidUpdateToLocation(
      const iphone::CLLocation& new_location,
      const iphone::CLLocation& old_location) override {
    (void)old_location;
    auto state = state_.lock();
    if (!state || !state->active) return;
    const double distance = support::HaversineMeters(
        new_location.latitude, new_location.longitude, state->latitude,
        state->longitude);
    const bool inside_now = distance <= state->radius_m;
    if (inside_now == state->inside) return;
    state->inside = inside_now;
    owner_.meter().Charge(Op::kListenerAdaptation);
    owner_.meter().Charge(Op::kTypeConversion, 7);
    state->uniform_listener->proximityEvent(state->latitude, state->longitude,
                                            state->altitude,
                                            ToUniform(new_location),
                                            inside_now);
  }

  void locationManagerDidFailWithError(const iphone::NSError& error) override {
    // A denial tears the alert down; transient kCLErrorLocationUnknown is
    // ignored (the stream resumes).
    auto state = state_.lock();
    if (!state) return;
    if (error.code == iphone::kCLErrorDenied && state->active) {
      owner_.meter().Charge(Op::kExceptionMap);
      owner_.Teardown(*state);
    }
  }

 private:
  IPhoneLocationProxy& owner_;
  std::weak_ptr<AlertState> state_;
};

IPhoneLocationProxy::IPhoneLocationProxy(iphone::IPhonePlatform& platform,
                                         const BindingPlane* binding)
    : LocationProxy(platform.device().scheduler(), binding),
      platform_(platform) {}

IPhoneLocationProxy::~IPhoneLocationProxy() {
  for (auto& state : alerts_) Teardown(*state);
}

double IPhoneLocationProxy::DesiredAccuracy() {
  meter().Charge(Op::kPropertyLookup);
  meter().Charge(Op::kTypeConversion);
  return getPropertyOr<double>("desiredAccuracy",
                               iphone::kCLLocationAccuracyHundredMeters);
}

Location IPhoneLocationProxy::getLocation() {
  support::trace::Span span("iphone.getLocation");
  meter().Charge(Op::kDispatch);
  AdmitDispatch("getLocation");
  RequireProperties();

  // Blocking facade over the streaming API: spin the run loop until the
  // first fix or error arrives, bounded by the timeout property.
  class OneShot : public iphone::CLLocationManagerDelegate {
   public:
    void locationManagerDidUpdateToLocation(
        const iphone::CLLocation& new_location,
        const iphone::CLLocation&) override {
      fix = new_location;
      done = true;
    }
    void locationManagerDidFailWithError(
        const iphone::NSError& e) override {
      if (e.code == iphone::kCLErrorDenied) {
        error = e;
        done = true;
      }
      // LocationUnknown: keep waiting for the stream to recover.
    }
    iphone::CLLocation fix;
    iphone::NSError error = iphone::NSError::None();
    bool done = false;
  } delegate;

  iphone::CLLocationManager manager(platform_);
  manager.setDesiredAccuracy(DesiredAccuracy());
  manager.setDelegate(&delegate);
  meter().Charge(Op::kListenerAdaptation);
  manager.startUpdatingLocation();

  meter().Charge(Op::kPropertyLookup);
  const long long timeout_s = getPropertyOr<long long>("locationTimeout", 30);
  auto& scheduler = platform_.device().scheduler();
  const sim::SimTime deadline =
      scheduler.now() + sim::SimTime::Seconds(timeout_s);
  while (!delegate.done && scheduler.now() < deadline) {
    if (!scheduler.Step()) break;  // queue drained: no fix is coming
  }
  manager.stopUpdatingLocation();

  if (!delegate.error.ok()) {
    meter().Charge(Op::kExceptionMap);
    ThrowFromCLError(delegate.error);
  }
  if (!delegate.done || !delegate.fix.valid()) {
    meter().Charge(Op::kExceptionMap);
    throw ProxyError(ErrorCode::kLocationUnavailable,
                     "no fix within " + std::to_string(timeout_s) + " s",
                     kPlatform, "NSError(kCLErrorDomain)");
  }
  meter().Charge(Op::kTypeConversion, 7);
  return ConvertUnits(ToUniform(delegate.fix));
}

void IPhoneLocationProxy::addProximityAlert(double latitude, double longitude,
                                            double altitude, float radius_m,
                                            long long timer_ms,
                                            ProximityListener* listener) {
  meter().Charge(Op::kDispatch);
  meter().Charge(Op::kValidation);
  if (listener == nullptr) {
    throw ProxyError(ErrorCode::kIllegalArgument,
                     "proximity listener must not be null");
  }
  if (!(radius_m > 0)) {
    throw ProxyError(ErrorCode::kIllegalArgument, "radius must be > 0");
  }
  RequireProperties();

  auto state = std::make_shared<AlertState>();
  state->uniform_listener = listener;
  state->latitude = latitude;
  state->longitude = longitude;
  state->altitude = altitude;
  state->radius_m = radius_m;
  state->manager = std::make_unique<iphone::CLLocationManager>(platform_);
  state->manager->setDesiredAccuracy(DesiredAccuracy());
  state->delegate = std::make_unique<StreamDelegate>(*this, state);
  state->manager->setDelegate(state->delegate.get());
  meter().Charge(Op::kListenerAdaptation);
  state->manager->startUpdatingLocation();

  if (timer_ms >= 0) {
    std::weak_ptr<AlertState> weak = state;
    state->expiry_event = platform_.device().scheduler().ScheduleAfter(
        sim::SimTime::Millis(timer_ms), [this, weak] {
          if (auto locked = weak.lock()) {
            meter().Charge(Op::kEnrichment);
            Teardown(*locked);
          }
        });
  }
  alerts_.push_back(std::move(state));
  ++active_alerts_;
}

void IPhoneLocationProxy::Teardown(AlertState& state) {
  if (!state.active) return;
  state.active = false;
  if (state.manager) state.manager->stopUpdatingLocation();
  if (state.expiry_event != 0) {
    platform_.device().scheduler().Cancel(state.expiry_event);
    state.expiry_event = 0;
  }
  if (active_alerts_ > 0) --active_alerts_;
}

void IPhoneLocationProxy::removeProximityAlert(ProximityListener* listener) {
  meter().Charge(Op::kDispatch);
  for (auto& state : alerts_) {
    if (state->uniform_listener == listener) Teardown(*state);
  }
  alerts_.erase(std::remove_if(alerts_.begin(), alerts_.end(),
                               [](const std::shared_ptr<AlertState>& state) {
                                 return !state->active;
                               }),
                alerts_.end());
}

// ===========================================================================
// IPhoneSmsProxy
// ===========================================================================

IPhoneSmsProxy::IPhoneSmsProxy(iphone::IPhonePlatform& platform,
                               const BindingPlane* binding)
    : SmsProxy(platform.device().scheduler(), binding), platform_(platform) {}

int IPhoneSmsProxy::segmentCount(const std::string& text) {
  support::trace::Span span("iphone.segmentCount");
  meter().Charge(Op::kDispatch);
  AdmitDispatch("segmentCount");
  meter().Charge(Op::kEnrichment);  // no native API for this on iPhone
  if (text.empty()) return 1;
  return static_cast<int>((text.size() + 159) / 160);
}

long long IPhoneSmsProxy::sendTextMessage(const std::string& destination,
                                          const std::string& text,
                                          SmsListener* listener) {
  support::trace::Span span("iphone.sendTextMessage");
  meter().Charge(Op::kDispatch);
  AdmitDispatch("sendTextMessage");
  meter().Charge(Op::kValidation);
  if (destination.empty() || text.empty()) {
    throw ProxyError(ErrorCode::kIllegalArgument,
                     "destination and text must be non-empty");
  }
  RequireProperties();
  const long long id = next_message_id_++;

  // iPhone OS cannot send silently: the composer opens and the USER
  // decides. The proxy turns the outcome into uniform statuses —
  // cancellation included. Each compose reports to its own session
  // observer, so a second send before the first one's user decides
  // cannot take over the first one's report.
  if (listener != nullptr) meter().Charge(Op::kListenerAdaptation);
  const std::weak_ptr<bool> alive = alive_;
  const bool opened = platform_.openURL(
      "sms:" + destination, text,
      [this, alive, listener, id](
          iphone::IPhonePlatform::ComposerOutcome outcome) {
        if (listener == nullptr || alive.expired()) return;
        meter().Charge(Op::kListenerAdaptation);
        switch (outcome) {
          case iphone::IPhonePlatform::ComposerOutcome::kSent:
            listener->smsStatusChanged(id, SmsDeliveryStatus::kSubmitted);
            break;
          case iphone::IPhonePlatform::ComposerOutcome::kCancelled:
          case iphone::IPhonePlatform::ComposerOutcome::kFailed:
            listener->smsStatusChanged(id, SmsDeliveryStatus::kFailed);
            break;
          case iphone::IPhonePlatform::ComposerOutcome::kNone:
            break;
        }
      });
  if (!opened) {
    meter().Charge(Op::kExceptionMap);
    throw ProxyError(ErrorCode::kIllegalArgument,
                     "malformed sms destination: " + destination, kPlatform,
                     "UIApplication.openURL->NO");
  }
  return id;
}

// ===========================================================================
// IPhoneCallProxy
// ===========================================================================

IPhoneCallProxy::IPhoneCallProxy(iphone::IPhonePlatform& platform,
                                 const BindingPlane* binding)
    : CallProxy(platform.device().scheduler(), binding), platform_(platform) {}

bool IPhoneCallProxy::makeCall(const std::string& number,
                               CallListener* listener) {
  meter().Charge(Op::kDispatch);
  meter().Charge(Op::kValidation);
  if (number.empty()) {
    throw ProxyError(ErrorCode::kIllegalArgument, "phone number is empty");
  }
  if (composing_) return false;

  meter().Charge(Op::kListenerAdaptation);
  const std::weak_ptr<bool> alive = alive_;
  const bool opened = platform_.openURL(
      "tel:" + number, "",
      [this, alive, listener](iphone::IPhonePlatform::ComposerOutcome outcome) {
        if (alive.expired()) return;
        composing_ = false;
        meter().Charge(Op::kListenerAdaptation);
        switch (outcome) {
          case iphone::IPhonePlatform::ComposerOutcome::kSent:
            // The system dialer owns the call from here: apps see only
            // that dialing began (documented capability difference).
            last_known_ = CallProgress::kDialing;
            if (listener != nullptr) {
              listener->callStateChanged(CallProgress::kDialing);
            }
            break;
          case iphone::IPhonePlatform::ComposerOutcome::kCancelled:
          case iphone::IPhonePlatform::ComposerOutcome::kFailed:
            last_known_ = CallProgress::kFailed;
            if (listener != nullptr) {
              listener->callStateChanged(CallProgress::kFailed);
            }
            break;
          case iphone::IPhonePlatform::ComposerOutcome::kNone:
            break;
        }
      });
  if (!opened) {
    meter().Charge(Op::kExceptionMap);
    throw ProxyError(ErrorCode::kIllegalArgument,
                     "malformed tel URL for: " + number, kPlatform,
                     "UIApplication.openURL->NO");
  }
  composing_ = true;
  return true;
}

void IPhoneCallProxy::endCall() {
  meter().Charge(Op::kDispatch);
  // Apps cannot hang up programmatically on iPhone OS; the modem hangup
  // here models the user doing it in the system UI.
  platform_.device().modem().HangUp();
  last_known_ = CallProgress::kEnded;
}

CallProgress IPhoneCallProxy::currentState() {
  meter().Charge(Op::kDispatch);
  return last_known_;
}

// ===========================================================================
// IPhoneHttpProxy
// ===========================================================================

IPhoneHttpProxy::IPhoneHttpProxy(iphone::IPhonePlatform& platform,
                                 const BindingPlane* binding)
    : HttpProxy(platform.device().scheduler(), binding), platform_(platform) {}

void IPhoneHttpProxy::setHeader(const std::string& name,
                                const std::string& value) {
  meter().Charge(Op::kPropertySet);
  // Replace-by-name: repeated setHeader (e.g. Authorization refresh)
  // must not accumulate stale values.
  for (auto& [existing, existing_value] : headers_) {
    if (existing == name) {
      existing_value = value;
      return;
    }
  }
  headers_.emplace_back(name, value);
}

HttpResult IPhoneHttpProxy::Execute(const std::string& method,
                                    const std::string& url,
                                    const std::string& body,
                                    const std::string& content_type) {
  iphone::NSError error = iphone::NSError::None();
  auto response = platform_.sendSynchronousRequest(method, url, body,
                                                   content_type, error,
                                                   headers_);
  if (!error.ok()) {
    meter().Charge(Op::kExceptionMap);
    switch (error.code) {
      case iphone::kNSURLErrorCannotFindHost:
        throw ProxyError(ErrorCode::kUnreachable, error.localized_description,
                         kPlatform, "NSError(NSURLErrorDomain)");
      case iphone::kNSURLErrorTimedOut:
        throw ProxyError(ErrorCode::kTimeout, error.localized_description,
                         kPlatform, "NSError(NSURLErrorDomain)");
      case iphone::kNSURLErrorBadURL:
        throw ProxyError(ErrorCode::kIllegalArgument,
                         error.localized_description, kPlatform,
                         "NSError(NSURLErrorDomain)");
      default:
        throw ProxyError(ErrorCode::kNetwork, error.localized_description,
                         kPlatform, "NSError(NSURLErrorDomain)");
    }
  }
  meter().Charge(Op::kTypeConversion, 3);
  HttpResult result;
  result.status = response.status_code;
  result.reason = device::ReasonPhrase(response.status_code);
  result.body = response.body;
  return result;
}

HttpResult IPhoneHttpProxy::get(const std::string& url) {
  support::trace::Span span("iphone.httpGet");
  meter().Charge(Op::kDispatch);
  AdmitDispatch("httpGet");
  return Execute("GET", url, "", "");
}

HttpResult IPhoneHttpProxy::post(const std::string& url,
                                 const std::string& body,
                                 const std::string& content_type) {
  support::trace::Span span("iphone.httpPost");
  meter().Charge(Op::kDispatch);
  AdmitDispatch("httpPost");
  return Execute("POST", url, body, content_type);
}

// ===========================================================================
// IPhonePimProxy
// ===========================================================================

IPhonePimProxy::IPhonePimProxy(iphone::IPhonePlatform& platform,
                               const BindingPlane* binding)
    : PimProxy(platform.device().scheduler(), binding), platform_(platform) {}

std::vector<Contact> IPhonePimProxy::listContacts() {
  meter().Charge(Op::kDispatch);
  iphone::ABAddressBook book(platform_);
  std::vector<Contact> out;
  for (const iphone::ABRecord& record : book.CopyArrayOfAllPeople()) {
    meter().Charge(Op::kTypeConversion);
    out.push_back({record.record_id,
                   record.CopyValue(iphone::kABPersonNameProperty),
                   record.CopyValue(iphone::kABPersonPhoneProperty),
                   record.CopyValue(iphone::kABPersonEmailProperty)});
  }
  return out;
}

std::optional<Contact> IPhonePimProxy::findByNumber(
    const std::string& phone_number) {
  meter().Charge(Op::kDispatch);
  meter().Charge(Op::kEnrichment);  // AddressBook has no number index
  for (const Contact& contact : listContacts()) {
    if (contact.phone_number == phone_number) return contact;
  }
  return std::nullopt;
}

std::vector<Contact> IPhonePimProxy::findByName(const std::string& fragment) {
  meter().Charge(Op::kDispatch);
  meter().Charge(Op::kEnrichment);
  std::vector<Contact> out;
  for (const Contact& contact : listContacts()) {
    std::string lower = contact.display_name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    std::string needle = fragment;
    for (char& c : needle) c = static_cast<char>(std::tolower(c));
    if (lower.find(needle) != std::string::npos) out.push_back(contact);
  }
  return out;
}

}  // namespace mobivine::core
