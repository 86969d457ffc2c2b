#include "core/bindings/s60_bindings.h"

#include <algorithm>

#include "core/errors.h"
#include "s60/connector.h"
#include "support/geo_units.h"
#include "support/strings.h"
#include "support/trace.h"

namespace mobivine::core {

namespace {
constexpr const char* kPlatform = "s60";

Location ToUniform(const s60::Location& native) {
  const s60::QualifiedCoordinates& coords = native.getQualifiedCoordinates();
  Location out;
  out.latitude = coords.getLatitude();
  out.longitude = coords.getLongitude();
  out.altitude = coords.getAltitude();
  out.accuracy_m = coords.getHorizontalAccuracy();
  out.speed_mps = native.getSpeed();
  out.heading_deg = native.getCourse();
  out.timestamp_ms = native.getTimestamp().micros() / 1000;
  out.valid = native.isValid();
  return out;
}
}  // namespace

// ===========================================================================
// S60LocationProxy
// ===========================================================================

struct S60LocationProxy::AlertState {
  ProximityListener* uniform_listener = nullptr;
  double latitude = 0, longitude = 0, altitude = 0;
  float radius_m = 0;
  bool has_expiry = false;
  sim::SimTime expires_at;
  bool active = true;
  bool inside = false;
  std::shared_ptr<s60::LocationProvider> provider;  // exit detection
  std::unique_ptr<EntryListener> entry;
  std::unique_ptr<ExitDetector> exit;
  sim::EventId expiry_event = 0;
};

/// Receives the platform's ONE-SHOT entry event, forwards it as the uniform
/// entering=true callback, and starts exit detection.
class S60LocationProxy::EntryListener : public s60::ProximityListener {
 public:
  // Holds the alert weakly: the state owns the listener (unique_ptr), so a
  // strong back-pointer would form an unreclaimable shared_ptr cycle once
  // the alert leaves alerts_.
  EntryListener(S60LocationProxy& owner, std::shared_ptr<AlertState> state)
      : owner_(owner), state_(state) {}

  void proximityEvent(const s60::Coordinates& coordinates,
                      const s60::Location& location) override {
    (void)coordinates;
    auto state = state_.lock();
    if (!state || !state->active) return;
    owner_.meter().Charge(Op::kListenerAdaptation);
    owner_.meter().Charge(Op::kTypeConversion, 7);
    state->inside = true;
    state->uniform_listener->proximityEvent(
        state->latitude, state->longitude, state->altitude,
        ToUniform(location), /*entering=*/true);
    // The platform removed the one-shot registration before firing; watch
    // for the exit with a location listener, then re-arm.
    owner_.StartExitDetection(state);
  }

 private:
  S60LocationProxy& owner_;
  std::weak_ptr<AlertState> state_;
};

/// Location listener that detects leaving the region (Figure 2(b)'s
/// locationUpdated logic, inside the binding).
class S60LocationProxy::ExitDetector : public s60::LocationListener {
 public:
  // Weak for the same cycle-avoidance reason as EntryListener.
  ExitDetector(S60LocationProxy& owner, std::shared_ptr<AlertState> state)
      : owner_(owner), state_(state) {}

  void locationUpdated(s60::LocationProvider& provider,
                       const s60::Location& location) override {
    (void)provider;
    auto state = state_.lock();
    if (!state || !state->active || !state->inside) return;
    const s60::QualifiedCoordinates& here =
        location.getQualifiedCoordinates();
    const double distance = support::HaversineMeters(
        here.getLatitude(), here.getLongitude(), state->latitude,
        state->longitude);
    if (distance <= state->radius_m) return;  // still inside
    owner_.meter().Charge(Op::kListenerAdaptation);
    owner_.meter().Charge(Op::kTypeConversion, 7);
    state->inside = false;
    state->uniform_listener->proximityEvent(
        state->latitude, state->longitude, state->altitude,
        ToUniform(location), /*entering=*/false);
    owner_.Rearm(state);
  }

 private:
  S60LocationProxy& owner_;
  std::weak_ptr<AlertState> state_;
};

S60LocationProxy::S60LocationProxy(s60::S60Platform& platform,
                                   const BindingPlane* binding)
    : LocationProxy(platform.device().scheduler(), binding),
      platform_(platform) {}

S60LocationProxy::~S60LocationProxy() {
  for (auto& state : alerts_) Teardown(*state);
}

s60::Criteria S60LocationProxy::CriteriaFromProperties() {
  // Each consulted property is a lookup + a conversion into the platform's
  // Criteria representation.
  s60::Criteria criteria;
  meter().Charge(Op::kPropertyLookup, 5);
  meter().Charge(Op::kTypeConversion);
  criteria.setHorizontalAccuracy(static_cast<int>(
      getPropertyOr<long long>("horizontalAccuracy",
                               s60::Criteria::NO_REQUIREMENT)));
  criteria.setVerticalAccuracy(static_cast<int>(getPropertyOr<long long>(
      "verticalAccuracy", s60::Criteria::NO_REQUIREMENT)));
  criteria.setPreferredResponseTime(static_cast<int>(getPropertyOr<long long>(
      "preferredResponseTime", s60::Criteria::NO_REQUIREMENT)));
  criteria.setCostAllowed(getPropertyOr<bool>("costAllowed", true));
  const std::string power = getPropertyOr<std::string>("powerConsumption", "");
  if (power == "low") {
    criteria.setPreferredPowerConsumption(s60::Criteria::POWER_USAGE_LOW);
  } else if (power == "medium") {
    criteria.setPreferredPowerConsumption(s60::Criteria::POWER_USAGE_MEDIUM);
  } else if (power == "high") {
    criteria.setPreferredPowerConsumption(s60::Criteria::POWER_USAGE_HIGH);
  }
  return criteria;
}

std::shared_ptr<s60::LocationProvider> S60LocationProxy::AcquireProvider() {
  try {
    return s60::LocationProvider::getInstance(platform_,
                                              CriteriaFromProperties());
  } catch (...) {
    meter().Charge(Op::kExceptionMap);
    RethrowAsProxyError(kPlatform);
  }
}

Location S60LocationProxy::getLocation() {
  support::trace::Span span("s60.getLocation");
  meter().Charge(Op::kDispatch);
  AdmitDispatch("getLocation");
  RequireProperties();
  auto provider = AcquireProvider();
  meter().Charge(Op::kPropertyLookup);
  const int timeout = static_cast<int>(
      getPropertyOr<long long>("locationTimeout", 30));
  try {
    s60::Location native = provider->getLocation(timeout);
    meter().Charge(Op::kTypeConversion, 7);
    return ConvertUnits(ToUniform(native));
  } catch (...) {
    meter().Charge(Op::kExceptionMap);
    RethrowAsProxyError(kPlatform);
  }
}

void S60LocationProxy::addProximityAlert(double latitude, double longitude,
                                         double altitude, float radius_m,
                                         long long timer_ms,
                                         ProximityListener* listener) {
  meter().Charge(Op::kDispatch);
  meter().Charge(Op::kValidation);
  if (listener == nullptr) {
    throw ProxyError(ErrorCode::kIllegalArgument,
                     "proximity listener must not be null");
  }
  RequireProperties();

  auto state = std::make_shared<AlertState>();
  state->uniform_listener = listener;
  state->latitude = latitude;
  state->longitude = longitude;
  state->altitude = altitude;
  state->radius_m = radius_m;
  state->has_expiry = timer_ms >= 0;
  auto& scheduler = platform_.device().scheduler();
  if (state->has_expiry) {
    state->expires_at = scheduler.now() + sim::SimTime::Millis(timer_ms);
  }
  state->entry = std::make_unique<EntryListener>(*this, state);
  // Acquire the provider for exit detection up front (fail fast on bad
  // criteria; reused across re-arms).
  state->provider = AcquireProvider();

  // One-shot platform registration; adaptation logic re-arms it.
  meter().Charge(Op::kListenerAdaptation);
  try {
    s60::LocationProvider::addProximityListener(
        platform_, state->entry.get(),
        s60::Coordinates(latitude, longitude, static_cast<float>(altitude)),
        radius_m);
  } catch (...) {
    meter().Charge(Op::kExceptionMap);
    RethrowAsProxyError(kPlatform);
  }

  // The platform has no expiration concept — emulate the timer.
  if (state->has_expiry) {
    std::weak_ptr<AlertState> weak = state;
    state->expiry_event = scheduler.ScheduleAt(state->expires_at, [this, weak] {
      if (auto locked = weak.lock()) {
        meter().Charge(Op::kEnrichment);
        Teardown(*locked);
      }
    });
  }

  alerts_.push_back(std::move(state));
  ++active_alerts_;
}

void S60LocationProxy::StartExitDetection(
    const std::shared_ptr<AlertState>& state) {
  if (!state->active) return;
  state->exit = std::make_unique<ExitDetector>(*this, state);
  if (!state->provider) state->provider = AcquireProvider();
  meter().Charge(Op::kListenerAdaptation);
  state->provider->setLocationListener(state->exit.get(), /*interval=*/2,
                                       /*timeout=*/-1, /*max_age=*/-1);
}

void S60LocationProxy::Rearm(const std::shared_ptr<AlertState>& state) {
  if (!state->active) return;
  if (state->has_expiry &&
      platform_.device().scheduler().now() >= state->expires_at) {
    Teardown(*state);
    return;
  }
  // Stop exit detection (the provider is kept for the next pass) and
  // re-register the one-shot entry listener.
  if (state->provider) {
    state->provider->setLocationListener(nullptr, -1, -1, -1);
  }
  try {
    s60::LocationProvider::addProximityListener(
        platform_, state->entry.get(),
        s60::Coordinates(state->latitude, state->longitude,
                         static_cast<float>(state->altitude)),
        state->radius_m);
  } catch (...) {
    meter().Charge(Op::kExceptionMap);
    RethrowAsProxyError(kPlatform);
  }
}

void S60LocationProxy::Teardown(AlertState& state) {
  if (!state.active) return;
  state.active = false;
  s60::LocationProvider::removeProximityListener(platform_, state.entry.get());
  if (state.provider) {
    state.provider->setLocationListener(nullptr, -1, -1, -1);
    state.provider.reset();
  }
  if (state.expiry_event != 0) {
    platform_.device().scheduler().Cancel(state.expiry_event);
    state.expiry_event = 0;
  }
  if (active_alerts_ > 0) --active_alerts_;
}

void S60LocationProxy::removeProximityAlert(ProximityListener* listener) {
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
// S60SmsProxy
// ===========================================================================

S60SmsProxy::S60SmsProxy(s60::S60Platform& platform,
                         const BindingPlane* binding)
    : SmsProxy(platform.device().scheduler(), binding), platform_(platform) {}

int S60SmsProxy::segmentCount(const std::string& text) {
  support::trace::Span span("s60.segmentCount");
  meter().Charge(Op::kDispatch);
  AdmitDispatch("segmentCount");
  // JSR-120 exposes no segment computation; the proxy supplies it
  // (enrichment) with GSM 160-char segments.
  meter().Charge(Op::kEnrichment);
  if (text.empty()) return 1;
  return static_cast<int>((text.size() + 159) / 160);
}

long long S60SmsProxy::sendTextMessage(const std::string& destination,
                                       const std::string& text,
                                       SmsListener* listener) {
  support::trace::Span span("s60.sendTextMessage");
  meter().Charge(Op::kDispatch);
  AdmitDispatch("sendTextMessage");
  meter().Charge(Op::kValidation);
  if (destination.empty() || text.empty()) {
    throw ProxyError(ErrorCode::kIllegalArgument,
                     "destination and text must be non-empty");
  }
  RequireProperties();
  const long long id = next_message_id_++;
  try {
    // One connection per send, closed when it goes out of scope: caching
    // one per destination would keep every number a client ever named.
    const auto connection =
        platform_.openMessageConnection("sms://" + destination);
    s60::TextMessage message = connection->newTextMessage();
    meter().Charge(Op::kTypeConversion);
    message.setPayloadText(text);
    connection->send(message);
  } catch (...) {
    meter().Charge(Op::kExceptionMap);
    // Uniform semantics: transport failures reach the listener too.
    if (listener != nullptr) {
      meter().Charge(Op::kListenerAdaptation);
      listener->smsStatusChanged(id, SmsDeliveryStatus::kFailed);
    }
    RethrowAsProxyError(kPlatform);
  }
  // The blocking J2ME send() has succeeded -> submitted. S60 exposes no
  // delivery reports for outgoing messages, so kDelivered is never
  // produced on this platform (documented capability difference).
  if (listener != nullptr) {
    meter().Charge(Op::kListenerAdaptation);
    listener->smsStatusChanged(id, SmsDeliveryStatus::kSubmitted);
  }
  return id;
}

// ===========================================================================
// S60PimProxy
// ===========================================================================

S60PimProxy::S60PimProxy(s60::S60Platform& platform,
                         const BindingPlane* binding)
    : PimProxy(platform.device().scheduler(), binding), platform_(platform) {}

std::vector<Contact> S60PimProxy::Convert(
    const std::vector<s60::PIMItem>& items) {
  std::vector<Contact> out;
  for (const s60::PIMItem& item : items) {
    meter().Charge(Op::kTypeConversion);
    Contact contact;
    long long uid = 0;
    (void)support::ParseInt(item.getString(s60::Contact::UID, 0), uid);
    contact.id = uid;
    if (item.countValues(s60::Contact::NAME) > 0) {
      contact.display_name = item.getString(s60::Contact::NAME, 0);
    }
    if (item.countValues(s60::Contact::TEL) > 0) {
      contact.phone_number = item.getString(s60::Contact::TEL, 0);
    }
    if (item.countValues(s60::Contact::EMAIL) > 0) {
      contact.email = item.getString(s60::Contact::EMAIL, 0);
    }
    out.push_back(std::move(contact));
  }
  return out;
}

std::vector<Contact> S60PimProxy::listContacts() {
  meter().Charge(Op::kDispatch);
  try {
    auto list =
        s60::PIM::openContactList(platform_, s60::ContactList::READ_ONLY);
    auto contacts = Convert(list->items());
    list->close();
    return contacts;
  } catch (...) {
    meter().Charge(Op::kExceptionMap);
    RethrowAsProxyError(kPlatform);
  }
}

std::optional<Contact> S60PimProxy::findByNumber(
    const std::string& phone_number) {
  meter().Charge(Op::kDispatch);
  meter().Charge(Op::kEnrichment);  // JSR-75 matches on items, not numbers
  for (const Contact& contact : listContacts()) {
    if (contact.phone_number == phone_number) return contact;
  }
  return std::nullopt;
}

std::vector<Contact> S60PimProxy::findByName(const std::string& fragment) {
  meter().Charge(Op::kDispatch);
  try {
    auto list =
        s60::PIM::openContactList(platform_, s60::ContactList::READ_ONLY);
    auto contacts = Convert(list->items(fragment));
    list->close();
    return contacts;
  } catch (...) {
    meter().Charge(Op::kExceptionMap);
    RethrowAsProxyError(kPlatform);
  }
}

// ===========================================================================
// S60CalendarProxy
// ===========================================================================

S60CalendarProxy::S60CalendarProxy(s60::S60Platform& platform,
                                   const BindingPlane* binding)
    : CalendarProxy(platform.device().scheduler(), binding),
      platform_(platform) {}

std::vector<CalendarEvent> S60CalendarProxy::Convert(
    const std::vector<s60::PIMEvent>& items) {
  std::vector<CalendarEvent> out;
  for (const s60::PIMEvent& item : items) {
    meter().Charge(Op::kTypeConversion);
    CalendarEvent event;
    long long uid = 0;
    (void)support::ParseInt(item.getString(s60::Event::UID, 0), uid);
    event.id = uid;
    if (item.countValues(s60::Event::SUMMARY) > 0) {
      event.title = item.getString(s60::Event::SUMMARY, 0);
    }
    event.start_ms = item.getDate(s60::Event::START, 0);
    event.end_ms = item.getDate(s60::Event::END, 0);
    if (item.countValues(s60::Event::LOCATION) > 0) {
      event.location = item.getString(s60::Event::LOCATION, 0);
    }
    out.push_back(std::move(event));
  }
  std::sort(out.begin(), out.end(),
            [](const CalendarEvent& a, const CalendarEvent& b) {
              return a.start_ms < b.start_ms;
            });
  return out;
}

std::vector<CalendarEvent> S60CalendarProxy::listEvents() {
  meter().Charge(Op::kDispatch);
  try {
    auto list =
        s60::PIM::openEventList(platform_, s60::ContactList::READ_ONLY);
    auto events = Convert(list->items());
    list->close();
    return events;
  } catch (...) {
    meter().Charge(Op::kExceptionMap);
    RethrowAsProxyError(kPlatform);
  }
}

std::vector<CalendarEvent> S60CalendarProxy::eventsBetween(long long from_ms,
                                                           long long to_ms) {
  meter().Charge(Op::kDispatch);
  try {
    auto list =
        s60::PIM::openEventList(platform_, s60::ContactList::READ_ONLY);
    auto events = Convert(list->items(from_ms, to_ms));
    list->close();
    return events;
  } catch (...) {
    meter().Charge(Op::kExceptionMap);
    RethrowAsProxyError(kPlatform);
  }
}

std::optional<CalendarEvent> S60CalendarProxy::nextEvent(long long now_ms) {
  meter().Charge(Op::kDispatch);
  meter().Charge(Op::kEnrichment);
  for (const CalendarEvent& event : listEvents()) {
    if (event.start_ms >= now_ms) return event;
  }
  return std::nullopt;
}

// ===========================================================================
// S60HttpProxy
// ===========================================================================

S60HttpProxy::S60HttpProxy(s60::S60Platform& platform,
                           const BindingPlane* binding)
    : HttpProxy(platform.device().scheduler(), binding), platform_(platform) {}

void S60HttpProxy::setHeader(const std::string& name,
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

HttpResult S60HttpProxy::Execute(const std::string& method,
                                 const std::string& url,
                                 const std::string& body,
                                 const std::string& content_type) {
  try {
    auto connection = platform_.openHttpConnection(url);
    connection->setRequestMethod(method);
    for (const auto& [name, value] : headers_) {
      connection->setRequestProperty(name, value);
    }
    if (!content_type.empty()) {
      connection->setRequestProperty("Content-Type", content_type);
    }
    if (!body.empty()) connection->setRequestBody(body);
    meter().Charge(Op::kTypeConversion, 3);
    HttpResult result;
    result.status = connection->getResponseCode();
    result.reason = connection->getResponseMessage();
    result.body = connection->readBody();
    return result;
  } catch (...) {
    meter().Charge(Op::kExceptionMap);
    RethrowAsProxyError(kPlatform);
  }
}

HttpResult S60HttpProxy::get(const std::string& url) {
  support::trace::Span span("s60.httpGet");
  meter().Charge(Op::kDispatch);
  AdmitDispatch("httpGet");
  return Execute("GET", url, "", "");
}

HttpResult S60HttpProxy::post(const std::string& url, const std::string& body,
                              const std::string& content_type) {
  support::trace::Span span("s60.httpPost");
  meter().Charge(Op::kDispatch);
  AdmitDispatch("httpPost");
  return Execute("POST", url, body, content_type);
}

}  // namespace mobivine::core
