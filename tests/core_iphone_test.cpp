// Tests for the iPhone binding planes — the §7 future-work extension:
// the SAME uniform API as Android/S60/WebView, over a radically different
// platform (streaming CoreLocation, openURL composers, NSError HTTP).
#include <gtest/gtest.h>

#include "core/registry.h"
#include "iphone/iphone_platform.h"
#include "tests/test_util.h"

namespace mobivine::core {
namespace {

using mobivine::testing::ApproachTrack;
using mobivine::testing::kBaseLat;
using mobivine::testing::kBaseLon;
using mobivine::testing::MakeDevice;

const DescriptorStore& Store() {
  static const DescriptorStore store =
      DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

struct Fixture {
  explicit Fixture(std::uint64_t seed = 42)
      : dev(MakeDevice(seed)), platform(*dev), registry(&Store()) {}
  std::unique_ptr<device::MobileDevice> dev;
  iphone::IPhonePlatform platform;
  ProxyRegistry registry;
};

class RecordingProximity : public ProximityListener {
 public:
  struct Event {
    bool entering;
    Location location;
  };
  void proximityEvent(double, double, double, const Location& current,
                      bool entering) override {
    events.push_back({entering, current});
  }
  std::vector<Event> events;
};

class RecordingSms : public SmsListener {
 public:
  void smsStatusChanged(long long id, SmsDeliveryStatus status) override {
    events.emplace_back(id, status);
  }
  std::vector<std::pair<long long, SmsDeliveryStatus>> events;
};

class RecordingCall : public CallListener {
 public:
  void callStateChanged(CallProgress progress) override {
    states.push_back(progress);
  }
  std::vector<CallProgress> states;
};

// ---------------------------------------------------------------------------
// Location: blocking facade + client-side geofencing
// ---------------------------------------------------------------------------

TEST(IPhoneLocationProxy, BlockingGetLocationOverStreamingApi) {
  Fixture fx;
  auto proxy = fx.registry.CreateLocationProxy(fx.platform);
  Location location = proxy->getLocation();
  EXPECT_TRUE(location.valid);
  EXPECT_NEAR(location.latitude, kBaseLat, 0.05);
  EXPECT_GT(location.timestamp_ms, 0);
}

TEST(IPhoneLocationProxy, DesiredAccuracyPropertyConsumed) {
  Fixture fx;
  auto proxy = fx.registry.CreateLocationProxy(fx.platform);
  proxy->setProperty("desiredAccuracy", 10.0);
  Location location = proxy->getLocation();
  EXPECT_TRUE(location.valid);
  EXPECT_LE(location.accuracy_m, 5.0);  // high-accuracy GPS mode
}

TEST(IPhoneLocationProxy, UserDenialMapsToUniformSecurityError) {
  Fixture fx;
  fx.platform.set_user_allows_location(false);
  auto proxy = fx.registry.CreateLocationProxy(fx.platform);
  try {
    (void)proxy->getLocation();
    FAIL() << "expected ProxyError";
  } catch (const ProxyError& error) {
    // Same uniform code as Android/S60 SecurityException, although the
    // native mechanism is a delegate NSError, not an exception.
    EXPECT_EQ(error.code(), ErrorCode::kSecurity);
    EXPECT_EQ(error.platform(), "iphone");
  }
}

TEST(IPhoneLocationProxy, UnknownPropertyRejectedViaDescriptor) {
  Fixture fx;
  auto proxy = fx.registry.CreateLocationProxy(fx.platform);
  EXPECT_THROW(proxy->setProperty("provider", std::string("gps")),
               ProxyError);  // an android property, not an iphone one
}

TEST(IPhoneLocationProxy, ProximitySynthesizedFromUpdateStream) {
  Fixture fx;
  fx.dev->gps().set_track(ApproachTrack(800, 20.0, sim::SimTime::Seconds(150)));
  auto proxy = fx.registry.CreateLocationProxy(fx.platform);
  RecordingProximity listener;
  proxy->addProximityAlert(kBaseLat, kBaseLon, 0, 200.0f, -1, &listener);
  EXPECT_EQ(proxy->active_alert_count(), 1u);
  fx.dev->RunFor(sim::SimTime::Seconds(150));
  ASSERT_GE(listener.events.size(), 2u);
  EXPECT_TRUE(listener.events.front().entering);
  EXPECT_FALSE(listener.events.back().entering);
  EXPECT_TRUE(listener.events.front().location.valid);
}

TEST(IPhoneLocationProxy, ProximityTimerEmulated) {
  Fixture fx;
  fx.dev->gps().set_track(ApproachTrack(800, 20.0, sim::SimTime::Seconds(150)));
  auto proxy = fx.registry.CreateLocationProxy(fx.platform);
  RecordingProximity listener;
  proxy->addProximityAlert(kBaseLat, kBaseLon, 0, 200.0f, 5'000, &listener);
  fx.dev->RunFor(sim::SimTime::Seconds(150));
  EXPECT_TRUE(listener.events.empty());  // expired before entry at ~30 s
  EXPECT_EQ(proxy->active_alert_count(), 0u);
}

TEST(IPhoneLocationProxy, RemoveStopsStream) {
  Fixture fx;
  fx.dev->gps().set_track(ApproachTrack(800, 20.0, sim::SimTime::Seconds(150)));
  auto proxy = fx.registry.CreateLocationProxy(fx.platform);
  RecordingProximity listener;
  proxy->addProximityAlert(kBaseLat, kBaseLon, 0, 200.0f, -1, &listener);
  proxy->removeProximityAlert(&listener);
  fx.dev->RunFor(sim::SimTime::Seconds(150));
  EXPECT_TRUE(listener.events.empty());
}

// ---------------------------------------------------------------------------
// SMS: composer-based sending
// ---------------------------------------------------------------------------

TEST(IPhoneSmsProxy, SubmittedAfterUserConfirms) {
  Fixture fx;
  auto proxy = fx.registry.CreateSmsProxy(fx.platform);
  RecordingSms listener;
  const long long id =
      proxy->sendTextMessage("+15550123", "field report", &listener);
  EXPECT_TRUE(listener.events.empty());  // user still thinking
  fx.dev->RunFor(sim::SimTime::Seconds(30));
  ASSERT_EQ(listener.events.size(), 1u);
  EXPECT_EQ(listener.events[0].first, id);
  EXPECT_EQ(listener.events[0].second, SmsDeliveryStatus::kSubmitted);
}

TEST(IPhoneSmsProxy, UserCancellationBecomesFailed) {
  Fixture fx;
  fx.platform.set_user_confirms_compose(false);
  auto proxy = fx.registry.CreateSmsProxy(fx.platform);
  RecordingSms listener;
  proxy->sendTextMessage("+15550123", "x", &listener);
  fx.dev->RunFor(sim::SimTime::Seconds(30));
  ASSERT_EQ(listener.events.size(), 1u);
  EXPECT_EQ(listener.events[0].second, SmsDeliveryStatus::kFailed);
}

TEST(IPhoneSmsProxy, Validation) {
  Fixture fx;
  auto proxy = fx.registry.CreateSmsProxy(fx.platform);
  EXPECT_THROW(proxy->sendTextMessage("", "x", nullptr), ProxyError);
  EXPECT_THROW(proxy->sendTextMessage("+1555", "", nullptr), ProxyError);
  EXPECT_EQ(proxy->segmentCount(std::string(161, 'a')), 2);
}

// ---------------------------------------------------------------------------
// Call: tel: handoff
// ---------------------------------------------------------------------------

TEST(IPhoneCallProxy, DialingReportedAfterConfirmation) {
  Fixture fx;
  auto proxy = fx.registry.CreateCallProxy(fx.platform);
  RecordingCall listener;
  EXPECT_TRUE(proxy->makeCall("+15550123", &listener));
  fx.dev->RunFor(sim::SimTime::Seconds(30));
  // The system dialer owns the call: only kDialing is observable.
  ASSERT_EQ(listener.states.size(), 1u);
  EXPECT_EQ(listener.states[0], CallProgress::kDialing);
  EXPECT_EQ(proxy->currentState(), CallProgress::kDialing);
  proxy->endCall();
  EXPECT_EQ(proxy->currentState(), CallProgress::kEnded);
}

TEST(IPhoneCallProxy, CancellationBecomesFailed) {
  Fixture fx;
  fx.platform.set_user_confirms_compose(false);
  auto proxy = fx.registry.CreateCallProxy(fx.platform);
  RecordingCall listener;
  proxy->makeCall("+15550123", &listener);
  fx.dev->RunFor(sim::SimTime::Seconds(30));
  ASSERT_EQ(listener.states.size(), 1u);
  EXPECT_EQ(listener.states[0], CallProgress::kFailed);
}

TEST(IPhoneCallProxy, DialAndSmsComposeEachReportTheirOwnOutcome) {
  Fixture fx;
  auto call = fx.registry.CreateCallProxy(fx.platform);
  auto sms = fx.registry.CreateSmsProxy(fx.platform);
  RecordingCall call_listener;
  RecordingSms sms_listener;
  // A compose opened while the dial is still waiting for the user must
  // not take over the dial's report, nor leave the call proxy composing.
  ASSERT_TRUE(call->makeCall("+15550123", &call_listener));
  const long long id = sms->sendTextMessage("+15550123", "x", &sms_listener);
  fx.dev->RunFor(sim::SimTime::Seconds(30));
  ASSERT_EQ(call_listener.states.size(), 1u);
  EXPECT_EQ(call_listener.states[0], CallProgress::kDialing);
  ASSERT_EQ(sms_listener.events.size(), 1u);
  EXPECT_EQ(sms_listener.events[0].first, id);
  EXPECT_EQ(sms_listener.events[0].second, SmsDeliveryStatus::kSubmitted);
  call->endCall();
  EXPECT_TRUE(call->makeCall("+15550123", &call_listener));
}

// ---------------------------------------------------------------------------
// Http: NSError mapping
// ---------------------------------------------------------------------------

TEST(IPhoneHttpProxy, UniformExchangeAndErrors) {
  Fixture fx;
  fx.dev->network().RegisterHost("server", [](const device::HttpRequest& req) {
    return device::HttpResponse::Ok(req.method);
  });
  auto proxy = fx.registry.CreateHttpProxy(fx.platform);
  EXPECT_EQ(proxy->get("http://server/x").body, "GET");
  EXPECT_EQ(proxy->post("http://server/x", "b", "text/plain").body, "POST");
  try {
    (void)proxy->get("http://ghost/");
    FAIL();
  } catch (const ProxyError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kUnreachable);
    EXPECT_EQ(error.native_type(), "NSError(NSURLErrorDomain)");
  }
  try {
    (void)proxy->get("garbage");
    FAIL();
  } catch (const ProxyError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kIllegalArgument);
  }
}

// ---------------------------------------------------------------------------
// Cross-platform: the same application routine on a FOURTH platform
// ---------------------------------------------------------------------------

TEST(IPhoneExtension, UniformRoutineRunsUnchanged) {
  // Same shape as CrossPlatform.UniformLocationIdenticalShape in
  // core_s60_test.cpp — now including the extension platform.
  auto check = [](LocationProxy& proxy) {
    Location location = proxy.getLocation();
    EXPECT_TRUE(location.valid);
    EXPECT_NEAR(location.latitude, kBaseLat, 0.05);
  };
  Fixture fx;
  auto proxy = fx.registry.CreateLocationProxy(fx.platform);
  check(*proxy);
}

}  // namespace
}  // namespace mobivine::core
