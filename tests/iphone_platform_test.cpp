#include <gtest/gtest.h>

#include "iphone/address_book.h"
#include "iphone/core_location.h"
#include "iphone/iphone_platform.h"
#include "tests/test_util.h"

namespace mobivine::iphone {
namespace {

using mobivine::testing::kBaseLat;
using mobivine::testing::kBaseLon;
using mobivine::testing::MakeDevice;

class RecordingDelegate : public CLLocationManagerDelegate {
 public:
  void locationManagerDidUpdateToLocation(const CLLocation& new_location,
                                          const CLLocation& old) override {
    updates.push_back(new_location);
    previous.push_back(old);
  }
  void locationManagerDidFailWithError(const NSError& error) override {
    errors.push_back(error);
  }
  std::vector<CLLocation> updates;
  std::vector<CLLocation> previous;
  std::vector<NSError> errors;
};

TEST(IPhoneCoreLocation, StreamsFixesAfterAuthorization) {
  auto dev = MakeDevice();
  IPhonePlatform platform(*dev);
  CLLocationManager manager(platform);
  RecordingDelegate delegate;
  manager.setDelegate(&delegate);
  manager.setDesiredAccuracy(kCLLocationAccuracyNearestTenMeters);
  manager.startUpdatingLocation();

  // Nothing until the user answers the authorization prompt.
  EXPECT_TRUE(delegate.updates.empty());
  dev->RunFor(sim::SimTime::Seconds(15));
  ASSERT_GE(delegate.updates.size(), 10u);
  EXPECT_NEAR(delegate.updates[0].latitude, kBaseLat, 0.01);
  EXPECT_TRUE(delegate.updates[0].valid());
  // The delegate also receives the previous fix (invalid for the first).
  EXPECT_FALSE(delegate.previous[0].valid());
  EXPECT_TRUE(delegate.previous[1].valid());
}

TEST(IPhoneCoreLocation, DenialDeliversKCLErrorDenied) {
  auto dev = MakeDevice();
  IPhonePlatform platform(*dev);
  platform.set_user_allows_location(false);
  CLLocationManager manager(platform);
  RecordingDelegate delegate;
  manager.setDelegate(&delegate);
  manager.startUpdatingLocation();
  dev->RunFor(sim::SimTime::Seconds(15));
  EXPECT_TRUE(delegate.updates.empty());
  ASSERT_EQ(delegate.errors.size(), 1u);
  EXPECT_EQ(delegate.errors[0].domain, kCLErrorDomain);
  EXPECT_EQ(delegate.errors[0].code, kCLErrorDenied);
  EXPECT_FALSE(manager.updating());
}

TEST(IPhoneCoreLocation, StopUpdatingStopsStream) {
  auto dev = MakeDevice();
  IPhonePlatform platform(*dev);
  CLLocationManager manager(platform);
  RecordingDelegate delegate;
  manager.setDelegate(&delegate);
  manager.startUpdatingLocation();
  dev->RunFor(sim::SimTime::Seconds(8));
  const size_t count = delegate.updates.size();
  ASSERT_GT(count, 0u);
  manager.stopUpdatingLocation();
  dev->RunFor(sim::SimTime::Seconds(8));
  EXPECT_EQ(delegate.updates.size(), count);
}

TEST(IPhoneCoreLocation, GpsOutageReportsLocationUnknown) {
  device::DeviceConfig config;
  config.gps.fix_failure_probability = 1.0;
  device::MobileDevice dev(config);
  dev.gps().set_track(sim::GeoTrack::Stationary(kBaseLat, kBaseLon));
  IPhonePlatform platform(dev);
  CLLocationManager manager(platform);
  RecordingDelegate delegate;
  manager.setDelegate(&delegate);
  manager.startUpdatingLocation();
  dev.RunFor(sim::SimTime::Seconds(10));
  EXPECT_TRUE(delegate.updates.empty());
  ASSERT_FALSE(delegate.errors.empty());
  EXPECT_EQ(delegate.errors[0].code, kCLErrorLocationUnknown);
  EXPECT_TRUE(manager.updating());  // transient: the stream keeps trying
}

// ---------------------------------------------------------------------------
// openURL composer (sms: / tel:)
// ---------------------------------------------------------------------------

TEST(IPhoneOpenUrl, SmsComposerSendsAfterUserConfirms) {
  auto dev = MakeDevice();
  IPhonePlatform platform(*dev);
  std::vector<IPhonePlatform::ComposerOutcome> outcomes;
  ASSERT_TRUE(platform.openURL("sms:+15550123", "hello",
                               [&](IPhonePlatform::ComposerOutcome outcome) {
                                 outcomes.push_back(outcome);
                               }));
  EXPECT_TRUE(outcomes.empty());  // user has not decided yet
  dev->RunFor(sim::SimTime::Seconds(30));
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0], IPhonePlatform::ComposerOutcome::kSent);
}

TEST(IPhoneOpenUrl, UserCancellationReported) {
  auto dev = MakeDevice();
  IPhonePlatform platform(*dev);
  platform.set_user_confirms_compose(false);
  ASSERT_TRUE(platform.openURL("sms:+15550123", "hello"));
  dev->RunFor(sim::SimTime::Seconds(30));
  EXPECT_EQ(platform.last_composer_outcome(),
            IPhonePlatform::ComposerOutcome::kCancelled);
}

TEST(IPhoneOpenUrl, UnreachableDestinationFails) {
  auto dev = MakeDevice();
  IPhonePlatform platform(*dev);
  ASSERT_TRUE(platform.openURL("sms:+10000000", "hello"));
  dev->RunFor(sim::SimTime::Seconds(30));
  EXPECT_EQ(platform.last_composer_outcome(),
            IPhonePlatform::ComposerOutcome::kFailed);
}

TEST(IPhoneOpenUrl, TelLaunchesCall) {
  auto dev = MakeDevice();
  IPhonePlatform platform(*dev);
  ASSERT_TRUE(platform.openURL("tel:+15550123"));
  dev->RunFor(sim::SimTime::Seconds(30));
  EXPECT_EQ(platform.last_composer_outcome(),
            IPhonePlatform::ComposerOutcome::kSent);
  EXPECT_EQ(dev->modem().call_state(), device::CallState::kConnected);
}

TEST(IPhoneOpenUrl, RejectsUnsupportedSchemes) {
  auto dev = MakeDevice();
  IPhonePlatform platform(*dev);
  EXPECT_FALSE(platform.openURL("mailto:x@y"));
  EXPECT_FALSE(platform.openURL("sms:"));
  EXPECT_FALSE(platform.openURL("nonsense"));
}

// ---------------------------------------------------------------------------
// NSURLConnection
// ---------------------------------------------------------------------------

TEST(IPhoneNsUrl, SynchronousRequestRoundTrip) {
  auto dev = MakeDevice();
  dev->network().RegisterHost("server", [](const device::HttpRequest& req) {
    return device::HttpResponse::Ok("echo:" + req.body);
  });
  IPhonePlatform platform(*dev);
  NSError error = NSError::None();
  auto response = platform.sendSynchronousRequest(
      "POST", "http://server/x", "data", "text/plain", error);
  EXPECT_TRUE(error.ok());
  EXPECT_EQ(response.status_code, 200);
  EXPECT_EQ(response.body, "echo:data");
}

TEST(IPhoneNsUrl, ErrorsAsNSError) {
  auto dev = MakeDevice();
  IPhonePlatform platform(*dev);
  NSError error = NSError::None();
  (void)platform.sendSynchronousRequest("GET", "http://ghost/", "", "", error);
  EXPECT_EQ(error.domain, kNSURLErrorDomain);
  EXPECT_EQ(error.code, kNSURLErrorCannotFindHost);

  (void)platform.sendSynchronousRequest("GET", "garbage", "", "", error);
  EXPECT_EQ(error.code, kNSURLErrorBadURL);
}

// ---------------------------------------------------------------------------
// AddressBook
// ---------------------------------------------------------------------------

TEST(IPhoneAddressBook, CopyAllPeople) {
  auto dev = MakeDevice();
  dev->contacts().Add("Ravi Kumar", "+15550123", "ravi@example.com");
  dev->contacts().Add("Sunita Devi", "+15550199", "");
  IPhonePlatform platform(*dev);
  ABAddressBook book(platform);
  EXPECT_EQ(book.GetPersonCount(), 2);
  auto people = book.CopyArrayOfAllPeople();
  ASSERT_EQ(people.size(), 2u);
  EXPECT_EQ(people[0].CopyValue(kABPersonNameProperty), "Ravi Kumar");
  EXPECT_EQ(people[0].CopyValue(kABPersonPhoneProperty), "+15550123");
  EXPECT_THROW(people[0].CopyValue(999), NSInvalidArgumentException);
}

}  // namespace
}  // namespace mobivine::iphone
