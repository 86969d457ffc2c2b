#include <gtest/gtest.h>

#include "device/mobile_device.h"
#include "tests/test_util.h"

namespace mobivine::device {
namespace {

using mobivine::testing::MakeDevice;
using mobivine::testing::kBaseLat;
using mobivine::testing::kBaseLon;

// ---------------------------------------------------------------------------
// GPS
// ---------------------------------------------------------------------------

TEST(Gps, BlockingFixAdvancesClockAndReturnsNearTruth) {
  auto dev = MakeDevice();
  const sim::SimTime before = dev->scheduler().now();
  GpsFix fix = dev->gps().BlockingFix(GpsMode::kHighAccuracy);
  EXPECT_GT(dev->scheduler().now(), before);
  ASSERT_TRUE(fix.valid);
  const double error = support::HaversineMeters(fix.latitude_deg,
                                                fix.longitude_deg, kBaseLat,
                                                kBaseLon);
  EXPECT_LT(error, 20.0);  // high accuracy: 4 m sigma, clamp at 4 sigma
}

TEST(Gps, ModeControlsLatencyOrdering) {
  auto dev = MakeDevice();
  auto& gps = dev->gps();
  EXPECT_LT(gps.ExpectedFixLatency(GpsMode::kLowPower),
            gps.ExpectedFixLatency(GpsMode::kBalanced));
  EXPECT_LT(gps.ExpectedFixLatency(GpsMode::kBalanced),
            gps.ExpectedFixLatency(GpsMode::kHighAccuracy));
}

TEST(Gps, AsyncFixDelivered) {
  auto dev = MakeDevice();
  bool got = false;
  dev->gps().RequestFix(GpsMode::kBalanced, [&](const GpsFix& fix) {
    got = true;
    EXPECT_TRUE(fix.valid);
  });
  EXPECT_FALSE(got);
  dev->RunAll();
  EXPECT_TRUE(got);
}

TEST(Gps, PeriodicFixesStopOnUnsubscribe) {
  auto dev = MakeDevice();
  int count = 0;
  auto id = dev->gps().StartPeriodicFixes(
      GpsMode::kLowPower, sim::SimTime::Seconds(1),
      [&](const GpsFix&) { ++count; });
  dev->RunFor(sim::SimTime::Seconds(5));
  EXPECT_EQ(count, 5);
  dev->gps().StopPeriodicFixes(id);
  dev->RunFor(sim::SimTime::Seconds(5));
  EXPECT_EQ(count, 5);
}

TEST(Gps, RunAllDropsPeriodicFixesPastItsLimit) {
  auto dev = MakeDevice();
  int count = 0;
  dev->gps().StartPeriodicFixes(GpsMode::kLowPower, sim::SimTime::Seconds(1),
                                [&](const GpsFix&) { ++count; });
  // A subscription nobody stops reschedules forever: RunAll runs its
  // limit, then drops the rest, so nothing is left to fire later.
  EXPECT_GE(dev->RunAll(10), 1u);
  EXPECT_EQ(dev->scheduler().pending_count(), 0u);
  const int drained = count;
  EXPECT_GT(drained, 0);
  dev->RunFor(sim::SimTime::Seconds(5));
  EXPECT_EQ(count, drained);
  EXPECT_EQ(dev->RunAll(), 0u);  // an empty device drops nothing
}

TEST(Gps, FixFailureProbabilityProducesInvalidFixes) {
  DeviceConfig config;
  config.gps.fix_failure_probability = 1.0;
  MobileDevice dev(config);
  dev.gps().set_track(sim::GeoTrack::Stationary(kBaseLat, kBaseLon));
  GpsFix fix = dev.gps().BlockingFix(GpsMode::kBalanced);
  EXPECT_FALSE(fix.valid);
}

TEST(Gps, NoTrackMeansInvalidFix) {
  MobileDevice dev;
  GpsFix fix = dev.gps().BlockingFix(GpsMode::kBalanced);
  EXPECT_FALSE(fix.valid);
}

// ---------------------------------------------------------------------------
// Modem: SMS
// ---------------------------------------------------------------------------

TEST(ModemSms, SentThenDeliveredForRegisteredDestination) {
  auto dev = MakeDevice();
  std::vector<SmsStatus> statuses;
  dev->modem().SendSms("+15550123", "hello",
                       [&](const SmsResult& result) {
                         statuses.push_back(result.status);
                       });
  dev->RunAll();
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_EQ(statuses[0], SmsStatus::kSent);
  EXPECT_EQ(statuses[1], SmsStatus::kDelivered);
}

TEST(ModemSms, UnknownDestinationUnreachable) {
  auto dev = MakeDevice();
  std::vector<SmsStatus> statuses;
  dev->modem().SendSms("+19990000", "hello",
                       [&](const SmsResult& result) {
                         statuses.push_back(result.status);
                       });
  dev->RunAll();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0], SmsStatus::kFailedUnreachable);
}

TEST(ModemSms, InjectedRadioFailure) {
  auto dev = MakeDevice();
  dev->modem().InjectRadioFailures(1);
  std::vector<SmsStatus> statuses;
  dev->modem().SendSms("+15550123", "x", [&](const SmsResult& r) {
    statuses.push_back(r.status);
  });
  dev->RunAll();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0], SmsStatus::kFailedRadio);
}

TEST(ModemSms, LongMessagesSplitIntoSegments) {
  auto dev = MakeDevice();
  EXPECT_EQ(dev->modem().SegmentCount(""), 1);
  EXPECT_EQ(dev->modem().SegmentCount(std::string(160, 'a')), 1);
  EXPECT_EQ(dev->modem().SegmentCount(std::string(161, 'a')), 2);
  EXPECT_EQ(dev->modem().SegmentCount(std::string(500, 'a')), 4);
}

TEST(ModemSms, QueueSerializesTransmissions) {
  auto dev = MakeDevice();
  std::vector<std::uint64_t> completion_order;
  for (int i = 0; i < 3; ++i) {
    dev->modem().SendSms("+15550123", "m",
                         [&](const SmsResult& result) {
                           if (result.status == SmsStatus::kSent) {
                             completion_order.push_back(result.message_id);
                           }
                         });
  }
  dev->RunAll();
  ASSERT_EQ(completion_order.size(), 3u);
  EXPECT_TRUE(std::is_sorted(completion_order.begin(),
                             completion_order.end()));
}

TEST(ModemSms, BlockingSubmitReportsOutcomeSynchronously) {
  auto dev = MakeDevice();
  const sim::SimTime before = dev->scheduler().now();
  SmsResult ok = dev->modem().BlockingSubmit("+15550123", "hi");
  EXPECT_EQ(ok.status, SmsStatus::kSent);
  EXPECT_GT(dev->scheduler().now(), before);

  SmsResult bad = dev->modem().BlockingSubmit("+10000000", "hi");
  EXPECT_EQ(bad.status, SmsStatus::kFailedUnreachable);

  dev->modem().InjectRadioFailures(1);
  SmsResult radio = dev->modem().BlockingSubmit("+15550123", "hi");
  EXPECT_EQ(radio.status, SmsStatus::kFailedRadio);
}

TEST(ModemSms, BlockingSubmitDeliveryReportIsAsync) {
  auto dev = MakeDevice();
  bool delivered = false;
  dev->modem().BlockingSubmit("+15550123", "hi", [&](const SmsResult& r) {
    delivered = r.status == SmsStatus::kDelivered;
  });
  EXPECT_FALSE(delivered);
  dev->RunAll();
  EXPECT_TRUE(delivered);
}

// ---------------------------------------------------------------------------
// Modem: voice
// ---------------------------------------------------------------------------

TEST(ModemCall, FullProgressToConnected) {
  auto dev = MakeDevice();
  std::vector<CallState> states;
  ASSERT_TRUE(dev->modem().Dial("+15550123", [&](CallState state) {
    states.push_back(state);
  }));
  dev->RunAll();
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(states[0], CallState::kDialing);
  EXPECT_EQ(states[1], CallState::kRinging);
  EXPECT_EQ(states[2], CallState::kConnected);
}

TEST(ModemCall, UnreachableCalleeFails) {
  auto dev = MakeDevice();
  std::vector<CallState> states;
  dev->modem().Dial("+10000000",
                    [&](CallState state) { states.push_back(state); });
  dev->RunAll();
  ASSERT_EQ(states.size(), 2u);
  EXPECT_EQ(states.back(), CallState::kFailed);
}

TEST(ModemCall, BusyRejectsSecondDial) {
  auto dev = MakeDevice();
  ASSERT_TRUE(dev->modem().Dial("+15550123", nullptr));
  EXPECT_FALSE(dev->modem().Dial("+15550199", nullptr));
}

TEST(ModemCall, HangUpCancelsInFlightTransitions) {
  auto dev = MakeDevice();
  std::vector<CallState> states;
  dev->modem().Dial("+15550123",
                    [&](CallState state) { states.push_back(state); });
  dev->modem().HangUp();
  dev->RunAll();
  EXPECT_EQ(dev->modem().call_state(), CallState::kEnded);
  // No kConnected after the hangup.
  for (CallState state : states) EXPECT_NE(state, CallState::kConnected);
}

TEST(ModemCall, CanRedialAfterEnd) {
  auto dev = MakeDevice();
  dev->modem().Dial("+15550123", nullptr);
  dev->RunAll();
  dev->modem().HangUp();
  EXPECT_TRUE(dev->modem().Dial("+15550199", nullptr));
  dev->RunAll();
  EXPECT_EQ(dev->modem().call_state(), CallState::kConnected);
}

// ---------------------------------------------------------------------------
// HTTP messages / URL parsing
// ---------------------------------------------------------------------------

TEST(Url, ParsesFullForm) {
  auto url = ParseUrl("http://server.example:8080/api/tasks?agent=7&x=1");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->scheme, "http");
  EXPECT_EQ(url->host, "server.example");
  EXPECT_EQ(url->port, 8080);
  EXPECT_EQ(url->path, "/api/tasks");
  EXPECT_EQ(url->query, "agent=7&x=1");
}

TEST(Url, DefaultsAndToStringRoundTrip) {
  auto url = ParseUrl("http://host/path");
  ASSERT_TRUE(url);
  EXPECT_EQ(url->port, 80);
  EXPECT_EQ(url->ToString(), "http://host/path");
  auto bare = ParseUrl("http://host");
  ASSERT_TRUE(bare);
  EXPECT_EQ(bare->path, "/");
}

TEST(Url, RejectsMalformed) {
  EXPECT_FALSE(ParseUrl("not-a-url"));
  EXPECT_FALSE(ParseUrl("ftp://host/x"));
  EXPECT_FALSE(ParseUrl("http://"));
  EXPECT_FALSE(ParseUrl("http://host:notaport/"));
  EXPECT_FALSE(ParseUrl("http://host:0/"));
}

TEST(Url, QueryParsingAndEncoding) {
  auto pairs = ParseQuery("a=1&b=two+words&c=%2Fslash&flag");
  ASSERT_EQ(pairs.size(), 4u);
  EXPECT_EQ(pairs[1].second, "two words");
  EXPECT_EQ(pairs[2].second, "/slash");
  EXPECT_EQ(pairs[3].first, "flag");
  EXPECT_EQ(pairs[3].second, "");
  EXPECT_EQ(UrlEncode("a b/c"), "a+b%2Fc");
}

TEST(HeaderMap, CaseInsensitive) {
  HeaderMap headers;
  headers.Set("Content-Type", "text/plain");
  EXPECT_EQ(headers.GetOr("content-type", ""), "text/plain");
  headers.Set("CONTENT-TYPE", "application/json");
  EXPECT_EQ(headers.size(), 1u);
  EXPECT_EQ(headers.GetOr("Content-Type", ""), "application/json");
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

HttpRequest MakeRequest(const std::string& url) {
  HttpRequest request;
  request.url = *ParseUrl(url);
  return request;
}

TEST(Network, BlockingExchangeHitsRegisteredHost) {
  auto dev = MakeDevice();
  dev->network().RegisterHost("server", [](const HttpRequest& request) {
    EXPECT_EQ(request.url.path, "/ping");
    return HttpResponse::Ok("pong");
  });
  const sim::SimTime before = dev->scheduler().now();
  NetResult result = dev->network().BlockingSend(MakeRequest("http://server/ping"));
  EXPECT_EQ(result.error, NetError::kNone);
  EXPECT_EQ(result.response.body, "pong");
  EXPECT_GT(dev->scheduler().now(), before + sim::SimTime::Millis(20));
}

TEST(Network, UnknownHostUnreachable) {
  auto dev = MakeDevice();
  NetResult result = dev->network().BlockingSend(MakeRequest("http://nowhere/"));
  EXPECT_EQ(result.error, NetError::kHostUnreachable);
}

TEST(Network, LossCausesTimeout) {
  DeviceConfig config;
  config.network.loss_probability = 1.0;
  MobileDevice dev(config);
  dev.network().RegisterHost("server", [](const HttpRequest&) {
    return HttpResponse::Ok("x");
  });
  NetResult result = dev.network().BlockingSend(MakeRequest("http://server/"));
  EXPECT_EQ(result.error, NetError::kTimeout);
  EXPECT_GE(dev.scheduler().now(), config.network.timeout);
}

TEST(Network, AsyncSendDeliversLater) {
  auto dev = MakeDevice();
  dev->network().RegisterHost("server", [](const HttpRequest&) {
    return HttpResponse::Ok("ok");
  });
  bool got = false;
  dev->network().Send(MakeRequest("http://server/"),
                      [&](const NetResult& result) {
                        got = result.error == NetError::kNone;
                      });
  EXPECT_FALSE(got);
  dev->RunAll();
  EXPECT_TRUE(got);
}

TEST(Network, BandwidthChargesTransferTime) {
  auto dev = MakeDevice();
  const sim::SimTime small = dev->network().TransferTime(100);
  const sim::SimTime large = dev->network().TransferTime(100000);
  EXPECT_LT(small, large);
  EXPECT_NEAR(large.seconds(), 100000 / 16000.0, 0.01);
}

TEST(HttpResponseHelpers, FactoriesAndReasons) {
  EXPECT_EQ(HttpResponse::Ok("x").status, 200);
  EXPECT_EQ(HttpResponse::NotFound().status, 404);
  EXPECT_EQ(HttpResponse::BadRequest().status, 400);
  EXPECT_EQ(HttpResponse::ServerError().status, 500);
  EXPECT_EQ(ReasonPhrase(404), "Not Found");
  EXPECT_EQ(ReasonPhrase(418), "Unknown");
}

}  // namespace
}  // namespace mobivine::device
