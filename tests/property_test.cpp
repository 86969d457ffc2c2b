// Parameterized property-style sweeps (TEST_P) over the invariants the
// rest of the suite checks pointwise: geodesy inverses, XML round-trips on
// generated documents, scheduler ordering under random operation
// sequences, MiniJS expression semantics, exception-mapping totality, and
// cross-platform uniform-location agreement.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "android/exceptions.h"
#include "core/errors.h"
#include "core/registry.h"
#include "iphone/iphone_platform.h"
#include "minijs/interpreter.h"
#include "s60/exceptions.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "support/geo_units.h"
#include "tests/test_util.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace mobivine {
namespace {

// ===========================================================================
// Geodesy: Move/Haversine/Bearing inverses over a parameter grid
// ===========================================================================

struct GeoCase {
  double lat, lon, bearing, distance;
};

class GeoInverseProperty : public ::testing::TestWithParam<GeoCase> {};

TEST_P(GeoInverseProperty, MoveThenMeasureRecoversDistanceAndBearing) {
  const GeoCase& c = GetParam();
  auto moved = support::MoveAlongBearing(c.lat, c.lon, c.bearing, c.distance);
  const double measured = support::HaversineMeters(
      c.lat, c.lon, moved.latitude_deg, moved.longitude_deg);
  EXPECT_NEAR(measured, c.distance, c.distance * 0.002 + 0.5);
  if (c.distance > 10.0 && std::abs(c.lat) < 80.0) {
    const double bearing = support::InitialBearingDeg(
        c.lat, c.lon, moved.latitude_deg, moved.longitude_deg);
    double diff = std::abs(bearing - c.bearing);
    if (diff > 180.0) diff = 360.0 - diff;
    EXPECT_LT(diff, 1.0) << "bearing " << c.bearing;
  }
}

std::vector<GeoCase> GeoGrid() {
  std::vector<GeoCase> cases;
  for (double lat : {-60.0, -10.0, 0.0, 28.5245, 55.0}) {
    for (double bearing : {0.0, 37.0, 90.0, 181.0, 300.0}) {
      for (double distance : {5.0, 200.0, 5000.0, 120000.0}) {
        cases.push_back({lat, 77.1855, bearing, distance});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, GeoInverseProperty,
                         ::testing::ValuesIn(GeoGrid()));

// ===========================================================================
// XML: generated-document round trips
// ===========================================================================

class XmlRoundTripProperty : public ::testing::TestWithParam<int> {};

xml::Node* RandomTree(xml::Document& doc, sim::Rng& rng, int depth) {
  static const char* kNames[] = {"proxy", "method", "parameter", "binding",
                                 "property", "item", "cfg"};
  static const char* kTexts[] = {"plain",       "with <angle>",
                                 "amp & quote\"", "'apos'",
                                 "  spaced  ",  "42"};
  xml::Node* node =
      doc.NewElement(kNames[rng.UniformInt(0, std::size(kNames) - 1)]);
  const int attr_count = static_cast<int>(rng.UniformInt(0, 3));
  for (int i = 0; i < attr_count; ++i) {
    doc.SetAttribute(*node, "a" + std::to_string(i),
                     kTexts[rng.UniformInt(0, std::size(kTexts) - 1)]);
  }
  const int child_count =
      depth > 0 ? static_cast<int>(rng.UniformInt(0, 3)) : 0;
  bool last_was_text = false;  // adjacent text nodes would merge on reparse
  for (int i = 0; i < child_count; ++i) {
    if (!last_was_text && rng.Bernoulli(0.3)) {
      doc.AppendChild(*node, doc.NewText(kTexts[rng.UniformInt(
                                 0, std::size(kTexts) - 1)]));
      last_was_text = true;
    } else {
      doc.AppendChild(*node, RandomTree(doc, rng, depth - 1));
      last_was_text = false;
    }
  }
  return node;
}

TEST_P(XmlRoundTripProperty, WriteParseWriteIsStable) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  xml::Document built;
  const xml::Node* original = RandomTree(built, rng, 4);

  // Pretty-printed output re-parses to a structurally equal tree.
  const std::string pretty = xml::WriteNode(*original);
  xml::Document from_pretty = xml::Parse(pretty);
  EXPECT_TRUE(original->StructurallyEquals(*from_pretty.root)) << pretty;

  // Compact output (no inserted whitespace) is byte-stable under
  // parse -> write.
  xml::WriteOptions compact;
  compact.indent = 0;
  const std::string first = xml::WriteNode(*original, compact);
  xml::Document reparsed = xml::Parse(first);
  EXPECT_TRUE(original->StructurallyEquals(*reparsed.root)) << first;
  EXPECT_EQ(xml::WriteNode(*reparsed.root, compact), first);
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlRoundTripProperty, ::testing::Range(0, 25));

// ===========================================================================
// Scheduler: ordering + cancellation under random operation sequences
// ===========================================================================

class SchedulerProperty : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerProperty, FiringOrderMonotoneAndCancelledNeverFire) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 7);
  sim::Scheduler scheduler;

  struct Planned {
    sim::EventId id;
    sim::SimTime when;
    bool cancelled = false;
  };
  std::vector<Planned> planned;
  std::vector<sim::EventId> fired;

  for (int i = 0; i < 200; ++i) {
    const sim::SimTime when =
        sim::SimTime::Micros(rng.UniformInt(0, 1'000'000));
    Planned p;
    p.when = when;
    p.id = 0;
    planned.push_back(p);
    const size_t index = planned.size() - 1;
    planned[index].id = scheduler.ScheduleAt(when, [&fired, &planned, index] {
      fired.push_back(planned[index].id);
    });
  }
  // Cancel a random ~25%.
  for (auto& p : planned) {
    if (rng.Bernoulli(0.25)) {
      p.cancelled = true;
      EXPECT_TRUE(scheduler.Cancel(p.id));
    }
  }
  scheduler.Run();

  // Every non-cancelled event fired exactly once, in non-decreasing time.
  std::map<sim::EventId, sim::SimTime> when_of;
  std::set<sim::EventId> cancelled;
  size_t expected = 0;
  for (const auto& p : planned) {
    when_of[p.id] = p.when;
    if (p.cancelled) {
      cancelled.insert(p.id);
    } else {
      ++expected;
    }
  }
  ASSERT_EQ(fired.size(), expected);
  sim::SimTime previous = sim::SimTime::Zero();
  for (sim::EventId id : fired) {
    EXPECT_EQ(cancelled.count(id), 0u);
    EXPECT_GE(when_of[id], previous);
    previous = when_of[id];
  }
  // Cancelling after the run always fails.
  for (const auto& p : planned) {
    EXPECT_FALSE(scheduler.Cancel(p.id));
  }
  EXPECT_EQ(scheduler.pending_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty, ::testing::Range(0, 15));

// ===========================================================================
// MiniJS: expression semantics table
// ===========================================================================

struct JsCase {
  const char* source;
  const char* expected;  // ToDisplayString of the final expression
};

class MiniJsSemantics : public ::testing::TestWithParam<JsCase> {};

TEST_P(MiniJsSemantics, EvaluatesToExpectedDisplay) {
  minijs::Interpreter interp;
  minijs::Value result = interp.Run(GetParam().source);
  EXPECT_EQ(result.ToDisplayString(), GetParam().expected)
      << GetParam().source;
}

const JsCase kJsCases[] = {
    {"1 + 2 * 3 - 4 / 2;", "5"},
    {"(2 + 3) * (4 - 1);", "15"},
    {"7 % 4;", "3"},
    {"-(-5);", "5"},
    {"'a' + 1 + 2;", "a12"},
    {"1 + 2 + 'a';", "3a"},
    {"true && false || true;", "true"},
    {"!0;", "true"},
    {"!!'';", "false"},
    {"typeof 1;", "number"},
    {"typeof 'x';", "string"},
    {"typeof undefined;", "undefined"},
    {"typeof {};", "object"},
    {"typeof function(){};", "function"},
    {"1 < 2 == true;", "true"},
    {"'b' > 'a';", "true"},
    {"null == undefined;", "true"},
    {"null === undefined;", "false"},
    {"'5' == 5;", "true"},
    {"'5' === 5;", "false"},
    {"NaN_check();function NaN_check(){ return isNaN(0/0); }", "true"},
    {"var x = 10; x += 5; x -= 3; x;", "12"},
    {"var a = [1,2,3]; a[1] = 9; a.join('');", "193"},
    {"var o = {}; o['k'] = 'v'; o.k;", "v"},
    {"var s = 0; for (var i = 1; i <= 10; i++) { s += i; } s;", "55"},
    {"var n = 5; var f = 1; while (n > 1) { f = f * n; n--; } f;", "120"},
    {"function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); } fib(10);",
     "55"},
    {"var c = 0; try { throw 'x'; } catch (e) { c = 1; } c;", "1"},
    {"Math.max(1, Math.min(9, 5), 2);", "5"},
    {"Math.floor(3.9) + Math.ceil(3.1);", "7"},
    {"'hello world'.substring(6).toUpperCase();", "WORLD"},
    {"[3,1,2].length + [].length;", "3"},
    {"var i = 0; var r = i++ + ++i; r;", "2"},
    {"(function(a, b) { return a * b; })(6, 7);", "42"},
    {"var obj = {n: 1}; obj.n++; ++obj.n; obj.n;", "3"},
    {"'1.5e1' == 15;", "true"},
    {"undefined + 1;", "NaN"},
    {"null + 1;", "1"},
};

INSTANTIATE_TEST_SUITE_P(Table, MiniJsSemantics, ::testing::ValuesIn(kJsCases));

// ===========================================================================
// Exception mapping: totality over the platform exception sets
// ===========================================================================

struct ThrowCase {
  const char* name;
  std::function<void()> thrower;
  core::ErrorCode expected;
};

class ExceptionMappingProperty : public ::testing::TestWithParam<ThrowCase> {};

TEST_P(ExceptionMappingProperty, MapsToExpectedUniformCode) {
  const ThrowCase& c = GetParam();
  try {
    try {
      c.thrower();
    } catch (...) {
      core::RethrowAsProxyError("test");
    }
    FAIL() << c.name << ": nothing thrown";
  } catch (const core::ProxyError& error) {
    EXPECT_EQ(error.code(), c.expected) << c.name;
    EXPECT_EQ(error.platform(), "test");
    EXPECT_FALSE(error.native_type().empty());
  }
}

const ThrowCase kThrowCases[] = {
    {"android-security",
     [] { throw android::SecurityException("x"); },
     core::ErrorCode::kSecurity},
    {"android-illegal",
     [] { throw android::IllegalArgumentException("x"); },
     core::ErrorCode::kIllegalArgument},
    {"android-unsupported",
     [] { throw android::UnsupportedOperationException("x"); },
     core::ErrorCode::kUnsupported},
    {"android-state",
     [] { throw android::IllegalStateException("x"); },
     core::ErrorCode::kInvalidState},
    {"android-timeout",
     [] { throw android::ConnectTimeoutException("x"); },
     core::ErrorCode::kTimeout},
    {"android-protocol",
     [] { throw android::ClientProtocolException("x"); },
     core::ErrorCode::kUnreachable},
    {"android-remote",
     [] { throw android::RemoteException("x"); },
     core::ErrorCode::kUnknown},
    {"s60-security",
     [] { throw s60::SecurityException("x"); },
     core::ErrorCode::kSecurity},
    {"s60-location",
     [] { throw s60::LocationException("x"); },
     core::ErrorCode::kLocationUnavailable},
    {"s60-illegal",
     [] { throw s60::IllegalArgumentException("x"); },
     core::ErrorCode::kIllegalArgument},
    {"s60-null",
     [] { throw s60::NullPointerException("x"); },
     core::ErrorCode::kIllegalArgument},
    {"s60-interrupted",
     [] { throw s60::InterruptedIOException("x"); },
     core::ErrorCode::kRadioFailure},
    {"s60-connection",
     [] { throw s60::ConnectionNotFoundException("x"); },
     core::ErrorCode::kIllegalArgument},
    {"s60-io",
     [] { throw s60::IOException("x"); },
     core::ErrorCode::kNetwork},
    {"std-runtime",
     [] { throw std::runtime_error("x"); },
     core::ErrorCode::kUnknown},
};

INSTANTIATE_TEST_SUITE_P(AllExceptions, ExceptionMappingProperty,
                         ::testing::ValuesIn(kThrowCases));

// ===========================================================================
// Uniform location: all four platforms agree on the same device state
// ===========================================================================

class UniformLocationProperty
    : public ::testing::TestWithParam<std::tuple<const char*, double, double>> {
};

TEST_P(UniformLocationProperty, PlatformsAgreeWithinAccuracy) {
  const auto& [platform_name, lat, lon] = GetParam();
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  core::ProxyRegistry registry(&store);

  auto dev = testing::MakeDevice(77);
  dev->gps().set_track(sim::GeoTrack::Stationary(lat, lon, 100));

  core::Location result;
  const std::string name = platform_name;
  if (name == "android") {
    android::AndroidPlatform platform(*dev);
    platform.grantPermission(android::permissions::kFineLocation);
    auto proxy = registry.CreateLocationProxy(platform);
    proxy->setProperty("context", &platform.application_context());
    result = proxy->getLocation();
  } else if (name == "s60") {
    s60::S60Platform platform(*dev);
    platform.grantPermission(s60::permissions::kLocation);
    auto proxy = registry.CreateLocationProxy(platform);
    proxy->setProperty("verticalAccuracy", 50LL);
    result = proxy->getLocation();
  } else {
    iphone::IPhonePlatform platform(*dev);
    auto proxy = registry.CreateLocationProxy(platform);
    result = proxy->getLocation();
  }
  ASSERT_TRUE(result.valid) << name;
  const double error =
      support::HaversineMeters(result.latitude, result.longitude, lat, lon);
  // Within 5 sigma of the worst (low-power) noise model.
  EXPECT_LT(error, 300.0) << name;
  EXPECT_GT(result.timestamp_ms, 0) << name;
}

INSTANTIATE_TEST_SUITE_P(
    PlatformsTimesPlaces, UniformLocationProperty,
    ::testing::Combine(::testing::Values("android", "s60", "iphone"),
                       ::testing::Values(28.5245, -33.8688, 0.0),
                       ::testing::Values(77.1855, 151.2093)));

// ===========================================================================
// Latency models: samples respect bounds; sample mean approximates Mean()
// ===========================================================================

class LatencyModelProperty
    : public ::testing::TestWithParam<sim::LatencyModel> {};

TEST_P(LatencyModelProperty, SampleMeanNearDeclaredMean) {
  sim::Rng rng(5);
  const sim::LatencyModel& model = GetParam();
  double total = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const sim::SimTime sample = model.Sample(rng);
    EXPECT_GE(sample.micros(), 0);
    total += sample.millis();
  }
  const double mean = model.Mean().millis();
  EXPECT_NEAR(total / n, mean, std::max(0.5, mean * 0.05))
      << model.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Models, LatencyModelProperty,
    ::testing::Values(
        sim::LatencyModel::Fixed(sim::SimTime::Millis(10)),
        sim::LatencyModel::UniformIn(sim::SimTime::Millis(5),
                                     sim::SimTime::Millis(25)),
        sim::LatencyModel::Normal(sim::SimTime::Millis(50),
                                  sim::SimTime::Millis(4)),
        sim::LatencyModel::Normal(sim::SimTime::MillisF(15.6),
                                  sim::SimTime::MillisF(1.0),
                                  sim::SimTime::MillisF(8.0))));

}  // namespace
}  // namespace mobivine
