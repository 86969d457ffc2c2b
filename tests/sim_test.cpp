#include <gtest/gtest.h>

#include <vector>

#include "sim/clock.h"
#include "sim/geo_track.h"
#include "sim/latency_model.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "support/geo_units.h"

namespace mobivine::sim {
namespace {

TEST(SimTime, ArithmeticAndComparisons) {
  EXPECT_EQ(SimTime::Millis(1), SimTime::Micros(1000));
  EXPECT_EQ(SimTime::Seconds(2) + SimTime::Millis(500),
            SimTime::MillisF(2500.0));
  EXPECT_LT(SimTime::Millis(1), SimTime::Millis(2));
  EXPECT_EQ((SimTime::Millis(10) - SimTime::Millis(4)).millis(), 6.0);
  EXPECT_EQ((SimTime::Millis(3) * 4).millis(), 12.0);
}

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.ScheduleAt(SimTime::Millis(30), [&] { order.push_back(3); });
  scheduler.ScheduleAt(SimTime::Millis(10), [&] { order.push_back(1); });
  scheduler.ScheduleAt(SimTime::Millis(20), [&] { order.push_back(2); });
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(scheduler.now(), SimTime::Millis(30));
}

TEST(Scheduler, FifoWithinSameInstant) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    scheduler.ScheduleAt(SimTime::Millis(5), [&order, i] { order.push_back(i); });
  }
  scheduler.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler scheduler;
  bool fired = false;
  EventId id = scheduler.ScheduleAfter(SimTime::Millis(5), [&] { fired = true; });
  EXPECT_TRUE(scheduler.Cancel(id));
  scheduler.Run();
  EXPECT_FALSE(fired);
  // Double-cancel and bogus ids are rejected.
  EXPECT_FALSE(scheduler.Cancel(id));
  EXPECT_FALSE(scheduler.Cancel(0));
  EXPECT_FALSE(scheduler.Cancel(9999));
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler scheduler;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) scheduler.ScheduleAfter(SimTime::Millis(10), chain);
  };
  scheduler.ScheduleAfter(SimTime::Millis(10), chain);
  scheduler.Run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(scheduler.now(), SimTime::Millis(50));
}

TEST(Scheduler, RunUntilStopsAtDeadline) {
  Scheduler scheduler;
  std::vector<int> fired;
  scheduler.ScheduleAt(SimTime::Millis(10), [&] { fired.push_back(10); });
  scheduler.ScheduleAt(SimTime::Millis(20), [&] { fired.push_back(20); });
  scheduler.ScheduleAt(SimTime::Millis(30), [&] { fired.push_back(30); });
  scheduler.RunUntil(SimTime::Millis(20));
  EXPECT_EQ(fired, (std::vector<int>{10, 20}));
  EXPECT_EQ(scheduler.now(), SimTime::Millis(20));
  scheduler.Run();
  EXPECT_EQ(fired.back(), 30);
}

TEST(Scheduler, RunUntilAdvancesClockToDeadlineWhenIdle) {
  Scheduler scheduler;
  scheduler.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(scheduler.now(), SimTime::Seconds(5));
}

TEST(Scheduler, AdvanceByMovesClockForwardOnly) {
  Scheduler scheduler;
  scheduler.AdvanceBy(SimTime::Millis(7));
  scheduler.AdvanceBy(SimTime::Millis(-3));  // ignored
  EXPECT_EQ(scheduler.now(), SimTime::Millis(7));
}

TEST(Scheduler, PastScheduleClampsToNow) {
  Scheduler scheduler;
  scheduler.AdvanceBy(SimTime::Millis(100));
  bool fired = false;
  scheduler.ScheduleAt(SimTime::Millis(10), [&] { fired = true; });
  scheduler.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(scheduler.now(), SimTime::Millis(100));
}

TEST(Scheduler, RunLimitBoundsExecution) {
  Scheduler scheduler;
  int count = 0;
  std::function<void()> forever = [&] {
    ++count;
    scheduler.ScheduleAfter(SimTime::Millis(1), forever);
  };
  scheduler.ScheduleAfter(SimTime::Millis(1), forever);
  EXPECT_EQ(scheduler.Run(100), 100u);
  EXPECT_EQ(count, 100);
}

TEST(Scheduler, ClearDropsPendingEventsUnrun) {
  Scheduler scheduler;
  int fired = 0;
  scheduler.ScheduleAfter(SimTime::Millis(1), [&] { ++fired; });
  const EventId cancelled =
      scheduler.ScheduleAfter(SimTime::Millis(2), [&] { ++fired; });
  const EventId live =
      scheduler.ScheduleAfter(SimTime::Millis(3), [&] { ++fired; });
  ASSERT_TRUE(scheduler.Cancel(cancelled));
  EXPECT_EQ(scheduler.Clear(), 2u);  // the cancelled one is not counted
  EXPECT_EQ(scheduler.pending_count(), 0u);
  EXPECT_FALSE(scheduler.Cancel(live));  // its id went stale
  EXPECT_EQ(scheduler.Run(), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(scheduler.now(), SimTime::Zero());
  scheduler.ScheduleAfter(SimTime::Millis(1), [&] { ++fired; });
  EXPECT_EQ(scheduler.Run(), 1u);  // slots are reused after a clear
  EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------------
// Rng / latency models
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(0, 1), b.Uniform(0, 1));
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    auto v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(1);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(LatencyModel, FixedAlwaysSame) {
  Rng rng(3);
  auto model = LatencyModel::Fixed(SimTime::Millis(12));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(model.Sample(rng), SimTime::Millis(12));
  }
  EXPECT_EQ(model.Mean(), SimTime::Millis(12));
}

TEST(LatencyModel, UniformWithinBoundsAndMean) {
  Rng rng(3);
  auto model = LatencyModel::UniformIn(SimTime::Millis(10), SimTime::Millis(20));
  for (int i = 0; i < 1000; ++i) {
    auto sample = model.Sample(rng);
    EXPECT_GE(sample, SimTime::Millis(10));
    EXPECT_LE(sample, SimTime::Millis(20));
  }
  EXPECT_EQ(model.Mean(), SimTime::Millis(15));
}

TEST(LatencyModel, NormalClampedAtMin) {
  Rng rng(3);
  auto model = LatencyModel::Normal(SimTime::Millis(5), SimTime::Millis(10),
                                    SimTime::Millis(4));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(model.Sample(rng), SimTime::Millis(4));
  }
}

TEST(LatencyModel, NormalSampleMeanApproximatesMean) {
  Rng rng(11);
  auto model = LatencyModel::Normal(SimTime::Millis(50), SimTime::Millis(3));
  double total_ms = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) total_ms += model.Sample(rng).millis();
  EXPECT_NEAR(total_ms / n, 50.0, 0.5);
}

// ---------------------------------------------------------------------------
// GeoTrack
// ---------------------------------------------------------------------------

TEST(GeoTrack, StationaryHoldsPosition) {
  auto track = GeoTrack::Stationary(28.5, 77.2, 100);
  auto fix = track.PositionAt(SimTime::Seconds(1000));
  EXPECT_DOUBLE_EQ(fix.latitude_deg, 28.5);
  EXPECT_DOUBLE_EQ(fix.longitude_deg, 77.2);
  EXPECT_DOUBLE_EQ(fix.altitude_m, 100);
  EXPECT_DOUBLE_EQ(fix.speed_mps, 0.0);
}

TEST(GeoTrack, RejectsOutOfOrderWaypoints) {
  GeoTrack track;
  track.AddWaypoint({SimTime::Seconds(10), 28.5, 77.2, 0});
  EXPECT_THROW(track.AddWaypoint({SimTime::Seconds(5), 28.5, 77.2, 0}),
               std::invalid_argument);
}

TEST(GeoTrack, StraightLineSpeedAndDistance) {
  auto track = GeoTrack::StraightLine(28.5, 77.2, 90.0, 10.0,
                                      SimTime::Seconds(100),
                                      SimTime::Seconds(10));
  auto mid = track.PositionAt(SimTime::Seconds(50));
  EXPECT_NEAR(mid.speed_mps, 10.0, 0.2);
  const double travelled = support::HaversineMeters(
      28.5, 77.2, mid.latitude_deg, mid.longitude_deg);
  EXPECT_NEAR(travelled, 500.0, 5.0);
}

TEST(GeoTrack, InterpolatesBetweenWaypoints) {
  GeoTrack track;
  track.AddWaypoint({SimTime::Zero(), 28.0, 77.0, 0});
  track.AddWaypoint({SimTime::Seconds(100), 28.0, 77.0, 100});
  auto fix = track.PositionAt(SimTime::Seconds(50));
  EXPECT_NEAR(fix.altitude_m, 50.0, 1e-9);
}

TEST(GeoTrack, HoldsBeforeFirstAndAfterLast) {
  GeoTrack track;
  track.AddWaypoint({SimTime::Seconds(10), 28.0, 77.0, 0});
  track.AddWaypoint({SimTime::Seconds(20), 29.0, 77.0, 0});
  EXPECT_DOUBLE_EQ(track.PositionAt(SimTime::Zero()).latitude_deg, 28.0);
  EXPECT_DOUBLE_EQ(track.PositionAt(SimTime::Seconds(100)).latitude_deg, 29.0);
}

}  // namespace
}  // namespace mobivine::sim
