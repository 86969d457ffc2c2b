// push plane (EXPERIMENTS.md W8): server-initiated delivery vs polling.
// A paced publisher stamps each event with steady_clock micros; every
// subscriber records publish->handler latency. In push mode each holds a
// kLiveOnly subscription; in poll mode each drains with kDrainOnce (the
// wire form of the paper's notification-table poll) every poll interval,
// so latency includes the wait for the next tick.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"

namespace mobivine::bench {
namespace {

constexpr auto kPollInterval = std::chrono::microseconds(10'000);

std::uint64_t NowMicros() { return MicrosSince(Clock::time_point()); }

void RecordStampedEvent(const wire::WireEvent& event,
                        support::LatencyHistogram& latency) {
  const std::uint64_t sent = std::strtoull(event.body.c_str(), nullptr, 10);
  const std::uint64_t now = NowMicros();
  latency.Record(now > sent ? now - sent : 0);
}

gateway::GatewayConfig PushGatewayConfig() {
  gateway::GatewayConfig config = ShardedConfig(4);
  config.push_replay_capacity = 8192;  // pollers must never outrun it
  return config;
}

/// Publish `total` stamped events round-robin over client ids 1..n,
/// paced so neither mode measures its own queueing collapse.
void PublishPaced(gateway::Gateway& gateway, int subscribers,
                  std::uint64_t total) {
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint64_t client =
        1 + (i % static_cast<std::uint64_t>(subscribers));
    gateway.PublishEvent(client, gateway::PushTopic::kProximity,
                         std::to_string(NowMicros()));
    if ((i & 63u) == 63u) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

struct PushRun {
  std::uint64_t p50 = 0;
  std::uint64_t frames_out = 0;
  Row row;
};

/// Block until `delivered` reaches `expected` or `timeout` passes;
/// returns the seconds since `start`.
double AwaitDelivery(const std::atomic<std::uint64_t>& delivered,
                     std::uint64_t expected, Clock::time_point start,
                     std::chrono::seconds timeout) {
  while (delivered.load(std::memory_order_relaxed) < expected &&
         Clock::now() < start + timeout) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return SecondsSince(start);
}

PushRun Result(const char* mode, int subscribers, std::uint64_t total,
               std::uint64_t delivered, double seconds, std::uint64_t polls,
               const support::LatencyHistogram& latency,
               const WireStack& stack) {
  const support::HistogramSnapshot snap = latency.Snapshot();
  const wire::WireStatsSnapshot stats = stack.server.Stats();
  PushRun run;
  run.p50 = snap.PercentileRank(50.0);
  run.frames_out = stats.frames_out;
  run.row.Add("mode", mode, {"mode", -6})
      .Add("subscribers", subscribers, {"subscribers", -12})
      .Add("published", total, {"published", 10})
      .Add("delivered", delivered, {"delivered", 10})
      .Add("events_per_sec",
           static_cast<std::uint64_t>(seconds > 0 ? delivered / seconds : 0),
           {"events/s", 12})
      .Add("p50_us", run.p50, {"p50(us)", 9})
      .Add("p95_us", snap.PercentileRank(95.0), {"p95(us)", 9})
      .Add("p99_us", snap.PercentileRank(99.0), {"p99(us)", 9})
      .Add("polls", polls, {"polls", 8})
      .Add("frames_out", stats.frames_out, {"frames_out", 11})
      .Add("events_dropped", stats.events_dropped)
      .Add("gap_markers", stats.gap_markers);
  return run;
}

PushRun RunPushScenario(int subscribers, std::uint64_t total) {
  WireStack stack(PushGatewayConfig());
  support::LatencyHistogram latency;
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::unique_ptr<wire::WireClient>> clients;
  std::mutex ack_mutex;
  std::condition_variable ack_cv;
  int acked = 0;
  for (int i = 0; i < subscribers; ++i) {
    clients.push_back(std::make_unique<wire::WireClient>());
    wire::WireClient& client = *clients.back();
    Connect(client, stack.server.port());
    wire::WireSubscribe subscribe;
    subscribe.client_id = static_cast<std::uint64_t>(i + 1);
    subscribe.topic = wire::PushTopic::kAll;
    subscribe.mode = wire::SubscribeMode::kLiveOnly;
    (void)client.Subscribe(
        subscribe,
        [&](const wire::WireEvent& event) {
          if (event.kind != wire::EventKind::kData) return;
          RecordStampedEvent(event, latency);
          delivered.fetch_add(1, std::memory_order_relaxed);
        },
        [&](const wire::WireSubscribeAck&) {
          std::lock_guard<std::mutex> lock(ack_mutex);
          ++acked;
          ack_cv.notify_all();
        });
  }
  {
    std::unique_lock<std::mutex> lock(ack_mutex);
    ack_cv.wait(lock, [&] { return acked == subscribers; });
  }

  const Clock::time_point start = Clock::now();
  PublishPaced(stack.gateway, subscribers, total);
  const double seconds =
      AwaitDelivery(delivered, total, start, std::chrono::seconds(60));
  PushRun run = Result("push", subscribers, total, delivered.load(), seconds,
                       0, latency, stack);
  for (auto& client : clients) client->Close();
  stack.Stop();
  return run;
}

PushRun RunPollScenario(int subscribers, std::uint64_t total) {
  WireStack stack(PushGatewayConfig());
  support::LatencyHistogram latency;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> polls{0};
  std::atomic<bool> stop{false};
  const std::uint64_t per_subscriber =
      total / static_cast<std::uint64_t>(subscribers);

  // One subscriber: a kDrainOnce round every poll interval until it has
  // seen its share of the stream or `stop` is set.
  const auto poller = [&](std::uint64_t client_id) {
    wire::WireClient client;
    Connect(client, stack.server.port());
    std::uint64_t cursor = 0;
    std::uint64_t mine = 0;
    while (mine < per_subscriber && !stop.load(std::memory_order_acquire)) {
      std::mutex mutex;
      std::condition_variable cv;
      bool done = false;
      std::uint64_t end_cursor = cursor;
      std::uint64_t got = 0;
      wire::WireSubscribe drain;
      drain.client_id = client_id;
      drain.topic = wire::PushTopic::kAll;
      drain.mode = wire::SubscribeMode::kDrainOnce;
      drain.cursor = cursor;
      polls.fetch_add(1, std::memory_order_relaxed);
      const bool sent = client.Subscribe(
          drain,
          [&](const wire::WireEvent& event) {
            if (event.kind == wire::EventKind::kData) {
              RecordStampedEvent(event, latency);
              ++got;
              return;
            }
            std::lock_guard<std::mutex> lock(mutex);
            end_cursor = event.cursor;  // kEndOfDrain: the resume point
            done = true;
            cv.notify_all();
          },
          [&](const wire::WireSubscribeAck& ack) {
            if (ack.status != wire::WireStatus::kOk) {
              std::lock_guard<std::mutex> lock(mutex);
              done = true;
              cv.notify_all();
            }
          });
      if (!sent) return;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return done; });
        cursor = end_cursor;
      }
      mine += got;
      delivered.fetch_add(got, std::memory_order_relaxed);
      if (mine < per_subscriber) std::this_thread::sleep_for(kPollInterval);
    }
    client.Close();
  };
  std::vector<std::thread> pollers;
  for (int i = 0; i < subscribers; ++i) pollers.emplace_back(poller, i + 1);
  const Clock::time_point start = Clock::now();
  PublishPaced(stack.gateway, subscribers, total);
  const double seconds = AwaitDelivery(
      delivered, per_subscriber * static_cast<std::uint64_t>(subscribers),
      start, std::chrono::seconds(120));
  stop.store(true, std::memory_order_release);
  for (auto& poller : pollers) poller.join();
  PushRun run = Result("poll", subscribers, total, delivered.load(), seconds,
                       polls.load(), latency, stack);
  stack.Stop();
  return run;
}

}  // namespace

Row RunPush(const Options& options) {
  Row doc = ResultDocument("push_throughput");
  const std::uint64_t total = options.smoke ? 6'000 : 20'000;
  const std::vector<int> counts =
      options.smoke ? std::vector<int>{100} : std::vector<int>{10, 100, 200};
  std::printf("M-Push push vs poll, gateway: 4 shards\n\n");

  Table table;
  std::vector<PushRun> runs;
  for (int subscribers : counts) {
    runs.push_back(RunPushScenario(subscribers, total));
    table.Print(runs.back().row);
    runs.push_back(RunPollScenario(subscribers, total));
    table.Print(runs.back().row);
  }
  std::vector<Row> scenarios;
  for (const PushRun& run : runs) scenarios.push_back(run.row);
  doc.Add("gateway_shards", 4)
      .Add("poll_interval_us", kPollInterval.count())
      .Add("scenarios", scenarios);

  // Acceptance at 100 subscribers: push beats polling on delivery latency
  // and on wire traffic per delivered event.
  const std::size_t at = 2 * static_cast<std::size_t>(
                                 std::find(counts.begin(), counts.end(), 100) -
                                 counts.begin());
  const PushRun& push = runs[at];
  const PushRun& poll = runs[at + 1];
  const double ratio = push.p50 > 0 ? static_cast<double>(poll.p50) /
                                          static_cast<double>(push.p50)
                                    : 0;
  std::printf("\npush vs poll @ 100 subscribers: p50 %llu us vs %llu us "
              "(%.1fx), frames %llu vs %llu\n",
              static_cast<unsigned long long>(push.p50),
              static_cast<unsigned long long>(poll.p50), ratio,
              static_cast<unsigned long long>(push.frames_out),
              static_cast<unsigned long long>(poll.frames_out));
  Row acceptance;
  acceptance.Add("subscribers", 100)
      .Add("push_p50_us", push.p50)
      .Add("poll_p50_us", poll.p50)
      .Add("poll_over_push_p50", ratio)
      .Add("push_frames_out", push.frames_out)
      .Add("poll_frames_out", poll.frames_out);
  doc.Add("acceptance", acceptance);
  return doc;
}

/// A live subscription with cursor replay, then the traced request mix on
/// the same connection: the validator's gateway checks and
/// --require-wire need the request plane in the export, and it proves
/// responses and events share a socket without starving.
void TracePush(const Options& options) {
  TracedRun traced;
  WireStack stack(PushGatewayConfig());
  const auto gateway_registration =
      stack.gateway.RegisterMetrics(traced.metrics());
  const auto wire_registration =
      stack.server.RegisterMetrics(traced.metrics());

  wire::WireClient client;
  Connect(client, stack.server.port());
  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t seen = 0;
  wire::WireSubscribe subscribe;
  subscribe.client_id = 1;
  subscribe.topic = wire::PushTopic::kAll;
  subscribe.mode = wire::SubscribeMode::kFromCursor;
  subscribe.cursor = 0;
  (void)client.Subscribe(
      subscribe,
      [&](const wire::WireEvent& event) {
        if (event.kind != wire::EventKind::kData) return;
        std::lock_guard<std::mutex> lock(mutex);
        ++seen;
        cv.notify_all();
      },
      [](const wire::WireSubscribeAck&) {});
  for (int i = 0; i < 200; ++i) {
    stack.gateway.PublishEvent(1, gateway::PushTopic::kProximity,
                               std::to_string(NowMicros()));
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return seen >= 200; });
  }
  CallTracedMix(client, 120);
  client.Close();
  stack.Stop();
  traced.Write(options);
}

}  // namespace mobivine::bench
