// M-Push vs polling: what server-initiated delivery buys at scale.
//
// The question this bench answers (EXPERIMENTS.md W8): the paper's
// WebView plane delivers platform callbacks through a notification
// table the client POLLS. M-Push inverts that — the server streams
// kEvent frames to subscribers. At N subscribers, what do the two cost
// in delivery latency and in wire traffic, for the same event stream?
//
// Scenario matrix, written to BENCH_push.json (or argv[1]):
//
//  * push — N subscribers hold one live subscription each (kLiveOnly,
//    client-filtered); a paced publisher stamps each event body with
//    steady_clock micros; every subscriber records publish->handler
//    latency. Delivery needs zero requests.
//  * poll — the same N subscribers and the same paced stream, but each
//    subscriber polls with SubscribeMode::kDrainOnce (replay + end
//    marker + auto-close: the wire-level equivalent of the paper's
//    notification-table poll) every `poll_interval`, carrying its
//    cursor forward between rounds. Latency is the same
//    publish->handler stamp, which now includes the wait for the next
//    poll tick.
//
// Methodology mirrors bench_wire_throughput: wall-clock timing on
// steady_clock, a fresh gateway+server per scenario, tracing disabled
// during timed runs. --smoke runs one subscriber count with a shorter
// stream (the CI perf-smoke leg); --trace exports an M-Scope trace of a
// small traced push scenario (push.subscribe / push.replay spans and
// the pump's instants); --metrics dumps the push metric families;
// --trace-only skips the timed matrix and runs just the traced
// scenario (the CI validation leg).
//
//   ./build/bench/bench_push_throughput [output.json]
//       [--trace trace.json] [--metrics metrics.json] [--smoke]
//       [--trace-only]
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "support/histogram.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "wire/client.h"
#include "wire/protocol.h"
#include "wire/server.h"

#include "bench_io.h"

using namespace mobivine;

namespace {

const core::DescriptorStore& Store() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

std::uint64_t NowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct ScenarioResult {
  std::string mode;
  int subscribers = 0;
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  double events_per_sec = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  std::uint64_t polls = 0;        ///< kDrainOnce rounds (poll mode only)
  std::uint64_t frames_out = 0;   ///< total server frames (events + acks)
  std::uint64_t events_dropped = 0;
  std::uint64_t gap_markers = 0;
};

gateway::GatewayConfig PushGatewayConfig() {
  gateway::GatewayConfig config;
  config.shards = 4;
  config.store = &Store();
  config.push_replay_capacity = 8192;  // pollers must never outrun the ring
  return config;
}

/// Publish `total` stamped events round-robin over client ids 1..n,
/// paced so neither mode measures its own queueing collapse: the point
/// is delivery latency for a stream both sides can keep up with.
void PublishPaced(gateway::Gateway& gateway, int subscribers,
                  std::uint64_t total) {
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::uint64_t client = 1 + (i % static_cast<std::uint64_t>(
                                              subscribers));
    gateway.PublishEvent(client, gateway::PushTopic::kProximity,
                         std::to_string(NowMicros()));
    if ((i & 63u) == 63u) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

void RecordStampedEvent(const wire::WireEvent& event,
                        support::LatencyHistogram& latency) {
  const std::uint64_t sent =
      std::strtoull(event.body.c_str(), nullptr, 10);
  const std::uint64_t now = NowMicros();
  latency.Record(now > sent ? now - sent : 0);
}

// ---------------------------------------------------------------------------
// push: one live subscription per subscriber
// ---------------------------------------------------------------------------

ScenarioResult RunPushScenario(int subscribers, std::uint64_t total) {
  gateway::Gateway gateway(PushGatewayConfig());
  wire::WireServer server(gateway, {});
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "wire server start failed: %s\n", error.c_str());
    std::exit(1);
  }

  support::LatencyHistogram latency;
  std::atomic<std::uint64_t> delivered{0};
  std::vector<std::unique_ptr<wire::WireClient>> clients;
  std::mutex ack_mutex;
  std::condition_variable ack_cv;
  int acked = 0;
  for (int i = 0; i < subscribers; ++i) {
    clients.push_back(std::make_unique<wire::WireClient>());
    wire::WireClient& client = *clients.back();
    if (!client.Connect(server.port())) {
      std::fprintf(stderr, "subscriber %d connect failed\n", i);
      std::exit(1);
    }
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

  const auto start = std::chrono::steady_clock::now();
  PublishPaced(gateway, subscribers, total);
  const auto deadline = start + std::chrono::seconds(60);
  while (delivered.load(std::memory_order_relaxed) < total &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ScenarioResult result;
  result.mode = "push";
  result.subscribers = subscribers;
  result.published = total;
  result.delivered = delivered.load(std::memory_order_relaxed);
  result.events_per_sec = seconds > 0 ? result.delivered / seconds : 0;
  const auto snap = latency.Snapshot();
  result.p50 = snap.PercentileRank(50.0);
  result.p95 = snap.PercentileRank(95.0);
  result.p99 = snap.PercentileRank(99.0);
  const auto stats = server.Stats();
  result.frames_out = stats.frames_out;
  result.events_dropped = stats.events_dropped;
  result.gap_markers = stats.gap_markers;
  for (auto& client : clients) client->Close();
  server.Stop();
  gateway.Stop();
  return result;
}

// ---------------------------------------------------------------------------
// poll: kDrainOnce rounds every poll_interval, cursor carried forward
// ---------------------------------------------------------------------------

ScenarioResult RunPollScenario(int subscribers, std::uint64_t total,
                               std::chrono::microseconds poll_interval) {
  gateway::Gateway gateway(PushGatewayConfig());
  wire::WireServer server(gateway, {});
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "wire server start failed: %s\n", error.c_str());
    std::exit(1);
  }

  support::LatencyHistogram latency;
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> polls{0};
  std::atomic<bool> stop{false};
  const std::uint64_t per_subscriber =
      total / static_cast<std::uint64_t>(subscribers);

  std::vector<std::thread> pollers;
  for (int i = 0; i < subscribers; ++i) {
    pollers.emplace_back([&, i] {
      wire::WireClient client;
      if (!client.Connect(server.port())) return;
      std::uint64_t cursor = 0;
      std::uint64_t mine = 0;
      while (mine < per_subscriber && !stop.load(std::memory_order_acquire)) {
        // One poll round: drain everything after `cursor`, then sleep.
        std::mutex mutex;
        std::condition_variable cv;
        bool done = false;
        std::uint64_t end_cursor = cursor;
        std::uint64_t got = 0;
        wire::WireSubscribe drain;
        drain.client_id = static_cast<std::uint64_t>(i + 1);
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
        if (mine < per_subscriber) std::this_thread::sleep_for(poll_interval);
      }
      client.Close();
    });
  }

  const auto start = std::chrono::steady_clock::now();
  PublishPaced(gateway, subscribers, total);
  const auto deadline = start + std::chrono::seconds(120);
  while (delivered.load(std::memory_order_relaxed) <
             per_subscriber * static_cast<std::uint64_t>(subscribers) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true, std::memory_order_release);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  for (auto& poller : pollers) poller.join();

  ScenarioResult result;
  result.mode = "poll";
  result.subscribers = subscribers;
  result.published = total;
  result.delivered = delivered.load(std::memory_order_relaxed);
  result.events_per_sec = seconds > 0 ? result.delivered / seconds : 0;
  const auto snap = latency.Snapshot();
  result.p50 = snap.PercentileRank(50.0);
  result.p95 = snap.PercentileRank(95.0);
  result.p99 = snap.PercentileRank(99.0);
  result.polls = polls.load(std::memory_order_relaxed);
  const auto stats = server.Stats();
  result.frames_out = stats.frames_out;
  result.events_dropped = stats.events_dropped;
  result.gap_markers = stats.gap_markers;
  server.Stop();
  gateway.Stop();
  return result;
}

// ---------------------------------------------------------------------------
// M-Scope traced scenario + metrics dump
// ---------------------------------------------------------------------------

void RunTraced(const std::string& trace_path,
               const std::string& metrics_path) {
  namespace trace = support::trace;
  support::MetricsRegistry metrics;
  trace::SetPerThreadCapacity(256 * 1024);
  trace::Reset();
  trace::SetEnabled(true);

  gateway::Gateway gateway(PushGatewayConfig());
  wire::WireServerConfig config;
  wire::WireServer server(gateway, config);
  const auto gateway_registration = gateway.RegisterMetrics(metrics);
  const auto registration = server.RegisterMetrics(metrics);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "wire server start failed: %s\n", error.c_str());
    std::exit(1);
  }

  wire::WireClient client;
  if (!client.Connect(server.port())) {
    std::fprintf(stderr, "traced client connect failed\n");
    std::exit(1);
  }
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
    gateway.PublishEvent(1, gateway::PushTopic::kProximity,
                         std::to_string(NowMicros()));
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait_for(lock, std::chrono::seconds(10), [&] { return seen >= 200; });
  }
  // Mixed request traffic on the same connection: the validator's base
  // gateway checks (serve spans, op instants, counter reconciliation)
  // and --require-wire both need the request plane in the same export,
  // proving responses and events share a socket without starving.
  for (std::uint64_t i = 0; i < 120; ++i) {
    wire::WireRequest request;
    request.client_id = i;
    switch (i % 3) {
      case 0:
        request.platform = gateway::Platform::kAndroid;
        request.op = gateway::Op::kHttpGet;
        request.target =
            std::string("http://") + gateway::kGatewayHttpHost + "/ping";
        break;
      case 1:
        request.platform = gateway::Platform::kIphone;
        request.op = gateway::Op::kSendSms;
        request.target = gateway::kGatewaySmsPeer;
        request.payload = "traced push message";
        break;
      default:
        request.platform = gateway::Platform::kS60;
        request.op = gateway::Op::kSegmentCount;
        request.payload = std::string(200, 'x');
        break;
    }
    wire::WireResponse response;
    (void)client.Call(std::move(request), &response);
  }
  client.Close();
  // Quiesce before snapshotting so counters reconcile and spans close.
  server.Stop();
  gateway.Stop();

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    metrics.Snapshot().WriteJson(out);
    bench::CloseOrDie(out, metrics_path);
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  std::ofstream out(trace_path);
  const trace::ExportStats stats = trace::ExportChromeTrace(out);
  bench::CloseOrDie(out, trace_path);
  trace::SetEnabled(false);
  std::printf("wrote %s (%zu events across %zu threads, %zu dropped)\n",
              trace_path.c_str(), stats.events, stats.threads, stats.dropped);
}

}  // namespace

int main(int argc, char** argv) {
  std::string output;
  std::string trace_path;
  std::string metrics_path;
  bool smoke = false;
  bool trace_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace-only") {
      trace_only = true;
    } else {
      output = arg;
    }
  }
  if (output.empty()) output = "BENCH_push.json";
  if (trace_only) {
    if (trace_path.empty()) trace_path = "TRACE_push.json";
    std::printf("M-Scope traced push scenario:\n");
    RunTraced(trace_path, metrics_path);
    return 0;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  const std::uint64_t kTotal = smoke ? 6'000 : 20'000;
  const auto kPollInterval = std::chrono::microseconds(10'000);
  const std::vector<int> counts =
      smoke ? std::vector<int>{100} : std::vector<int>{10, 100, 200};

  std::printf("M-Push push-vs-poll benchmark (host: %u hardware threads, "
              "gateway: 4 shards%s)\n\n",
              cores, smoke ? ", smoke" : "");
  std::printf("%-6s %-12s %10s %10s %12s %9s %9s %9s %8s %11s\n", "mode",
              "subscribers", "published", "delivered", "events/s", "p50(us)",
              "p95(us)", "p99(us)", "polls", "frames_out");
  std::printf("%s\n", std::string(104, '-').c_str());

  std::vector<ScenarioResult> scenarios;
  auto report = [](const ScenarioResult& r) {
    std::printf("%-6s %-12d %10llu %10llu %12.0f %9llu %9llu %9llu %8llu "
                "%11llu\n",
                r.mode.c_str(), r.subscribers,
                static_cast<unsigned long long>(r.published),
                static_cast<unsigned long long>(r.delivered),
                r.events_per_sec, static_cast<unsigned long long>(r.p50),
                static_cast<unsigned long long>(r.p95),
                static_cast<unsigned long long>(r.p99),
                static_cast<unsigned long long>(r.polls),
                static_cast<unsigned long long>(r.frames_out));
  };
  for (int subscribers : counts) {
    ScenarioResult push = RunPushScenario(subscribers, kTotal);
    report(push);
    scenarios.push_back(std::move(push));
    ScenarioResult poll = RunPollScenario(subscribers, kTotal, kPollInterval);
    report(poll);
    scenarios.push_back(std::move(poll));
  }

  // Acceptance: at >= 100 subscribers push beats polling on delivery
  // latency AND on wire traffic per delivered event.
  const ScenarioResult* push_at_scale = nullptr;
  const ScenarioResult* poll_at_scale = nullptr;
  for (const ScenarioResult& r : scenarios) {
    if (r.subscribers < 100) continue;
    if (r.mode == "push" && !push_at_scale) push_at_scale = &r;
    if (r.mode == "poll" && !poll_at_scale) poll_at_scale = &r;
  }
  double latency_ratio = 0;
  if (push_at_scale && poll_at_scale && push_at_scale->p50 > 0) {
    latency_ratio = static_cast<double>(poll_at_scale->p50) /
                    static_cast<double>(push_at_scale->p50);
    std::printf("\npush vs poll @ %d subscribers: p50 %llu us vs %llu us "
                "(%.1fx), frames %llu vs %llu\n",
                push_at_scale->subscribers,
                static_cast<unsigned long long>(push_at_scale->p50),
                static_cast<unsigned long long>(poll_at_scale->p50),
                latency_ratio,
                static_cast<unsigned long long>(push_at_scale->frames_out),
                static_cast<unsigned long long>(poll_at_scale->frames_out));
  }

  std::ofstream json(output);
  json << "{\n  \"bench\": \"push_throughput\",\n"
       << "  \"hardware_concurrency\": " << cores
       << ",\n  \"gateway_shards\": 4,\n  \"poll_interval_us\": "
       << kPollInterval.count() << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioResult& r = scenarios[i];
    json << "    {\"mode\": \"" << r.mode
         << "\", \"subscribers\": " << r.subscribers
         << ", \"published\": " << r.published
         << ", \"delivered\": " << r.delivered
         << ", \"events_per_sec\": "
         << static_cast<std::uint64_t>(r.events_per_sec)
         << ",\n     \"p50_us\": " << r.p50 << ", \"p95_us\": " << r.p95
         << ", \"p99_us\": " << r.p99 << ", \"polls\": " << r.polls
         << ", \"frames_out\": " << r.frames_out
         << ", \"events_dropped\": " << r.events_dropped
         << ", \"gap_markers\": " << r.gap_markers << "}"
         << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  json << "  ]";
  if (push_at_scale && poll_at_scale) {
    json << ",\n  \"acceptance\": {\"subscribers\": "
         << push_at_scale->subscribers
         << ", \"push_p50_us\": " << push_at_scale->p50
         << ", \"poll_p50_us\": " << poll_at_scale->p50
         << ", \"poll_over_push_p50\": " << latency_ratio
         << ", \"push_frames_out\": " << push_at_scale->frames_out
         << ", \"poll_frames_out\": " << poll_at_scale->frames_out << "}";
  }
  json << "\n}\n";
  bench::CloseOrDie(json, output);
  std::printf("wrote %s\n", output.c_str());

  if (!trace_path.empty()) {
    std::printf("\nM-Scope traced push scenario:\n");
    RunTraced(trace_path, metrics_path);
  }
  return 0;
}
