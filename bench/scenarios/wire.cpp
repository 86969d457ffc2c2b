// wire plane (EXPERIMENTS.md W5, W6): what a socket, a binary codec and an
// epoll reactor in front of the gateway cost. An in-process RunTraffic
// baseline and {1, 4, 8} event loops x {window 64, window 1} over
// loopback TCP serve the same mix on the same 8-shard gateway; the
// acceptance ratio (best pipelined wire rps / in-process rps) comes from
// one run, so host speed cancels. --smoke runs one pipelined scenario.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common.h"
#include "gateway/traffic.h"
#include "sim/clock.h"
#include "support/buffer_pool.h"

namespace mobivine::bench {
namespace {

constexpr int kClientThreads = 2;

/// One closed-loop client thread: keep up to `window` requests in flight
/// on a dedicated connection until `requests` have completed. Refills in
/// half-window batches through SubmitBatch so the send side pays one
/// syscall per batch (window 1 degenerates to request/response).
void ClientWorker(std::uint16_t port, std::uint64_t requests, int window,
                  std::uint64_t seed, Tally& tally) {
  wire::WireClient client;
  Connect(client, port);
  support::SplitMix64 rng{seed};

  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t in_flight = 0;
  std::uint64_t done = 0;
  std::uint64_t ok = 0;
  const std::uint64_t refill_at =
      window > 1 ? static_cast<std::uint64_t>(window) / 2 : 0;

  std::uint64_t submitted = 0;
  while (submitted < requests) {
    std::uint64_t batch_size = 0;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return in_flight <= refill_at; });
      batch_size = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(window) - in_flight,
          requests - submitted);
      in_flight += batch_size;
    }
    std::vector<wire::WireRequest> batch;
    batch.reserve(batch_size);
    for (std::uint64_t i = 0; i < batch_size; ++i) {
      batch.push_back(MixedRequest(rng, 512));
    }
    const Clock::time_point start = Clock::now();
    client.SubmitBatch(
        batch, [&, start](const wire::WireResponse& r) {
          tally.latency.Record(MicrosSince(start));
          std::lock_guard<std::mutex> lock(mutex);
          --in_flight;
          ++done;
          if (r.status == wire::WireStatus::kOk) ++ok;
          // Wake the submitter only at the refill threshold (or at the
          // end): a wakeup per completion is measurable on small hosts.
          if (in_flight <= refill_at || done == requests) cv.notify_one();
        });
    submitted += batch_size;
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [&] { return done == requests; });
  }
  client.Close();
  tally.issued = requests;
  tally.completed = done;
  tally.ok = ok;
}

gateway::GatewayConfig WireGatewayConfig() {
  gateway::GatewayConfig config = ShardedConfig(8);
  config.queue_capacity = 1024;
  return config;
}

struct WireRun {
  ClosedLoopResult load;
  /// Fresh frame-buffer heap allocations (pool misses, client + server)
  /// in the measured run, per completed request: ~0 at steady state,
  /// because the warm-up populates the pool.
  double allocs_per_req = 0;
  Row row;
};

WireRun RunWireScenario(int event_loops, int window,
                        std::uint64_t requests_per_thread) {
  wire::WireServerConfig server_config;
  server_config.event_loops = event_loops;
  WireStack stack(WireGatewayConfig(), server_config);

  // Pool misses after warm-up are steady-state allocations. Warm-up
  // threads flush their thread caches into the global tier on exit, so
  // the measured run's fresh threads inherit those buffers.
  std::uint64_t misses_before = 0;
  WireRun run;
  run.load = RunClosedLoop(
      kClientThreads, requests_per_thread,
      [&](int t, std::uint64_t requests, bool warmup, Tally& tally) {
        const auto thread = static_cast<std::uint64_t>(t);
        ClientWorker(stack.server.port(), requests, window,
                     warmup ? thread * 104729 + 3 : thread * 7919 + 1, tally);
      },
      [&] { misses_before = support::BufferPool::WirePool().Stats().misses; });
  const std::uint64_t pool_miss_delta =
      support::BufferPool::WirePool().Stats().misses - misses_before;
  run.allocs_per_req =
      run.load.completed > 0 ? static_cast<double>(pool_miss_delta) /
                                   static_cast<double>(run.load.completed)
                             : 0;
  const wire::WireStatsSnapshot stats = stack.server.Stats();
  stack.Stop();

  run.row.Add("event_loops", event_loops, {"loops", -8})
      .Add("pipelining", window > 1, {"pipeline", -10})
      .Add("window", window)
      .Add("served", run.load.ok, {"served", 12})
      .Add("requests_per_sec",
           static_cast<std::uint64_t>(run.load.requests_per_sec),
           {"req/s", 12})
      .Add("p50_us", run.load.p50, {"p50(us)", 10})
      .Add("p95_us", run.load.p95, {"p95(us)", 10})
      .Add("p99_us", run.load.p99, {"p99(us)", 10})
      .Add("frames_in", stats.frames_in)
      .Add("frames_out", stats.frames_out)
      .Add("bytes_in", stats.bytes_in)
      .Add("bytes_out", stats.bytes_out)
      .Add("backpressure_stalls", stats.backpressure_stalls, {"stalls", 8})
      .Add("pool_miss_delta", pool_miss_delta)
      .Add("frame_buffer_allocs_per_req", run.allocs_per_req,
           {"allocs/req", 11, 4});
  return run;
}

gateway::TrafficReport RunInProcessBaseline(std::uint64_t total_requests) {
  gateway::Gateway gw(WireGatewayConfig());
  gateway::TrafficConfig traffic;
  traffic.producers = 4;
  traffic.requests_per_producer = total_requests / 4;
  traffic.clients = 512;
  traffic.window = 16;
  traffic.seed = 42;

  gateway::TrafficConfig warmup = traffic;
  warmup.requests_per_producer =
      std::max<std::uint64_t>(traffic.requests_per_producer / 10, 1);
  (void)gateway::RunTraffic(gw, warmup);

  const gateway::TrafficReport report = gateway::RunTraffic(gw, traffic);
  gw.Stop();
  return report;
}

}  // namespace

Row RunWire(const Options& options) {
  Row doc = ResultDocument("wire_throughput");
  const std::uint64_t total_requests = options.smoke ? 8000 : 20000;
  const gateway::TrafficReport in_process =
      RunInProcessBaseline(total_requests);
  std::printf("in-process baseline (8 shards): %llu served, %.0f req/s\n\n",
              static_cast<unsigned long long>(in_process.ok),
              in_process.completed_per_sec);

  // Smoke: one pipelined scenario prices the wire path; the full matrix
  // shows the loop-count and window trends.
  const std::vector<int> loop_counts =
      options.smoke ? std::vector<int>{4} : std::vector<int>{1, 4, 8};
  const std::vector<int> windows =
      options.smoke ? std::vector<int>{64} : std::vector<int>{64, 1};
  Table table;
  std::vector<Row> scenarios;
  double best_wire_rps = 0;
  double best_allocs_per_req = 0;
  for (int event_loops : loop_counts) {
    for (int window : windows) {
      const WireRun run = RunWireScenario(event_loops, window,
                                          total_requests / kClientThreads);
      table.Print(run.row);
      scenarios.push_back(run.row);
      if (window > 1 && run.load.requests_per_sec > best_wire_rps) {
        best_wire_rps = run.load.requests_per_sec;
        best_allocs_per_req = run.allocs_per_req;
      }
    }
  }
  const double ratio = in_process.completed_per_sec > 0
                           ? best_wire_rps / in_process.completed_per_sec
                           : 0;
  std::printf("\nloopback overhead: best pipelined wire %.0f req/s = %.1f%% "
              "of in-process %.0f req/s (%.4f frame-buffer allocs/req)\n",
              best_wire_rps, ratio * 100.0, in_process.completed_per_sec,
              best_allocs_per_req);

  Row baseline;
  baseline.Add("served", in_process.ok)
      .Add("requests_per_sec",
           static_cast<std::uint64_t>(in_process.completed_per_sec));
  Row overhead;
  overhead.Add("best_pipelined_wire_rps",
               static_cast<std::uint64_t>(best_wire_rps))
      .Add("in_process_rps",
           static_cast<std::uint64_t>(in_process.completed_per_sec))
      .Add("wire_over_in_process", ratio)
      .Add("frame_buffer_allocs_per_req", best_allocs_per_req);
  doc.Add("gateway_shards", 8)
      .Add("client_threads", kClientThreads)
      .Add("in_process", baseline)
      .Add("scenarios", scenarios)
      .Add("overhead", overhead);
  return doc;
}

/// Tracing on end to end: the traced mix, with transient failures,
/// through a real socket. The export carries wire.read / wire.decode /
/// wire.dispatch / wire.write spans on "wire-loop-N" threads beside the
/// gateway's, and a metrics dump with "gateway." and "wire." sources.
void TraceWire(const Options& options) {
  TracedRun traced;
  gateway::GatewayConfig config = ShardedConfig(2);
  config.device_template.network.loss_probability = 0.2;
  config.device_template.network.timeout = sim::SimTime::Seconds(1);
  config.default_retry.max_attempts = 4;
  config.default_retry.initial_backoff = std::chrono::microseconds(100);
  wire::WireServerConfig server_config;
  server_config.event_loops = 2;
  WireStack stack(config, server_config);
  const auto gateway_registration =
      stack.gateway.RegisterMetrics(traced.metrics());
  const auto wire_registration =
      stack.server.RegisterMetrics(traced.metrics());

  wire::WireClient client;
  Connect(client, stack.server.port());
  CallTracedMix(client, 400);
  client.Close();
  stack.Stop();
  traced.Write(options);
}

}  // namespace mobivine::bench
