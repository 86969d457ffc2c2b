// M-Wire loopback serving throughput vs the in-process gateway path.
//
// The question this bench answers (EXPERIMENTS.md W5): what does putting
// a real socket, a binary codec and an epoll reactor in front of the
// gateway cost, against the same 8-shard gateway driven in-process by
// the closed-loop traffic generator?
//
// Scenario matrix, written to BENCH_wire.json (or argv[1]):
//
//  * in_process — gateway::RunTraffic closed-loop baseline (no sockets),
//    same op/platform mix, 8 shards.
//  * wire — {1, 4, 8} event loops x {pipelined (window 64), sync
//    (window 1)} over loopback TCP: client threads run the same
//    deterministic mix through WireClient; requests/sec is completions
//    over wall clock, latency percentiles are client-observed (socket
//    round trip included) from support::LatencyHistogram.
//
// Methodology mirrors bench_gateway_throughput: wall-clock timing on
// steady_clock, a fresh gateway+server per scenario, an untimed ~10%
// warm-up batch, tracing disabled during throughput runs.
//
// M-Scope (W3/W5): with --trace/--metrics an additional traced scenario
// runs — tracing enabled end to end, mixed traffic with properties and
// transient failures over a real socket — exporting wire.read /
// wire.decode / wire.dispatch / wire.write spans on "wire-loop-N"
// threads alongside the gateway's spans, plus a metrics dump with both
// "gateway." and "wire." sources. --trace-only skips the throughput
// matrix (the CI validation leg uses this).
//
// --smoke runs a shortened single-scenario matrix (the CI perf-smoke
// leg): in-process baseline plus one pipelined wire scenario, same JSON
// shape, a fraction of the wall clock.
//
//   ./build/bench/bench_wire_throughput [output.json]
//       [--trace trace.json] [--metrics metrics.json] [--trace-only]
//       [--smoke]
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "gateway/traffic.h"
#include "sim/clock.h"
#include "support/buffer_pool.h"
#include "support/histogram.h"
#include "support/metrics.h"
#include "support/seed.h"
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

using support::SplitMix64;

/// The traffic generator's default op/platform mix (gateway/traffic.h),
/// re-rolled here so the wire and in-process runs offer the same work.
wire::WireRequest MixedRequest(SplitMix64& rng, std::uint64_t clients) {
  wire::WireRequest request;
  request.client_id = rng.Next() % clients;
  switch (rng.Next() % 4) {
    case 0:
    case 1:
      request.platform = gateway::Platform::kAndroid;
      break;
    case 2:
      request.platform = gateway::Platform::kS60;
      break;
    default:
      request.platform = gateway::Platform::kIphone;
      break;
  }
  switch (rng.Next() % 6) {
    case 0:
      request.op = gateway::Op::kGetLocation;
      break;
    case 1:
      request.op = gateway::Op::kSendSms;
      request.target = gateway::kGatewaySmsPeer;
      request.payload = "wire bench message";
      break;
    case 2:
      request.op = gateway::Op::kHttpPost;
      request.target =
          std::string("http://") + gateway::kGatewayHttpHost + "/echo";
      request.payload = "post body";
      request.content_type = "text/plain";
      break;
    case 3:
      request.op = gateway::Op::kSegmentCount;
      request.payload = std::string(200, 'x');
      break;
    default:
      request.op = gateway::Op::kHttpGet;
      request.target =
          std::string("http://") + gateway::kGatewayHttpHost + "/ping";
      break;
  }
  return request;
}

/// One closed-loop client thread: keep up to `window` requests in flight
/// on a dedicated connection until `requests` completions have been
/// observed. Refills in half-window batches through SubmitBatch so the
/// send side pays one syscall per batch, not per request (window == 1
/// degenerates to strict request/response).
void ClientWorker(std::uint16_t port, std::uint64_t requests, int window,
                  std::uint64_t seed, std::uint64_t clients,
                  std::uint64_t* completed_ok, std::uint64_t* completed_total,
                  support::LatencyHistogram* latency) {
  wire::WireClient client;
  if (!client.Connect(port)) return;
  SplitMix64 rng{seed};

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
      batch.push_back(MixedRequest(rng, clients));
    }
    const auto start = std::chrono::steady_clock::now();
    client.SubmitBatch(
        batch, [&, start](const wire::WireResponse& r) {
          const auto micros =
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start);
          latency->Record(static_cast<std::uint64_t>(micros.count()));
          std::lock_guard<std::mutex> lock(mutex);
          --in_flight;
          ++done;
          if (r.status == wire::WireStatus::kOk) ++ok;
          // Only wake the submitter at the refill threshold (or at the
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
  *completed_ok = ok;
  *completed_total = done;
}

struct WireRunResult {
  int event_loops = 0;
  int window = 0;
  int client_threads = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  double wall_seconds = 0;
  double requests_per_sec = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  /// Fresh frame-buffer heap allocations (pool misses, client + server,
  /// measured run only) per completed request. The tentpole claim is
  /// that this is 0 at steady state: the warm-up run populates the pool.
  std::uint64_t pool_miss_delta = 0;
  double allocs_per_req = 0;
  wire::WireStatsSnapshot stats;
};

WireRunResult RunWireScenario(int event_loops, int window, int client_threads,
                              std::uint64_t requests_per_thread) {
  gateway::GatewayConfig config;
  config.shards = 8;
  config.queue_capacity = 1024;
  config.store = &Store();
  gateway::Gateway gw(config);

  wire::WireServerConfig wire_config;
  wire_config.event_loops = event_loops;
  wire::WireServer server(gw, wire_config);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "wire server start failed: %s\n", error.c_str());
    return {};
  }

  // Warm-up (~10%): interners, descriptor indexes, per-shard caches, TCP.
  {
    std::vector<std::thread> threads;
    std::vector<std::uint64_t> oks(client_threads, 0);
    std::vector<std::uint64_t> totals(client_threads, 0);
    std::vector<support::LatencyHistogram> hists(client_threads);
    const std::uint64_t per_thread =
        std::max<std::uint64_t>(requests_per_thread / 10, 1);
    for (int t = 0; t < client_threads; ++t) {
      threads.emplace_back(ClientWorker, server.port(), per_thread, window,
                           static_cast<std::uint64_t>(t) * 104729 + 3, 512ull,
                           &oks[t], &totals[t], &hists[t]);
    }
    for (auto& thread : threads) thread.join();
  }

  WireRunResult result;
  result.event_loops = event_loops;
  result.window = window;
  result.client_threads = client_threads;

  // Pool misses after warm-up are real steady-state allocations. Warm-up
  // client threads flushed their thread caches into the global tier on
  // exit, so the fresh measured-run threads inherit those buffers.
  const std::uint64_t misses_before =
      support::BufferPool::WirePool().Stats().misses;

  std::vector<std::thread> threads;
  std::vector<std::uint64_t> oks(client_threads, 0);
  std::vector<std::uint64_t> totals(client_threads, 0);
  std::vector<support::LatencyHistogram> hists(client_threads);
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < client_threads; ++t) {
    threads.emplace_back(ClientWorker, server.port(), requests_per_thread,
                         window, static_cast<std::uint64_t>(t) * 7919 + 1,
                         512ull, &oks[t], &totals[t], &hists[t]);
  }
  for (auto& thread : threads) thread.join();
  const auto end = std::chrono::steady_clock::now();

  support::HistogramSnapshot merged;
  for (int t = 0; t < client_threads; ++t) {
    result.ok += oks[t];
    result.completed += totals[t];
    merged.Merge(hists[t].Snapshot());
  }
  result.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(end - start)
          .count();
  result.requests_per_sec =
      result.wall_seconds > 0
          ? static_cast<double>(result.completed) / result.wall_seconds
          : 0;
  result.p50 = merged.PercentileRank(50.0);
  result.p95 = merged.PercentileRank(95.0);
  result.p99 = merged.PercentileRank(99.0);
  result.pool_miss_delta =
      support::BufferPool::WirePool().Stats().misses - misses_before;
  result.allocs_per_req =
      result.completed > 0 ? static_cast<double>(result.pool_miss_delta) /
                                 static_cast<double>(result.completed)
                           : 0;
  result.stats = server.Stats();

  server.Stop();
  gw.Stop();
  return result;
}

gateway::TrafficReport RunInProcessBaseline(std::uint64_t total_requests) {
  gateway::GatewayConfig config;
  config.shards = 8;
  config.queue_capacity = 1024;
  config.store = &Store();
  gateway::Gateway gw(config);

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

/// M-Scope over the wire: tracing enabled end to end, mixed traffic with
/// per-request properties and transient failures through a real socket,
/// exporting the trace plus a metrics dump carrying both the "gateway."
/// and "wire." sources.
void RunTraced(const std::string& trace_path,
               const std::string& metrics_path) {
  namespace trace = support::trace;
  trace::SetPerThreadCapacity(256 * 1024);
  trace::Reset();
  trace::SetEnabled(true);

  gateway::GatewayConfig config;
  config.shards = 2;
  config.store = &Store();
  config.device_template.network.loss_probability = 0.2;
  config.device_template.network.timeout = sim::SimTime::Seconds(1);
  config.default_retry.max_attempts = 4;
  config.default_retry.initial_backoff = std::chrono::microseconds(100);
  gateway::Gateway gw(config);

  wire::WireServerConfig wire_config;
  wire_config.event_loops = 2;
  wire::WireServer server(gw, wire_config);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "wire server start failed: %s\n", error.c_str());
    return;
  }

  support::MetricsRegistry metrics;
  const auto gateway_registration = gw.RegisterMetrics(metrics);
  const auto wire_registration = server.RegisterMetrics(metrics);

  wire::WireClient client;
  if (!client.Connect(server.port())) {
    std::fprintf(stderr, "wire client connect failed\n");
    return;
  }
  for (std::uint64_t i = 0; i < 400; ++i) {
    wire::WireRequest request;
    request.client_id = i;
    switch (i % 4) {
      case 0:
        request.platform = gateway::Platform::kAndroid;
        request.op = gateway::Op::kHttpGet;
        request.target =
            std::string("http://") + gateway::kGatewayHttpHost + "/ping";
        break;
      case 1:
        request.platform = gateway::Platform::kS60;
        request.op = gateway::Op::kGetLocation;
        request.properties.emplace_back("horizontalAccuracy", 50LL);
        request.properties.emplace_back(
            "powerConsumption", core::PropertyValue(std::string("low")));
        break;
      case 2:
        request.platform = gateway::Platform::kIphone;
        request.op = gateway::Op::kSendSms;
        request.target = gateway::kGatewaySmsPeer;
        request.payload = "traced message";
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
  // Quiesce before snapshotting so the gateway counters reconcile
  // (accepted == ok + failed + timed_out) and every span is closed.
  server.Stop();
  gw.Stop();

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
  bool trace_only = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--trace-only") {
      trace_only = true;
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      output = arg;
    }
  }
  if (output.empty()) output = "BENCH_wire.json";
  if (trace_only) {
    RunTraced(trace_path.empty() ? "TRACE_wire.json" : trace_path,
              metrics_path);
    return 0;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("M-Wire loopback serving benchmark (host: %u hardware "
              "threads, gateway: 8 shards%s)\n\n",
              cores, smoke ? ", smoke" : "");

  const std::uint64_t kTotalRequests = smoke ? 8000 : 20000;
  const gateway::TrafficReport in_process =
      RunInProcessBaseline(kTotalRequests);
  std::printf("in-process baseline: %llu served, %.0f req/s\n\n",
              static_cast<unsigned long long>(in_process.ok),
              in_process.completed_per_sec);

  std::printf("%-8s %-10s %12s %12s %10s %10s %10s %8s %11s\n", "loops",
              "pipeline", "served", "req/s", "p50(us)", "p95(us)", "p99(us)",
              "stalls", "allocs/req");
  std::printf("%s\n", std::string(100, '-').c_str());

  constexpr int kClientThreads = 2;
  // Smoke: one pipelined scenario is enough to price the wire path; the
  // full matrix exists to show the loop-count/window trends.
  const std::vector<int> loop_counts = smoke ? std::vector<int>{4}
                                             : std::vector<int>{1, 4, 8};
  const std::vector<int> windows = smoke ? std::vector<int>{64}
                                         : std::vector<int>{64, 1};
  std::vector<WireRunResult> scenarios;
  for (int event_loops : loop_counts) {
    for (int window : windows) {
      WireRunResult result = RunWireScenario(
          event_loops, window, kClientThreads, kTotalRequests / kClientThreads);
      std::printf(
          "%-8d %-10s %12llu %12.0f %10llu %10llu %10llu %8llu %11.4f\n",
          result.event_loops, window > 1 ? "on" : "off",
          static_cast<unsigned long long>(result.ok),
          result.requests_per_sec,
          static_cast<unsigned long long>(result.p50),
          static_cast<unsigned long long>(result.p95),
          static_cast<unsigned long long>(result.p99),
          static_cast<unsigned long long>(result.stats.backpressure_stalls),
          result.allocs_per_req);
      scenarios.push_back(std::move(result));
    }
  }

  // The acceptance ratio: best pipelined wire scenario vs in-process.
  double best_wire_rps = 0;
  double best_allocs_per_req = 0;
  for (const WireRunResult& r : scenarios) {
    if (r.window > 1 && r.requests_per_sec > best_wire_rps) {
      best_wire_rps = r.requests_per_sec;
      best_allocs_per_req = r.allocs_per_req;
    }
  }
  const double ratio = in_process.completed_per_sec > 0
                           ? best_wire_rps / in_process.completed_per_sec
                           : 0;
  std::printf("\nloopback overhead: best pipelined wire %.0f req/s = %.1f%% "
              "of in-process %.0f req/s (%.4f frame-buffer allocs/req)\n",
              best_wire_rps, ratio * 100.0, in_process.completed_per_sec,
              best_allocs_per_req);

  std::ofstream json(output);
  json << "{\n  \"bench\": \"wire_throughput\",\n"
       << "  \"hardware_concurrency\": " << cores << ",\n"
       << "  \"gateway_shards\": 8,\n  \"client_threads\": " << kClientThreads
       << ",\n  \"in_process\": {\"served\": " << in_process.ok
       << ", \"requests_per_sec\": "
       << static_cast<std::uint64_t>(in_process.completed_per_sec)
       << "},\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const WireRunResult& r = scenarios[i];
    json << "    {\"event_loops\": " << r.event_loops
         << ", \"pipelining\": " << (r.window > 1 ? "true" : "false")
         << ", \"window\": " << r.window << ", \"served\": " << r.ok
         << ", \"requests_per_sec\": "
         << static_cast<std::uint64_t>(r.requests_per_sec)
         << ",\n     \"p50_us\": " << r.p50 << ", \"p95_us\": " << r.p95
         << ", \"p99_us\": " << r.p99
         << ", \"frames_in\": " << r.stats.frames_in
         << ", \"frames_out\": " << r.stats.frames_out
         << ", \"bytes_in\": " << r.stats.bytes_in
         << ", \"bytes_out\": " << r.stats.bytes_out
         << ", \"backpressure_stalls\": " << r.stats.backpressure_stalls
         << ", \"pool_miss_delta\": " << r.pool_miss_delta
         << ", \"frame_buffer_allocs_per_req\": " << r.allocs_per_req
         << "}" << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"overhead\": {\"best_pipelined_wire_rps\": "
       << static_cast<std::uint64_t>(best_wire_rps)
       << ", \"in_process_rps\": "
       << static_cast<std::uint64_t>(in_process.completed_per_sec)
       << ", \"wire_over_in_process\": " << ratio
       << ", \"frame_buffer_allocs_per_req\": " << best_allocs_per_req
       << "}\n}\n";
  bench::CloseOrDie(json, output);
  std::printf("wrote %s\n", output.c_str());

  if (!trace_path.empty()) {
    std::printf("\nM-Scope traced scenario over the wire:\n");
    RunTraced(trace_path, metrics_path);
  }
  return 0;
}
