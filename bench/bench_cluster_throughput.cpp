// M-Cluster horizontal-scaling bench: 1 worker vs 3 workers behind a
// controller, driven by the plan-routing cluster::Client.
//
// The question (EXPERIMENTS.md W7): does partitioning the keyspace over
// multiple gateway+wire-server workers buy aggregate throughput — and
// what does the routing layer (consistent-hash lookup per request,
// plan-epoch checks on every worker) cost when nothing is moving?
//
// Topology is in-process but real: one Controller, N (Gateway +
// WireServer + WorkerAgent) stacks on distinct loopback ports, and
// driver threads pushing closed-loop per-worker pipelined windows
// through one cluster::Client each — requests flow client -> owning
// worker directly over TCP, never through the controller. Running
// everything in one process keeps the bench self-contained and lets the
// traced variant export gateway.*, wire.* and cluster.* M-Scope
// sources side by side.
//
// Capacity model. A horizontal-scaling bench is meaningless when every
// "worker" shares one saturated CPU — on the repo's 1-CPU reference
// host a CPU-bound shoot-out only measures which topology batches
// syscalls better at the machine's fixed ceiling. Real gateway workers
// are not CPU-bound; they wait on backends. So each worker's shards run
// under the fault plane's wall-clock latency rule
// ("*:*:latency=<tau>:wall", support/fault.h): every dispatch blocks
// its shard thread for tau of real time, the way a platform binding
// blocks on its backend. Per-worker capacity is then shards/tau —
// independent of scheduler noise — and adding workers multiplies it,
// because stalled shard threads cost no CPU. The wall option exists for
// exactly this (virtual-clock charging is invisible across a TCP
// boundary); the routing layer's own overhead rides on top and would
// show up as scaling short of Nx.
//
// Scenario matrix, written to BENCH_cluster.json (or argv[1]):
//   * workers=1 and workers=3, same per-driver request count, same op
//     mix as bench_wire_throughput, shards=2 and tau=1ms per worker
//     (2k req/s per worker), window 16 per driver thread per worker.
//
// --smoke shrinks the run (CI leg). --trace/--metrics run an additional
// traced scenario on a 1-worker cluster and export the trace plus a
// metrics dump carrying "gateway.", "wire." and "cluster." sources;
// --trace-only skips the throughput matrix (the CI validation leg).
//
//   ./build/bench/bench_cluster_throughput [output.json]
//       [--trace trace.json] [--metrics metrics.json] [--trace-only]
//       [--smoke]
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/client.h"
#include "cluster/controller.h"
#include "cluster/worker_agent.h"
#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "support/fault.h"
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

/// Same mix as bench_wire_throughput, so the 1-worker row is directly
/// comparable to BENCH_wire.json's single-server numbers.
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
      request.payload = "cluster bench message";
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

/// One in-process worker: the full per-process stack of cluster_worker,
/// minus the process.
/// Simulated backend service time per dispatch (wall clock; see the
/// capacity-model note at the top). shards / kBackendTauUs caps each
/// worker at ~2000 req/s.
constexpr std::uint64_t kBackendTauUs = 1'000;

struct Worker {
  explicit Worker(std::uint64_t worker_id, std::uint16_t controller_port) {
    gateway::GatewayConfig config;
    config.shards = 2;
    config.queue_capacity = 1024;
    config.store = &Store();
    config.failover.fault_plan = *support::FaultPlan::Parse(
        "*:*:latency=" + std::to_string(kBackendTauUs) + ":wall");
    gateway = std::make_unique<gateway::Gateway>(config);

    cluster::WorkerAgentConfig agent_config;
    agent_config.controller_port = controller_port;
    agent_config.worker_id = worker_id;
    agent = std::make_unique<cluster::WorkerAgent>(*gateway, agent_config);

    wire::WireServerConfig server_config;
    server_config.event_loops = 1;
    server_config.ownership = [this](std::uint64_t client_id,
                                     std::uint64_t* epoch) {
      return agent->Owns(client_id, epoch);
    };
    server = std::make_unique<wire::WireServer>(*gateway, server_config);
  }

  bool Start(std::string* error) {
    if (!server->Start(error)) return false;
    return agent->Start(server->port(), error);
  }

  void Stop() {
    agent->Stop();
    server->Stop();  // before gateway.Stop(): the wire shutdown contract
    gateway->Stop();
  }

  std::unique_ptr<gateway::Gateway> gateway;
  std::unique_ptr<cluster::WorkerAgent> agent;
  std::unique_ptr<wire::WireServer> server;
};

/// Closed-loop driver with a PER-WORKER pipelining window: at most
/// `window` requests in flight toward each worker, refilled in
/// half-window bursts (one contiguous write per refill — all of a
/// burst's ids are drawn from that worker's key ranges via
/// cluster::Client::OwnerOf).
///
/// The window only has to stay comfortably above the worker's shard
/// count so the shards never starve; with the wall-latency backend
/// model (see top) the measured rate is then capacity-bound, not
/// window- or RTT-bound, and each worker contributes shards/tau to the
/// aggregate.
void DriverThread(cluster::Client* client, std::uint64_t worker_count,
                  std::uint64_t requests, int window, std::uint64_t seed,
                  std::uint64_t clients, std::uint64_t* completed_ok,
                  std::uint64_t* completed_total,
                  support::LatencyHistogram* latency) {
  SplitMix64 rng{seed};

  // Partition the id space by owner once: each sub-stream draws only
  // ids its worker owns, so every burst routes whole.
  std::vector<std::vector<std::uint64_t>> pools(worker_count + 1);
  for (std::uint64_t id = 0; id < clients; ++id) {
    const std::uint64_t owner = client->OwnerOf(id);
    if (owner >= 1 && owner <= worker_count) pools[owner].push_back(id);
  }

  struct Stream {
    std::uint64_t in_flight = 0;
    std::uint64_t submitted = 0;
    std::uint64_t done = 0;
    std::uint64_t quota = 0;
  };
  std::vector<Stream> streams(worker_count + 1);
  for (std::uint64_t w = 1; w <= worker_count; ++w) {
    streams[w].quota = requests / worker_count;
  }

  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t done_total = 0, quota_total = 0, ok = 0;
  for (std::uint64_t w = 1; w <= worker_count; ++w) {
    quota_total += streams[w].quota;
  }

  std::vector<wire::WireRequest> batch;
  while (true) {
    std::uint64_t target = 0, burst = 0;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] {
        if (done_total == quota_total) return true;
        for (std::uint64_t w = 1; w <= worker_count; ++w) {
          const Stream& s = streams[w];
          if (s.submitted < s.quota &&
              s.in_flight <= static_cast<std::uint64_t>(window) / 2) {
            return true;
          }
        }
        return false;
      });
      if (done_total == quota_total) break;
      for (std::uint64_t w = 1; w <= worker_count; ++w) {
        Stream& s = streams[w];
        if (s.submitted < s.quota &&
            s.in_flight <= static_cast<std::uint64_t>(window) / 2) {
          target = w;
          burst = std::min(static_cast<std::uint64_t>(window) - s.in_flight,
                           s.quota - s.submitted);
          s.in_flight += burst;
          s.submitted += burst;
          break;
        }
      }
    }
    if (burst == 0) continue;
    const std::vector<std::uint64_t>& pool = pools[target];
    batch.clear();
    for (std::uint64_t i = 0; i < burst; ++i) {
      batch.push_back(MixedRequest(rng, clients));
      batch.back().client_id = pool[rng.Next() % pool.size()];
    }
    const auto start = std::chrono::steady_clock::now();
    client->SubmitBatch(batch, [&, target,
                                start](const wire::WireResponse& r) {
      const auto micros =
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - start);
      latency->Record(static_cast<std::uint64_t>(micros.count()));
      std::lock_guard<std::mutex> lock(mutex);
      --streams[target].in_flight;
      ++streams[target].done;
      ++done_total;
      if (r.status == wire::WireStatus::kOk) ++ok;
      cv.notify_one();
    });
  }
  *completed_ok = ok;
  *completed_total = done_total;
}

struct ClusterRunResult {
  int workers = 0;
  int window = 0;
  int driver_threads = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  double wall_seconds = 0;
  double requests_per_sec = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  std::uint64_t plan_epoch = 0;
  cluster::ClientStats client_stats;
  cluster::ControllerStatsSnapshot controller_stats;
};

ClusterRunResult RunClusterScenario(int worker_count, int window,
                                    int driver_threads,
                                    std::uint64_t requests_per_thread) {
  cluster::Controller controller;
  std::string error;
  if (!controller.Start(&error)) {
    std::fprintf(stderr, "controller start failed: %s\n", error.c_str());
    return {};
  }

  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < worker_count; ++i) {
    workers.push_back(std::make_unique<Worker>(
        static_cast<std::uint64_t>(i) + 1, controller.port()));
    if (!workers.back()->Start(&error)) {
      std::fprintf(stderr, "worker %d start failed: %s\n", i + 1,
                   error.c_str());
      return {};
    }
  }

  // One routed client PER driver thread — independent applications each
  // run their own cluster::Client, so each session stream rides its own
  // TCP connection. That is also what makes the comparison fair: with a
  // single shared client, every stream funnels into one connection per
  // worker, and the 1-worker scenario gets artificially perfect write
  // coalescing no real multi-client deployment would see.
  std::vector<std::unique_ptr<cluster::Client>> clients;
  for (int t = 0; t < driver_threads; ++t) {
    cluster::ClientConfig client_config;
    client_config.controller_port = controller.port();
    clients.push_back(std::make_unique<cluster::Client>(client_config));
    if (!clients.back()->Start(&error)) {
      std::fprintf(stderr, "cluster client start failed: %s\n", error.c_str());
      return {};
    }
  }

  const auto run = [&](std::uint64_t per_thread,
                       std::vector<std::uint64_t>* oks,
                       std::vector<std::uint64_t>* totals,
                       std::vector<support::LatencyHistogram>* hists) {
    std::vector<std::thread> threads;
    for (int t = 0; t < driver_threads; ++t) {
      threads.emplace_back(DriverThread, clients[t].get(),
                           static_cast<std::uint64_t>(worker_count),
                           per_thread, window,
                           static_cast<std::uint64_t>(t) * 7919 + 1, 512ull,
                           &(*oks)[t], &(*totals)[t], &(*hists)[t]);
    }
    for (auto& thread : threads) thread.join();
  };

  // Warm-up (~10%): routes resolved, connections dialed, pools primed.
  {
    std::vector<std::uint64_t> oks(driver_threads, 0);
    std::vector<std::uint64_t> totals(driver_threads, 0);
    std::vector<support::LatencyHistogram> hists(driver_threads);
    run(std::max<std::uint64_t>(requests_per_thread / 10, 1), &oks, &totals,
        &hists);
  }

  ClusterRunResult result;
  result.workers = worker_count;
  result.window = window;
  result.driver_threads = driver_threads;

  std::vector<std::uint64_t> oks(driver_threads, 0);
  std::vector<std::uint64_t> totals(driver_threads, 0);
  std::vector<support::LatencyHistogram> hists(driver_threads);
  const auto start = std::chrono::steady_clock::now();
  run(requests_per_thread, &oks, &totals, &hists);
  const auto end = std::chrono::steady_clock::now();

  support::HistogramSnapshot merged;
  for (int t = 0; t < driver_threads; ++t) {
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
  for (const auto& client : clients) {
    result.plan_epoch = std::max(result.plan_epoch, client->plan_epoch());
    const cluster::ClientStats stats = client->Stats();
    result.client_stats.calls += stats.calls;
    result.client_stats.wrong_worker_retries += stats.wrong_worker_retries;
    result.client_stats.transport_retries += stats.transport_retries;
    result.client_stats.plan_refreshes += stats.plan_refreshes;
    result.client_stats.exhausted += stats.exhausted;
  }
  result.controller_stats = controller.Stats();

  for (auto& client : clients) client->Stop();
  for (auto& worker : workers) worker->Stop();
  controller.Stop();
  return result;
}

/// M-Scope across all three planes: a traced 1-worker cluster run whose
/// export carries gateway.* and wire.* spans as usual plus the cluster.*
/// instants (plan application, drains) and the "cluster." metrics
/// source, with "cluster-ctrl" / "cluster-agent" thread labels.
void RunTraced(const std::string& trace_path,
               const std::string& metrics_path) {
  namespace trace = support::trace;
  trace::SetPerThreadCapacity(256 * 1024);
  trace::Reset();
  trace::SetEnabled(true);

  cluster::Controller controller;
  std::string error;
  if (!controller.Start(&error)) {
    std::fprintf(stderr, "controller start failed: %s\n", error.c_str());
    return;
  }
  Worker worker(1, controller.port());
  if (!worker.Start(&error)) {
    std::fprintf(stderr, "worker start failed: %s\n", error.c_str());
    return;
  }

  support::MetricsRegistry metrics;
  const auto gateway_registration = worker.gateway->RegisterMetrics(metrics);
  const auto wire_registration = worker.server->RegisterMetrics(metrics);
  const auto cluster_registration = controller.RegisterMetrics(metrics);

  cluster::ClientConfig client_config;
  client_config.controller_port = controller.port();
  cluster::Client client(client_config);
  if (!client.Start(&error)) {
    std::fprintf(stderr, "cluster client start failed: %s\n", error.c_str());
    return;
  }
  SplitMix64 rng{42};
  for (int i = 0; i < 400; ++i) {
    wire::WireRequest request = MixedRequest(rng, 64);
    wire::WireResponse response;
    (void)client.Call(request, &response);
  }
  client.Stop();
  // Quiesce the serving stack before snapshotting so the gateway
  // counters reconcile; the controller keeps running (its gauges are
  // part of the export) — the worker agent has already deregistered by
  // Stop(), so workers_alive legitimately reads 0 or 1 depending on
  // heartbeat timing; epoch stays > 0 either way.
  worker.agent->Stop();
  worker.server->Stop();
  worker.gateway->Stop();

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    metrics.Snapshot().WriteJson(out);
    bench::CloseOrDie(out, metrics_path);
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  std::ofstream out(trace_path);
  const trace::ExportStats stats = trace::ExportChromeTrace(out);
  trace::SetEnabled(false);
  controller.Stop();
  bench::CloseOrDie(out, trace_path);
  std::printf("wrote %s (%zu events across %zu threads, %zu dropped)\n",
              trace_path.c_str(), stats.events, stats.threads, stats.dropped);
}

void WriteJson(const std::string& path,
               const std::vector<ClusterRunResult>& results) {
  std::ofstream out(path);
  out << "{\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ClusterRunResult& r = results[i];
    out << "    {\n"
        << "      \"workers\": " << r.workers << ",\n"
        << "      \"window\": " << r.window << ",\n"
        << "      \"driver_threads\": " << r.driver_threads << ",\n"
        << "      \"completed\": " << r.completed << ",\n"
        << "      \"ok\": " << r.ok << ",\n"
        << "      \"wall_seconds\": " << r.wall_seconds << ",\n"
        << "      \"requests_per_sec\": " << r.requests_per_sec << ",\n"
        << "      \"latency_us\": {\"p50\": " << r.p50
        << ", \"p95\": " << r.p95 << ", \"p99\": " << r.p99 << "},\n"
        << "      \"plan_epoch\": " << r.plan_epoch << ",\n"
        << "      \"client\": {\"wrong_worker_retries\": "
        << r.client_stats.wrong_worker_retries
        << ", \"transport_retries\": " << r.client_stats.transport_retries
        << ", \"plan_refreshes\": " << r.client_stats.plan_refreshes
        << ", \"exhausted\": " << r.client_stats.exhausted << "},\n"
        << "      \"controller\": {\"registers\": "
        << r.controller_stats.registers
        << ", \"heartbeats\": " << r.controller_stats.heartbeats
        << ", \"plan_pushes\": " << r.controller_stats.plan_pushes
        << ", \"deaths\": " << r.controller_stats.deaths << "}\n"
        << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  bench::CloseOrDie(out, path);
  std::printf("wrote %s\n", path.c_str());
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
    } else if (output.empty()) {
      output = arg;
    }
  }
  if (output.empty()) output = "BENCH_cluster.json";

  if (!trace_only) {
    const int driver_threads = 2;
    const int window = 16;
    const std::uint64_t per_thread = smoke ? 600 : 4'000;
    std::vector<ClusterRunResult> results;
    for (const int workers : {1, 3}) {
      std::printf("cluster scenario: %d worker%s, window %d x %d threads, "
                  "%llu requests/thread\n",
                  workers, workers == 1 ? "" : "s", window, driver_threads,
                  static_cast<unsigned long long>(per_thread));
      const ClusterRunResult result =
          RunClusterScenario(workers, window, driver_threads, per_thread);
      std::printf(
          "  -> %.0f req/s (%llu/%llu ok), p50 %llu us, p99 %llu us, "
          "wrong_worker %llu, epoch %llu\n",
          result.requests_per_sec,
          static_cast<unsigned long long>(result.ok),
          static_cast<unsigned long long>(result.completed),
          static_cast<unsigned long long>(result.p50),
          static_cast<unsigned long long>(result.p99),
          static_cast<unsigned long long>(
              result.client_stats.wrong_worker_retries),
          static_cast<unsigned long long>(result.plan_epoch));
      results.push_back(result);
    }
    WriteJson(output, results);
  }

  if (!trace_path.empty()) RunTraced(trace_path, metrics_path);
  return 0;
}
