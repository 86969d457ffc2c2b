// cluster plane (EXPERIMENTS.md W7): 1 vs 3 workers behind a controller,
// driven by the plan-routing cluster::Client over loopback TCP.
//
// Capacity model: a CPU-bound shoot-out on a saturated host only measures
// syscall batching. Real workers wait on backends, so every dispatch
// blocks its shard for tau of wall time ("*:*:latency=<tau>:wall").
// Per-worker capacity is then shards/tau, and adding workers multiplies
// it because stalled shards cost no CPU; routing overhead shows as
// scaling short of Nx.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/client.h"
#include "cluster/controller.h"
#include "cluster/worker_agent.h"
#include "common.h"
#include "support/fault.h"

namespace mobivine::bench {
namespace {

/// Simulated backend service time per dispatch (wall clock): with 2
/// shards each worker tops out near 2000 req/s.
constexpr std::uint64_t kBackendTauUs = 1'000;

/// One in-process worker: cluster_worker's whole stack, minus the process.
struct Worker {
  Worker(std::uint64_t worker_id, std::uint16_t controller_port) {
    gateway::GatewayConfig config = ShardedConfig(2);
    config.queue_capacity = 1024;
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
    std::string error;
    if (!server->Start(&error) || !agent->Start(server->port(), &error)) {
      Fail("worker %llu start failed: %s",
           static_cast<unsigned long long>(worker_id), error.c_str());
    }
  }

  void Stop() {
    agent->Stop();
    server->Stop();  // before gateway->Stop(): the wire shutdown contract
    gateway->Stop();
  }

  std::unique_ptr<gateway::Gateway> gateway;
  std::unique_ptr<cluster::WorkerAgent> agent;
  std::unique_ptr<wire::WireServer> server;
};

void StartController(cluster::Controller& controller) {
  std::string error;
  if (!controller.Start(&error)) {
    Fail("controller start failed: %s", error.c_str());
  }
}

std::unique_ptr<cluster::Client> StartClient(std::uint16_t controller_port) {
  cluster::ClientConfig config;
  config.controller_port = controller_port;
  auto client = std::make_unique<cluster::Client>(config);
  std::string error;
  if (!client->Start(&error)) {
    Fail("cluster client start failed: %s", error.c_str());
  }
  return client;
}

/// Closed-loop driver with a per-worker window: at most `window` requests
/// in flight toward each worker, refilled in half-window bursts whose ids
/// all come from that worker's key ranges (cluster::Client::OwnerOf), so
/// every burst routes whole. The window stays well above the worker's
/// shard count, so the measured rate is capacity-bound, not window- or
/// RTT-bound.
void DriverThread(cluster::Client* client, std::uint64_t worker_count,
                  std::uint64_t requests, int window, std::uint64_t seed,
                  Tally& tally) {
  constexpr std::uint64_t kClients = 512;
  support::SplitMix64 rng{seed};

  std::vector<std::vector<std::uint64_t>> pools(worker_count + 1);
  for (std::uint64_t id = 0; id < kClients; ++id) {
    const std::uint64_t owner = client->OwnerOf(id);
    if (owner >= 1 && owner <= worker_count) pools[owner].push_back(id);
  }

  struct Stream {
    std::uint64_t in_flight = 0;
    std::uint64_t submitted = 0;
    std::uint64_t quota = 0;
  };
  std::vector<Stream> streams(worker_count + 1);
  std::uint64_t quota_total = 0;
  for (std::uint64_t w = 1; w <= worker_count; ++w) {
    streams[w].quota = requests / worker_count;
    quota_total += streams[w].quota;
  }
  const auto refill_at = static_cast<std::uint64_t>(window) / 2;
  const auto ready = [&](const Stream& s) {
    return s.submitted < s.quota && s.in_flight <= refill_at;
  };

  std::mutex mutex;
  std::condition_variable cv;
  std::uint64_t done = 0;
  std::uint64_t ok = 0;
  std::vector<wire::WireRequest> batch;
  while (true) {
    std::uint64_t target = 0;
    std::uint64_t burst = 0;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] {
        return done == quota_total ||
               std::any_of(streams.begin() + 1, streams.end(), ready);
      });
      if (done == quota_total) break;
      for (std::uint64_t w = 1; w <= worker_count; ++w) {
        Stream& s = streams[w];
        if (!ready(s)) continue;
        target = w;
        burst = std::min(static_cast<std::uint64_t>(window) - s.in_flight,
                         s.quota - s.submitted);
        s.in_flight += burst;
        s.submitted += burst;
        break;
      }
    }
    const std::vector<std::uint64_t>& pool = pools[target];
    batch.clear();
    for (std::uint64_t i = 0; i < burst; ++i) {
      batch.push_back(MixedRequest(rng, kClients));
      batch.back().client_id = pool[rng.Next() % pool.size()];
    }
    const Clock::time_point start = Clock::now();
    client->SubmitBatch(batch, [&, target,
                                start](const wire::WireResponse& r) {
      tally.latency.Record(MicrosSince(start));
      std::lock_guard<std::mutex> lock(mutex);
      --streams[target].in_flight;
      ++done;
      if (r.status == wire::WireStatus::kOk) ++ok;
      cv.notify_one();
    });
  }
  tally.issued = quota_total;
  tally.completed = done;
  tally.ok = ok;
}

Row RunClusterScenario(int worker_count, int window, int driver_threads,
                       std::uint64_t requests_per_thread) {
  cluster::Controller controller;
  StartController(controller);
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < worker_count; ++i) {
    workers.push_back(std::make_unique<Worker>(
        static_cast<std::uint64_t>(i) + 1, controller.port()));
  }
  // One routed client per driver thread, as independent applications
  // would run: each stream rides its own TCP connection. A single shared
  // client would funnel every stream into one connection per worker and
  // hand the 1-worker scenario write coalescing no real deployment sees.
  std::vector<std::unique_ptr<cluster::Client>> clients;
  for (int t = 0; t < driver_threads; ++t) {
    clients.push_back(StartClient(controller.port()));
  }

  const ClosedLoopResult load = RunClosedLoop(
      driver_threads, requests_per_thread,
      [&](int t, std::uint64_t requests, bool, Tally& tally) {
        DriverThread(clients[static_cast<std::size_t>(t)].get(),
                     static_cast<std::uint64_t>(worker_count), requests,
                     window, static_cast<std::uint64_t>(t) * 7919 + 1, tally);
      });

  std::uint64_t plan_epoch = 0;
  cluster::ClientStats totals;
  for (const auto& client : clients) {
    plan_epoch = std::max(plan_epoch, client->plan_epoch());
    const cluster::ClientStats stats = client->Stats();
    totals.wrong_worker_retries += stats.wrong_worker_retries;
    totals.transport_retries += stats.transport_retries;
    totals.plan_refreshes += stats.plan_refreshes;
    totals.exhausted += stats.exhausted;
  }
  const cluster::ControllerStatsSnapshot controller_stats = controller.Stats();
  for (auto& client : clients) client->Stop();
  for (auto& worker : workers) worker->Stop();
  controller.Stop();

  Row latency;
  latency.Add("p50", load.p50, {"p50(us)", 9})
      .Add("p95", load.p95, {"p95(us)", 9})
      .Add("p99", load.p99, {"p99(us)", 9});
  Row client;
  client.Add("wrong_worker_retries", totals.wrong_worker_retries,
             {"wrong-wkr", 9})
      .Add("transport_retries", totals.transport_retries)
      .Add("plan_refreshes", totals.plan_refreshes)
      .Add("exhausted", totals.exhausted);
  Row control;
  control.Add("registers", controller_stats.registers)
      .Add("heartbeats", controller_stats.heartbeats)
      .Add("plan_pushes", controller_stats.plan_pushes)
      .Add("deaths", controller_stats.deaths);
  Row row;
  row.Add("workers", worker_count, {"workers", -7})
      .Add("window", window)
      .Add("driver_threads", driver_threads)
      .Add("completed", load.completed, {"completed", 10})
      .Add("ok", load.ok, {"ok", 10})
      .Add("wall_seconds", load.wall_seconds)
      .Add("requests_per_sec", load.requests_per_sec, {"req/s", 10})
      .Add("latency_us", latency)
      .Add("plan_epoch", plan_epoch, {"epoch", 6})
      .Add("client", client)
      .Add("controller", control);
  return row;
}

}  // namespace

Row RunCluster(const Options& options) {
  Row doc = ResultDocument("cluster_throughput");
  const int driver_threads = 2;
  const int window = 16;
  const std::uint64_t per_thread = options.smoke ? 600 : 4'000;
  std::printf("window %d x %d driver threads, %llu requests/thread\n\n",
              window, driver_threads,
              static_cast<unsigned long long>(per_thread));
  Table table;
  std::vector<Row> scenarios;
  for (const int workers : {1, 3}) {
    scenarios.push_back(
        RunClusterScenario(workers, window, driver_threads, per_thread));
    table.Print(scenarios.back());
  }
  doc.Add("scenarios", scenarios);
  return doc;
}

/// A traced 1-worker cluster run: gateway.* and wire.* spans as usual,
/// plus the cluster.* instants (plan application, drains), the
/// "cluster." metrics source and the "cluster-ctrl" / "cluster-agent"
/// thread labels.
void TraceCluster(const Options& options) {
  TracedRun traced;
  cluster::Controller controller;
  StartController(controller);
  Worker worker(1, controller.port());
  const auto gateway_registration =
      worker.gateway->RegisterMetrics(traced.metrics());
  const auto wire_registration =
      worker.server->RegisterMetrics(traced.metrics());
  const auto cluster_registration =
      controller.RegisterMetrics(traced.metrics());

  const std::unique_ptr<cluster::Client> client =
      StartClient(controller.port());
  support::SplitMix64 rng{42};
  for (int i = 0; i < 400; ++i) {
    wire::WireResponse response;
    (void)client->Call(MixedRequest(rng, 64), &response);
  }
  client->Stop();
  // The controller keeps running: its gauges are part of the export. The
  // agent deregisters on Stop(), so workers_alive reads 0 or 1 depending
  // on heartbeat timing; the epoch stays > 0 either way.
  worker.Stop();
  traced.Write(options);
  controller.Stop();
}

}  // namespace mobivine::bench
