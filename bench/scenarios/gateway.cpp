// gateway plane (EXPERIMENTS.md W2, W3): in-process serving throughput.
//  * scaling: closed-loop traffic against 1/2/4/8 shards; throughput
//    scales with shards until cores run out.
//  * overload: open loop at 3x the calibrated capacity into tiny queues.
//    Shedding must keep the queues and the served p95 bounded; with an
//    unbounded queue the run would never end.
// Percentiles come from the stats plane's cumulative histograms, so the
// 10% warm-up counts there: at most one bucket (~12.5%) of shift.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "gateway/traffic.h"
#include "sim/clock.h"

namespace mobivine::bench {
namespace {

Row RunScaling(int shards, std::uint64_t requests) {
  gateway::GatewayConfig config = ShardedConfig(shards);
  config.queue_capacity = 1024;
  gateway::Gateway gw(config);

  gateway::TrafficConfig traffic;
  traffic.producers = std::max(2, shards);
  traffic.requests_per_producer = requests / traffic.producers;
  traffic.clients = 512;
  traffic.window = 16;
  traffic.seed = 42;

  gateway::TrafficConfig warmup = traffic;
  warmup.requests_per_producer =
      std::max<std::uint64_t>(traffic.requests_per_producer / 10, 1);
  (void)gateway::RunTraffic(gw, warmup);
  const std::uint64_t warm_ok = gw.Stats().totals.ok;

  const gateway::TrafficReport report = gateway::RunTraffic(gw, traffic);
  const gateway::GatewaySnapshot stats = gw.Stats();
  gw.Stop();
  // The measured batch must complete fully: nothing shed, nothing lost.
  if (stats.totals.ok - warm_ok != report.ok) {
    Fail("scaling(%d shards): warm/measured accounting mismatch", shards);
  }
  Row row;
  row.Add("shards", shards, {"shards", -8})
      .Add("served", report.ok, {"served", 12})
      .Add("requests_per_sec",
           static_cast<std::uint64_t>(report.completed_per_sec),
           {"req/s", 12})
      .Add("p50_us", stats.p50_micros(), {"p50(us)", 10})
      .Add("p95_us", stats.p95_micros(), {"p95(us)", 10})
      .Add("p99_us", stats.p99_micros(), {"p99(us)", 10})
      .Add("max_queue_depth", stats.totals.max_queue_depth, {"max-q", 10});
  return row;
}

Row RunOverload() {
  gateway::GatewayConfig config = ShardedConfig(2);
  config.queue_capacity = 64;  // tiny on purpose: shedding is the subject
  gateway::Gateway gw(config);

  // Calibrate the overload rate off this host's capacity so the scenario
  // is an overload everywhere, fast or slow.
  gateway::TrafficConfig probe;
  probe.producers = 2;
  probe.requests_per_producer = 2000;
  probe.window = 16;
  probe.seed = 7;
  const double capacity_rps =
      gateway::RunTraffic(gw, probe).completed_per_sec;

  gateway::TrafficConfig traffic;
  traffic.producers = 2;
  traffic.requests_per_producer = 10000;
  traffic.clients = 512;
  traffic.window = 0;  // open loop
  traffic.open_loop_rps = capacity_rps * 3.0;
  traffic.seed = 7;

  const std::uint64_t probe_ok = gw.Stats().totals.ok;
  const gateway::TrafficReport report = gateway::RunTraffic(gw, traffic);
  const gateway::GatewaySnapshot stats = gw.Stats();
  gw.Stop();
  Row row;
  row.Add("shards", config.shards)
      .Add("queue_capacity", config.queue_capacity)
      .Add("submitted", report.submitted, {"submitted", 10})
      .Add("served", stats.totals.ok - probe_ok, {"served", 10})
      .Add("shed", report.shed, {"shed", 10})
      .Add("shed_fraction",
           static_cast<double>(report.shed) /
               static_cast<double>(report.submitted),
           {"shed-frac", 10, 3})
      .Add("p50_us", stats.p50_micros(), {"p50(us)", 10})
      .Add("p95_us", stats.p95_micros(), {"p95(us)", 10})
      .Add("p99_us", stats.p99_micros(), {"p99(us)", 10})
      .Add("max_queue_depth", stats.totals.max_queue_depth, {"max-q", 10});
  return row;
}

}  // namespace

Row RunGateway(const Options&) {
  Row doc = ResultDocument("gateway_throughput");
  std::printf("scaling (closed loop, 20000 requests):\n");
  Table table;
  std::vector<Row> scaling;
  for (int shards : {1, 2, 4, 8}) {
    scaling.push_back(RunScaling(shards, 20000));
    table.Print(scaling.back());
  }
  std::printf("\noverload (2 shards, 64-slot queues, 3x capacity "
              "open-loop):\n");
  const Row overload = RunOverload();
  Table().Print(overload);
  doc.Add("scaling", scaling).Add("overload", overload);
  return doc;
}

/// Tracing on, a small gateway and the traced mix. Mild packet loss
/// makes some attempts fail transiently, so the trace holds
/// gateway.backoff spans and multi-attempt serves next to per-request
/// setProperty spans.
void TraceGateway(const Options& options) {
  TracedRun traced;
  gateway::GatewayConfig config = ShardedConfig(2);
  config.device_template.network.loss_probability = 0.2;
  config.device_template.network.timeout = sim::SimTime::Seconds(1);
  config.default_retry.max_attempts = 4;
  config.default_retry.initial_backoff = std::chrono::microseconds(100);
  gateway::Gateway gw(config);
  const auto registration = gw.RegisterMetrics(traced.metrics());

  for (std::uint64_t i = 0; i < 400; ++i) {
    (void)gw.Call(TracedRequest<gateway::Request>(i));
  }
  gw.Stop();
  traced.Write(options);
}

}  // namespace mobivine::bench
