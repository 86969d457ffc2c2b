// M-Gateway serving throughput and tail latency (wall clock).
//
// Two experiment families, written to BENCH_gateway.json (or argv[1]):
//
//  * scaling — closed-loop traffic (producers adapt to capacity) against
//    1/2/4/8 shards: aggregate requests/sec and p50/p95/p99 latency. On a
//    multi-core host throughput scales with shard count until cores run
//    out; the JSON records hardware_concurrency so a single-core run
//    (flat scaling) is distinguishable from a regression.
//  * overload — open-loop traffic at a rate far above capacity into tiny
//    queues: shedding must kick in (kOverloaded), the queues must stay
//    bounded, and the p95 of *served* requests must stay bounded instead
//    of growing with the backlog. The run would not terminate at all
//    with an unbounded queue.
//
// Methodology (EXPERIMENTS.md W2): wall-clock timing on
// std::chrono::steady_clock around RunTraffic. Each scenario gets a
// fresh Gateway; a small untimed warm-up batch populates interners,
// descriptor indexes and per-shard caches before the measured batch.
// Latency percentiles come from the stats plane's cumulative histograms,
// so the warm-up's samples are included there — it is 10% of the load
// and shifts bucketed percentiles by at most one bucket (~12.5%).
//
// M-Scope (EXPERIMENTS.md W3): with --trace/--metrics an additional
// traced scenario runs after the untimed ones — tracing enabled, mixed
// traffic with per-request properties and injected transient failures —
// and exports Chrome trace_event JSON plus a flat metrics dump. The
// throughput scenarios above always run with tracing disabled, so their
// numbers measure the disabled-hook cost, not recording. --trace-only
// skips the throughput scenarios (the CI validation leg uses this).
//
// M-Failover (EXPERIMENTS.md W4): with one or more --fault-plan flags
// the bench runs the failover availability matrix instead — each plan is
// driven through the gateway three times (failover disabled / failover /
// failover+hedging) with single-round retries, so recovery is entirely
// M-Failover's doing — and writes BENCH_failover.json (or argv[1]).
//
//   ./build/bench/bench_gateway_throughput [output.json]
//       [--trace trace.json] [--metrics metrics.json] [--trace-only]
//       [--fault-plan "android:*:error=timeout:p=0.3"]...
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "gateway/traffic.h"
#include "sim/clock.h"
#include "support/fault.h"
#include "support/metrics.h"
#include "support/trace.h"

#include "bench_io.h"

using namespace mobivine;

namespace {

const core::DescriptorStore& Store() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

struct ScalingResult {
  int shards = 0;
  gateway::TrafficReport report;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  std::uint64_t max_queue_depth = 0;
};

ScalingResult RunScaling(int shards, std::uint64_t requests_per_producer) {
  gateway::GatewayConfig config;
  config.shards = shards;
  config.queue_capacity = 1024;
  config.store = &Store();
  gateway::Gateway gw(config);

  gateway::TrafficConfig traffic;
  traffic.producers = std::max(2, shards);
  traffic.requests_per_producer = requests_per_producer / traffic.producers;
  traffic.clients = 512;
  traffic.window = 16;
  traffic.seed = 42;

  // Warm-up: populate interners, descriptor indexes, per-shard caches.
  gateway::TrafficConfig warmup = traffic;
  warmup.requests_per_producer =
      std::max<std::uint64_t>(traffic.requests_per_producer / 10, 1);
  (void)gateway::RunTraffic(gw, warmup);
  const std::uint64_t warm_ok = gw.Stats().totals.ok;

  ScalingResult result;
  result.shards = shards;
  result.report = gateway::RunTraffic(gw, traffic);
  const gateway::GatewaySnapshot stats = gw.Stats();
  result.p50 = stats.p50_micros();
  result.p95 = stats.p95_micros();
  result.p99 = stats.p99_micros();
  result.max_queue_depth = stats.totals.max_queue_depth;
  // Sanity: the measured batch completed fully and nothing was shed.
  if (stats.totals.ok - warm_ok != result.report.ok) {
    std::fprintf(stderr, "scaling(%d): warm/measured accounting mismatch\n",
                 shards);
  }
  gw.Stop();
  return result;
}

struct OverloadResult {
  gateway::TrafficReport report;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  std::uint64_t max_queue_depth = 0;
  std::uint64_t shed = 0, served = 0;
  double shed_fraction = 0;
};

OverloadResult RunOverload() {
  gateway::GatewayConfig config;
  config.shards = 2;
  config.queue_capacity = 64;  // tiny on purpose: shedding is the subject
  config.store = &Store();
  gateway::Gateway gw(config);

  // Calibrate the overload rate off this host's actual capacity so the
  // scenario is an overload everywhere, fast or slow.
  gateway::TrafficConfig probe;
  probe.producers = 2;
  probe.requests_per_producer = 2000;
  probe.window = 16;
  probe.seed = 7;
  const gateway::TrafficReport probe_report = gateway::RunTraffic(gw, probe);
  const double capacity_rps = probe_report.completed_per_sec;

  gateway::TrafficConfig traffic;
  traffic.producers = 2;
  traffic.requests_per_producer = 10000;
  traffic.clients = 512;
  traffic.window = 0;  // open loop
  traffic.open_loop_rps = capacity_rps * 3.0;  // 3x sustainable load
  traffic.seed = 7;

  const std::uint64_t probe_ok = gw.Stats().totals.ok;
  OverloadResult result;
  result.report = gateway::RunTraffic(gw, traffic);
  const gateway::GatewaySnapshot stats = gw.Stats();
  result.p50 = stats.p50_micros();
  result.p95 = stats.p95_micros();
  result.p99 = stats.p99_micros();
  result.max_queue_depth = stats.totals.max_queue_depth;
  result.shed = result.report.shed;
  result.served = stats.totals.ok - probe_ok;
  result.shed_fraction =
      static_cast<double>(result.shed) /
      static_cast<double>(result.report.submitted);
  gw.Stop();
  return result;
}

// ---------------------------------------------------------------------------
// W4: failover availability matrix
// ---------------------------------------------------------------------------

struct FailoverCell {
  std::string mode;  ///< "disabled" | "failover" | "failover+hedging"
  gateway::TrafficReport report;
  double availability = 0;  ///< ok / submitted
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  std::uint64_t failovers = 0, hedges_fired = 0, hedges_won = 0;
  std::uint64_t breaker_opens = 0, faults_injected = 0;
};

FailoverCell RunFailoverCell(const support::FaultPlan& plan,
                             bool failover, bool hedging) {
  gateway::GatewayConfig config;
  config.shards = 2;
  config.store = &Store();
  config.failover.failover = failover;
  config.failover.hedging = hedging;
  config.failover.fault_plan = plan;

  gateway::Gateway gw(config);

  gateway::TrafficConfig traffic;
  traffic.producers = 2;
  traffic.requests_per_producer = 2000;
  traffic.clients = 512;
  traffic.window = 16;
  traffic.seed = 42;
  // One retry round: whatever availability survives the faults is
  // M-Failover's doing, not the retry plane's.
  traffic.retry.max_attempts = 1;
  // Every primary on android, where the shipped plans inject: the matrix
  // measures how the faulted platform's traffic fares.
  traffic.mix.android = 1;
  traffic.mix.s60 = 0;
  traffic.mix.iphone = 0;

  FailoverCell cell;
  cell.mode = !failover ? "disabled"
                        : (hedging ? "failover+hedging" : "failover");
  cell.report = gateway::RunTraffic(gw, traffic);
  const gateway::GatewaySnapshot stats = gw.Stats();
  cell.availability = cell.report.submitted > 0
                          ? static_cast<double>(cell.report.ok) /
                                static_cast<double>(cell.report.submitted)
                          : 0;
  cell.p50 = stats.p50_micros();
  cell.p95 = stats.p95_micros();
  cell.p99 = stats.p99_micros();
  cell.failovers = stats.totals.failovers;
  cell.hedges_fired = stats.totals.hedges_fired;
  cell.hedges_won = stats.totals.hedges_won;
  cell.breaker_opens = stats.totals.breaker_opens;
  cell.faults_injected = stats.totals.faults_injected;
  gw.Stop();
  return cell;
}

int RunFailoverMatrix(const std::vector<std::string>& plan_texts,
                      const std::string& output) {
  std::printf("M-Failover availability matrix (2 shards, android-primary "
              "traffic, 1 retry round)\n");
  std::ofstream json(output);
  json << "{\n  \"bench\": \"gateway_failover\",\n"
       << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n  \"matrix\": [\n";
  bool first_cell = true;
  for (const std::string& text : plan_texts) {
    std::string error;
    const auto plan = support::FaultPlan::Parse(text, &error);
    if (!plan) {
      std::fprintf(stderr, "bad --fault-plan %s: %s\n", text.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("\nplan: %s\n", plan->ToString().c_str());
    std::printf("%-18s %12s %10s %10s %10s %10s %8s %8s %8s\n", "mode",
                "availability", "p50(us)", "p95(us)", "p99(us)", "faults",
                "failovr", "hedged", "brk-open");
    std::printf("%s\n", std::string(100, '-').c_str());
    const struct { bool failover, hedging; } modes[] = {
        {false, false}, {true, false}, {true, true}};
    for (const auto& mode : modes) {
      const FailoverCell cell =
          RunFailoverCell(*plan, mode.failover, mode.hedging);
      std::printf("%-18s %11.2f%% %10llu %10llu %10llu %10llu %8llu %8llu "
                  "%8llu\n",
                  cell.mode.c_str(), cell.availability * 100.0,
                  static_cast<unsigned long long>(cell.p50),
                  static_cast<unsigned long long>(cell.p95),
                  static_cast<unsigned long long>(cell.p99),
                  static_cast<unsigned long long>(cell.faults_injected),
                  static_cast<unsigned long long>(cell.failovers),
                  static_cast<unsigned long long>(cell.hedges_fired),
                  static_cast<unsigned long long>(cell.breaker_opens));
      json << (first_cell ? "" : ",\n");
      first_cell = false;
      json << "    {\"plan\": \"" << plan->ToString() << "\", \"mode\": \""
           << cell.mode << "\", \"submitted\": " << cell.report.submitted
           << ", \"ok\": " << cell.report.ok
           << ", \"failed\": " << cell.report.failed
           << ", \"timed_out\": " << cell.report.timed_out
           << ",\n     \"availability\": " << cell.availability
           << ", \"p50_us\": " << cell.p50 << ", \"p95_us\": " << cell.p95
           << ", \"p99_us\": " << cell.p99
           << ",\n     \"faults_injected\": " << cell.faults_injected
           << ", \"failovers\": " << cell.failovers
           << ", \"hedges_fired\": " << cell.hedges_fired
           << ", \"hedges_won\": " << cell.hedges_won
           << ", \"breaker_opens\": " << cell.breaker_opens << "}";
    }
  }
  json << "\n  ]\n}\n";
  bench::CloseOrDie(json, output);
  std::printf("\nwrote %s\n", output.c_str());
  return 0;
}

/// M-Scope scenario: tracing on, small gateway, mixed traffic that
/// exercises every span source — per-request properties (core
/// setProperty under a gateway attempt), transient failures (retry +
/// backoff spans), tight deadlines (deadline instants) — then exports
/// the trace and a metrics dump.
void RunTraced(const std::string& trace_path,
               const std::string& metrics_path) {
  namespace trace = support::trace;
  trace::SetPerThreadCapacity(256 * 1024);
  trace::Reset();
  trace::SetEnabled(true);

  gateway::GatewayConfig config;
  config.shards = 2;
  config.store = &Store();
  // Mild packet loss makes some attempts fail transiently, so the trace
  // contains gateway.backoff spans and multi-attempt serves.
  config.device_template.network.loss_probability = 0.2;
  config.device_template.network.timeout = sim::SimTime::Seconds(1);
  config.default_retry.max_attempts = 4;
  config.default_retry.initial_backoff = std::chrono::microseconds(100);
  gateway::Gateway gw(config);

  support::MetricsRegistry metrics;
  const auto registration = gw.RegisterMetrics(metrics);

  for (std::uint64_t i = 0; i < 400; ++i) {
    gateway::Request request;
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
        request.properties.emplace_back("powerConsumption",
                                        core::PropertyValue(std::string("low")));
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
    (void)gw.Call(std::move(request));
  }
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
  std::printf(
      "wrote %s (%zu events across %zu threads, %zu dropped)\n",
      trace_path.c_str(), stats.events, stats.threads, stats.dropped);
}

}  // namespace

int main(int argc, char** argv) {
  std::string output;
  std::string trace_path;
  std::string metrics_path;
  bool trace_only = false;
  std::vector<std::string> fault_plans;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--trace-only") {
      trace_only = true;
    } else if (arg == "--fault-plan" && i + 1 < argc) {
      fault_plans.emplace_back(argv[++i]);
    } else {
      output = arg;
    }
  }
  if (!fault_plans.empty()) {
    return RunFailoverMatrix(
        fault_plans, output.empty() ? "BENCH_failover.json" : output);
  }
  if (output.empty()) output = "BENCH_gateway.json";
  if (trace_only) {
    RunTraced(trace_path.empty() ? "TRACE_gateway.json" : trace_path,
              metrics_path);
    return 0;
  }
  const unsigned cores = std::thread::hardware_concurrency();

  std::printf("M-Gateway serving benchmark (host: %u hardware threads)\n\n",
              cores);
  std::printf("%-8s %12s %12s %10s %10s %10s %10s\n", "shards", "served",
              "req/s", "p50(us)", "p95(us)", "p99(us)", "max-q");
  std::printf("%s\n", std::string(78, '-').c_str());

  std::vector<ScalingResult> scaling;
  for (int shards : {1, 2, 4, 8}) {
    ScalingResult r = RunScaling(shards, 20000);
    std::printf("%-8d %12llu %12.0f %10llu %10llu %10llu %10llu\n", r.shards,
                static_cast<unsigned long long>(r.report.ok),
                r.report.completed_per_sec,
                static_cast<unsigned long long>(r.p50),
                static_cast<unsigned long long>(r.p95),
                static_cast<unsigned long long>(r.p99),
                static_cast<unsigned long long>(r.max_queue_depth));
    scaling.push_back(std::move(r));
  }

  OverloadResult overload = RunOverload();
  std::printf(
      "\noverload (2 shards, 64-slot queues, 3x capacity open-loop):\n"
      "  submitted %llu  served %llu  shed %llu (%.1f%%)  "
      "p95 %llu us  max queue depth %llu\n",
      static_cast<unsigned long long>(overload.report.submitted),
      static_cast<unsigned long long>(overload.served),
      static_cast<unsigned long long>(overload.shed),
      overload.shed_fraction * 100.0,
      static_cast<unsigned long long>(overload.p95),
      static_cast<unsigned long long>(overload.max_queue_depth));

  std::ofstream json(output);
  json << "{\n  \"bench\": \"gateway_throughput\",\n"
       << "  \"hardware_concurrency\": " << cores << ",\n"
       << "  \"scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalingResult& r = scaling[i];
    json << "    {\"shards\": " << r.shards << ", \"served\": " << r.report.ok
         << ", \"requests_per_sec\": "
         << static_cast<std::uint64_t>(r.report.completed_per_sec)
         << ", \"p50_us\": " << r.p50 << ", \"p95_us\": " << r.p95
         << ", \"p99_us\": " << r.p99
         << ", \"max_queue_depth\": " << r.max_queue_depth << "}"
         << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"overload\": {\n"
       << "    \"shards\": 2, \"queue_capacity\": 64,\n"
       << "    \"submitted\": " << overload.report.submitted
       << ", \"served\": " << overload.served
       << ", \"shed\": " << overload.shed << ",\n"
       << "    \"shed_fraction\": " << overload.shed_fraction
       << ", \"p50_us\": " << overload.p50
       << ", \"p95_us\": " << overload.p95
       << ", \"p99_us\": " << overload.p99
       << ", \"max_queue_depth\": " << overload.max_queue_depth << "\n"
       << "  }\n}\n";
  bench::CloseOrDie(json, output);
  std::printf("\nwrote %s\n", output.c_str());

  if (!trace_path.empty()) {
    std::printf("\nM-Scope traced scenario:\n");
    RunTraced(trace_path, metrics_path);
  }
  return 0;
}
