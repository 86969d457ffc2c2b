// M-Fleet: device-count scaling and multi-tenant overload isolation
// (wall clock), written to BENCH_fleet.json (or argv[1]).
//
// Two experiment families (EXPERIMENTS.md W10):
//
//  * scaling — one fleet tenant at 10k / 100k / 1M flyweight devices
//    driving the gateway open-loop at this host's derated sustained rate
//    (closed-loop calibrated capacity * kOpenLoopDerate, so the row
//    measures *sustained* service, not shedding). The aggregate offered
//    load is constant across rows — the row varies only the number of
//    flyweight devices it is spread over — so a flat served-rate column
//    is the result: per-device bookkeeping (16-byte DeviceState, shared
//    routes, per-tenant accounting) must not degrade with fleet size.
//  * isolation — four tenants with admission weights {8, 4, 2, 1}
//    against a serving capacity pinned by fault injection (every request
//    is charged a fixed wall-clock service time, so the overload is
//    queue-bound, not host-CPU-bound). The three behaved tenants offer
//    ~30% of capacity between them while the weight-1 rogue floods 1.5x
//    capacity on its own. The gateway's
//    weighted per-tenant queue caps (gateway/tenant.h) shed the rogue
//    back to its quota; each behaved tenant's client-observed p95 is
//    compared against an uncontended baseline run (same rates, no
//    rogue, fresh gateway). Server-side per-tenant counters must
//    reconcile exactly once quiescent: ok + failed + timed_out + shed
//    == submitted, for every tenant.
//
// Methodology: wall-clock timing around Fleet::Run (open loop, paced
// ticks); capacity is calibrated per host with a closed-loop probe on a
// separate gateway so rate fractions mean the same thing on any machine.
// Arrival schedules are seeded (SeedSequence "fleet" domain) — identical
// seeds give identical schedules.
//
// M-Scope: --trace-only --trace X --metrics Y runs a small traced fleet
// (2 tenants, diurnal curve, tracing enabled) and exports Chrome
// trace_event JSON plus a metrics dump with gateway.tenant.* and
// fleet.* series — the CI validation leg (validate_mscope.py
// --require-fleet) consumes these.
//
//   ./build/bench/bench_fleet_throughput [output.json]
//       [--trace trace.json] [--metrics metrics.json] [--trace-only]
//       [--devices N]...   (override the scaling rows)
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "fleet/fleet.h"
#include "gateway/gateway.h"
#include "gateway/traffic.h"
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

/// Open-loop load below is expressed relative to what the host sustains
/// with producers burning CPU alongside the shards. The closed-loop
/// probe measures serving capacity with adaptive producers; an open-loop
/// fleet on the same cores sustains a fraction of that (pacing, request
/// building and per-tenant accounting all bill to the same CPUs), so
/// rates are derated by this factor before use.
constexpr double kOpenLoopDerate = 0.3;

/// Closed-loop probe on a throwaway gateway: what this host can actually
/// serve, so open-loop rates below are host-relative.
double CalibrateCapacity() {
  gateway::GatewayConfig config;
  config.shards = 2;
  config.store = &Store();
  gateway::Gateway gw(config);
  gateway::TrafficConfig probe;
  probe.producers = 2;
  probe.requests_per_producer = 3000;
  probe.window = 16;
  probe.seed = 7;
  const gateway::TrafficReport report = gateway::RunTraffic(gw, probe);
  gw.Stop();
  return report.completed_per_sec;
}

struct ScalingRow {
  std::uint64_t devices = 0;
  double rps_per_device = 0;
  double offered_rps = 0;
  fleet::FleetReport report;
  bool reconcile_exact = false;
};

ScalingRow RunScalingRow(std::uint64_t devices, double sustained_rps) {
  fleet::FleetConfig config;
  fleet::FleetTenant tenant;
  tenant.tenant = {.id = 1, .name = "fleet", .weight = 1};
  tenant.devices = devices;
  // Constant aggregate load across rows: the row varies only the number
  // of flyweight devices that load is spread over.
  tenant.mean_rps_per_device =
      sustained_rps / static_cast<double>(devices);
  config.tenants.push_back(tenant);
  config.duration_seconds = 3.0;
  config.producers = 2;
  config.seed = 42;
  config.curve = fleet::DiurnalCurve::Flat();
  fleet::Fleet fl(config);

  gateway::GatewayConfig gw_config;
  gw_config.shards = 2;
  // Deep enough to absorb OS-scheduler bursts on a loaded host (tens of
  // ms at the offered rate); the row measures sustained service, and a
  // worker stalled by the scheduler for 20 ms must not turn into shed.
  gw_config.queue_capacity = 8192;
  gw_config.store = &Store();
  gw_config.tenants = fl.TenantConfigs();
  gateway::Gateway gw(gw_config);

  ScalingRow row;
  row.devices = devices;
  row.rps_per_device = tenant.mean_rps_per_device;
  row.offered_rps = tenant.mean_rps_per_device * static_cast<double>(devices);
  row.report = fl.Run(gw);

  row.reconcile_exact = true;
  for (const gateway::TenantSnapshot& t : gw.TenantStatsSnapshot()) {
    if (t.ok + t.failed + t.timed_out + t.shed != t.submitted) {
      row.reconcile_exact = false;
    }
  }
  gw.Stop();
  return row;
}

// ---------------------------------------------------------------------------
// Isolation: behaved tenants vs a flooding rogue
// ---------------------------------------------------------------------------

struct TenantSpec {
  gateway::TenantConfig tenant;
  std::uint64_t devices = 0;
  double rps_fraction = 0;  ///< of the derated sustained rate
};

struct IsolationResult {
  fleet::FleetReport uncontended;  ///< behaved tenants only
  fleet::FleetReport contended;    ///< behaved + rogue
  std::vector<gateway::TenantSnapshot> server;  ///< contended run
  bool reconcile_exact = true;
  bool isolation_ok = true;
  double rogue_shed_fraction = 0;
};

fleet::FleetConfig IsolationFleet(const std::vector<TenantSpec>& specs,
                                  double sustained_rps) {
  fleet::FleetConfig config;
  for (const TenantSpec& spec : specs) {
    fleet::FleetTenant tenant;
    tenant.tenant = spec.tenant;
    tenant.devices = spec.devices;
    tenant.mean_rps_per_device = sustained_rps * spec.rps_fraction /
                                 static_cast<double>(spec.devices);
    config.tenants.push_back(tenant);
  }
  config.duration_seconds = 4.0;
  config.producers = 2;
  config.seed = 99;
  config.curve = fleet::DiurnalCurve::Flat();
  return config;
}

/// Every isolation request is charged this much *wall* time on its
/// shard worker via fault injection, which pins serving capacity at
/// shards * 1e6 / kIsolationServiceUs req/s regardless of host speed —
/// the overload is queue-bound, not CPU-bound, so the committed numbers
/// mean the same thing on any machine.
constexpr std::uint64_t kIsolationServiceUs = 5000;
constexpr int kIsolationShards = 2;

fleet::FleetReport RunIsolationPhase(const fleet::FleetConfig& fleet_config,
                                     const std::vector<TenantSpec>& all,
                                     std::vector<gateway::TenantSnapshot>*
                                         server_out) {
  // The gateway always knows every tenant (weights shape the caps even
  // for tenants idle in this phase).
  gateway::GatewayConfig gw_config;
  gw_config.shards = kIsolationShards;
  // Watermark 24 against total weight 16 (8+4+2+1 tenants + the
  // built-in default at 1) puts the rogue's per-shard outstanding-work
  // cap at exactly one slot (floor(24/16) = 1): a behaved request never
  // waits behind more than one rogue service time, while the behaved
  // caps (12/6/3) leave room for Poisson bursts.
  gw_config.queue_capacity = 32;
  gw_config.shed_watermark = 24;
  gw_config.store = &Store();
  gw_config.failover.fault_plan = *support::FaultPlan::Parse(
      "*:*:latency=" + std::to_string(kIsolationServiceUs) + ":wall");
  for (const TenantSpec& spec : all) {
    gw_config.tenants.push_back(spec.tenant);
  }
  gateway::Gateway gw(gw_config);
  fleet::Fleet fl(fleet_config);
  fleet::FleetReport report = fl.Run(gw);
  if (server_out != nullptr) *server_out = gw.TenantStatsSnapshot();
  gw.Stop();
  return report;
}

IsolationResult RunIsolation() {
  // Fractions of the fault-pinned serving capacity (see
  // kIsolationServiceUs): behaved tenants offer 30% between them, the
  // rogue floods 1.5x capacity on its own.
  const double capacity_rps = kIsolationShards * 1e6 /
                              static_cast<double>(kIsolationServiceUs);
  const std::vector<TenantSpec> behaved = {
      {{.id = 1, .name = "alpha", .weight = 8}, 4000, 0.15},
      {{.id = 2, .name = "beta", .weight = 4}, 2000, 0.09},
      {{.id = 3, .name = "gamma", .weight = 2}, 1000, 0.06},
  };
  std::vector<TenantSpec> all = behaved;
  all.push_back({{.id = 4, .name = "rogue", .weight = 1}, 1000, 1.5});

  IsolationResult result;
  result.uncontended = RunIsolationPhase(
      IsolationFleet(behaved, capacity_rps), all, nullptr);
  result.contended = RunIsolationPhase(IsolationFleet(all, capacity_rps),
                                       all, &result.server);

  for (const gateway::TenantSnapshot& t : result.server) {
    if (t.ok + t.failed + t.timed_out + t.shed != t.submitted) {
      result.reconcile_exact = false;
    }
  }
  for (std::size_t i = 0; i < behaved.size(); ++i) {
    const fleet::FleetTenantReport& before = result.uncontended.tenants[i];
    const fleet::FleetTenantReport& after = result.contended.tenants[i];
    if (after.shed > 0 ||
        after.p95_us > std::max<std::uint64_t>(before.p95_us, 1) * 2) {
      result.isolation_ok = false;
    }
  }
  const fleet::FleetTenantReport& rogue = result.contended.tenants.back();
  result.rogue_shed_fraction =
      rogue.submitted > 0
          ? static_cast<double>(rogue.shed) /
                static_cast<double>(rogue.submitted)
          : 0;
  return result;
}

// ---------------------------------------------------------------------------
// M-Scope traced scenario (CI validation leg)
// ---------------------------------------------------------------------------

void RunTraced(const std::string& trace_path,
               const std::string& metrics_path) {
  namespace trace = support::trace;
  trace::SetPerThreadCapacity(256 * 1024);
  trace::Reset();
  trace::SetEnabled(true);

  fleet::FleetConfig config;
  config.tenants.push_back(
      {.tenant = {.id = 1, .name = "alpha", .weight = 2},
       .devices = 600,
       .mean_rps_per_device = 1.0});
  config.tenants.push_back(
      {.tenant = {.id = 2, .name = "beta", .weight = 1},
       .devices = 300,
       .mean_rps_per_device = 1.0});
  config.duration_seconds = 1.0;
  config.producers = 2;
  config.seed = 5;
  config.paced = false;  // CI wants the schedule, not the wall-clock rate
  fleet::Fleet fl(config);

  gateway::GatewayConfig gw_config;
  gw_config.shards = 2;
  gw_config.store = &Store();
  gw_config.tenants = fl.TenantConfigs();
  gateway::Gateway gw(gw_config);

  support::MetricsRegistry metrics;
  const auto gw_metrics = gw.RegisterMetrics(metrics);
  const auto fleet_metrics = fl.RegisterMetrics(metrics);

  const fleet::FleetReport report = fl.Run(gw);
  std::printf("traced fleet: %llu devices, %llu submitted, %llu served\n",
              static_cast<unsigned long long>(report.devices),
              static_cast<unsigned long long>(report.submitted),
              static_cast<unsigned long long>(report.ok + report.failed +
                                              report.timed_out));

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    metrics.Snapshot().WriteJson(out);
    bench::CloseOrDie(out, metrics_path);
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  gw.Stop();
  std::ofstream out(trace_path);
  const trace::ExportStats stats = trace::ExportChromeTrace(out);
  bench::CloseOrDie(out, trace_path);
  trace::SetEnabled(false);
  std::printf("wrote %s (%zu events across %zu threads, %zu dropped)\n",
              trace_path.c_str(), stats.events, stats.threads,
              stats.dropped);
}

void WriteTenantJson(std::ofstream& json, const fleet::FleetTenantReport& t,
                     const char* indent) {
  json << indent << "{\"name\": \"" << t.name << "\", \"devices\": "
       << t.devices << ", \"submitted\": " << t.submitted
       << ", \"ok\": " << t.ok << ", \"shed\": " << t.shed
       << ", \"failed\": " << t.failed << ", \"timed_out\": " << t.timed_out
       << ", \"p50_us\": " << t.p50_us << ", \"p95_us\": " << t.p95_us
       << ", \"p99_us\": " << t.p99_us << "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string output;
  std::string trace_path;
  std::string metrics_path;
  bool trace_only = false;
  std::vector<std::uint64_t> device_rows;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--trace-only") {
      trace_only = true;
    } else if (arg == "--devices" && i + 1 < argc) {
      device_rows.push_back(std::stoull(argv[++i]));
    } else {
      output = arg;
    }
  }
  if (output.empty()) output = "BENCH_fleet.json";
  if (trace_only) {
    RunTraced(trace_path.empty() ? "TRACE_fleet.json" : trace_path,
              metrics_path);
    return 0;
  }
  if (device_rows.empty()) device_rows = {10000, 100000, 1000000};

  const unsigned cores = std::thread::hardware_concurrency();
  const double capacity = CalibrateCapacity();
  const double sustained = capacity * kOpenLoopDerate;
  std::printf("M-Fleet benchmark (host: %u hardware threads, calibrated "
              "capacity %.0f req/s closed-loop, open-loop target %.0f "
              "req/s)\n\n",
              cores, capacity, sustained);

  std::printf("%-10s %14s %12s %12s %10s %10s %10s %8s\n", "devices",
              "rps/device", "submitted", "served/s", "p50(us)", "p95(us)",
              "p99(us)", "shed");
  std::printf("%s\n", std::string(92, '-').c_str());
  std::vector<ScalingRow> scaling;
  for (std::uint64_t devices : device_rows) {
    ScalingRow row = RunScalingRow(devices, sustained);
    std::printf("%-10llu %14.6f %12llu %12.0f %10llu %10llu %10llu %8llu\n",
                static_cast<unsigned long long>(row.devices),
                row.rps_per_device,
                static_cast<unsigned long long>(row.report.submitted),
                row.report.completed_per_sec,
                static_cast<unsigned long long>(row.report.p50_us),
                static_cast<unsigned long long>(row.report.p95_us),
                static_cast<unsigned long long>(row.report.p99_us),
                static_cast<unsigned long long>(row.report.shed));
    scaling.push_back(std::move(row));
  }

  const IsolationResult isolation = RunIsolation();
  std::printf("\nisolation (weights alpha:8 beta:4 gamma:2 rogue:1, "
              "rogue floods 1.5x capacity):\n");
  std::printf("%-8s %12s %10s %10s %14s %14s %8s\n", "tenant", "submitted",
              "ok", "shed", "uncont-p95", "cont-p95", "ratio");
  std::printf("%s\n", std::string(82, '-').c_str());
  for (std::size_t i = 0; i < isolation.contended.tenants.size(); ++i) {
    const fleet::FleetTenantReport& t = isolation.contended.tenants[i];
    const bool behaved = i < isolation.uncontended.tenants.size();
    const std::uint64_t before =
        behaved ? isolation.uncontended.tenants[i].p95_us : 0;
    std::printf("%-8s %12llu %10llu %10llu %14llu %14llu %8.2f\n",
                t.name.c_str(),
                static_cast<unsigned long long>(t.submitted),
                static_cast<unsigned long long>(t.ok),
                static_cast<unsigned long long>(t.shed),
                static_cast<unsigned long long>(before),
                static_cast<unsigned long long>(t.p95_us),
                before > 0 ? static_cast<double>(t.p95_us) /
                                 static_cast<double>(before)
                           : 0.0);
  }
  std::printf("rogue shed fraction %.1f%%  isolation_ok %s  "
              "reconcile_exact %s\n",
              isolation.rogue_shed_fraction * 100.0,
              isolation.isolation_ok ? "yes" : "NO",
              isolation.reconcile_exact ? "yes" : "NO");

  std::ofstream json(output);
  json << "{\n  \"bench\": \"fleet_throughput\",\n"
       << "  \"hardware_concurrency\": " << cores << ",\n"
       << "  \"device_state_bytes\": " << sizeof(fleet::DeviceState)
       << ",\n"
       << "  \"calibrated_capacity_rps\": "
       << static_cast<std::uint64_t>(capacity)
       << ",\n  \"open_loop_derate\": " << kOpenLoopDerate
       << ",\n  \"open_loop_target_rps\": "
       << static_cast<std::uint64_t>(sustained) << ",\n  \"scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScalingRow& r = scaling[i];
    json << "    {\"devices\": " << r.devices << ", \"rps_per_device\": "
         << r.rps_per_device << ", \"offered_rps\": "
         << static_cast<std::uint64_t>(r.offered_rps)
         << ",\n     \"fleet_state_mb\": "
         << static_cast<double>(r.devices * sizeof(fleet::DeviceState)) /
                (1024.0 * 1024.0)
         << ", \"submitted\": " << r.report.submitted
         << ", \"ok\": " << r.report.ok << ", \"shed\": " << r.report.shed
         << ", \"failed\": " << r.report.failed
         << ", \"timed_out\": " << r.report.timed_out
         << ",\n     \"completed_per_sec\": "
         << static_cast<std::uint64_t>(r.report.completed_per_sec)
         << ", \"p50_us\": " << r.report.p50_us
         << ", \"p95_us\": " << r.report.p95_us
         << ", \"p99_us\": " << r.report.p99_us
         << ", \"reconcile_exact\": "
         << (r.reconcile_exact ? "true" : "false") << "}"
         << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"isolation\": {\n"
       << "    \"weights\": {\"alpha\": 8, \"beta\": 4, \"gamma\": 2, "
          "\"rogue\": 1},\n"
       << "    \"injected_service_us\": " << kIsolationServiceUs
       << ", \"capacity_rps\": "
       << static_cast<std::uint64_t>(kIsolationShards * 1e6 /
                                     kIsolationServiceUs) << ",\n"
       << "    \"rogue_offered_fraction_of_capacity\": 1.5,\n"
       << "    \"uncontended\": [\n";
  for (std::size_t i = 0; i < isolation.uncontended.tenants.size(); ++i) {
    WriteTenantJson(json, isolation.uncontended.tenants[i], "      ");
    json << (i + 1 < isolation.uncontended.tenants.size() ? "," : "")
         << "\n";
  }
  json << "    ],\n    \"contended\": [\n";
  for (std::size_t i = 0; i < isolation.contended.tenants.size(); ++i) {
    WriteTenantJson(json, isolation.contended.tenants[i], "      ");
    json << (i + 1 < isolation.contended.tenants.size() ? "," : "") << "\n";
  }
  json << "    ],\n    \"p95_ratios\": [";
  for (std::size_t i = 0; i < isolation.uncontended.tenants.size(); ++i) {
    const std::uint64_t before = isolation.uncontended.tenants[i].p95_us;
    const std::uint64_t after = isolation.contended.tenants[i].p95_us;
    json << (i > 0 ? ", " : "")
         << (before > 0
                 ? static_cast<double>(after) / static_cast<double>(before)
                 : 0.0);
  }
  json << "],\n    \"rogue_shed_fraction\": "
       << isolation.rogue_shed_fraction << ",\n    \"isolation_ok\": "
       << (isolation.isolation_ok ? "true" : "false")
       << ",\n    \"reconcile_exact\": "
       << (isolation.reconcile_exact ? "true" : "false") << "\n  }\n}\n";
  bench::CloseOrDie(json, output);
  std::printf("\nwrote %s\n", output.c_str());

  if (!trace_path.empty()) {
    std::printf("\nM-Scope traced scenario:\n");
    RunTraced(trace_path, metrics_path);
  }
  return 0;
}
