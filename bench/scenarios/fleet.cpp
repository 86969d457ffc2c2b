// fleet plane (EXPERIMENTS.md W10).
//  * scaling: one tenant of 10k / 100k / 1M flyweight devices at the same
//    derated open-loop rate; per-device bookkeeping must not degrade with
//    fleet size, so a flat served-rate column is the result.
//  * isolation: tenants weighted {8, 4, 2, 1} against a capacity pinned
//    by fault injection (queue-bound, not CPU-bound). The behaved tenants
//    offer ~30% of capacity; the rogue floods 1.5x alone. Weighted queue
//    caps must shed the rogue while each behaved p95 stays within 2x of
//    an uncontended run, and per-tenant counters reconcile exactly.
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "fleet/fleet.h"
#include "gateway/traffic.h"
#include "support/fault.h"

namespace mobivine::bench {
namespace {

/// An open-loop fleet on the same cores as the shards sustains a
/// fraction of the closed-loop probe's rate (pacing, request building
/// and per-tenant accounting bill to the same CPUs), so open-loop rates
/// are derated by this factor.
constexpr double kOpenLoopDerate = 0.3;

constexpr std::uint64_t kDeviceRows[] = {10'000, 100'000, 1'000'000};

/// Closed-loop probe on a throwaway gateway: what this host can serve.
double CalibrateCapacity() {
  gateway::GatewayConfig config = ShardedConfig(2);
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

bool ReconcileExact(const std::vector<gateway::TenantSnapshot>& tenants) {
  return std::all_of(tenants.begin(), tenants.end(),
                     [](const gateway::TenantSnapshot& t) {
                       return t.ok + t.failed + t.timed_out + t.shed ==
                              t.submitted;
                     });
}

Row ScalingRow(std::uint64_t devices, double sustained_rps) {
  fleet::FleetConfig config;
  fleet::FleetTenant tenant;
  tenant.tenant = {.id = 1, .name = "fleet", .weight = 1};
  tenant.devices = devices;
  tenant.mean_rps_per_device = sustained_rps / static_cast<double>(devices);
  config.tenants.push_back(tenant);
  config.duration_seconds = 3.0;
  config.producers = 2;
  config.seed = 42;
  config.curve = fleet::DiurnalCurve::Flat();
  fleet::Fleet fl(config);

  gateway::GatewayConfig gw_config = ShardedConfig(2);
  // Deep enough to absorb tens of ms of OS-scheduler stall at the offered
  // rate: the row measures sustained service, and a stalled worker must
  // not turn into shed.
  gw_config.queue_capacity = 8192;
  gw_config.tenants = fl.TenantConfigs();
  gateway::Gateway gw(gw_config);
  const fleet::FleetReport report = fl.Run(gw);
  const bool reconcile_exact = ReconcileExact(gw.TenantStatsSnapshot());
  gw.Stop();

  Row row;
  row.Add("devices", devices, {"devices", -10})
      .Add("rps_per_device", tenant.mean_rps_per_device,
           {"rps/device", 14, 6})
      .Add("offered_rps",
           static_cast<std::uint64_t>(tenant.mean_rps_per_device *
                                      static_cast<double>(devices)))
      .Add("fleet_state_mb",
           static_cast<double>(devices * sizeof(fleet::DeviceState)) /
               (1024.0 * 1024.0))
      .Add("submitted", report.submitted, {"submitted", 12})
      .Add("ok", report.ok)
      .Add("shed", report.shed, {"shed", 8})
      .Add("failed", report.failed)
      .Add("timed_out", report.timed_out)
      .Add("completed_per_sec",
           static_cast<std::uint64_t>(report.completed_per_sec),
           {"served/s", 12})
      .Add("p50_us", report.p50_us, {"p50(us)", 10})
      .Add("p95_us", report.p95_us, {"p95(us)", 10})
      .Add("p99_us", report.p99_us, {"p99(us)", 10})
      .Add("reconcile_exact", reconcile_exact);
  return row;
}

struct TenantSpec {
  gateway::TenantConfig tenant;
  std::uint64_t devices = 0;
  double capacity_fraction = 0;
};

/// Every isolation request is charged this much wall time on its shard
/// via fault injection, pinning capacity at kIsolationShards * 1e6 /
/// kIsolationServiceUs req/s on any host.
constexpr std::uint64_t kIsolationServiceUs = 5000;
constexpr int kIsolationShards = 2;
constexpr double kIsolationCapacityRps =
    kIsolationShards * 1e6 / static_cast<double>(kIsolationServiceUs);

/// One isolation phase: `offered` tenants drive a gateway that knows
/// every tenant of `all` (weights shape the caps even for idle tenants).
fleet::FleetReport RunIsolationPhase(
    const std::vector<TenantSpec>& offered, const std::vector<TenantSpec>& all,
    std::vector<gateway::TenantSnapshot>* server) {
  fleet::FleetConfig config;
  for (const TenantSpec& spec : offered) {
    fleet::FleetTenant tenant;
    tenant.tenant = spec.tenant;
    tenant.devices = spec.devices;
    tenant.mean_rps_per_device = kIsolationCapacityRps *
                                 spec.capacity_fraction /
                                 static_cast<double>(spec.devices);
    config.tenants.push_back(tenant);
  }
  config.duration_seconds = 4.0;
  config.producers = 2;
  config.seed = 99;
  config.curve = fleet::DiurnalCurve::Flat();

  gateway::GatewayConfig gw_config = ShardedConfig(kIsolationShards);
  // Watermark 24 against total weight 16 (8+4+2+1 plus the built-in
  // default at 1) caps the rogue's per-shard outstanding work at one slot
  // (floor(24/16) = 1): a behaved request never waits behind more than
  // one rogue service time, while the behaved caps (12/6/3) leave room
  // for Poisson bursts.
  gw_config.queue_capacity = 32;
  gw_config.shed_watermark = 24;
  gw_config.failover.fault_plan = *support::FaultPlan::Parse(
      "*:*:latency=" + std::to_string(kIsolationServiceUs) + ":wall");
  for (const TenantSpec& spec : all) gw_config.tenants.push_back(spec.tenant);
  gateway::Gateway gw(gw_config);
  fleet::Fleet fl(config);
  fleet::FleetReport report = fl.Run(gw);
  *server = gw.TenantStatsSnapshot();
  gw.Stop();
  return report;
}

Row TenantRow(const fleet::FleetTenantReport& t) {
  Row row;
  row.Add("name", t.name, {"tenant", -8})
      .Add("devices", t.devices)
      .Add("submitted", t.submitted, {"submitted", 12})
      .Add("ok", t.ok, {"ok", 10})
      .Add("shed", t.shed, {"shed", 10})
      .Add("failed", t.failed)
      .Add("timed_out", t.timed_out)
      .Add("p50_us", t.p50_us)
      .Add("p95_us", t.p95_us, {"p95(us)", 10})
      .Add("p99_us", t.p99_us);
  return row;
}

/// Print and collect the per-tenant rows of one phase.
std::vector<Row> TenantRows(const char* title,
                            const fleet::FleetReport& report) {
  std::printf("%s:\n", title);
  Table table;
  std::vector<Row> rows;
  for (const fleet::FleetTenantReport& t : report.tenants) {
    rows.push_back(TenantRow(t));
    table.Print(rows.back());
  }
  return rows;
}

Row RunIsolation() {
  const std::vector<TenantSpec> behaved = {
      {{.id = 1, .name = "alpha", .weight = 8}, 4000, 0.15},
      {{.id = 2, .name = "beta", .weight = 4}, 2000, 0.09},
      {{.id = 3, .name = "gamma", .weight = 2}, 1000, 0.06},
  };
  std::vector<TenantSpec> all = behaved;
  all.push_back({{.id = 4, .name = "rogue", .weight = 1}, 1000, 1.5});

  std::vector<gateway::TenantSnapshot> server;
  const fleet::FleetReport uncontended =
      RunIsolationPhase(behaved, all, &server);
  const fleet::FleetReport contended = RunIsolationPhase(all, all, &server);

  std::vector<double> p95_ratios;
  bool isolation_ok = true;
  for (std::size_t i = 0; i < behaved.size(); ++i) {
    const std::uint64_t before = uncontended.tenants[i].p95_us;
    const fleet::FleetTenantReport& after = contended.tenants[i];
    if (after.shed > 0 ||
        after.p95_us > std::max<std::uint64_t>(before, 1) * 2) {
      isolation_ok = false;
    }
    p95_ratios.push_back(before > 0 ? static_cast<double>(after.p95_us) /
                                          static_cast<double>(before)
                                    : 0.0);
  }
  const fleet::FleetTenantReport& rogue = contended.tenants.back();
  const double rogue_shed_fraction =
      rogue.submitted > 0 ? static_cast<double>(rogue.shed) /
                                static_cast<double>(rogue.submitted)
                          : 0;
  const bool reconcile_exact = ReconcileExact(server);

  std::printf("\nisolation (weights alpha:8 beta:4 gamma:2 rogue:1, rogue "
              "floods 1.5x capacity)\n");
  const std::vector<Row> before_rows = TenantRows("uncontended", uncontended);
  const std::vector<Row> after_rows = TenantRows("contended", contended);

  Row weights;
  for (const TenantSpec& spec : all) {
    weights.Add(spec.tenant.name, spec.tenant.weight);
  }
  Row isolation;
  isolation.Add("weights", weights)
      .Add("injected_service_us", kIsolationServiceUs)
      .Add("capacity_rps", static_cast<std::uint64_t>(kIsolationCapacityRps))
      .Add("rogue_offered_fraction_of_capacity", all.back().capacity_fraction)
      .Add("uncontended", before_rows)
      .Add("contended", after_rows)
      .Add("p95_ratios", p95_ratios)
      .Add("rogue_shed_fraction", rogue_shed_fraction, {"rogue-shed", 10, 3})
      .Add("isolation_ok", isolation_ok, {"isolation_ok", 12})
      .Add("reconcile_exact", reconcile_exact, {"reconcile_exact", 15});
  std::printf("\n");
  Table().Print(isolation);
  return isolation;
}

}  // namespace

Row RunFleet(const Options&) {
  Row doc = ResultDocument("fleet_throughput");
  const double capacity = CalibrateCapacity();
  const double sustained = capacity * kOpenLoopDerate;
  std::printf("calibrated capacity %.0f req/s closed-loop, open-loop "
              "target %.0f req/s\n\n",
              capacity, sustained);
  Table table;
  std::vector<Row> scaling;
  for (const std::uint64_t devices : kDeviceRows) {
    scaling.push_back(ScalingRow(devices, sustained));
    table.Print(scaling.back());
  }
  const Row isolation = RunIsolation();
  doc.Add("device_state_bytes", sizeof(fleet::DeviceState))
      .Add("calibrated_capacity_rps", static_cast<std::uint64_t>(capacity))
      .Add("open_loop_derate", kOpenLoopDerate)
      .Add("open_loop_target_rps", static_cast<std::uint64_t>(sustained))
      .Add("scaling", scaling)
      .Add("isolation", isolation);
  return doc;
}

/// A small traced fleet: 2 tenants, unpaced (CI wants the schedule, not
/// the wall-clock rate). The export carries the fleet.run span on
/// fleet-gen-N threads and the gateway.tenant.* and fleet.* series.
void TraceFleet(const Options& options) {
  TracedRun traced;
  fleet::FleetConfig config;
  config.tenants.push_back({.tenant = {.id = 1, .name = "alpha", .weight = 2},
                            .devices = 600,
                            .mean_rps_per_device = 1.0});
  config.tenants.push_back({.tenant = {.id = 2, .name = "beta", .weight = 1},
                            .devices = 300,
                            .mean_rps_per_device = 1.0});
  config.duration_seconds = 1.0;
  config.producers = 2;
  config.seed = 5;
  config.paced = false;
  fleet::Fleet fl(config);

  gateway::GatewayConfig gw_config = ShardedConfig(2);
  gw_config.tenants = fl.TenantConfigs();
  gateway::Gateway gw(gw_config);
  const auto gateway_registration = gw.RegisterMetrics(traced.metrics());
  const auto fleet_registration = fl.RegisterMetrics(traced.metrics());

  const fleet::FleetReport report = fl.Run(gw);
  std::printf("traced fleet: %llu devices, %llu submitted, %llu served\n",
              static_cast<unsigned long long>(report.devices),
              static_cast<unsigned long long>(report.submitted),
              static_cast<unsigned long long>(report.ok + report.failed +
                                              report.timed_out));
  gw.Stop();
  traced.Write(options);
}

}  // namespace mobivine::bench
