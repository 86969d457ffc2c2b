// failover plane (EXPERIMENTS.md W4): each --fault-plan drives a 2-shard
// gateway with failover off / on / on+hedging. Traffic is android-only,
// where the shipped plans inject, with one retry round, so whatever
// availability survives is M-Failover's doing.
#include <cstdio>

#include "common.h"
#include "gateway/traffic.h"

namespace mobivine::bench {
namespace {

Row RunCell(const support::FaultPlan& plan, bool failover, bool hedging) {
  gateway::GatewayConfig config = ShardedConfig(2);
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
  traffic.retry.max_attempts = 1;
  traffic.mix.android = 1;
  traffic.mix.s60 = 0;
  traffic.mix.iphone = 0;

  const gateway::TrafficReport report = gateway::RunTraffic(gw, traffic);
  const gateway::GatewaySnapshot stats = gw.Stats();
  gw.Stop();
  const char* mode = !failover ? "disabled"
                               : (hedging ? "failover+hedging" : "failover");
  Row row;
  row.Add("plan", plan.ToString())
      .Add("mode", mode, {"mode", -18})
      .Add("submitted", report.submitted)
      .Add("ok", report.ok)
      .Add("failed", report.failed)
      .Add("timed_out", report.timed_out)
      .Add("availability",
           report.submitted > 0 ? static_cast<double>(report.ok) /
                                      static_cast<double>(report.submitted)
                                : 0.0,
           {"availability", 12, 4})
      .Add("p50_us", stats.p50_micros(), {"p50(us)", 10})
      .Add("p95_us", stats.p95_micros(), {"p95(us)", 10})
      .Add("p99_us", stats.p99_micros(), {"p99(us)", 10})
      .Add("faults_injected", stats.totals.faults_injected, {"faults", 10})
      .Add("failovers", stats.totals.failovers, {"failovr", 8})
      .Add("hedges_fired", stats.totals.hedges_fired, {"hedged", 8})
      .Add("hedges_won", stats.totals.hedges_won)
      .Add("breaker_opens", stats.totals.breaker_opens, {"brk-open", 8});
  return row;
}

}  // namespace

Row RunFailover(const Options& options) {
  Row doc = ResultDocument("gateway_failover");
  std::printf("M-Failover availability matrix (2 shards, android-primary "
              "traffic, 1 retry round)\n");
  std::vector<Row> matrix;
  for (const support::FaultPlan& plan : options.fault_plans) {
    std::printf("\nplan: %s\n", plan.ToString().c_str());
    Table table;
    const struct { bool failover, hedging; } modes[] = {
        {false, false}, {true, false}, {true, true}};
    for (const auto& mode : modes) {
      matrix.push_back(RunCell(plan, mode.failover, mode.hedging));
      table.Print(matrix.back());
    }
  }
  doc.Add("matrix", matrix);
  return doc;
}

}  // namespace mobivine::bench
