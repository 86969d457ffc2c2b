// M-Failover demo: chaos in, one healthy answer out.
//
// Walks the three M-Failover mechanisms against a deliberately broken
// android backend, printing what the caller sees (one uniform Response)
// next to what actually happened (which platform served, how many
// dispatches, what the breakers did):
//
//   1. failover  — every android dispatch is injected with a transient
//                  timeout; the shard re-dispatches to s60 inside the
//                  same retry round and the caller never notices.
//   2. breakers  — after enough consecutive failures the android breaker
//                  opens; requests skip it outright (one dispatch, not
//                  two) until a half-open probe on the virtual clock
//                  finds it healthy again.
//   3. hedging   — a hanging android dispatch is abandoned at the hedge
//                  threshold and raced against s60; first success wins
//                  and the loser books no completion.
//
// Pass a fault-plan spec (see support/fault.h for the grammar) to try
// your own chaos:
//
//   ./build/examples/failover_demo ["android:*:error=timeout:p=0.5"]
#include <cstdio>
#include <string>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "support/fault.h"

using namespace mobivine;

namespace {

gateway::Request PingRequest(std::uint64_t client) {
  gateway::Request request;
  request.client_id = client;
  request.platform = gateway::Platform::kAndroid;
  request.op = gateway::Op::kHttpGet;
  request.target =
      std::string("http://") + gateway::kGatewayHttpHost + "/ping";
  request.retry.max_attempts = 1;  // recovery is M-Failover's job today
  return request;
}

// segmentCount is pure (no device I/O): each dispatch advances the
// virtual clock by only the metered overhead, so the breaker's cooldown
// window spans several requests and the open-breaker skip is visible.
gateway::Request CountRequest(std::uint64_t client) {
  gateway::Request request;
  request.client_id = client;
  request.platform = gateway::Platform::kAndroid;
  request.op = gateway::Op::kSegmentCount;
  request.payload = "breaker demo payload";
  request.retry.max_attempts = 1;
  return request;
}

void Report(const char* label, const gateway::Response& response) {
  std::printf("  %-34s -> %-7s served_by=%-7s attempts=%d%s%s\n", label,
              response.ok ? "ok" : core::ToString(response.error),
              gateway::ToString(response.served_platform), response.attempts,
              response.ok ? "" : "  ", response.ok ? "" : response.message.c_str());
}

void Counters(const gateway::Gateway& gw) {
  const gateway::GatewaySnapshot stats = gw.Stats();
  std::printf(
      "  [counters] faults=%llu failovers=%llu hedges=%llu/%llu "
      "breaker_opens=%llu ok=%llu failed=%llu\n",
      static_cast<unsigned long long>(stats.totals.faults_injected),
      static_cast<unsigned long long>(stats.totals.failovers),
      static_cast<unsigned long long>(stats.totals.hedges_won),
      static_cast<unsigned long long>(stats.totals.hedges_fired),
      static_cast<unsigned long long>(stats.totals.breaker_opens),
      static_cast<unsigned long long>(stats.totals.ok),
      static_cast<unsigned long long>(stats.totals.failed));
}

}  // namespace

int main(int argc, char** argv) {
  const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);

  // --- 1. failover ------------------------------------------------------
  {
    const std::string spec =
        argc > 1 ? argv[1] : "android:*:error=timeout:p=1";
    std::string error;
    const auto plan = support::FaultPlan::Parse(spec, &error);
    if (plan) error = gateway::FaultPlanProblem(*plan);
    if (!error.empty()) {
      std::fprintf(stderr, "bad fault plan %s: %s\n", spec.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("1. failover — plan \"%s\", failover on:\n",
                plan->ToString().c_str());
    gateway::GatewayConfig config;
    config.shards = 1;
    config.store = &store;
    config.failover.failover = true;
    config.failover.fault_plan = *plan;
    gateway::Gateway gw(config);
    for (std::uint64_t i = 0; i < 3; ++i) {
      Report("httpGet on android", gw.Call(PingRequest(i)));
    }
    Counters(gw);
  }

  // --- 2. circuit breaker ----------------------------------------------
  {
    std::printf(
        "\n2. breakers — android faulted twice (then healthy), threshold 2, "
        "50ms virtual cooldown:\n");
    gateway::GatewayConfig config;
    config.shards = 1;
    config.store = &store;
    config.failover.failover = true;
    config.failover.breaker_threshold = 2;
    config.failover.breaker_cooldown_us = 50'000;
    config.failover.fault_plan =
        support::FaultPlan::Parse("android:*:error=timeout:p=1:max=2")
            .value();
    gateway::Gateway gw(config);
    Report("faulted: fails over", gw.Call(CountRequest(1)));
    Report("faulted again: breaker opens", gw.Call(CountRequest(1)));
    Report("open: android skipped outright", gw.Call(CountRequest(1)));
    // Serve until the virtual clock carries the breaker through its
    // cooldown and the half-open probe closes it again.
    int probes = 0;
    gateway::Response last;
    do {
      last = gw.Call(CountRequest(1));
      ++probes;
    } while (last.served_platform != gateway::Platform::kAndroid &&
             probes < 1000);
    std::printf("  ...%d requests later the half-open probe lands:\n",
                probes);
    Report("recovered: android serves again", last);
    Counters(gw);
  }

  // --- 3. hedging -------------------------------------------------------
  {
    std::printf(
        "\n3. hedging — android hangs once; the dispatch is hedged onto "
        "s60 at the threshold:\n");
    gateway::GatewayConfig config;
    config.shards = 1;
    config.store = &store;
    config.failover.hedging = true;
    config.failover.fault_plan =
        support::FaultPlan::Parse("android:httpGet:hang:p=1:max=1").value();
    gateway::Gateway gw(config);
    Report("hung primary, hedge wins", gw.Call(PingRequest(1)));
    Report("healthy again, no hedge", gw.Call(PingRequest(1)));
    Counters(gw);
  }

  std::printf(
      "\nSee docs/failure-semantics.md for the full error-code and "
      "recovery table.\n");
  return 0;
}
