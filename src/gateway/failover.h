// M-Failover: cross-platform failover, circuit breakers and hedging for
// M-Gateway shards.
//
// The paper's M-Proxy semantic plane makes one invocation portable across
// every platform on the device; M-Failover makes that portability
// operational. When a dispatch fails transiently (or a FaultPlan injects
// a failure), the shard re-dispatches the same uniform invocation to the
// next healthy platform on the same shard — the caller observes one
// Response and, on success, never needed to know which backend produced
// it (Response::served_platform records it for M-Scope).
//
// Three cooperating mechanisms, all per shard and all on the shard's
// virtual clock so chaos runs are deterministic:
//  * FaultInjector — executes the configured support::FaultPlan; the
//    engine implements support::FaultGate and is installed on the shard's
//    proxies, so injected faults surface through the same binding
//    dispatch path (and exception-mapping machinery) as real ones.
//  * CircuitBreaker (one per platform) — closed / open / half-open on a
//    consecutive-transient-failure threshold. Open breakers are skipped
//    by the failover sweep; after a virtual-clock cooldown the breaker
//    lets exactly one probe through (half-open) and closes on success.
//  * Hedging — when enabled, a dispatch that hangs past the platform's
//    observed latency percentile (a virtual-time budget handed to the
//    fault plane) is abandoned and the invocation is hedged onto the
//    next platform; first success wins, the loser books no completion.
//
// Threading: the engine lives on its shard's worker thread. The only
// cross-thread readers are the relaxed ShardStats counters it shares
// with the rest of the stats plane.
#pragma once

#include <cstdint>
#include <string>

#include "gateway/request.h"
#include "gateway/stats.h"
#include "support/fault.h"
#include "support/histogram.h"

namespace mobivine::gateway {

/// Hedge after the platform's q-th latency percentile (virtual µs of its
/// successful dispatches).
inline constexpr double kHedgeQuantile = 0.95;
/// Hedge threshold floor, also used while the histogram is cold.
inline constexpr std::uint64_t kHedgeFloorUs = 2'000;
/// Patience budget for a hanging dispatch when hedging is off (or no
/// candidate remains); the remaining request deadline caps it further.
inline constexpr std::uint64_t kHangCapUs = 20'000;

/// Per-gateway M-Failover policy (GatewayConfig::failover). Default is
/// everything off: the serving path is byte-for-byte the pre-failover
/// one (a single null-pointer test per binding dispatch).
struct FailoverConfig {
  /// Re-dispatch transient failures to the next healthy platform on the
  /// same shard before burning a retry round.
  bool failover = false;
  /// Hedge a dispatch that hangs past the platform's latency percentile
  /// onto the next platform (first success wins).
  bool hedging = false;
  /// Consecutive transient failures that open a platform's breaker;
  /// 0 disables circuit breaking.
  int breaker_threshold = 0;
  /// Virtual-clock cooldown before an open breaker admits its half-open
  /// probe.
  std::uint64_t breaker_cooldown_us = 50'000;
  /// Faults to inject on this gateway's shards (empty = none).
  support::FaultPlan fault_plan;

  /// Whether a shard needs a FailoverEngine at all.
  [[nodiscard]] bool enabled() const {
    return failover || hedging || breaker_threshold > 0 ||
           !fault_plan.empty();
  }
};

/// Why a rule of `plan` can never fire — an unknown platform tag, an op
/// that is not a fault key (MOBIVINE_GATEWAY_OPS: `sendSms` is injected
/// as `sendTextMessage`), an error= name that is no ErrorCode — or empty.
/// Gateway construction throws it as ProxyError(kIllegalArgument).
[[nodiscard]] std::string FaultPlanProblem(const support::FaultPlan& plan);

/// Closed / open / half-open breaker on a consecutive-failure count,
/// probed on the shard's virtual clock. threshold == 0 disables it
/// (always allows, never opens).
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  CircuitBreaker(int threshold, std::uint64_t cooldown_us)
      : threshold_(threshold), cooldown_us_(cooldown_us) {}

  /// May this platform be dispatched to at virtual time `now_us`? An open
  /// breaker whose cooldown elapsed transitions to half-open and admits
  /// exactly one probe; further calls say no until the probe resolves.
  [[nodiscard]] bool Allow(std::uint64_t now_us);

  /// A dispatch succeeded: close (resolves a half-open probe, resets the
  /// consecutive-failure run).
  void OnSuccess();

  /// A health-relevant (transient/injected) dispatch failure at virtual
  /// time `now_us`. Returns true when this failure opened the breaker.
  [[nodiscard]] bool OnFailure(std::uint64_t now_us);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] int consecutive_failures() const { return consecutive_; }

 private:
  const int threshold_;
  const std::uint64_t cooldown_us_;
  State state_ = State::kClosed;
  int consecutive_ = 0;
  std::uint64_t opened_at_us_ = 0;
  bool probe_in_flight_ = false;
};

/// The per-shard M-Failover brain: owns the shard's fault injector,
/// per-platform breakers and per-platform latency profiles. Installed on
/// the shard's proxies as their support::FaultGate.
class FailoverEngine final : public support::FaultGate {
 public:
  FailoverEngine(const FailoverConfig& config, ShardStats& stats,
                 std::uint32_t shard_index);

  // -- support::FaultGate (called from inside binding dispatch) ---------
  /// Consult the fault plan for one dispatch. A kHang decision is sized
  /// to the hang budget the shard set for this dispatch (hedge threshold
  /// or capped remaining deadline).
  support::FaultDecision Admit(std::string_view platform_tag,
                               std::string_view op_name) override;

  /// Patience budget (virtual µs) a hanging dispatch may consume before
  /// it surfaces as a timeout. Set by the shard before every dispatch.
  void set_hang_budget_us(std::uint64_t budget) { hang_budget_us_ = budget; }

  // -- breaker + latency profile (called from Shard::Serve) -------------
  /// Breaker check for a candidate platform (emits the half-open instant
  /// on transition).
  [[nodiscard]] bool BreakerAllows(std::size_t platform_index,
                                   std::uint64_t now_us);
  /// Successful dispatch: closes the breaker, records the dispatch's
  /// virtual latency into the platform's hedge profile.
  void OnDispatchSuccess(std::size_t platform_index,
                         std::uint64_t virt_latency_us);
  /// Transient/injected dispatch failure: advances the breaker (counts
  /// breaker_opens and emits the open instant on transition).
  void OnDispatchFailure(std::size_t platform_index, std::uint64_t now_us);

  /// Virtual-µs hedge threshold for a platform: its kHedgeQuantile
  /// latency percentile, floored at kHedgeFloorUs (the floor alone
  /// while the profile is cold).
  [[nodiscard]] std::uint64_t HedgeThresholdUs(std::size_t platform_index);

  [[nodiscard]] const FailoverConfig& config() const { return config_; }
  [[nodiscard]] const support::FaultInjector& injector() const {
    return injector_;
  }
  [[nodiscard]] const CircuitBreaker& breaker(
      std::size_t platform_index) const {
    return breakers_[platform_index];
  }

 private:
  /// Hedge profiles need this many successes before the percentile is
  /// trusted over the floor.
  static constexpr std::uint64_t kMinProfileSamples = 16;

  FailoverConfig config_;
  ShardStats& stats_;
  support::FaultInjector injector_;
  CircuitBreaker breakers_[kPlatformCount];
  support::LatencyHistogram profiles_[kPlatformCount];
  std::uint64_t profile_samples_[kPlatformCount] = {};
  std::uint64_t hang_budget_us_ = 0;
};

}  // namespace mobivine::gateway
