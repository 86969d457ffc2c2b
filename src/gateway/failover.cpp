#include "gateway/failover.h"

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>

#include "support/trace.h"

namespace mobivine::gateway {

std::string FaultPlanProblem(const support::FaultPlan& plan) {
  const auto wildcard = [](const std::string& field) {
    return field.empty() || field == "*";
  };
  for (std::size_t i = 0; i < plan.rules.size(); ++i) {
    const support::FaultRule& rule = plan.rules[i];
    const std::string where = "fault rule " + std::to_string(i + 1) + " (" +
                              rule.platform + ":" + rule.op + "): ";
    if (!wildcard(rule.platform) &&
        std::ranges::find(kPlatformNames, rule.platform) ==
            std::end(kPlatformNames)) {
      return where + "unknown platform '" + rule.platform + "'";
    }
    if (!wildcard(rule.op) &&
        std::ranges::find(kOps, rule.op, &OpInfo::fault_key) ==
            std::end(kOps)) {
      std::string keys;
      for (const OpInfo& op : kOps) keys += std::string(op.fault_key) + ", ";
      return where + "'" + rule.op + "' is not a fault key (" + keys + "or *)";
    }
    if (rule.action == support::FaultAction::kError &&
        core::ErrorCodeFromName(rule.error) == core::ErrorCode::kUnknown &&
        rule.error != core::ToString(core::ErrorCode::kUnknown)) {
      return where + "unknown error code '" + rule.error + "'";
    }
  }
  return std::string();
}

bool CircuitBreaker::Allow(std::uint64_t now_us) {
  if (threshold_ <= 0) return true;
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (now_us - opened_at_us_ < cooldown_us_) return false;
      state_ = State::kHalfOpen;
      probe_in_flight_ = true;
      return true;
    case State::kHalfOpen:
      // One probe at a time; the rest wait for it to resolve.
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      return true;
  }
  return true;
}

void CircuitBreaker::OnSuccess() {
  consecutive_ = 0;
  probe_in_flight_ = false;
  state_ = State::kClosed;
}

bool CircuitBreaker::OnFailure(std::uint64_t now_us) {
  if (threshold_ <= 0) return false;
  probe_in_flight_ = false;
  if (state_ == State::kHalfOpen) {
    // Failed probe: straight back to open, cooldown restarts.
    state_ = State::kOpen;
    opened_at_us_ = now_us;
    return true;
  }
  ++consecutive_;
  if (state_ == State::kClosed && consecutive_ >= threshold_) {
    state_ = State::kOpen;
    opened_at_us_ = now_us;
    return true;
  }
  return false;
}

FailoverEngine::FailoverEngine(const FailoverConfig& config,
                               ShardStats& stats, std::uint32_t shard_index)
    : config_(config),
      stats_(stats),
      injector_(config_.fault_plan, shard_index),
      breakers_{{config_.breaker_threshold, config_.breaker_cooldown_us},
                {config_.breaker_threshold, config_.breaker_cooldown_us},
                {config_.breaker_threshold, config_.breaker_cooldown_us}} {}

support::FaultDecision FailoverEngine::Admit(std::string_view platform_tag,
                                             std::string_view op_name) {
  if (!injector_.armed()) return support::FaultDecision{};
  support::FaultDecision decision = injector_.Decide(platform_tag, op_name);
  if (decision.action == support::FaultAction::kNone) return decision;
  stats_.Add(ShardCounter::faults_injected);
  if (decision.action == support::FaultAction::kHang) {
    // The injector leaves the hang open-ended; the shard sized this
    // dispatch's patience (hedge threshold or capped deadline) just
    // before dispatching.
    decision.latency_us = std::max<std::uint64_t>(hang_budget_us_, 1);
  }
  return decision;
}

bool FailoverEngine::BreakerAllows(std::size_t platform_index,
                                   std::uint64_t now_us) {
  CircuitBreaker& breaker = breakers_[platform_index];
  const CircuitBreaker::State before = breaker.state();
  const bool allowed = breaker.Allow(now_us);
  if (allowed && before == CircuitBreaker::State::kOpen) {
    support::trace::Instant("gateway.breaker_half_open", "platform",
                            static_cast<std::int64_t>(platform_index));
  }
  return allowed;
}

void FailoverEngine::OnDispatchSuccess(std::size_t platform_index,
                                       std::uint64_t virt_latency_us) {
  CircuitBreaker& breaker = breakers_[platform_index];
  if (breaker.state() != CircuitBreaker::State::kClosed) {
    support::trace::Instant("gateway.breaker_close", "platform",
                            static_cast<std::int64_t>(platform_index));
  }
  breaker.OnSuccess();
  profiles_[platform_index].Record(virt_latency_us);
  ++profile_samples_[platform_index];
}

void FailoverEngine::OnDispatchFailure(std::size_t platform_index,
                                       std::uint64_t now_us) {
  if (breakers_[platform_index].OnFailure(now_us)) {
    stats_.Add(ShardCounter::breaker_opens);
    support::trace::Instant("gateway.breaker_open", "platform",
                            static_cast<std::int64_t>(platform_index));
  }
}

std::uint64_t FailoverEngine::HedgeThresholdUs(std::size_t platform_index) {
  if (profile_samples_[platform_index] < kMinProfileSamples) {
    return kHedgeFloorUs;
  }
  const std::uint64_t percentile =
      profiles_[platform_index].Snapshot().Percentile(kHedgeQuantile);
  return std::max(percentile, kHedgeFloorUs);
}

}  // namespace mobivine::gateway
