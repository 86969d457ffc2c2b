// M-Failover's fault-injection plane: deterministic, seedable chaos.
//
// A FaultPlan is a list of per-platform/per-op rules, each describing one
// way a backend can misbehave: fail with a typed error, run slow (added
// virtual latency), or hang until its caller's patience budget runs out.
// A FaultInjector instantiates a plan with a SplitMix64 stream, so two
// runs with the same plan, seed and request sequence inject exactly the
// same faults — chaos experiments are reproducible by construction.
//
// Layering: this lives in support/ so the core dispatch path can consult
// a gate without depending on the gateway. The plane is therefore
// domain-agnostic — error codes are carried as *names* (the consumer maps
// them onto its own enum; the gateway uses core::ErrorCodeFromName) and
// latencies as plain virtual microseconds (the consumer charges them on
// whatever clock it owns).
//
// Thread model: one FaultInjector per shard, consulted only from that
// shard's worker thread — same single-writer discipline as the rest of
// the simulated world. The FaultGate interface is what the core layer
// sees; the gateway's FailoverEngine implements it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/seed.h"

namespace mobivine::support {

enum class FaultAction : std::uint8_t {
  kNone = 0,  ///< no fault fired for this dispatch
  kError,     ///< throw the named error immediately
  kLatency,   ///< add virtual latency, then proceed normally
  kHang,      ///< consume the caller's hang budget, then time out
};

[[nodiscard]] const char* ToString(FaultAction action);

/// One way one backend misbehaves. Empty / "*" platform or op matches
/// everything; rules are evaluated in plan order and every matching rule
/// samples independently — the first one that fires wins.
struct FaultRule {
  std::string platform;  ///< binding platform tag ("android", ...); "*" = any
  std::string op;        ///< binding method ("getLocation", ...); "*" = any
  FaultAction action = FaultAction::kError;
  std::string error = "timeout";  ///< error-code name (consumer domain)
  std::uint64_t latency_us = 0;   ///< added latency (kLatency only)
  /// kLatency only: charge the delay on the WALL clock (the dispatching
  /// thread really blocks) instead of the consumer's virtual clock.
  /// Virtual charging is invisible outside the process — a wire or
  /// cluster peer on the far side of a TCP connection only feels a slow
  /// backend when the worker actually stalls — so cross-process chaos
  /// and capacity modelling need wall=true.
  bool wall = false;
  double probability = 1.0;      ///< per-dispatch fire probability
  std::uint64_t max_fires = 0;   ///< stop firing after this many; 0 = never

  [[nodiscard]] bool Matches(std::string_view platform_tag,
                             std::string_view op_name) const;
};

/// A named, seedable set of fault rules.
///
/// Text form (the bench `--fault-plan` flag and the demo accept it):
///
///   plan  := segment (';' segment)*
///   segment := "seed=" N | rule
///   rule  := platform ':' op ':' effect (':' option)*
///   effect := "error=" code-name | "latency=" micros | "hang"
///   option := "p=" probability | "max=" fires | "wall"
///
/// Examples:
///   "android:*:error=timeout:p=0.3"
///   "s60:getLocation:latency=5000"
///   "*:*:latency=1000:wall"
///   "seed=7;*:*:hang:p=0.1:max=100"
struct FaultPlan {
  std::vector<FaultRule> rules;
  std::uint64_t seed = 1;

  [[nodiscard]] bool empty() const { return rules.empty(); }

  /// Parse the text form; nullopt on malformed input, with a diagnostic
  /// in *error when provided.
  [[nodiscard]] static std::optional<FaultPlan> Parse(
      std::string_view text, std::string* error = nullptr);

  /// Round-trippable text form (Parse(ToString(p)) equals p).
  [[nodiscard]] std::string ToString() const;
};

/// The decision a gate hands back for one dispatch.
struct FaultDecision {
  FaultAction action = FaultAction::kNone;
  std::string_view error;      ///< error-code name (kError; view into the plan)
  std::uint64_t latency_us = 0;  ///< cost to charge (kLatency/kHang)
  bool wall = false;  ///< kLatency: block the wall clock, not the virtual one
};

/// What the core dispatch path consults before a binding method runs.
/// Installed per proxy (MProxy::installFaultGate); the gateway's
/// FailoverEngine implements it on top of a FaultInjector.
class FaultGate {
 public:
  virtual ~FaultGate() = default;
  virtual FaultDecision Admit(std::string_view platform_tag,
                              std::string_view op_name) = 0;
};

/// Executes a FaultPlan deterministically. Single-threaded (one per
/// shard); `salt` decorrelates instances sharing one plan (shard index).
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan, std::uint64_t salt = 0);

  /// Evaluate the plan for one dispatch. kNone when no rule fires. The
  /// returned error view points into the plan and stays valid for the
  /// injector's lifetime. A kHang decision carries latency_us == 0: the
  /// caller owns the hang budget (it knows the deadline/hedge policy).
  [[nodiscard]] FaultDecision Decide(std::string_view platform_tag,
                                     std::string_view op_name);

  [[nodiscard]] bool armed() const { return !plan_.rules.empty(); }
  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  /// Total faults fired, and the breakdown per action kind.
  [[nodiscard]] std::uint64_t fired() const { return total_fired_; }
  [[nodiscard]] std::uint64_t fired(FaultAction action) const {
    return fired_by_action_[static_cast<std::size_t>(action)];
  }
  /// Fires charged against rules[index] (max_fires accounting).
  [[nodiscard]] std::uint64_t rule_fires(std::size_t index) const {
    return index < rule_fires_.size() ? rule_fires_[index] : 0;
  }

 private:
  FaultPlan plan_;
  std::vector<std::uint64_t> rule_fires_;
  SplitMix64 rng_{0x9e3779b97f4a7c15ull};
  std::uint64_t total_fired_ = 0;
  std::uint64_t fired_by_action_[4] = {0, 0, 0, 0};
};

}  // namespace mobivine::support
