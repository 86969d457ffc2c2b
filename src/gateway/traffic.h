// Synthetic traffic for M-Gateway: many simulated clients issuing mixed
// uniform-surface operations from several producer threads.
//
// Two load shapes:
//  * Closed loop (window > 0) — each producer keeps at most `window`
//    requests in flight, submitting the next as completions arrive. This
//    measures sustainable throughput: offered load adapts to capacity.
//  * Open loop (window == 0, open_loop_rps > 0) — producers submit on a
//    fixed wall-clock schedule regardless of completions, the shape that
//    drives a serving system into overload and exercises shedding.
//
// Deterministic given a seed: client ids, op and platform picks come from
// per-producer streams derived with support::SeedSequence —
// SeedSequence(seed).Fork("traffic").Fork(producer) — so identical seeds
// reproduce identical request schedules across runs and subsystems never
// collide on ad-hoc seed arithmetic (wall-clock interleaving still
// varies). EXPERIMENTS.md § Methodology documents the convention.
#pragma once

#include <chrono>
#include <cstdint>

#include "gateway/gateway.h"

namespace mobivine::gateway {

/// Relative weights; zero removes the op/platform from the mix.
struct TrafficMix {
  int get_location = 1;
  int send_sms = 1;
  int http_get = 2;
  int http_post = 1;
  int segment_count = 1;

  int android = 2;
  int s60 = 1;
  int iphone = 1;
};

struct TrafficConfig {
  int producers = 2;
  std::uint64_t requests_per_producer = 1000;
  std::uint64_t clients = 256;  ///< client-id space (shard affinity spread)
  std::uint64_t seed = 1;
  /// Tenant every generated request bills against (gateway/tenant.h);
  /// 0 = the built-in default tenant.
  std::uint32_t tenant = 0;
  int window = 32;           ///< closed-loop in-flight cap; 0 = open loop
  double open_loop_rps = 0;  ///< aggregate submit rate when window == 0
  std::chrono::microseconds timeout{0};  ///< per-request; 0 = no deadline
  RetryPolicy retry;                     ///< max_attempts 0 = gateway default
  TrafficMix mix;
  /// When > 0, S60 getLocation requests carry a per-request
  /// "horizontalAccuracy" property whose value cycles through this many
  /// distinct settings (capped at 64). Deliberately a bounded pool of
  /// VALUES under one fixed property NAME: property names are what the
  /// never-evicting global interner keys on, so a soak minting distinct
  /// names would grow resident memory linearly with runtime (the
  /// unbounded-growth contract in docs/failure-semantics.md).
  std::uint64_t location_property_values = 0;
};

struct TrafficReport {
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  double wall_seconds = 0;      ///< first submit -> last completion
  double completed_per_sec = 0; ///< served completions (ok+failed+timed_out)
};

/// Drive `gateway` with the configured load; returns once every submitted
/// request has completed (served or shed).
[[nodiscard]] TrafficReport RunTraffic(Gateway& gateway,
                                       const TrafficConfig& config);

}  // namespace mobivine::gateway
