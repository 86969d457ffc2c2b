// M-Fleet: a device-fleet simulator that drives the gateway with
// open-loop, diurnal, multi-tenant load from 10k to 1M+ simulated
// handsets.
//
// The paper's fragmentation story is about *populations* of devices —
// many handsets, several platforms, uneven activity. M-Fleet models that
// population as flyweight DeviceState records (fleet/device_state.h):
// each device is ~16 bytes of extrinsic state (tenant, shared-route
// progress, messaging counters) while everything heavy — GeoTrack
// routes, the arrival curve, RNG streams, the platform worlds themselves
// — is shared context, either owned once by the Fleet or already owned
// per-shard by the gateway.
//
// Load shape: open loop. Producer threads tick a virtual day
// (`day_seconds` of wall clock per 24h of diurnal curve) and draw
// Poisson arrival counts per (tenant, tick) from seeded streams
// (support::SeedSequence(seed).Fork("fleet").Fork(tenant.id).Fork(p)),
// then submit each arrival to the gateway regardless of completions —
// the shape that pushes a serving system into overload and exercises the
// tenant-weighted admission plane (gateway/tenant.h). Identical seeds
// yield identical arrival schedules (devices, ops, counts, order within
// a producer); Preview() exposes that schedule as a digest without
// touching a gateway, which is what the determinism tests pin.
//
// Devices are partitioned across producers (each device has exactly one
// writer, so DeviceState needs no locks) and their global index is the
// gateway client_id, so a device keeps shard affinity for its lifetime.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fleet/arrival.h"
#include "fleet/device_state.h"
#include "gateway/gateway.h"
#include "gateway/tenant.h"
#include "sim/geo_track.h"
#include "support/metrics.h"

namespace mobivine::fleet {

/// Relative op weights for fleet devices; zero removes the op.
struct FleetOpMix {
  int report = 4;        ///< kHttpPost telemetry carrying a GPS fix
  int get_location = 2;  ///< kGetLocation through the shard proxies
  int sms = 1;           ///< kSendSms to the gateway SMS peer
  int ping = 2;          ///< kHttpGet keepalive
};

/// One tenant's slice of the fleet.
struct FleetTenant {
  /// Gateway identity + admission weight (gateway/tenant.h). The id must
  /// be unique across the fleet's tenants.
  gateway::TenantConfig tenant;
  std::uint64_t devices = 1000;
  /// Daily-average operations per device per second; the diurnal curve
  /// modulates the instantaneous rate around this mean.
  double mean_rps_per_device = 0.1;
};

struct FleetConfig {
  std::vector<FleetTenant> tenants;
  /// Wall-clock run length.
  double duration_seconds = 2.0;
  /// Wall seconds per simulated 24h day — the diurnal compression knob.
  /// 60 means the fleet lives a full day each minute.
  double day_seconds = 60.0;
  /// Where in the day the run starts, in [0, 1). 0.75 = 18:00, the
  /// Commuter() curve's evening peak.
  double start_day_fraction = 0.75;
  /// Arrival-draw granularity. Each producer draws one Poisson count per
  /// tenant per tick.
  double tick_seconds = 0.005;
  std::uint64_t seed = 1;
  int producers = 2;
  /// When false, producers skip wall-clock pacing and emit the schedule
  /// as fast as possible — for tests that only care about the schedule
  /// or the reconcile, not about rates.
  bool paced = true;
  /// Per-request deadline; 0 = no deadline.
  std::chrono::microseconds timeout{0};
  /// Per-request retry; max_attempts 0 = gateway default.
  gateway::RetryPolicy retry;
  FleetOpMix mix;
  DiurnalCurve curve = DiurnalCurve::Commuter();
};

/// Client-side per-tenant outcome of a Run (the gateway keeps its own,
/// server-side view in TenantStatsSnapshot(); once quiescent the two
/// reconcile: ok + failed + timed_out + shed == submitted).
struct FleetTenantReport {
  std::uint32_t id = 0;
  std::string name;
  std::uint64_t devices = 0;
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  /// Client-observed submit -> completion latency (µs) of *served*
  /// requests (ok/failed/timed_out); shed completions are excluded —
  /// they finish on the submitting thread in well under a microsecond
  /// and would drown the serving percentiles.
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
};

struct FleetReport {
  std::uint64_t devices = 0;
  std::uint64_t submitted = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  double wall_seconds = 0;
  /// Served completions (ok + failed + timed_out) per wall second.
  double completed_per_sec = 0;
  std::uint64_t p50_us = 0;
  std::uint64_t p95_us = 0;
  std::uint64_t p99_us = 0;
  std::vector<FleetTenantReport> tenants;
};

/// Schedule fingerprint from Preview(): enough to pin determinism
/// without running a gateway.
struct SchedulePreview {
  /// FNV-folded (tick, tenant, device, op) per producer, XOR-combined
  /// across producers (producer interleaving on real threads is
  /// nondeterministic; each producer's own stream is not).
  std::uint64_t digest = 0;
  std::uint64_t arrivals = 0;
  std::vector<std::uint64_t> per_tenant;  ///< arrivals by tenant index
};

class Fleet {
 public:
  explicit Fleet(FleetConfig config);

  /// Drive `gateway` with the configured load; returns once every
  /// submitted request has completed (served or shed). Emits a
  /// "fleet.run" trace span; producer threads are named "fleet-gen-N".
  /// The gateway should be configured with TenantConfigs() so arrivals
  /// bill against the right admission weights.
  [[nodiscard]] FleetReport Run(gateway::Gateway& gateway);

  /// Generate the exact arrival schedule Run() would submit — same
  /// streams, same draw order — without a gateway and without pacing.
  /// Does not mutate device state. Identical config (seed included)
  /// => identical SchedulePreview.
  [[nodiscard]] SchedulePreview Preview() const;

  /// The tenant directory this fleet bills against, in fleet order —
  /// pass as GatewayConfig::tenants.
  [[nodiscard]] std::vector<gateway::TenantConfig> TenantConfigs() const;

  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }
  [[nodiscard]] const DeviceState& device(std::size_t global_index) const {
    return devices_[global_index];
  }
  [[nodiscard]] const std::vector<sim::GeoTrack>& routes() const {
    return routes_;
  }

  /// Register as an M-Scope source under `prefix`: fleet.devices,
  /// fleet.tenants, fleet.producers gauges plus live fleet.scheduled /
  /// fleet.submitted / fleet.completed counters. Drop the registration
  /// before the Fleet is destroyed.
  [[nodiscard]] support::MetricsRegistry::Registration RegisterMetrics(
      support::MetricsRegistry& registry,
      std::string prefix = "fleet.") const;

 private:
  struct Slice;  // per-(producer, tenant) device range
  template <typename Sink>
  void GenerateProducer(int producer, Sink&& sink) const;

  FleetConfig config_;
  std::vector<DeviceState> devices_;
  /// First global device index per tenant (tenant t owns
  /// [tenant_base_[t], tenant_base_[t + 1])); one extra trailing entry.
  std::vector<std::uint64_t> tenant_base_;
  std::vector<sim::GeoTrack> routes_;
  std::vector<gateway::Op> op_table_;  ///< weighted pick table

  // Live counters for RegisterMetrics (updated by Run).
  mutable std::atomic<std::uint64_t> scheduled_{0};
  mutable std::atomic<std::uint64_t> submitted_{0};
  mutable std::atomic<std::uint64_t> completed_{0};
};

}  // namespace mobivine::fleet
