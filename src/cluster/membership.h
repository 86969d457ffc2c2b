// M-Cluster membership: the controller's pure worker-liveness state
// machine, driven entirely by an injected clock — no threads, no
// sockets, no wall time. The controller feeds it registrations,
// heartbeats, disconnects and periodic Tick()s; it answers with health
// transitions and a monotonically-epoched partition plan.
//
// Per-worker health walks alive -> suspect -> dead on missed heartbeats,
// the same shape as the gateway's CircuitBreaker (closed -> open ->
// half-open on a failure run, probed on a virtual clock): `suspect` is
// the breaker's open-but-probing middle state — the worker stays IN the
// plan (routing keeps working; a single missed beat must not churn every
// client's routing table), it is merely flagged for observability, and
// one heartbeat snaps it back to alive the way a half-open probe closes
// a breaker. Only `dead` (k consecutive misses) and an explicit
// leave/disconnect remove a member — those are the plan-changing
// transitions, and exactly those bump the epoch.
//
// Epoch contract (what the plan-routing tests pin):
//  * epoch 0 = no plan; the first join produces epoch 1;
//  * every member-set change bumps it by exactly 1;
//  * health flapping (alive <-> suspect) never bumps it;
//  * it never goes backwards, including across a worker's rejoin.
#pragma once

#include <chrono>
#include <cstdint>
#include <unordered_map>

#include "cluster/plan.h"

namespace mobivine::cluster {

struct MembershipConfig {
  /// Expected heartbeat cadence; miss thresholds are multiples of it.
  std::uint64_t heartbeat_interval_us = 25'000;
  /// Consecutive missed intervals before a worker turns suspect…
  int suspect_after_misses = 2;
  /// …and before it is declared dead and dropped from the plan.
  int dead_after_misses = 8;
};

/// The membership clock: steady time in microseconds, the `now_us` every
/// call below takes (the controller and the worker agent read it alike).
[[nodiscard]] inline std::uint64_t NowMicros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class WorkerHealth : std::uint8_t {
  kAlive,
  kSuspect,  ///< missing beats but still planned (breaker half-open idiom)
  kDead,     ///< missed out; removed from the plan
  kLeft,     ///< graceful leave or connection close; removed from the plan
};

[[nodiscard]] const char* ToString(WorkerHealth health);

enum class RegisterOutcome : std::uint8_t {
  kRejected,  ///< invalid worker id (0)
  kJoined,    ///< brand new member
  kRejoined,  ///< was dead/left; back in the plan (epoch bumps)
  kReplaced,  ///< live id re-registered (restart faster than detection):
              ///< new endpoint wins, epoch bumps so routers re-resolve
};

class Membership {
 public:
  explicit Membership(MembershipConfig config);

  /// A worker announced itself at `now_us`. Plan-changing outcomes
  /// (kJoined / kRejoined / kReplaced) bump the epoch.
  RegisterOutcome Register(std::uint64_t worker_id, std::uint16_t data_port,
                           std::uint64_t now_us);

  /// A heartbeat arrived. False when the worker is unknown or already
  /// dead/left — the sender must re-register (its death was already acted
  /// on; silently resurrecting it would skip the plan bump).
  bool Heartbeat(std::uint64_t worker_id, std::uint64_t now_us);

  /// Graceful removal (kLeave frame, or the registered connection
  /// closed). True when the plan changed (the worker was planned).
  bool Remove(std::uint64_t worker_id, WorkerHealth terminal);

  /// Sweep heartbeat deadlines at `now_us`: alive workers past the
  /// suspect threshold turn suspect, past the dead threshold die (and
  /// leave the plan). Returns true when the plan changed.
  bool Tick(std::uint64_t now_us);

  /// Current plan: alive + suspect members, sorted by id. Rebuilt on
  /// every epoch bump; cheap to copy (the controller encodes it into
  /// pushes while holding no locks here — Membership is single-thread).
  [[nodiscard]] const PartitionPlan& plan() const { return plan_; }

  [[nodiscard]] WorkerHealth health(std::uint64_t worker_id) const;
  [[nodiscard]] std::size_t alive_count() const;
  [[nodiscard]] std::size_t suspect_count() const;

 private:
  struct WorkerState {
    std::uint16_t data_port = 0;
    WorkerHealth health = WorkerHealth::kAlive;
    std::uint64_t last_heartbeat_us = 0;
  };

  void RebuildPlan();

  const MembershipConfig config_;
  std::unordered_map<std::uint64_t, WorkerState> workers_;
  PartitionPlan plan_;  ///< epoch 0 until the first join
};

}  // namespace mobivine::cluster
