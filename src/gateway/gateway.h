// M-Gateway: a concurrent, sharded invocation-serving runtime on top of
// the MobiVine proxy layer.
//
// The paper's M-Proxy makes one app's call uniform across platforms; the
// gateway turns that library into a serving runtime for many concurrent
// clients. Requests are sharded N ways by a client-id hash; each shard
// owns a worker thread and a complete single-threaded MobiVine world —
// its own simulated MobileDevice, platform substrates, ProxyRegistry and
// proxies — so the existing bindings, schedulers and per-store interners
// never need a lock. Cross-shard state is confined to the read-only
// DescriptorStore and the SharedInterner behind Interner::Global().
//
// Serving semantics — one path for every entry point (Submit, borrowed
// Submit, SubmitScript): one admission decision, one queue, one
// completion that books the outcome before the callback runs.
//  * Admission control — each shard queue is bounded with a shed
//    watermark, and each tenant with a weighted slot cap; work arriving
//    above either completes immediately on the submitting thread with
//    ErrorCode::kOverloaded instead of queueing unboundedly, which keeps
//    served-request tail latency bounded under overload.
//  * Deadlines — a request's wall-clock deadline is checked at dequeue
//    (kDeadlineExceeded, the binding never runs) and between retry
//    attempts; an in-flight blocking binding call is never interrupted.
//  * Retries — transient binding failures (timeout, radio failure, lost
//    GPS fix, network) re-execute under a bounded exponential backoff;
//    the backoff is slept on the worker's wall clock and mirrored onto
//    the shard's virtual clock. Exhausting attempts surfaces the last
//    error; running out of deadline mid-retry surfaces kDeadlineExceeded
//    (the request ran out of time, not attempts) and counts as timed_out.
//  * Property isolation — a request's properties are applied to the
//    shard's long-lived proxies under save/restore, so per-request
//    overrides never leak into later requests on the same shard.
//  * M-Failover (gateway/failover.h) — when enabled, a transient or
//    injected dispatch failure is re-dispatched to the next healthy
//    platform on the same shard before a retry round is spent;
//    per-platform circuit breakers sideline failing platforms, hanging
//    dispatches can be hedged onto another platform, and exhausting
//    every platform surfaces kAllBackendsFailed. See DESIGN.md §9 and
//    docs/failure-semantics.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "device/mobile_device.h"
#include "gateway/failover.h"
#include "gateway/push.h"
#include "gateway/request.h"
#include "gateway/script.h"
#include "gateway/stats.h"
#include "gateway/tenant.h"
#include "support/metrics.h"

namespace mobivine::gateway {

/// The in-sim HTTP host every shard's network serves (GET -> "pong",
/// POST -> echoes the body). Address ops at "http://gw.example/...".
inline constexpr const char* kGatewayHttpHost = "gw.example";
/// A subscriber registered on every shard's modem (SMS destination).
inline constexpr const char* kGatewaySmsPeer = "+15550123";

struct GatewayConfig {
  int shards = 4;
  /// Per-shard admission bound: at most this many requests queued on a
  /// shard. Not a preallocation — the queue's ring grows on demand up to
  /// it, so a deep bound costs memory only when traffic actually queues.
  std::size_t queue_capacity = 1024;
  /// Shed when a shard's queue depth reaches this at admission;
  /// 0 means "at capacity" (the bounded queue itself is the watermark).
  std::size_t shed_watermark = 0;
  /// Applied when a request carries retry.max_attempts == 0.
  RetryPolicy default_retry{.max_attempts = 3};
  /// Per-shard devices are built from this template with seed + shard
  /// index, so failure injection (network loss, GPS outage, radio
  /// failures) flows through every shard deterministically.
  device::DeviceConfig device_template;
  /// Shared read-only descriptor store (may be null: proxies are then
  /// created without descriptor validation).
  const core::DescriptorStore* store = nullptr;
  /// M-Failover policy: cross-platform failover, circuit breakers,
  /// hedging and fault injection. Default-constructed = all off.
  FailoverConfig failover;
  /// Events each shard's push feed retains for reconnect catch-up
  /// (see gateway/push.h). 0 disables replay: every cursor-based
  /// subscribe starts with a gap marker.
  std::size_t push_replay_capacity = 1024;
  /// M-Script sandbox ceilings (gateway/script.h). Client-supplied
  /// budgets are clamped to these.
  ScriptLimits script;
  /// Tenancy (gateway/tenant.h): per-tenant admission weights and the
  /// gateway.tenant.* accounting plane. Empty — the pre-tenancy default
  /// — yields just the built-in "default" tenant, whose cap equals the
  /// whole watermark, i.e. exactly the old tenant-blind behavior.
  std::vector<TenantConfig> tenants;
};

class Gateway {
 public:
  explicit Gateway(GatewayConfig config);
  ~Gateway();

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Route the request to its client's shard. Returns true when admitted;
  /// false when shed, in which case `on_complete` has already run on the
  /// calling thread with ErrorCode::kOverloaded. Either way the callback
  /// fires exactly once.
  bool Submit(Request request);

  /// Borrowed-request overload for callers whose operands are views into
  /// transient buffers (the wire layer's input rings). Strings are copied
  /// only once the request is admitted, so a shed copies nothing. Views
  /// must stay valid until this returns — they are not retained. Same
  /// contract as Submit(Request).
  bool Submit(const BorrowedRequest& request,
              std::function<void(const Response&)> on_complete);

  /// Blocking convenience: submit and wait for the response (the
  /// request's own on_complete, if any, is ignored).
  Response Call(Request request);

  // ---- M-Script: server-side composite invocations (gateway/script.h) --

  /// Route a script to its client's shard, where it executes inside the
  /// sandbox against that shard's proxies. Same contract as
  /// Submit(Request), but never retried by the gateway: a composite may
  /// have performed side effects before failing.
  bool SubmitScript(ScriptRequest request);

  /// Blocking convenience: submit and wait for the script response (the
  /// request's own on_complete, if any, is ignored).
  ScriptResponse CallScript(ScriptRequest request);

  /// Stop admitting, drain every queued request, join the workers.
  /// Subsequent Submits shed. Idempotent; the destructor calls it.
  void Stop();

  /// M-Cluster handover hook: wait (bounded) until every request admitted
  /// so far has completed — quiescence is `totals.completed() ==
  /// totals.accepted`. The gateway keeps serving throughout; the caller
  /// fences *new* traffic first (the cluster worker flips its wire-server
  /// ownership filter to reject-everything before draining). True when
  /// quiescent within `timeout`, false when work was still in flight.
  bool Drain(std::chrono::microseconds timeout);

  /// Lock-free-readable view of all counters; safe while serving.
  [[nodiscard]] GatewaySnapshot Stats() const;

  /// Per-tenant counters (gateway/tenant.h); safe while serving. Once
  /// quiescent every row reconciles exactly: ok + failed + timed_out +
  /// shed == submitted.
  [[nodiscard]] std::vector<TenantSnapshot> TenantStatsSnapshot() const;

  /// The tenant directory this gateway admits against (immutable).
  [[nodiscard]] const TenantTable& tenants() const { return tenant_table_; }

  /// Register this gateway as one M-Scope metrics source under `prefix`:
  /// totals and per-shard serving counters, latency percentiles, and the
  /// per-proxy OverheadMeter op counts summed across shards. The returned
  /// registration must be dropped before the gateway is destroyed.
  [[nodiscard]] support::MetricsRegistry::Registration RegisterMetrics(
      support::MetricsRegistry& registry,
      std::string prefix = "gateway.") const;

  /// Which shard serves a client (stable for the gateway's lifetime).
  [[nodiscard]] std::uint32_t ShardFor(std::uint64_t client_id) const;

  // ---- M-Push: the per-shard notifier/feeder plane (gateway/push.h) ----

  /// The shard's push feed: platform callbacks served on that shard
  /// (SMS delivery reports today; see Shard's SmsListener bridge) are
  /// published into it, and the wire server's subscriptions listen on
  /// it. Valid for the gateway's lifetime; thread-safe.
  [[nodiscard]] PushFeed& FeedForShard(std::uint32_t shard);
  /// The feed serving `client_id` (== FeedForShard(ShardFor(id))).
  [[nodiscard]] PushFeed& FeedFor(std::uint64_t client_id);

  /// Publish an event into the client's shard feed from any thread —
  /// the entry point for the WebView bridge (notification posts) and
  /// for external event sources (proximity/call-state simulators,
  /// benches). A client_id of 0 broadcasts — but only within shard 0's
  /// feed; shard-targeted broadcast is FeedForShard(s).Publish(t, 0, b).
  /// Returns the assigned cursor.
  std::uint64_t PublishEvent(std::uint64_t client_id, PushTopic topic,
                             std::string body);

  [[nodiscard]] int shard_count() const;
  /// Total queued across shards right now (approximate).
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  class Shard;

  /// The one admission path behind both Submit overloads and
  /// SubmitScript: routing, the admission decision, the queue push and
  /// the single shed block. `build` materializes the queued payload only
  /// once the admission probe has passed.
  template <typename Result, typename Build>
  bool Admit(const char* span_name, std::uint64_t client_id,
             std::uint32_t tenant, std::chrono::microseconds timeout,
             std::function<void(const Result&)>& on_complete, Build&& build);

  GatewayConfig config_;
  /// Before shards_: every shard keeps a reference for admission caps
  /// and service accounting, so the table must outlive them.
  TenantTable tenant_table_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stopping_{false};
};

}  // namespace mobivine::gateway
