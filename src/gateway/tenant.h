// First-class tenancy for M-Gateway: who is asking, and how much of the
// serving plane they are entitled to.
//
// A fleet of simulated devices (src/fleet/) — or any multi-app / BYOD
// deployment the paper's middleware would front — shares one gateway.
// Without tenancy the shed watermark is tenant-blind: one misbehaving
// tenant flooding the shard queues starves everyone equally. The
// TenantTable makes admission weighted instead:
//
//  * Every tenant carries an admission weight. On each shard, a tenant
//    may occupy at most  cap = max(1, floor(watermark * w / Σw))  queue
//    slots (weight 0 => cap 0: a zero-quota tenant is always shed, even
//    on an idle gateway). Occupancy is counted at admission and released
//    when the request *completes* service, so the cap bounds a tenant's
//    outstanding (queued + in-service) work; because the shard serves
//    FIFO, served throughput under full backlog converges to the weight
//    ratio.
//  * A request above its tenant cap is shed with the same typed
//    kOverloaded as a watermark shed — the caller-visible contract is
//    unchanged — but it is counted separately (quota_shed) and traced
//    with a gateway.quota_shed instant, so operators can tell "the shard
//    is full" from "this tenant exceeded its share". See
//    docs/failure-semantics.md.
//  * Per-tenant accounting mirrors the shard plane: submitted / accepted
//    / shed / ok / failed / timed_out / retries plus a latency histogram,
//    snapshot-able while serving and exported as gateway.tenant.<name>.*
//    through MetricsRegistry. Quiescent, every tenant reconciles exactly:
//    ok + failed + timed_out + shed == submitted.
//
// Requests that name no tenant (tenant id 0, the default for every
// pre-tenancy caller) resolve to the built-in "default" tenant, as do
// unknown ids — admission never fails on an unconfigured tenant, it just
// bills the default bucket.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/counters.h"
#include "support/histogram.h"

namespace mobivine::gateway {

/// One tenant's identity and entitlement. id 0 is reserved for the
/// built-in default tenant (the table adds it when absent); configuring
/// id 0 explicitly overrides the default tenant's name/weight.
struct TenantConfig {
  std::uint32_t id = 0;
  std::string name;         ///< metric label; empty => "tenant<id>"
  std::uint32_t weight = 1; ///< admission weight; 0 => zero quota (always shed)
};

/// The tenant plane's event counters: X(field, metric name, doc). Same
/// mechanics as MOBIVINE_GATEWAY_SHARD_COUNTERS (gateway/stats.h).
#define MOBIVINE_GATEWAY_TENANT_COUNTERS(X)                                \
  X(submitted, "submitted", "Submit/SubmitScript calls billed here")       \
  X(accepted, "accepted", "admitted into some shard queue")                \
  X(shed, "shed", "all sheds (watermark + quota + stopping)")              \
  X(quota_shed, "quota_shed", "subset of shed: tenant cap, not watermark") \
  X(ok, "ok", "served successfully")                                       \
  X(failed, "failed", "served, ended in any error but kDeadlineExceeded")  \
  X(timed_out, "timed_out", "every kDeadlineExceeded completion")          \
  X(retries, "retries", "extra retry rounds beyond the first")             \
  X(weight, "weight", "admission weight, as configured", kGauge)

/// Point-in-time copy of one tenant's counters.
struct TenantSnapshot {
  std::uint32_t id = 0;
  std::string name;
  MOBIVINE_GATEWAY_TENANT_COUNTERS(MOBIVINE_COUNTER_FIELD)
  /// Completions (ok + failed + timed_out).
  support::HistogramSnapshot latency;

  [[nodiscard]] std::uint64_t completed() const {
    return ok + failed + timed_out;
  }
};

enum class TenantCounter : std::size_t {
  MOBIVINE_GATEWAY_TENANT_COUNTERS(MOBIVINE_COUNTER_ENUM)
};
inline constexpr auto kTenantCounters =
    MOBIVINE_COUNTER_ROWS(TenantSnapshot, MOBIVINE_GATEWAY_TENANT_COUNTERS);

/// The live, written-in-place side. Same discipline as ShardStats: every
/// counter is an independent relaxed atomic, written by submitting
/// threads (admission) and shard workers (service) and snapshot by
/// anyone; cross-counter invariants hold exactly once quiescent. The
/// latency histogram's buckets are individually atomic, so one shared
/// histogram per tenant is safe under concurrent multi-shard writers.
class TenantStats : public support::CounterSet<TenantCounter, kTenantCounters> {
 public:
  void RecordLatency(std::uint64_t micros) { latency_.Record(micros); }

  [[nodiscard]] TenantSnapshot Snapshot() const {
    TenantSnapshot snap;
    LoadInto(snap);
    snap.latency = latency_.Snapshot();
    return snap;
  }

 private:
  support::LatencyHistogram latency_;
};

/// Immutable-after-construction tenant directory: id -> slot resolution,
/// per-slot weights and stats blocks, and the per-shard queue-slot cap
/// rule. Shared by reference between the Gateway (which owns it) and
/// every shard; all mutation after construction goes through the
/// per-slot TenantStats atomics, so concurrent use needs no lock.
class TenantTable {
 public:
  /// Builds the table. A config with id 0 customizes the default tenant;
  /// otherwise a default tenant {0, "default", weight 1} is prepended.
  /// Duplicate ids keep the first occurrence.
  explicit TenantTable(std::vector<TenantConfig> tenants);

  TenantTable(const TenantTable&) = delete;
  TenantTable& operator=(const TenantTable&) = delete;

  /// Slot for a tenant id; unknown ids resolve to the default slot 0.
  [[nodiscard]] std::size_t SlotFor(std::uint32_t id) const {
    const auto it = slots_.find(id);
    return it == slots_.end() ? 0 : it->second;
  }

  [[nodiscard]] std::size_t size() const { return configs_.size(); }
  [[nodiscard]] const TenantConfig& config(std::size_t slot) const {
    return configs_[slot];
  }
  [[nodiscard]] std::uint64_t total_weight() const { return total_weight_; }

  [[nodiscard]] TenantStats& stats(std::size_t slot) const {
    return stats_[slot];
  }

  /// The weighted admission cap: how many of a shard's `watermark` queue
  /// slots this tenant may occupy at once. Weight 0 is a hard zero quota.
  /// A positive weight always yields at least one slot, so a starved
  /// tenant can make progress even when floor(...) would round to zero.
  [[nodiscard]] std::size_t QueueCap(std::size_t slot,
                                     std::size_t watermark) const {
    const std::uint32_t weight = configs_[slot].weight;
    if (weight == 0) return 0;
    const std::size_t share = watermark * weight / total_weight_;
    return share == 0 ? 1 : share;
  }

  [[nodiscard]] std::vector<TenantSnapshot> Snapshot() const;

 private:
  std::vector<TenantConfig> configs_;
  std::unordered_map<std::uint32_t, std::size_t> slots_;
  std::uint64_t total_weight_ = 1;
  /// Heap block so TenantStats (non-movable atomics) can sit in an array.
  std::unique_ptr<TenantStats[]> stats_;
};

}  // namespace mobivine::gateway
