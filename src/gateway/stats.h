// GatewayStats: the observability plane of M-Gateway.
//
// One ShardStats block per shard, written with relaxed atomics by exactly
// two parties — the shard's worker (service counters, latency histogram)
// and submitting threads (admission counters) — and snapshotted by anyone
// at any time without stopping either. A snapshot is internally consistent
// per counter (each is a single atomic) but not across counters; the
// invariants tests assert (accepted == served + queue backlog, etc.) hold
// exactly once the gateway is quiescent.
//
// Every event counter is declared once, as a row of a counter table
// (support/counters.h): MOBIVINE_GATEWAY_SHARD_COUNTERS here,
// MOBIVINE_GATEWAY_TENANT_COUNTERS in gateway/tenant.h. The push feed's
// mutex-guarded counters use the same {metric, field} rows
// (MOBIVINE_GATEWAY_PUSH_COUNTERS in gateway/push.h) for their
// cross-shard sum and export.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/counters.h"
#include "support/histogram.h"

namespace mobivine::gateway {

/// The shard plane's event counters: X(field, metric name, doc).
#define MOBIVINE_GATEWAY_SHARD_COUNTERS(X)                                  \
  X(accepted, "accepted", "admitted into the shard queue")                  \
  X(shed, "shed", "rejected at admission (kOverloaded)")                    \
  X(ok, "ok", "served successfully")                                        \
  X(failed, "failed", "served, ended in any error but kDeadlineExceeded")   \
  X(timed_out, "timed_out",                                                 \
    "every kDeadlineExceeded completion: queue or retry expiry, a "         \
    "backend's own deadline error, a script's virtual-time budget")         \
  X(retries, "retries", "extra retry rounds beyond the first")              \
  X(failovers, "failovers", "dispatches moved to another platform")         \
  X(hedges_fired, "hedges_fired", "hedge dispatches launched")              \
  X(hedges_won, "hedges_won", "hedge dispatches that produced the win")     \
  X(breaker_opens, "breaker_opens", "closed/half-open -> open transitions") \
  X(faults_injected, "faults_injected", "FaultPlan decisions that fired")   \
  X(scripts, "script.executed",                                             \
    "M-Script executions dequeued and run (also counted in accepted + "     \
    "ok/failed/timed_out: scripts ride the same serving machinery)")        \
  X(script_errors, "script.errors",                                         \
    "kScriptError outcomes (throw/budget)")                                 \
  X(script_budget_kills, "script.budget_kills",                             \
    "sandbox budget kills within script_errors/timed_out: step-limit, "     \
    "virtual-time and result-cap violations, each surfaced as a typed "     \
    "status, never a process fault")                                        \
  X(script_steps, "script.steps", "interpreter steps executed")             \
  X(script_invocations, "script.invocations",                               \
    "host binding calls from scripts")                                      \
  X(script_cache_hits, "script.cache_hits",                                 \
    "parse-cache hits: reused a cached AST (fresh sandbox either way); "    \
    "hits + misses == scripts once quiescent")                              \
  X(script_cache_misses, "script.cache_misses",                             \
    "parse-cache misses: paid the lexer/parser")                            \
  X(queue_depth, "queue_depth", "queued at snapshot time", kGauge)          \
  X(max_queue_depth, "max_queue_depth",                                     \
    "high-water mark since start; the total is the deepest shard's", kGauge)

/// Point-in-time copy of one shard's counters.
struct ShardSnapshot {
  MOBIVINE_GATEWAY_SHARD_COUNTERS(MOBIVINE_COUNTER_FIELD)
  /// Completions (ok + failed + timed_out).
  support::HistogramSnapshot latency;

  [[nodiscard]] std::uint64_t completed() const {
    return ok + failed + timed_out;
  }
};

enum class ShardCounter : std::size_t {
  MOBIVINE_GATEWAY_SHARD_COUNTERS(MOBIVINE_COUNTER_ENUM)
};
inline constexpr auto kShardCounters =
    MOBIVINE_COUNTER_ROWS(ShardSnapshot, MOBIVINE_GATEWAY_SHARD_COUNTERS);

/// Aggregate view plus the per-shard breakdown.
struct GatewaySnapshot {
  std::vector<ShardSnapshot> shards;
  ShardSnapshot totals;  ///< counters summed, histograms merged

  [[nodiscard]] std::uint64_t p50_micros() const {
    return totals.latency.Percentile(0.50);
  }
  [[nodiscard]] std::uint64_t p95_micros() const {
    return totals.latency.Percentile(0.95);
  }
  [[nodiscard]] std::uint64_t p99_micros() const {
    return totals.latency.Percentile(0.99);
  }
};

/// The live, written-in-place side: the table's rows plus the latency
/// histogram.
class ShardStats : public support::CounterSet<ShardCounter, kShardCounters> {
 public:
  void RecordLatency(std::uint64_t micros) { latency_.Record(micros); }

  /// Monotonic high-water mark of the queue depth seen at admission.
  void ObserveDepth(std::uint64_t depth) {
    Max(ShardCounter::max_queue_depth, depth);
  }

  /// `queue_depth` is read off the queue itself, not kept here.
  [[nodiscard]] ShardSnapshot Snapshot(std::uint64_t queue_depth) const {
    ShardSnapshot snap;
    LoadInto(snap);
    snap.queue_depth = queue_depth;
    snap.latency = latency_.Snapshot();
    return snap;
  }

 private:
  support::LatencyHistogram latency_;
};

/// Sum shard snapshots into `totals` (histograms merged).
[[nodiscard]] GatewaySnapshot Aggregate(std::vector<ShardSnapshot> shards);

}  // namespace mobivine::gateway
