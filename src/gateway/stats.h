// GatewayStats: the observability plane of M-Gateway.
//
// One ShardStats block per shard, written with relaxed atomics by exactly
// two parties — the shard's worker (service counters, latency histogram)
// and submitting threads (admission counters) — and snapshotted by anyone
// at any time without stopping either. A snapshot is internally consistent
// per counter (each is a single atomic) but not across counters; the
// invariants tests assert (accepted == served + queue backlog, etc.) hold
// exactly once the gateway is quiescent.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "support/histogram.h"

namespace mobivine::gateway {

/// Point-in-time copy of one shard's counters.
struct ShardSnapshot {
  std::uint64_t accepted = 0;   ///< admitted into the shard queue
  std::uint64_t shed = 0;       ///< rejected at admission (kOverloaded)
  std::uint64_t ok = 0;         ///< served successfully
  std::uint64_t failed = 0;     ///< served, ended in a ProxyError
  std::uint64_t timed_out = 0;  ///< deadline expired before service
  std::uint64_t retries = 0;    ///< extra retry rounds beyond the first
  std::uint64_t failovers = 0;  ///< dispatches moved to another platform
  std::uint64_t hedges_fired = 0;  ///< hedge dispatches launched
  std::uint64_t hedges_won = 0;    ///< hedge dispatches that produced the win
  std::uint64_t breaker_opens = 0;  ///< closed/half-open -> open transitions
  std::uint64_t faults_injected = 0;  ///< FaultPlan decisions that fired
  /// M-Script: executions dequeued and run (also counted in accepted +
  /// ok/failed/timed_out — scripts ride the same serving machinery).
  std::uint64_t scripts = 0;
  std::uint64_t script_errors = 0;  ///< kScriptError outcomes (throw/budget)
  /// Sandbox budget kills within script_errors/timed_out: step-limit,
  /// virtual-time and result-cap violations — each surfaced as a typed
  /// status, never a process fault.
  std::uint64_t script_budget_kills = 0;
  std::uint64_t script_steps = 0;        ///< interpreter steps executed
  std::uint64_t script_invocations = 0;  ///< host binding calls from scripts
  /// Parse-cache outcomes: a hit reused a cached AST (fresh sandbox
  /// either way), a miss paid the lexer/parser. hits + misses == scripts
  /// once quiescent (every execution is one or the other).
  std::uint64_t script_cache_hits = 0;
  std::uint64_t script_cache_misses = 0;
  std::uint64_t queue_depth = 0;      ///< at snapshot time
  std::uint64_t max_queue_depth = 0;  ///< high-water mark since start
  /// Completions (ok + failed + timed_out).
  support::HistogramSnapshot latency;

  [[nodiscard]] std::uint64_t completed() const {
    return ok + failed + timed_out;
  }
};

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

/// The live, written-in-place side. All counters relaxed: they are
/// independent monotonic event counts, not a synchronization protocol.
class ShardStats {
 public:
  void OnAccepted() { accepted_.fetch_add(1, std::memory_order_relaxed); }
  void OnShed() { shed_.fetch_add(1, std::memory_order_relaxed); }
  void OnOk() { ok_.fetch_add(1, std::memory_order_relaxed); }
  void OnFailed() { failed_.fetch_add(1, std::memory_order_relaxed); }
  void OnTimedOut() { timed_out_.fetch_add(1, std::memory_order_relaxed); }
  void OnRetry() { retries_.fetch_add(1, std::memory_order_relaxed); }
  void OnFailover() { failovers_.fetch_add(1, std::memory_order_relaxed); }
  void OnHedgeFired() {
    hedges_fired_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnHedgeWon() { hedges_won_.fetch_add(1, std::memory_order_relaxed); }
  void OnBreakerOpen() {
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnFaultInjected() {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnScript() { scripts_.fetch_add(1, std::memory_order_relaxed); }
  void OnScriptError() {
    script_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnScriptBudgetKill() {
    script_budget_kills_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnScriptSteps(std::uint64_t steps) {
    script_steps_.fetch_add(steps, std::memory_order_relaxed);
  }
  void OnScriptInvocations(std::uint64_t count) {
    script_invocations_.fetch_add(count, std::memory_order_relaxed);
  }
  void OnScriptCacheHit() {
    script_cache_hits_.fetch_add(1, std::memory_order_relaxed);
  }
  void OnScriptCacheMiss() {
    script_cache_misses_.fetch_add(1, std::memory_order_relaxed);
  }

  void RecordLatency(std::uint64_t micros) { latency_.Record(micros); }

  /// Monotonic high-water mark of the queue depth seen at admission.
  void ObserveDepth(std::uint64_t depth) {
    std::uint64_t seen = max_depth_.load(std::memory_order_relaxed);
    while (depth > seen &&
           !max_depth_.compare_exchange_weak(seen, depth,
                                             std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] ShardSnapshot Snapshot(std::uint64_t queue_depth) const {
    ShardSnapshot snap;
    snap.accepted = accepted_.load(std::memory_order_relaxed);
    snap.shed = shed_.load(std::memory_order_relaxed);
    snap.ok = ok_.load(std::memory_order_relaxed);
    snap.failed = failed_.load(std::memory_order_relaxed);
    snap.timed_out = timed_out_.load(std::memory_order_relaxed);
    snap.retries = retries_.load(std::memory_order_relaxed);
    snap.failovers = failovers_.load(std::memory_order_relaxed);
    snap.hedges_fired = hedges_fired_.load(std::memory_order_relaxed);
    snap.hedges_won = hedges_won_.load(std::memory_order_relaxed);
    snap.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
    snap.faults_injected = faults_injected_.load(std::memory_order_relaxed);
    snap.scripts = scripts_.load(std::memory_order_relaxed);
    snap.script_errors = script_errors_.load(std::memory_order_relaxed);
    snap.script_budget_kills =
        script_budget_kills_.load(std::memory_order_relaxed);
    snap.script_steps = script_steps_.load(std::memory_order_relaxed);
    snap.script_invocations =
        script_invocations_.load(std::memory_order_relaxed);
    snap.script_cache_hits =
        script_cache_hits_.load(std::memory_order_relaxed);
    snap.script_cache_misses =
        script_cache_misses_.load(std::memory_order_relaxed);
    snap.queue_depth = queue_depth;
    snap.max_queue_depth = max_depth_.load(std::memory_order_relaxed);
    snap.latency = latency_.Snapshot();
    return snap;
  }

 private:
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> hedges_fired_{0};
  std::atomic<std::uint64_t> hedges_won_{0};
  std::atomic<std::uint64_t> breaker_opens_{0};
  std::atomic<std::uint64_t> faults_injected_{0};
  std::atomic<std::uint64_t> scripts_{0};
  std::atomic<std::uint64_t> script_errors_{0};
  std::atomic<std::uint64_t> script_budget_kills_{0};
  std::atomic<std::uint64_t> script_steps_{0};
  std::atomic<std::uint64_t> script_invocations_{0};
  std::atomic<std::uint64_t> script_cache_hits_{0};
  std::atomic<std::uint64_t> script_cache_misses_{0};
  std::atomic<std::uint64_t> max_depth_{0};
  support::LatencyHistogram latency_;
};

/// Sum shard snapshots into `totals` (histograms merged).
[[nodiscard]] GatewaySnapshot Aggregate(std::vector<ShardSnapshot> shards);

}  // namespace mobivine::gateway
