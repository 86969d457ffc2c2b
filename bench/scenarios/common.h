// Shared pieces of the scenario driver (bench/scenarios/main.cpp): the
// descriptor store, the parsed command line, result rows that print as a
// table and serialize as JSON from one field list, the traced-run
// envelope, the closed-loop harness and the request mixes.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "gateway/gateway.h"
#include "support/fault.h"
#include "support/histogram.h"
#include "support/metrics.h"
#include "support/seed.h"
#include "wire/client.h"
#include "wire/protocol.h"
#include "wire/server.h"

namespace mobivine::bench {

/// A gateway config with `shards` shards over the shipped descriptors.
gateway::GatewayConfig ShardedConfig(int shards);

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point start);
std::uint64_t MicrosSince(Clock::time_point start);
/// Process CPU time (user + sys) consumed so far, in microseconds.
double CpuMicros();

/// Print "error: <message>" on stderr and exit with status 1. Safe to
/// call from a load thread: it flushes stdio and skips the static
/// destructors other threads may still be using.
[[noreturn]] void Fail(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Passes of a plane's --smoke ratios. One short pass on a shared host
/// swings a ratio by several points; the median of three absorbs a noisy
/// pass.
constexpr int kSmokePasses = 3;

/// The command line one plane was given (usage: main.cpp).
struct Options {
  std::string output;        ///< result JSON; default BENCH_<plane>.json
  std::string trace_path;    ///< run the traced scenario and export here
  std::string metrics_path;  ///< metrics dump of the traced scenario
  bool trace_only = false;   ///< skip the timed scenarios
  bool smoke = false;        ///< shortened matrix (the CI perf smoke)
  std::vector<support::FaultPlan> fault_plans;  ///< failover plane only
};

/// How a field shows in the printed table. A field without a header is
/// JSON-only.
struct Column {
  const char* header = nullptr;
  int width = 0;      ///< negative: left-aligned
  int precision = 0;  ///< decimals of a floating-point cell
};

/// One result record. Each field is listed once, in JSON key order, and
/// renders both as a JSON member and, when it has a Column, as a table
/// cell.
class Row {
 public:
  template <typename T>
  Row& Add(const std::string& key, const T& value, Column column = {}) {
    std::string json;
    std::string cell;
    if constexpr (std::is_same_v<T, bool>) {
      json = value ? "true" : "false";
      cell = value ? "yes" : "no";
    } else if constexpr (std::is_floating_point_v<T>) {
      json = Format("%.*g", 6, static_cast<double>(value));
      cell = Format("%.*f", column.precision, static_cast<double>(value));
    } else if constexpr (std::is_integral_v<T>) {
      json = std::to_string(value);
      cell = json;
    } else {
      cell = std::string(value);
      json = "\"" + cell + "\"";
    }
    fields_.push_back({key, std::move(json), std::move(cell), column});
    return *this;
  }
  /// A nested object; its columns join this row's table line.
  Row& Add(const std::string& key, const Row& value);
  /// An array of objects, one per line (JSON only).
  Row& Add(const std::string& key, const std::vector<Row>& rows);
  /// An array of numbers (JSON only).
  Row& Add(const std::string& key, const std::vector<double>& values);

  /// The table line: column headers, or this row's cells.
  std::string Cells(bool header) const;
  /// `{"key": value, ...}` on one line, or as a result file (`document`):
  /// one member per line.
  std::string Json(bool document = false) const;

 private:
  struct Field {
    std::string key;
    std::string json;
    std::string cell;
    Column column;
  };
  static std::string Format(const char* format, int precision,
                            double value);
  std::vector<Field> fields_;
};

/// Prints rows as they arrive, the header and a rule before the first.
class Table {
 public:
  void Print(const Row& row);

 private:
  bool header_printed_ = false;
};

/// A result file's first members: "bench" and "hardware_concurrency".
Row ResultDocument(const char* bench);

/// Write `doc` to `path` through CloseOrDie and report it.
void WriteResult(const Row& doc, const std::string& path);

/// The envelope around a plane's traced scenario. Construction sizes,
/// clears and enables the span recorder; the scenario registers its
/// metric sources on metrics(), runs, and quiesces its stack so counters
/// reconcile and every span closes; Write() then exports the metrics
/// dump (when one was asked for) and the Chrome trace.
class TracedRun {
 public:
  TracedRun();
  support::MetricsRegistry& metrics() { return metrics_; }
  void Write(const Options& options);

 private:
  support::MetricsRegistry metrics_;
};

/// Request `i` of the traced mix: a GET, a property-carrying location
/// read, an SMS and a segment count in turn, so every span source fires.
/// `Request` is gateway::Request or wire::WireRequest.
template <typename Request>
Request TracedRequest(std::uint64_t i) {
  constexpr std::pair<gateway::Platform, gateway::Op> kMix[] = {
      {gateway::Platform::kAndroid, gateway::Op::kHttpGet},
      {gateway::Platform::kS60, gateway::Op::kGetLocation},
      {gateway::Platform::kIphone, gateway::Op::kSendSms},
      {gateway::Platform::kS60, gateway::Op::kSegmentCount}};
  Request request;
  request.client_id = i;
  request.platform = kMix[i % 4].first;
  request.op = kMix[i % 4].second;
  if (request.op == gateway::Op::kHttpGet) {
    request.target =
        std::string("http://") + gateway::kGatewayHttpHost + "/ping";
  } else if (request.op == gateway::Op::kGetLocation) {
    request.properties.emplace_back("horizontalAccuracy", 50LL);
    request.properties.emplace_back("powerConsumption",
                                    core::PropertyValue(std::string("low")));
  } else if (request.op == gateway::Op::kSendSms) {
    request.target = gateway::kGatewaySmsPeer;
    request.payload = "traced message";
  } else {
    request.payload = std::string(200, 'x');
  }
  return request;
}

/// Send `count` requests of the traced mix on `client`, one at a time.
void CallTracedMix(wire::WireClient& client, std::uint64_t count);

/// A gateway with a started wire server in front of it. Fails the
/// process when the server cannot start.
struct WireStack {
  explicit WireStack(const gateway::GatewayConfig& config,
                     const wire::WireServerConfig& server_config = {});
  /// Server first, then gateway: the wire shutdown contract.
  void Stop();

  gateway::Gateway gateway;
  wire::WireServer server;
};

/// Connect `client` to `port` or fail the process.
void Connect(wire::WireClient& client, std::uint16_t port);

/// The traffic generator's default op/platform mix (gateway/traffic.h),
/// re-rolled so socket runs offer the same work as in-process ones.
wire::WireRequest MixedRequest(support::SplitMix64& rng,
                               std::uint64_t clients);

/// What one load thread did.
struct Tally {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  support::LatencyHistogram latency;
};

struct ClosedLoopResult {
  std::uint64_t completed = 0;
  std::uint64_t ok = 0;
  double wall_seconds = 0;
  double requests_per_sec = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
};

/// Body of load thread `thread`: issue `requests`, tally into `tally`.
using LoadThread = std::function<void(int thread, std::uint64_t requests,
                                      bool warmup, Tally& tally)>;

/// Run `threads` load threads for an untimed warm-up of a tenth of
/// `requests_per_thread`, call `warmed` (when set), then time the full
/// run. Latency percentiles are client-observed, merged over threads.
/// Fails the process if any thread completed fewer than it issued.
ClosedLoopResult RunClosedLoop(int threads, std::uint64_t requests_per_thread,
                               const LoadThread& load,
                               const std::function<void()>& warmed = {});

/// Run a plane's timed scenarios and return its result document.
Row RunGateway(const Options& options);
Row RunFailover(const Options& options);
Row RunWire(const Options& options);
Row RunCluster(const Options& options);
Row RunPush(const Options& options);
Row RunScript(const Options& options);
Row RunFleet(const Options& options);

/// Run a plane's traced scenario (TracedRun).
void TraceGateway(const Options& options);
void TraceWire(const Options& options);
void TraceCluster(const Options& options);
void TracePush(const Options& options);
void TraceScript(const Options& options);
void TraceFleet(const Options& options);

}  // namespace mobivine::bench
