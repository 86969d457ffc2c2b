// M-Script vs pipelined requests: what server-side composition buys.
//
// The question this bench answers (EXPERIMENTS.md W9): a real client
// scenario is rarely one invocation — "read the location, POST it,
// SMS the confirmation" is three *dependent* round trips, each one
// paying the full wire latency before the next can start. M-Script
// ships the whole composite as one kScript frame and runs it inside
// the owning shard, so the wire is paid once per composite instead of
// once per step.
//
// Scenario matrix, written to BENCH_script.json (or argv[1]):
//
//  * requests — each composite is k=3 dependent kRequest round trips
//    (getLocation -> httpPost(reading) -> sendSms(receipt)), issued
//    sequentially on one connection because step N+1 needs step N's
//    result. Composite latency is first-send to last-response.
//  * script — the same three invocations as one kScript frame running
//    the composite in MiniJS on the shard. Same proxies, same fault
//    gates, same meters; one round trip.
//
// A hostile-budget phase then fires sandbox-killer scripts (infinite
// loop, deep recursion, unbounded string doubling, oversized result)
// with tight budgets over the same socket and counts outcomes: every
// one must come back as a TYPED status — the acceptance block records
// zero process faults, and the bench crashing IS the failure signal.
//
// Methodology mirrors bench_push_throughput: wall-clock timing on
// steady_clock, a fresh gateway+server per scenario, tracing disabled
// during timed runs. --smoke shrinks the matrix (CI perf-smoke leg);
// --trace exports an M-Scope trace of a small traced scenario
// (script.run spans + script.* counters); --metrics dumps metric
// families; --trace-only runs just the traced scenario (CI validation
// leg, checked by validate_mscope.py --require-script).
//
//   ./build/bench/bench_script_throughput [output.json]
//       [--trace trace.json] [--metrics metrics.json] [--smoke]
//       [--trace-only]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "support/histogram.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "wire/client.h"
#include "wire/protocol.h"
#include "wire/server.h"

#include "bench_io.h"

using namespace mobivine;

namespace {

const core::DescriptorStore& Store() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

gateway::GatewayConfig ScriptGatewayConfig() {
  gateway::GatewayConfig config;
  config.shards = 4;
  config.store = &Store();
  return config;
}

/// The composite, as the script plane runs it: three dependent
/// invocations, one frame. Keep in sync with RunCompositeAsRequests —
/// the comparison is only honest if both modes do identical work.
const char* kCompositeSource = R"JS(
  var loc = mobile.invoke('android', 'getLocation');
  var posted = mobile.invoke('android', 'httpPost', args.ingest, loc,
                             'text/plain');
  mobile.invoke('android', 'sendSms', args.peer, posted);
)JS";

struct ScenarioResult {
  std::string mode;
  int clients = 0;
  std::uint64_t composites = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  double composites_per_sec = 0;
  std::uint64_t p50 = 0, p95 = 0, p99 = 0;
  std::uint64_t frames_in = 0;  ///< client->server frames for the run
};

/// One composite as k=3 dependent wire round trips. Returns false if any
/// leg failed (the caller counts, the next composite still runs).
bool RunCompositeAsRequests(wire::WireClient& client,
                            std::uint64_t client_id,
                            const std::string& ingest_url,
                            const std::string& sms_peer) {
  wire::WireRequest get_location;
  get_location.client_id = client_id;
  get_location.platform = gateway::Platform::kAndroid;
  get_location.op = gateway::Op::kGetLocation;
  wire::WireResponse location;
  if (!client.Call(std::move(get_location), &location) ||
      location.status != wire::WireStatus::kOk) {
    return false;
  }

  wire::WireRequest post;
  post.client_id = client_id;
  post.platform = gateway::Platform::kAndroid;
  post.op = gateway::Op::kHttpPost;
  post.target = ingest_url;
  post.payload = location.body;  // dependency: can't start earlier
  post.content_type = "text/plain";
  wire::WireResponse posted;
  if (!client.Call(std::move(post), &posted) ||
      posted.status != wire::WireStatus::kOk) {
    return false;
  }

  wire::WireRequest sms;
  sms.client_id = client_id;
  sms.platform = gateway::Platform::kAndroid;
  sms.op = gateway::Op::kSendSms;
  sms.target = sms_peer;
  sms.payload = posted.body;  // dependency again
  wire::WireResponse sent;
  return client.Call(std::move(sms), &sent) &&
         sent.status == wire::WireStatus::kOk;
}

ScenarioResult RunScenario(bool as_script, int clients,
                           std::uint64_t composites_per_client) {
  gateway::Gateway gateway(ScriptGatewayConfig());
  wire::WireServer server(gateway, {});
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "wire server start failed: %s\n", error.c_str());
    std::exit(1);
  }
  const std::string ingest_url =
      std::string("http://") + gateway::kGatewayHttpHost + "/ingest";
  const std::string sms_peer = gateway::kGatewaySmsPeer;

  support::LatencyHistogram latency;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < clients; ++i) {
    workers.emplace_back([&, i] {
      wire::WireClient client;
      if (!client.Connect(server.port())) return;
      const std::uint64_t client_id = static_cast<std::uint64_t>(i + 1);
      for (std::uint64_t n = 0; n < composites_per_client; ++n) {
        const auto start = std::chrono::steady_clock::now();
        bool ok;
        if (as_script) {
          wire::WireScriptRequest script;
          script.client_id = client_id;
          script.source = kCompositeSource;
          script.args.emplace_back("ingest", ingest_url);
          script.args.emplace_back("peer", sms_peer);
          wire::WireResponse response;
          ok = client.CallScript(script, &response) &&
               response.status == wire::WireStatus::kOk;
        } else {
          ok = RunCompositeAsRequests(client, client_id, ingest_url,
                                      sms_peer);
        }
        const auto micros =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        latency.Record(static_cast<std::uint64_t>(micros));
        (ok ? completed : failed).fetch_add(1, std::memory_order_relaxed);
      }
      client.Close();
    });
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto& worker : workers) worker.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ScenarioResult result;
  result.mode = as_script ? "script" : "requests";
  result.clients = clients;
  result.composites =
      composites_per_client * static_cast<std::uint64_t>(clients);
  result.completed = completed.load(std::memory_order_relaxed);
  result.failed = failed.load(std::memory_order_relaxed);
  result.composites_per_sec = seconds > 0 ? result.completed / seconds : 0;
  const auto snap = latency.Snapshot();
  result.p50 = snap.PercentileRank(50.0);
  result.p95 = snap.PercentileRank(95.0);
  result.p99 = snap.PercentileRank(99.0);
  result.frames_in = server.Stats().frames_in;
  server.Stop();
  gateway.Stop();
  return result;
}

// ---------------------------------------------------------------------------
// Hostile-budget phase: sandbox kills must all be typed statuses
// ---------------------------------------------------------------------------

struct HostileResult {
  std::uint64_t total = 0;
  std::uint64_t typed_script_errors = 0;
  std::uint64_t typed_deadline = 0;
  std::uint64_t other = 0;        ///< anything else that still came back
  std::uint64_t budget_kills = 0; ///< from gateway stats — the sandbox fired
  bool server_alive_after = false;
};

HostileResult RunHostilePhase(std::uint64_t rounds) {
  gateway::GatewayConfig config = ScriptGatewayConfig();
  config.script.max_steps = 20'000;  // tight operator ceiling
  gateway::Gateway gateway(config);
  wire::WireServer server(gateway, {});
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "wire server start failed: %s\n", error.c_str());
    std::exit(1);
  }
  wire::WireClient client;
  if (!client.Connect(server.port())) {
    std::fprintf(stderr, "hostile client connect failed\n");
    std::exit(1);
  }

  const char* corpus[] = {
      "while (true) {}",
      "function f() { return f(); } f();",
      "var s = 'x'; while (true) { s = s + s; }",
      // Builds ~4 MiB then returns it: dies on the result cap.
      "var s = 'xxxxxxxxxxxxxxxx'; var i = 0;"
      " while (i < 18) { s = s + s; i = i + 1; } s;",
      "var t = 0; while (true) { t = mobile.invoke('android',"
      " 'getLocation'); }",
  };
  HostileResult result;
  for (std::uint64_t n = 0; n < rounds; ++n) {
    wire::WireScriptRequest script;
    script.client_id = n;
    script.source = corpus[n % (sizeof corpus / sizeof corpus[0])];
    script.virtual_us_budget = 200'000;
    script.max_result_bytes = 4096;
    wire::WireResponse response;
    if (!client.CallScript(script, &response)) {
      ++result.other;  // transport failure would mean the server died
      continue;
    }
    ++result.total;
    if (response.status == wire::WireStatus::kScriptError) {
      ++result.typed_script_errors;
    } else if (response.status == wire::WireStatus::kDeadlineExceeded) {
      ++result.typed_deadline;
    } else {
      ++result.other;
    }
  }
  result.budget_kills = gateway.Stats().totals.script_budget_kills;

  // The liveness probe: a healthy script still round-trips afterwards.
  wire::WireScriptRequest probe;
  probe.client_id = 1;
  probe.source = "'alive';";
  wire::WireResponse response;
  result.server_alive_after = client.CallScript(probe, &response) &&
                              response.status == wire::WireStatus::kOk &&
                              response.body == "alive";
  client.Close();
  server.Stop();
  gateway.Stop();
  return result;
}

// ---------------------------------------------------------------------------
// M-Scope traced scenario + metrics dump
// ---------------------------------------------------------------------------

void RunTraced(const std::string& trace_path,
               const std::string& metrics_path) {
  namespace trace = support::trace;
  support::MetricsRegistry metrics;
  trace::SetPerThreadCapacity(256 * 1024);
  trace::Reset();
  trace::SetEnabled(true);

  gateway::Gateway gateway(ScriptGatewayConfig());
  wire::WireServerConfig config;
  wire::WireServer server(gateway, config);
  const auto gateway_registration = gateway.RegisterMetrics(metrics);
  const auto registration = server.RegisterMetrics(metrics);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "wire server start failed: %s\n", error.c_str());
    std::exit(1);
  }
  wire::WireClient client;
  if (!client.Connect(server.port())) {
    std::fprintf(stderr, "traced client connect failed\n");
    std::exit(1);
  }
  const std::string ingest_url =
      std::string("http://") + gateway::kGatewayHttpHost + "/ingest";

  // Script traffic: composites, one scripted budget kill, one script
  // error — so script.executed, script.errors AND script.budget_kills
  // all move in the exported metrics.
  for (std::uint64_t i = 0; i < 60; ++i) {
    wire::WireScriptRequest script;
    script.client_id = i;
    script.args.emplace_back("ingest", ingest_url);
    script.args.emplace_back("peer", gateway::kGatewaySmsPeer);
    switch (i % 8) {
      case 6:
        script.source = "while (true) {}";
        script.step_budget = 5'000;
        break;
      case 7:
        script.source = "throw 'traced failure';";
        break;
      default:
        script.source = kCompositeSource;
        break;
    }
    wire::WireResponse response;
    (void)client.CallScript(script, &response);
  }
  // Mixed request traffic on the same connection: the validator's base
  // gateway checks (serve spans, op instants, counter reconciliation)
  // and --require-wire both need the request plane in the same export.
  for (std::uint64_t i = 0; i < 120; ++i) {
    wire::WireRequest request;
    request.client_id = i;
    switch (i % 3) {
      case 0:
        request.platform = gateway::Platform::kAndroid;
        request.op = gateway::Op::kHttpGet;
        request.target =
            std::string("http://") + gateway::kGatewayHttpHost + "/ping";
        break;
      case 1:
        request.platform = gateway::Platform::kIphone;
        request.op = gateway::Op::kSendSms;
        request.target = gateway::kGatewaySmsPeer;
        request.payload = "traced script message";
        break;
      default:
        request.platform = gateway::Platform::kS60;
        request.op = gateway::Op::kSegmentCount;
        request.payload = std::string(200, 'x');
        break;
    }
    wire::WireResponse response;
    (void)client.Call(std::move(request), &response);
  }
  client.Close();
  // Quiesce before snapshotting so counters reconcile and spans close.
  server.Stop();
  gateway.Stop();

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    metrics.Snapshot().WriteJson(out);
    bench::CloseOrDie(out, metrics_path);
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  std::ofstream out(trace_path);
  const trace::ExportStats stats = trace::ExportChromeTrace(out);
  bench::CloseOrDie(out, trace_path);
  trace::SetEnabled(false);
  std::printf("wrote %s (%zu events across %zu threads, %zu dropped)\n",
              trace_path.c_str(), stats.events, stats.threads, stats.dropped);
}

}  // namespace

int main(int argc, char** argv) {
  std::string output;
  std::string trace_path;
  std::string metrics_path;
  bool smoke = false;
  bool trace_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--metrics" && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--trace-only") {
      trace_only = true;
    } else {
      output = arg;
    }
  }
  if (output.empty()) output = "BENCH_script.json";
  if (trace_only) {
    if (trace_path.empty()) trace_path = "TRACE_script.json";
    std::printf("M-Scope traced script scenario:\n");
    RunTraced(trace_path, metrics_path);
    return 0;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  const std::uint64_t kPerClient = smoke ? 300 : 1'500;
  const std::vector<int> counts =
      smoke ? std::vector<int>{4} : std::vector<int>{1, 4, 8};

  std::printf("M-Script composite benchmark: 3 dependent round trips vs 1 "
              "kScript (host: %u hardware threads, gateway: 4 shards%s)\n\n",
              cores, smoke ? ", smoke" : "");
  std::printf("%-9s %-8s %11s %10s %8s %13s %9s %9s %9s %10s\n", "mode",
              "clients", "composites", "completed", "failed", "composites/s",
              "p50(us)", "p95(us)", "p99(us)", "frames_in");
  std::printf("%s\n", std::string(104, '-').c_str());

  std::vector<ScenarioResult> scenarios;
  auto report = [](const ScenarioResult& r) {
    std::printf("%-9s %-8d %11llu %10llu %8llu %13.0f %9llu %9llu %9llu "
                "%10llu\n",
                r.mode.c_str(), r.clients,
                static_cast<unsigned long long>(r.composites),
                static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.failed),
                r.composites_per_sec, static_cast<unsigned long long>(r.p50),
                static_cast<unsigned long long>(r.p95),
                static_cast<unsigned long long>(r.p99),
                static_cast<unsigned long long>(r.frames_in));
  };
  for (int clients : counts) {
    ScenarioResult requests = RunScenario(/*as_script=*/false, clients,
                                          kPerClient);
    report(requests);
    scenarios.push_back(std::move(requests));
    ScenarioResult script = RunScenario(/*as_script=*/true, clients,
                                        kPerClient);
    report(script);
    scenarios.push_back(std::move(script));
  }

  std::printf("\nhostile-budget phase (tight ceilings, sandbox-killer "
              "corpus):\n");
  const HostileResult hostile = RunHostilePhase(smoke ? 25 : 100);
  std::printf("  %llu scripts: %llu kScriptError, %llu kDeadlineExceeded, "
              "%llu other; %llu budget kills; server alive: %s\n",
              static_cast<unsigned long long>(hostile.total),
              static_cast<unsigned long long>(hostile.typed_script_errors),
              static_cast<unsigned long long>(hostile.typed_deadline),
              static_cast<unsigned long long>(hostile.other),
              static_cast<unsigned long long>(hostile.budget_kills),
              hostile.server_alive_after ? "yes" : "NO");

  // Acceptance: one kScript beats k=3 dependent round trips on p50 at
  // every client count, and every hostile script died typed.
  const ScenarioResult* requests_ref = nullptr;
  const ScenarioResult* script_ref = nullptr;
  for (const ScenarioResult& r : scenarios) {
    if (r.mode == "requests") requests_ref = &r;  // last (largest) count
    if (r.mode == "script") script_ref = &r;
  }
  double speedup = 0;
  if (requests_ref && script_ref && script_ref->p50 > 0) {
    speedup = static_cast<double>(requests_ref->p50) /
              static_cast<double>(script_ref->p50);
    std::printf("\nscript vs requests @ %d clients: p50 %llu us vs %llu us "
                "(%.2fx)\n",
                script_ref->clients,
                static_cast<unsigned long long>(script_ref->p50),
                static_cast<unsigned long long>(requests_ref->p50), speedup);
  }

  std::ofstream json(output);
  json << "{\n  \"bench\": \"script_throughput\",\n"
       << "  \"hardware_concurrency\": " << cores
       << ",\n  \"gateway_shards\": 4,\n  \"round_trips_per_composite\": 3"
       << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ScenarioResult& r = scenarios[i];
    json << "    {\"mode\": \"" << r.mode << "\", \"clients\": " << r.clients
         << ", \"composites\": " << r.composites
         << ", \"completed\": " << r.completed
         << ", \"failed\": " << r.failed << ",\n     \"composites_per_sec\": "
         << static_cast<std::uint64_t>(r.composites_per_sec)
         << ", \"p50_us\": " << r.p50 << ", \"p95_us\": " << r.p95
         << ", \"p99_us\": " << r.p99 << ", \"frames_in\": " << r.frames_in
         << "}" << (i + 1 < scenarios.size() ? "," : "") << "\n";
  }
  json << "  ],\n  \"hostile\": {\"total\": " << hostile.total
       << ", \"script_errors\": " << hostile.typed_script_errors
       << ", \"deadline_exceeded\": " << hostile.typed_deadline
       << ", \"other\": " << hostile.other
       << ", \"budget_kills\": " << hostile.budget_kills
       << ", \"server_alive_after\": "
       << (hostile.server_alive_after ? "true" : "false")
       << ", \"process_faults\": 0}";
  if (requests_ref && script_ref) {
    json << ",\n  \"acceptance\": {\"clients\": " << script_ref->clients
         << ", \"requests_p50_us\": " << requests_ref->p50
         << ", \"script_p50_us\": " << script_ref->p50
         << ", \"requests_over_script_p50\": " << speedup
         << ", \"requests_frames_in\": " << requests_ref->frames_in
         << ", \"script_frames_in\": " << script_ref->frames_in << "}";
  }
  json << "\n}\n";
  bench::CloseOrDie(json, output);
  std::printf("wrote %s\n", output.c_str());

  if (!trace_path.empty()) {
    std::printf("\nM-Scope traced script scenario:\n");
    RunTraced(trace_path, metrics_path);
  }
  return 0;
}
