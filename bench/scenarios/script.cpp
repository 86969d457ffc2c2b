// script plane (EXPERIMENTS.md W9): one kScript frame vs k=3 dependent
// round trips for the same composite (locate, POST, SMS the receipt).
// A hostile-budget phase then fires sandbox killers under tight budgets:
// each must come back as a typed status, and a crash is the failure.
// --smoke repeats the 4-client pair kSmokePasses times and reports the
// median pass's requests/script p50 ratio. It also prices MiniJS control
// flow (EXPERIMENTS.md W24): ns/step of a call, a `continue` and a
// `break` loop over ns/step of a plain arithmetic loop, the median of
// kSmokePasses passes.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <thread>

#include "common.h"
#include "minijs/interpreter.h"
#include "minijs/parser.h"

namespace mobivine::bench {
namespace {

/// The composite as the script plane runs it. Keep in sync with
/// RunCompositeAsRequests: the comparison is honest only if both modes do
/// identical work.
const char* kCompositeSource = R"JS(
  var loc = mobile.invoke('android', 'getLocation');
  var posted = mobile.invoke('android', 'httpPost', args.ingest, loc,
                             'text/plain');
  mobile.invoke('android', 'sendSms', args.peer, posted);
)JS";

const std::string kIngestUrl =
    std::string("http://") + gateway::kGatewayHttpHost + "/ingest";

/// A 4-shard gateway; `max_steps` > 0 tightens its script ceiling.
gateway::GatewayConfig ScriptGatewayConfig(std::uint64_t max_steps = 0) {
  gateway::GatewayConfig config = ShardedConfig(4);
  if (max_steps > 0) config.script.max_steps = max_steps;
  return config;
}

/// One step of a composite sent as its own request; its body feeds the
/// next step. Returns false when the round trip or the op failed.
bool CallStep(wire::WireClient& client, std::uint64_t client_id,
              gateway::Op op, const std::string& target,
              const std::string& payload, wire::WireResponse* response) {
  wire::WireRequest request;
  request.client_id = client_id;
  request.platform = gateway::Platform::kAndroid;
  request.op = op;
  request.target = target;
  request.payload = payload;
  if (op == gateway::Op::kHttpPost) request.content_type = "text/plain";
  return client.Call(std::move(request), response) &&
         response->status == wire::WireStatus::kOk;
}

/// One composite as k=3 dependent round trips: each step needs the
/// previous step's result, so none can start earlier.
bool RunCompositeAsRequests(wire::WireClient& client,
                            std::uint64_t client_id) {
  wire::WireResponse location;
  wire::WireResponse posted;
  wire::WireResponse sent;
  return CallStep(client, client_id, gateway::Op::kGetLocation, "", "",
                  &location) &&
         CallStep(client, client_id, gateway::Op::kHttpPost, kIngestUrl,
                  location.body, &posted) &&
         CallStep(client, client_id, gateway::Op::kSendSms,
                  gateway::kGatewaySmsPeer, posted.body, &sent);
}

wire::WireScriptRequest CompositeScript(std::uint64_t client_id) {
  wire::WireScriptRequest script;
  script.client_id = client_id;
  script.source = kCompositeSource;
  script.args.emplace_back("ingest", kIngestUrl);
  script.args.emplace_back("peer", gateway::kGatewaySmsPeer);
  return script;
}

struct ScriptRun {
  std::string mode;
  int clients = 0;
  std::uint64_t p50 = 0;
  std::uint64_t frames_in = 0;
  Row row;
};

ScriptRun RunScenario(bool as_script, int clients,
                      std::uint64_t composites_per_client) {
  WireStack stack(ScriptGatewayConfig());
  support::LatencyHistogram latency;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  std::vector<std::thread> workers;
  for (int i = 0; i < clients; ++i) {
    workers.emplace_back([&, i] {
      wire::WireClient client;
      Connect(client, stack.server.port());
      const auto client_id = static_cast<std::uint64_t>(i + 1);
      for (std::uint64_t n = 0; n < composites_per_client; ++n) {
        const Clock::time_point start = Clock::now();
        wire::WireResponse response;
        const bool ok =
            as_script ? client.CallScript(CompositeScript(client_id),
                                          &response) &&
                            response.status == wire::WireStatus::kOk
                      : RunCompositeAsRequests(client, client_id);
        latency.Record(MicrosSince(start));
        (ok ? completed : failed).fetch_add(1, std::memory_order_relaxed);
      }
      client.Close();
    });
  }
  const Clock::time_point start = Clock::now();
  for (auto& worker : workers) worker.join();
  const double seconds = SecondsSince(start);
  const support::HistogramSnapshot snap = latency.Snapshot();

  ScriptRun run;
  run.mode = as_script ? "script" : "requests";
  run.clients = clients;
  run.p50 = snap.PercentileRank(50.0);
  run.frames_in = stack.server.Stats().frames_in;
  stack.Stop();
  const std::uint64_t done = completed.load();
  run.row.Add("mode", run.mode, {"mode", -9})
      .Add("clients", clients, {"clients", -8})
      .Add("composites",
           composites_per_client * static_cast<std::uint64_t>(clients),
           {"composites", 11})
      .Add("completed", done, {"completed", 10})
      .Add("failed", failed.load(), {"failed", 8})
      .Add("composites_per_sec",
           static_cast<std::uint64_t>(seconds > 0 ? done / seconds : 0),
           {"composites/s", 13})
      .Add("p50_us", run.p50, {"p50(us)", 9})
      .Add("p95_us", snap.PercentileRank(95.0), {"p95(us)", 9})
      .Add("p99_us", snap.PercentileRank(99.0), {"p99(us)", 9})
      .Add("frames_in", run.frames_in, {"frames_in", 10});
  return run;
}

/// Sandbox killers under tight ceilings: each must come back typed.
Row RunHostilePhase(std::uint64_t rounds) {
  WireStack stack(ScriptGatewayConfig(/*max_steps=*/20'000));
  wire::WireClient client;
  Connect(client, stack.server.port());

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
  std::uint64_t total = 0;
  std::uint64_t script_errors = 0;
  std::uint64_t deadline = 0;
  std::uint64_t other = 0;  // a transport failure would mean the server died
  for (std::uint64_t n = 0; n < rounds; ++n) {
    wire::WireScriptRequest script;
    script.client_id = n;
    script.source = corpus[n % (sizeof corpus / sizeof corpus[0])];
    script.virtual_us_budget = 200'000;
    script.max_result_bytes = 4096;
    wire::WireResponse response;
    if (!client.CallScript(script, &response)) {
      ++other;
      continue;
    }
    ++total;
    if (response.status == wire::WireStatus::kScriptError) {
      ++script_errors;
    } else if (response.status == wire::WireStatus::kDeadlineExceeded) {
      ++deadline;
    } else {
      ++other;
    }
  }
  const std::uint64_t budget_kills =
      stack.gateway.Stats().totals.script_budget_kills;

  // Liveness probe: a healthy script still round-trips afterwards.
  wire::WireScriptRequest probe;
  probe.client_id = 1;
  probe.source = "'alive';";
  wire::WireResponse response;
  const bool alive = client.CallScript(probe, &response) &&
                     response.status == wire::WireStatus::kOk &&
                     response.body == "alive";
  client.Close();
  stack.Stop();

  Row row;
  row.Add("total", total, {"scripts", 8})
      .Add("script_errors", script_errors, {"kScriptError", 13})
      .Add("deadline_exceeded", deadline, {"kDeadlineExceeded", 18})
      .Add("other", other, {"other", 6})
      .Add("budget_kills", budget_kills, {"budget-kills", 13})
      .Add("server_alive_after", alive, {"alive", 6})
      .Add("process_faults", 0);
  return row;
}

/// The step-cost programs of a --smoke run. The first is the base, a
/// plain arithmetic loop; each other one is a loop of the same length
/// whose steps are mostly one kind of jump.
struct StepProgram {
  const char* label;
  const char* ratio_key;  ///< ns/step over the base's; null for the base
  const char* source;
};
constexpr StepProgram kStepPrograms[] = {
    {"arithmetic", nullptr,
     "var s = 0; for (var i = 0; i < 20000; i++) { s = s + i; }"},
    {"call", "minijs_call_step_ratio",
     "function f(x) { return x; }"
     " var s = 0; for (var i = 0; i < 20000; i++) { s = s + f(i); }"},
    {"continue", "minijs_continue_step_ratio",
     "for (var i = 0; i < 20000; i++) { continue; }"},
    {"break", "minijs_break_step_ratio",
     "for (var i = 0; i < 20000; i++) { while (true) { break; } }"},
};
constexpr std::size_t kStepProgramCount = std::size(kStepPrograms);

/// ns/step of one run of `program` in a fresh default interpreter; the
/// parse is not timed.
double NanosPerStep(const std::shared_ptr<const minijs::Program>& program) {
  minijs::Interpreter interpreter;
  const Clock::time_point start = Clock::now();
  (void)interpreter.Run(program);
  const double nanos =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  return nanos / static_cast<double>(interpreter.steps());
}

/// Each pass runs every program once and divides by that pass's base, so
/// host speed cancels. Each ratio reports its median pass with the min
/// and max beside it.
Row MeasureStepCosts() {
  std::vector<std::shared_ptr<const minijs::Program>> programs;
  for (const StepProgram& program : kStepPrograms) {
    programs.push_back(std::make_shared<const minijs::Program>(
        minijs::ParseProgram(program.source)));
  }
  std::array<std::vector<double>, kStepProgramCount> nanos;  // [program][pass]
  std::printf("\nminijs ns/step, %d passes:\n", kSmokePasses);
  for (int pass = 0; pass < kSmokePasses; ++pass) {
    std::printf("  pass %d:", pass + 1);
    for (std::size_t i = 0; i < kStepProgramCount; ++i) {
      nanos[i].push_back(NanosPerStep(programs[i]));
      std::printf("  %s %.1f", kStepPrograms[i].label, nanos[i].back());
    }
    std::printf("\n");
  }
  std::vector<double> base = nanos[0];
  std::sort(base.begin(), base.end());
  Row overhead;
  overhead.Add("minijs_base_ns_per_step", base[(base.size() - 1) / 2]);
  for (std::size_t i = 1; i < kStepProgramCount; ++i) {
    std::vector<double> ratios;
    for (int pass = 0; pass < kSmokePasses; ++pass) {
      ratios.push_back(nanos[i][pass] / nanos[0][pass]);
    }
    std::sort(ratios.begin(), ratios.end());
    const double median = ratios[(ratios.size() - 1) / 2];
    const std::string key = kStepPrograms[i].ratio_key;
    std::printf("%s %.2f (min %.2f, max %.2f)\n", key.c_str(), median,
                ratios.front(), ratios.back());
    overhead.Add(key, median)
        .Add(key + "_min", ratios.front())
        .Add(key + "_max", ratios.back());
  }
  overhead.Add("repeat", kSmokePasses);
  return overhead;
}

}  // namespace

/// The largest client count's requests/script pair of one pass.
struct ScriptPass {
  ScriptRun requests;
  ScriptRun script;
  double ratio = 0;  ///< requests p50 / script p50
};

/// A --smoke run makes kSmokePasses passes, a full run one. With more
/// than one pass the acceptance reports the median pass's ratio with the
/// min and max beside it, and each scenario row carries its `pass`.
Row RunScript(const Options& options) {
  Row doc = ResultDocument("script_throughput");
  const std::uint64_t per_client = options.smoke ? 300 : 1'500;
  const std::vector<int> counts =
      options.smoke ? std::vector<int>{4} : std::vector<int>{1, 4, 8};
  const int pass_count = options.smoke ? kSmokePasses : 1;
  std::printf("3 dependent round trips vs 1 kScript, gateway: 4 shards\n\n");

  Table table;
  std::vector<Row> scenarios;
  std::vector<ScriptPass> passes;
  for (int pass = 0; pass < pass_count; ++pass) {
    for (int clients : counts) {
      ScriptPass pair{RunScenario(/*as_script=*/false, clients, per_client),
                      RunScenario(/*as_script=*/true, clients, per_client)};
      for (ScriptRun* run : {&pair.requests, &pair.script}) {
        table.Print(run->row);
        if (pass_count > 1) run->row.Add("pass", pass);
        scenarios.push_back(run->row);
      }
      pair.ratio = pair.script.p50 > 0
                       ? static_cast<double>(pair.requests.p50) /
                             static_cast<double>(pair.script.p50)
                       : 0;
      if (clients == counts.back()) passes.push_back(std::move(pair));
    }
  }

  std::printf("\nhostile-budget phase (tight ceilings, sandbox-killer "
              "corpus):\n");
  const Row hostile = RunHostilePhase(options.smoke ? 25 : 100);
  Table().Print(hostile);
  doc.Add("gateway_shards", 4)
      .Add("round_trips_per_composite", 3)
      .Add("scenarios", scenarios)
      .Add("hostile", hostile);

  // Acceptance at the largest client count: one kScript beats k=3
  // dependent round trips on p50.
  std::sort(passes.begin(), passes.end(),
            [](const ScriptPass& a, const ScriptPass& b) {
              return a.ratio < b.ratio;
            });
  const ScriptPass& median = passes[(passes.size() - 1) / 2];
  const ScriptRun& requests = median.requests;
  const ScriptRun& script = median.script;
  std::printf("\nscript vs requests @ %d clients: p50 %llu us vs %llu us "
              "(%.2fx)\n",
              script.clients, static_cast<unsigned long long>(script.p50),
              static_cast<unsigned long long>(requests.p50), median.ratio);
  if (pass_count > 1) {
    std::printf("median of %d passes: requests_over_script_p50 %.2f "
                "(min %.2f, max %.2f)\n",
                pass_count, median.ratio, passes.front().ratio,
                passes.back().ratio);
  }
  Row acceptance;
  acceptance.Add("clients", script.clients)
      .Add("requests_p50_us", requests.p50)
      .Add("script_p50_us", script.p50)
      .Add("requests_over_script_p50", median.ratio);
  if (pass_count > 1) {
    acceptance.Add("requests_over_script_p50_min", passes.front().ratio)
        .Add("requests_over_script_p50_max", passes.back().ratio)
        .Add("repeat", pass_count);
  }
  acceptance.Add("requests_frames_in", requests.frames_in)
      .Add("script_frames_in", script.frames_in);
  doc.Add("acceptance", acceptance);
  if (options.smoke) doc.Add("overhead", MeasureStepCosts());
  return doc;
}

/// Composites, one scripted budget kill and one script error (so
/// script.executed, script.errors and script.budget_kills all move),
/// then the traced request mix on the same connection: the validator's
/// gateway checks and --require-wire need the request plane too.
void TraceScript(const Options& options) {
  TracedRun traced;
  WireStack stack(ScriptGatewayConfig());
  const auto gateway_registration =
      stack.gateway.RegisterMetrics(traced.metrics());
  const auto wire_registration =
      stack.server.RegisterMetrics(traced.metrics());
  wire::WireClient client;
  Connect(client, stack.server.port());

  for (std::uint64_t i = 0; i < 60; ++i) {
    wire::WireScriptRequest script = CompositeScript(i);
    if (i % 8 == 6) {
      script.source = "while (true) {}";
      script.step_budget = 5'000;
    } else if (i % 8 == 7) {
      script.source = "throw 'traced failure';";
    }
    wire::WireResponse response;
    (void)client.CallScript(script, &response);
  }
  CallTracedMix(client, 120);
  client.Close();
  stack.Stop();
  traced.Write(options);
}

}  // namespace mobivine::bench
