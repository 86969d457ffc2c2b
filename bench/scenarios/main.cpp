// bench_scenarios: the serving-plane scenario driver. Each plane writes
// one BENCH_<plane>.json (EXPERIMENTS.md W2-W10) and, with --trace, runs
// its traced M-Scope scenario (W3).
//
//   ./build/bench/bench_scenarios <plane> [out.json] [flags]
//   ./build/bench/bench_scenarios          # every plane but failover
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common.h"

using namespace mobivine::bench;

namespace {

struct Plane {
  const char* name;
  Row (*run)(const Options&);
  void (*trace)(const Options&);  ///< null: no traced scenario
  bool smoke;                     ///< takes --smoke
  bool fault_plans;               ///< needs --fault-plan
};

constexpr Plane kPlanes[] = {
    {"gateway", RunGateway, TraceGateway, false, false},
    {"failover", RunFailover, nullptr, false, true},
    {"wire", RunWire, TraceWire, true, false},
    {"cluster", RunCluster, TraceCluster, true, false},
    {"push", RunPush, TracePush, true, false},
    {"script", RunScript, TraceScript, true, false},
    {"fleet", RunFleet, TraceFleet, false, false},
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(
      stderr,
      "error: %s\n"
      "usage: bench_scenarios [<plane> [out.json] [flags]]\n"
      "  planes: gateway failover wire cluster push script fleet\n"
      "  no arguments: every plane but failover, default outputs\n"
      "  --trace T.json      also run the traced scenario, export to T\n"
      "  --metrics M.json    metrics dump of the traced scenario\n"
      "  --trace-only        only the traced scenario (default trace\n"
      "                      TRACE_<plane>.json)\n"
      "  --smoke             shortened matrix (wire cluster push script)\n"
      "  --fault-plan SPEC   failover only, one or more (support/fault.h)\n",
      error);
  std::exit(2);
}

Options Parse(const Plane& plane, int argc, char** argv) {
  Options options;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg[0] != '-') {
      if (!options.output.empty()) Usage(("extra argument " + arg).c_str());
      options.output = arg;
    } else if (plane.trace && arg == "--trace-only") {
      options.trace_only = true;
    } else if (plane.trace && arg == "--trace" && has_value) {
      options.trace_path = argv[++i];
    } else if (plane.trace && arg == "--metrics" && has_value) {
      options.metrics_path = argv[++i];
    } else if (plane.smoke && arg == "--smoke") {
      options.smoke = true;
    } else if (plane.fault_plans && arg == "--fault-plan" && has_value) {
      options.fault_plans.emplace_back(argv[++i]);
    } else {
      Usage(("unknown flag, or flag without its value, for " +
             std::string(plane.name) + ": " + arg)
                .c_str());
    }
  }
  if (plane.fault_plans && options.fault_plans.empty()) {
    Usage("failover needs at least one --fault-plan");
  }
  const std::string name = plane.name;
  if (options.output.empty()) options.output = "BENCH_" + name + ".json";
  if (options.trace_only && options.trace_path.empty()) {
    options.trace_path = "TRACE_" + name + ".json";
  }
  return options;
}

void RunPlane(const Plane& plane, const Options& options) {
  std::printf("bench_scenarios %s%s (host: %u hardware threads)\n",
              plane.name, options.smoke ? " --smoke" : "",
              std::thread::hardware_concurrency());
  if (!options.trace_only) WriteResult(plane.run(options), options.output);
  if (!options.trace_path.empty()) {
    std::printf("\nM-Scope traced %s scenario:\n", plane.name);
    plane.trace(options);
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 1) {
    for (const Plane& plane : kPlanes) {
      if (plane.fault_plans) continue;
      RunPlane(plane, Parse(plane, 1, argv));
    }
    return 0;
  }
  for (const Plane& plane : kPlanes) {
    if (std::strcmp(argv[1], plane.name) == 0) {
      RunPlane(plane, Parse(plane, argc, argv));
      return 0;
    }
  }
  Usage((std::string("unknown plane ") + argv[1]).c_str());
}
