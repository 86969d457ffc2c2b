// perfbench: the repo's serving-path benchmark (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--descriptors <dir>] [--out-dir <dir>] [--git-sha <sha>]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with --trace 0,
// per-layer with --trace 1).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <wire_mixed|"
               "script_composite|push_fanout|wire_retry> --seed <n> "
               "--seconds <s> --trace <0|1> [--descriptors <dir>] "
               "[--out-dir <dir>] [--git-sha <sha>]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else if (arg == "--descriptors") {
        options.descriptors = value;
      } else if (arg == "--out-dir") {
        options.out_dir = value;
      } else if (arg == "--git-sha") {
        options.git_sha = value;
      } else {
        Usage(("unknown flag " + arg).c_str());
      }
    } catch (const std::exception&) {
      Usage(("bad value for " + arg).c_str());
    }
  }
  const perfbench::WorkloadSpec* spec = perfbench::FindWorkload(options.workload);
  if (spec == nullptr) Usage("unknown or missing --workload");
  if (!(options.seconds >= 1 && options.seconds <= 600)) {
    Usage("--seconds must be within [1, 600]");
  }
  try {
    std::filesystem::create_directories(options.out_dir);
    return perfbench::RunWorkload(*spec, options);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
