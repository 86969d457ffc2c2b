// The benchmark driver's shared pieces: workload table, options, the
// clock, and the standalone-world layer measurements.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "inputs.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

enum class Kind : std::uint8_t { kMixed, kRetry, kScript, kPush };

/// Script virtual-time ceiling: an iPhone fix costs ~2.5 virtual seconds,
/// so eight of them (the composite's largest k) overrun the default 10 s.
inline constexpr std::uint64_t kScriptVirtualBudgetUs = 60'000'000;

/// One workload. `ref_rate` (operations — publishes for push — per
/// second) sits near half of the rate where latency first bends up on a
/// 4-core host; every latency end-to-end metric is measured there.
/// `p99_limit_us` is the latency limit the capacity search holds the tail
/// to; a reference phase whose generator typically (p50) ran later than
/// it is invalid.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  double ref_rate;
  double p99_limit_us;
  double max_rate;
  int connections;
};

[[nodiscard]] const WorkloadSpec* FindWorkload(std::string_view name);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string descriptors = "descriptors";
  std::string out_dir = ".bench_out";
  std::string git_sha;
};

[[nodiscard]] inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Inputs {
  std::vector<MixedInput> mixed;
  std::vector<ScriptInput> scripts;
  std::vector<PushInput> push;
  std::uint64_t digest = 0;
};

[[nodiscard]] Inputs MakeInputs(std::uint64_t seed);

/// Per-layer numbers measured offline, outside the serving path: the
/// codec over the workload's own frames, direct proxy calls and the
/// script engine on a standalone world built via ProxyRegistry, and the
/// MiniJS parser over the source pool.
struct OfflineLayers {
  double encode_ns = 0;
  double decode_ns = 0;
  double get_location_us = 0;
  double send_sms_us = 0;
  double http_get_us = 0;
  double http_post_us = 0;
  double segment_count_us = 0;
  double set_property_ns = 0;
  double parse_us = 0;
  double engine_us = 0;
  /// Median core service time weighted by the workload's op mix (the
  /// script engine's time for script_composite).
  double core_service_us = 0;
};

[[nodiscard]] OfflineLayers MeasureOffline(const WorkloadSpec& spec,
                                           const Inputs& inputs,
                                           const mobivine::core::DescriptorStore& store,
                                           SpanLog* log);

/// Run one workload; prints the report and returns the exit code.
[[nodiscard]] int RunWorkload(const WorkloadSpec& spec, const Options& options);

}  // namespace perfbench
