// Results: the metric list, host metadata, the one-line JSON result the
// benchmark ends with, and a checked JSON result file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< e.g. the sample count behind a percentile
  /// In the JSON result line. Metrics too noisy on a shared host to bound
  /// a regression are printed and written to the result file only.
  bool gated = true;
};

struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string build_type;
  std::string compiler;
  std::string git_sha;
};

[[nodiscard]] HostInfo ReadHost(std::string git_sha);

/// JSON string literal with escapes.
[[nodiscard]] std::string JsonString(const std::string& text);
/// A finite number with all its digits.
[[nodiscard]] std::string JsonNumber(double value);

/// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
/// {"value": .., "unit": ..}, ...}} over the gated metrics.
[[nodiscard]] std::string ResultLine(bool correct, std::uint64_t attempted,
                                     std::uint64_t failed,
                                     const std::vector<Metric>& metrics);

/// Human-readable table: name, value, unit, note; ungated rows marked.
void PrintMetrics(const std::vector<Metric>& metrics);

struct RunInfo {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::uint64_t input_digest = 0;
};

/// Write host metadata, run parameters, the result line's fields and
/// every metric (with notes) to `path`. False with `error` set when any
/// write fails; the caller exits non-zero.
[[nodiscard]] bool WriteResultFile(const std::string& path, const HostInfo& host,
                                   const RunInfo& run, bool correct,
                                   std::uint64_t attempted, std::uint64_t failed,
                                   const std::vector<Metric>& metrics,
                                   std::string* error);

}  // namespace perfbench
