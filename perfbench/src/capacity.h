// Capacity search: the highest offered rate at which a workload still
// meets its limits — tail latency within the workload's limit, failures
// at most kMaxFailFrac, and no growing backlog.
//
// Rates live on a geometric grid with a fixed ratio (2.5% apart), so a
// single grid step never moves the answer by 10%. The search doubles up
// from the reference rate until a probe fails, bisects the grid between
// the last pass and the first fail, then confirms the answer with a
// second probe, stepping down one grid point per failed confirmation.
// A failing probe is repeated once before it counts as a fail, so one
// stall of the host cannot decide a step.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

inline constexpr double kMaxFailFrac = 0.001;
inline constexpr double kGridRatio = 1.025;

/// What one probe at a fixed offered rate measured.
struct Probe {
  double rate = 0;         ///< offered operations per second
  double p99_us = 0;       ///< latency tail, timed from the due time
  double fail_frac = 0;    ///< failed / attempted
  bool backlog_ok = true;  ///< completions kept up with arrivals
  double late_p99_us = 0;  ///< generator lateness (diagnostic)
  std::uint64_t outstanding = 0;  ///< not completed when sending stopped
};

/// A probe passes when all three limits hold.
[[nodiscard]] inline bool Passes(const Probe& probe, double p99_limit_us) {
  return probe.backlog_ok && probe.fail_frac <= kMaxFailFrac &&
         probe.p99_us <= p99_limit_us;
}

struct CapacityResult {
  double rate = 0;  ///< highest confirmed passing rate (0 if none)
  std::vector<Probe> probes;
};

/// Search from `start_rate` (expected to pass) up to `max_rate`, using at
/// most `max_probes` calls of `probe` (repeats included).
[[nodiscard]] CapacityResult SearchCapacity(
    double start_rate, double max_rate, double p99_limit_us, int max_probes,
    const std::function<Probe(double rate)>& probe);

}  // namespace perfbench
