// Raw latency samples and the percentile rule the benchmark reports by.
//
// support::LatencyHistogram buckets are 12.5% wide, wider than any
// regression bound the benchmark sets, so every latency is kept as a raw
// nanosecond sample in storage reserved before the timed phase starts.
// A SampleSet has exactly one writer (the thread that completes the
// operation); sets are merged once the phase has quiesced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class SampleSet {
 public:
  SampleSet() = default;
  explicit SampleSet(std::size_t capacity) { values_.reserve(capacity); }

  /// Record one sample. Past the reserved capacity the sample is counted
  /// as overflow instead of growing the vector mid-phase; a run with any
  /// overflow is not reported (see Overflowed()).
  void Add(std::uint64_t value) {
    if (values_.size() < values_.capacity()) {
      values_.push_back(value);
    } else {
      ++overflow_;
    }
  }

  void Clear() {
    values_.clear();
    overflow_ = 0;
  }
  void Merge(const SampleSet& other);

  [[nodiscard]] std::size_t size() const { return values_.size(); }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::vector<std::uint64_t>& values() { return values_; }
  [[nodiscard]] const std::vector<std::uint64_t>& values() const {
    return values_;
  }

 private:
  std::vector<std::uint64_t> values_;
  std::uint64_t overflow_ = 0;
};

/// One reported percentile: the value, the quantile actually used, and
/// the sample count it rests on.
struct Percentile {
  double value = 0;     ///< in the samples' unit; 0 when count == 0
  double quantile = 0;  ///< effective quantile (may be below the request)
  std::size_t count = 0;
};

/// Minimum number of samples that must lie beyond a reported rank.
inline constexpr std::size_t kTailSamples = 10;

/// The q-quantile of `samples` (partially reordered), reported at the highest
/// rank that still has kTailSamples samples beyond it: with n samples the
/// nominal 1-based rank ceil(q*n) is capped at n - kTailSamples. Fewer
/// than kTailSamples + 1 samples give count == 0 (no value).
[[nodiscard]] Percentile PercentileOf(std::vector<std::uint64_t>& samples,
                                      double q);

/// Samples may carry the index of the time window they fall in, in the
/// bits above kWindowShift; the value itself is below 2^kWindowShift.
inline constexpr int kWindowShift = 40;
[[nodiscard]] inline std::uint64_t Tagged(std::uint64_t window,
                                          std::uint64_t value) {
  constexpr std::uint64_t kMax = (std::uint64_t{1} << kWindowShift) - 1;
  return window << kWindowShift | (value < kMax ? value : kMax);
}

/// The q-quantile per window (PercentileOf rule), reported as the
/// `across`-quantile of the per-window values (0.5: their median), so a
/// stalled window cannot move the figure. `count` is the total sample
/// count and `quantile` the lowest effective one. Untagged samples form a
/// single window. When `keep` is given, windows it marks false are left
/// out.
[[nodiscard]] Percentile WindowedPercentileOf(
    const std::vector<std::uint64_t>& tagged, double q,
    std::vector<double>* per_window = nullptr,
    const std::vector<bool>* keep = nullptr, double across = 0.5);

/// Which windows to measure, given the share of CPU time the hypervisor
/// stole from this machine in each: those at or below `max_steal`, or,
/// when fewer than a third qualify, the third with the least steal. A
/// benchmark on a shared host then measures the program, not its
/// neighbours.
[[nodiscard]] std::vector<bool> QuietWindows(const std::vector<double>& steal,
                                             double max_steal);

/// The q-quantile of a small vector of doubles (copied), interpolating
/// linearly between ranks; 0 when empty.
[[nodiscard]] double QuantileOf(std::vector<double> values, double q);
[[nodiscard]] inline double Median(std::vector<double> values) {
  return QuantileOf(std::move(values), 0.5);
}

}  // namespace perfbench
