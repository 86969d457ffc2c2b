#include "samples.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

void SampleSet::Merge(const SampleSet& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  overflow_ += other.overflow_;
}

Percentile PercentileOf(std::vector<std::uint64_t>& samples, double q) {
  Percentile result;
  const std::size_t n = samples.size();
  if (n <= kTailSamples) return result;
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n - kTailSamples);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  result.value = static_cast<double>(samples[rank - 1]);
  result.quantile = static_cast<double>(rank) / static_cast<double>(n);
  result.count = n;
  return result;
}

Percentile WindowedPercentileOf(const std::vector<std::uint64_t>& tagged,
                                double q, std::vector<double>* per_window,
                                const std::vector<bool>* keep, double across) {
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kWindowShift) - 1;
  std::vector<std::vector<std::uint64_t>> windows;
  for (std::uint64_t v : tagged) {
    const std::size_t w = v >> kWindowShift;
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(v & kMask);
  }
  Percentile result;
  std::vector<double> values;
  for (std::size_t w = 0; w < windows.size(); ++w) {
    if (keep != nullptr && w < keep->size() && !(*keep)[w]) continue;
    const Percentile p = PercentileOf(windows[w], q);
    if (p.count == 0) continue;
    values.push_back(p.value);
    result.quantile = result.count == 0 ? p.quantile
                                        : std::min(result.quantile, p.quantile);
    result.count += p.count;
  }
  result.value = QuantileOf(values, across);
  if (per_window != nullptr) *per_window = std::move(values);
  return result;
}

std::vector<bool> QuietWindows(const std::vector<double>& steal,
                               double max_steal) {
  std::vector<bool> keep(steal.size());
  std::size_t kept = 0;
  for (std::size_t w = 0; w < steal.size(); ++w) {
    keep[w] = steal[w] <= max_steal;
    kept += keep[w] ? 1 : 0;
  }
  const std::size_t third = (steal.size() + 2) / 3;
  if (kept >= third) return keep;
  std::vector<std::size_t> order(steal.size());
  for (std::size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::stable_sort(order.begin(), order.end(), [&steal](std::size_t a, std::size_t b) {
    return steal[a] < steal[b];
  });
  std::fill(keep.begin(), keep.end(), false);
  for (std::size_t i = 0; i < third; ++i) keep[order[i]] = true;
  return keep;
}

double QuantileOf(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= values.size()) return values.back();
  return values[lo] + (pos - static_cast<double>(lo)) * (values[lo + 1] - values[lo]);
}

}  // namespace perfbench
