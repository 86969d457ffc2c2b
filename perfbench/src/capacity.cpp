#include "capacity.h"

#include <cmath>

namespace perfbench {

CapacityResult SearchCapacity(double start_rate, double max_rate,
                              double p99_limit_us, int max_probes,
                              const std::function<Probe(double rate)>& probe) {
  CapacityResult result;
  const int top = static_cast<int>(
      std::floor(std::log(max_rate / start_rate) / std::log(kGridRatio)));
  auto rate_at = [&](int i) { return start_rate * std::pow(kGridRatio, i); };
  auto budget_left = [&] {
    return static_cast<int>(result.probes.size()) < max_probes;
  };
  auto run = [&](int i) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      result.probes.push_back(probe(rate_at(i)));
      if (Passes(result.probes.back(), p99_limit_us)) return true;
      if (!budget_left()) break;
    }
    return false;
  };

  // Bracket: lo is the highest passing grid index, hi the lowest failing.
  int lo = 0;
  int hi = top + 1;
  if (!run(0)) {
    hi = 0;
    bool found = false;
    for (lo = -16; budget_left(); lo -= 16) {
      if ((found = run(lo))) break;
      hi = lo;
    }
    if (!found) return result;
  } else {
    for (int step = 16; budget_left() && lo + step <= top; step *= 2) {
      if (!run(lo + step)) {
        hi = lo + step;
        break;
      }
      lo += step;
    }
  }
  while (hi - lo > 1 && budget_left()) {
    const int mid = lo + (hi - lo) / 2;
    (run(mid) ? lo : hi) = mid;
  }
  // Confirm: a rate is reported once it passed twice; each failed
  // confirmation steps down one grid point.
  for (int tries = 0; tries < 2 && budget_left(); ++tries) {
    if (run(lo)) break;
    --lo;
  }
  result.rate = rate_at(lo);
  return result;
}

}  // namespace perfbench
