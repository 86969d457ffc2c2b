// Counter tables: every monotonic event counter is declared once.
//
// A plane declares its counters as one X-macro table, one row per
// counter: X(field, metric, doc). The helpers below turn that table into
// everything else the counter needs:
//
//   struct PlaneSnapshot { PLANE_COUNTERS(MOBIVINE_COUNTER_FIELD) ... };
//   enum class PlaneCounter : std::size_t {
//     PLANE_COUNTERS(MOBIVINE_COUNTER_ENUM)
//   };
//   inline constexpr auto kPlaneCounters =
//       MOBIVINE_COUNTER_ROWS(PlaneSnapshot, PLANE_COUNTERS);
//
// That is the snapshot field, the enum that CounterSet::Add() bumps, and
// the {metric, field} rows that CounterSet::LoadInto(), AddCounters() and
// ExportCounters() iterate. Adding a counter is one table row plus the
// line that bumps it. Gauges (values that go down or are set directly)
// stay outside the tables, as plain snapshot fields.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "support/metrics.h"

#define MOBIVINE_COUNTER_FIELD(field, metric, doc) std::uint64_t field = 0;
#define MOBIVINE_COUNTER_ENUM(field, metric, doc) field,
#define MOBIVINE_COUNTER_ROW(field, metric, doc) \
  {metric, &CounterSnapshot::field},
/// The {metric, field} rows of `TABLE` over `Snapshot`, in table order,
/// as a constexpr std::array of support::CounterField<Snapshot>.
#define MOBIVINE_COUNTER_ROWS(Snapshot, TABLE)                         \
  [] {                                                                 \
    using CounterSnapshot = Snapshot;                                  \
    return std::to_array<::mobivine::support::CounterField<Snapshot>>( \
        {TABLE(MOBIVINE_COUNTER_ROW)});                                \
  }()

namespace mobivine::support {

/// One row of a counter table: the metric name it is exported under and
/// the snapshot field that holds it.
template <typename Snapshot>
struct CounterField {
  const char* metric;
  std::uint64_t Snapshot::*field;
};

/// The live side of a counter table: one relaxed atomic per row, indexed
/// by the table's enum. Relaxed because the counters are independent
/// monotonic event counts, not a synchronization protocol; a snapshot is
/// consistent per counter, not across counters.
template <typename Counter, const auto& kFields>
class CounterSet {
 public:
  /// Returns the count before this add (a connection counter doubles as
  /// the id source).
  std::uint64_t Add(Counter counter, std::uint64_t n = 1) {
    return values_[static_cast<std::size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }

  template <typename Snapshot>
  void LoadInto(Snapshot& snap) const {
    for (std::size_t i = 0; i < values_.size(); ++i) {
      snap.*kFields[i].field = values_[i].load(std::memory_order_relaxed);
    }
  }

 private:
  std::array<std::atomic<std::uint64_t>, std::size(kFields)> values_{};
};

/// Add every counter of `from` into `into`.
template <typename Table, typename Snapshot>
void AddCounters(const Table& table, const Snapshot& from, Snapshot& into) {
  for (const auto& counter : table) into.*counter.field += from.*counter.field;
}

/// Export every counter of `snap` as `<base><metric>`.
template <typename Table, typename Snapshot>
void ExportCounters(MetricsSink& sink, const Table& table,
                    const Snapshot& snap, std::string_view base = {}) {
  for (const auto& counter : table) {
    sink.Counter(std::string(base) + counter.metric, snap.*counter.field);
  }
}

}  // namespace mobivine::support
