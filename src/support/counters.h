// Counter tables: every event counter and table-kept gauge is declared
// once.
//
// A plane declares its metrics as one X-macro table, one row per value:
// X(field, metric, doc) for a counter, X(field, metric, doc, kGauge) for
// a gauge. The helpers below turn that table into everything else the
// value needs:
//
//   struct PlaneSnapshot { PLANE_COUNTERS(MOBIVINE_COUNTER_FIELD) ... };
//   enum class PlaneCounter : std::size_t {
//     PLANE_COUNTERS(MOBIVINE_COUNTER_ENUM)
//   };
//   inline constexpr auto kPlaneCounters =
//       MOBIVINE_COUNTER_ROWS(PlaneSnapshot, PLANE_COUNTERS);
//
// That is the snapshot field, the enum that CounterSet bumps, and the
// {metric, field, kind} rows that CounterSet::LoadInto(), AddCounters()
// and ExportCounters() iterate. A counter only ever goes up, so a scraper
// may take its rate; a gauge is a level that also goes down (or is set
// outright) and exports through MetricsSink::Gauge. Adding a value is one
// table row plus the line that moves it.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>

#include "support/metrics.h"

#define MOBIVINE_COUNTER_FIELD(field, metric, doc, ...) \
  std::uint64_t field = 0;
#define MOBIVINE_COUNTER_ENUM(field, metric, doc, ...) field,
#define MOBIVINE_COUNTER_ROW(field, metric, doc, ...) \
  {metric, &CounterSnapshot::field                    \
   __VA_OPT__(, ::mobivine::support::__VA_ARGS__)},
/// The {metric, field, kind} rows of `TABLE` over `Snapshot`, in table
/// order, as a constexpr std::array of support::CounterField<Snapshot>.
#define MOBIVINE_COUNTER_ROWS(Snapshot, TABLE)                         \
  [] {                                                                 \
    using CounterSnapshot = Snapshot;                                  \
    return std::to_array<::mobivine::support::CounterField<Snapshot>>( \
        {TABLE(MOBIVINE_COUNTER_ROW)});                                \
  }()

namespace mobivine::support {

/// How a table row exports (see the file comment).
enum MetricKind : bool { kCounter, kGauge };

/// One row of a counter table: the metric name it is exported under, the
/// snapshot field that holds it and its kind.
template <typename Snapshot>
struct CounterField {
  const char* metric;
  std::uint64_t Snapshot::*field;
  MetricKind kind = kCounter;
};

/// The live side of a counter table: one relaxed atomic per row, indexed
/// by the table's enum. Relaxed because the rows are independent values,
/// not a synchronization protocol; a snapshot is consistent per row, not
/// across rows. Sub, Set and Max move gauge rows.
template <typename Counter, const auto& kFields>
class CounterSet {
 public:
  /// Returns the count before this add (a connection counter doubles as
  /// the id source).
  std::uint64_t Add(Counter counter, std::uint64_t n = 1) {
    return values_[static_cast<std::size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }
  void Sub(Counter gauge, std::uint64_t n = 1) {
    values_[static_cast<std::size_t>(gauge)].fetch_sub(
        n, std::memory_order_relaxed);
  }
  void Set(Counter gauge, std::uint64_t value) {
    values_[static_cast<std::size_t>(gauge)].store(value,
                                                   std::memory_order_relaxed);
  }
  /// Raise a high-water-mark gauge to `value` if it is below.
  void Max(Counter gauge, std::uint64_t value) {
    std::atomic<std::uint64_t>& mark = values_[static_cast<std::size_t>(gauge)];
    std::uint64_t seen = mark.load(std::memory_order_relaxed);
    while (value > seen && !mark.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
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

/// Add every row of `from` into `into` (gauges too: the tables' gauges
/// are levels that add up across shards or loops).
template <typename Table, typename Snapshot>
void AddCounters(const Table& table, const Snapshot& from, Snapshot& into) {
  for (const auto& counter : table) into.*counter.field += from.*counter.field;
}

/// Export every row of `snap` as `<base><metric>`, each by its kind.
template <typename Table, typename Snapshot>
void ExportCounters(MetricsSink& sink, const Table& table,
                    const Snapshot& snap, std::string_view base = {}) {
  for (const auto& row : table) {
    const std::string name = std::string(base) + row.metric;
    if (row.kind == kGauge) {
      sink.Gauge(name, static_cast<double>(snap.*row.field));
    } else {
      sink.Counter(name, snap.*row.field);
    }
  }
}

}  // namespace mobivine::support
