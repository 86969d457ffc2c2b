// M-Scope span recorder: always-compiled, cheap-when-disabled tracing.
//
// The paper's Figure 10 is an overhead-attribution study — where did the
// milliseconds go, layer by layer. M-Scope makes that attribution a
// runtime facility instead of a bench-only artifact: every layer of an
// invocation (gateway admission, queue wait, retry attempts, binding
// dispatch, property handling, exception mapping) records nestable spans
// into per-thread bounded buffers, and an exporter renders them as Chrome
// `trace_event` JSON (load into chrome://tracing or Perfetto).
//
// Cost model:
//  * Disabled (the default): every hook is one relaxed atomic load and a
//    predictable branch — no clock reads, no stores, no allocation. The
//    hooks are compiled in unconditionally; there is no build flavor.
//    Naming a thread stores the label in the thread's own state and
//    allocates no buffer: a thread gets one only when it first records
//    an event with tracing on.
//  * Enabled: recording a span is two steady_clock reads plus plain
//    stores into a thread-local slot, then a release store publishing it.
//    No locks anywhere on the publish path (a thread's first event takes
//    the registry mutex once, to create and register its buffer).
//
// Buffering: each thread that records owns a bounded event buffer
// (default 64Ki events). The capacity is a bound, not a preallocation:
// slots are allocated uninitialised, so a buffer's resident size follows
// the events written. Slots below the published head are immutable, so
// an exporter can read them without synchronizing with the writer beyond
// one acquire load. When a buffer fills, new events are counted as
// dropped rather than overwriting old ones — published slots stay
// readable, and the drop count is surfaced by the exporter. Buffers
// outlive their threads (a joined shard worker's spans still export).
// Labels belong to the thread, not the buffer: a thread named before
// Reset() still carries its label on the buffer it records into after.
//
// Timestamps come in pairs: wall time from std::chrono::steady_clock and,
// when the thread has registered a virtual clock source (gateway shard
// workers point this at their sim::Scheduler), the virtual-time pair is
// attached as event args — so a span shows both the milliseconds it took
// and the virtual cost the simulation charged underneath it.
//
// Span names and tag keys must be string literals (or otherwise outlive
// the recorder): events store the pointers, not copies.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace mobivine::support::trace {

namespace detail {

inline std::atomic<bool> g_enabled{false};

/// One recorded event. No default member initialisers: buffers allocate
/// their slots uninitialised, and every writer assigns `EventRecord{}`
/// (value-initialising every field) before it fills a slot.
struct EventRecord {
  const char* name;
  std::uint64_t mono_start_ns;
  std::uint64_t mono_dur_ns;  ///< 0 for instant events
  std::uint64_t virt_start_us;
  std::uint64_t virt_dur_us;
  const char* arg_name[2];
  std::int64_t arg_value[2];
  std::uint8_t arg_count;
  bool instant;
  bool has_virtual;
};

/// Reserve the calling thread's next slot; nullptr when the buffer is
/// full (the event is counted as dropped). On success the caller fills
/// the record and must call Publish() before the next Reserve().
EventRecord* Reserve();
void Publish();

[[nodiscard]] std::uint64_t MonotonicNowNs();
[[nodiscard]] std::uint64_t VirtualNowMicros();  ///< 0 when no thread source

void EmitInstant(const char* name, const char* k1, std::int64_t v1,
                 const char* k2, std::int64_t v2);

}  // namespace detail

/// One relaxed load; the hook cost when tracing is off.
[[nodiscard]] inline bool IsEnabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

void SetEnabled(bool on);

/// Capacity bound (events) for buffers created after this call; existing
/// buffers keep theirs. Memory is committed as events are written, not
/// up front. Call before the traced threads first record.
void SetPerThreadCapacity(std::size_t events);

/// Detach every recorded buffer so the next export starts empty. Threads
/// still inside a span keep writing to their detached buffer (those
/// events are discarded); call only while traced threads are quiescent.
void Reset();

/// Label the calling thread in exported traces (e.g. "shard-0"). The
/// label is kept with the thread, so it applies to every buffer the
/// thread records into, before or after Reset(). Allocates no buffer.
void SetCurrentThreadName(std::string name);

/// Per-thread virtual clock source, sampled at span boundaries. Gateway
/// shard workers point this at their scheduler; pass {nullptr, nullptr}
/// to clear. The function must be callable until cleared.
using VirtualClockFn = std::uint64_t (*)(void*);
void SetThreadVirtualClock(VirtualClockFn fn, void* ctx);

/// RAII span: begins at construction, publishes one complete event at
/// destruction. Nesting is positional — spans on the same thread nest by
/// time, exactly how Chrome's viewer renders them. Up to two integer
/// tags may be attached any time before destruction.
class Span {
 public:
  explicit Span(const char* name) {
    if (IsEnabled()) Begin(name);
  }
  ~Span() {
    if (name_ != nullptr) End();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void Tag(const char* key, std::int64_t value) {
    if (name_ != nullptr && arg_count_ < 2) {
      arg_names_[arg_count_] = key;
      args_[arg_count_] = value;
      ++arg_count_;
    }
  }

 private:
  void Begin(const char* name);
  void End();

  const char* name_ = nullptr;  ///< nullptr: disabled at construction
  std::uint64_t mono_start_ns_ = 0;
  std::uint64_t virt_start_us_ = 0;
  const char* arg_names_[2] = {nullptr, nullptr};
  std::int64_t args_[2] = {0, 0};
  std::uint8_t arg_count_ = 0;
  bool has_virtual_ = false;
};

/// Zero-duration marker (Chrome "instant" event), with optional tags.
inline void Instant(const char* name, const char* k1 = nullptr,
                    std::int64_t v1 = 0, const char* k2 = nullptr,
                    std::int64_t v2 = 0) {
  if (IsEnabled()) detail::EmitInstant(name, k1, v1, k2, v2);
}

/// A complete event with caller-supplied wall-clock bounds, for intervals
/// that start on one thread and end on another (queue wait: submit time
/// is stamped by the producer, the event is recorded by the consumer).
void CompleteEvent(const char* name,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end,
                   const char* k1 = nullptr, std::int64_t v1 = 0,
                   const char* k2 = nullptr, std::int64_t v2 = 0);

struct ExportStats {
  std::size_t events = 0;
  std::size_t dropped = 0;
  std::size_t threads = 0;
};

/// Render everything recorded since the last Reset() as Chrome
/// `trace_event` JSON (object form: {"traceEvents": [...]}). Timestamps
/// are rebased so the earliest event starts at 0. Safe to call while
/// threads are still recording — only published events are read.
ExportStats ExportChromeTrace(std::ostream& out);

}  // namespace mobivine::support::trace
