#include "support/trace.h"

#include <algorithm>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace mobivine::support::trace {

namespace {

constexpr std::size_t kDefaultCapacity = 64 * 1024;

/// One thread's bounded event buffer. Single writer (the owning thread);
/// any reader may scan slots below the published head — those are never
/// rewritten (full buffers drop new events instead of wrapping), so the
/// only synchronization is the release/acquire pair on head_.
///
/// The slots are allocated uninitialised: a slot's pages become resident
/// only when the writer fills it, so a buffer's footprint follows the
/// events recorded, not its capacity.
struct ThreadBuffer {
  ThreadBuffer(std::size_t capacity_in, int tid_in, std::string label_in)
      : slots(std::make_unique_for_overwrite<detail::EventRecord[]>(
            capacity_in)),
        capacity(capacity_in),
        tid(tid_in),
        label(std::move(label_in)) {}

  std::unique_ptr<detail::EventRecord[]> slots;
  const std::size_t capacity;
  std::atomic<std::size_t> head{0};     ///< published events
  std::atomic<std::uint64_t> dropped{0};
  std::size_t reserved = 0;  ///< writer-local; == head except mid-write
  const int tid;
  std::string label;  ///< copy of the thread's label; written under the
                      ///< registry mutex
};

struct Registry {
  std::mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::size_t capacity = kDefaultCapacity;
  int next_tid = 1;
  std::uint64_t epoch = 1;  ///< bumped by Reset(); see ThreadState
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry;  // never destroyed: threads
  return *registry;                          // may record during exit
}

std::atomic<std::uint64_t> g_epoch{1};

struct ThreadState {
  std::shared_ptr<ThreadBuffer> buffer;  ///< null until the first event
  std::uint64_t epoch = 0;
  std::string label;  ///< SetCurrentThreadName; outlives Reset()
  VirtualClockFn virtual_clock = nullptr;
  void* virtual_clock_ctx = nullptr;
};

ThreadState& Tls() {
  thread_local ThreadState state;
  return state;
}

/// The calling thread's buffer for the current epoch, created (and
/// registered under the thread's label) on first use. Reached only from
/// Reserve(), so a thread that never records while tracing is enabled
/// never allocates one.
ThreadBuffer& LocalBuffer() {
  ThreadState& state = Tls();
  const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
  if (!state.buffer || state.epoch != epoch) {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    state.buffer = std::make_shared<ThreadBuffer>(
        registry.capacity, registry.next_tid++, state.label);
    state.epoch = registry.epoch;
    registry.buffers.push_back(state.buffer);
  }
  return *state.buffer;
}

void WriteEscaped(std::ostream& out, const std::string& text) {
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out << ' ';
        } else {
          out << c;
        }
    }
  }
}

void WriteEventArgs(std::ostream& out, const detail::EventRecord& event) {
  out << "\"args\":{";
  bool first = true;
  for (std::uint8_t a = 0; a < event.arg_count; ++a) {
    if (!first) out << ',';
    first = false;
    out << '"' << event.arg_name[a] << "\":" << event.arg_value[a];
  }
  if (event.has_virtual) {
    if (!first) out << ',';
    first = false;
    out << "\"virt_start_us\":" << event.virt_start_us;
    if (!event.instant) out << ",\"virt_dur_us\":" << event.virt_dur_us;
  }
  out << '}';
}

}  // namespace

namespace detail {

EventRecord* Reserve() {
  ThreadBuffer& buffer = LocalBuffer();
  if (buffer.reserved >= buffer.capacity) {
    buffer.dropped.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  return &buffer.slots[buffer.reserved];
}

void Publish() {
  ThreadBuffer& buffer = *Tls().buffer;
  ++buffer.reserved;
  buffer.head.store(buffer.reserved, std::memory_order_release);
}

std::uint64_t MonotonicNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t VirtualNowMicros() {
  const ThreadState& state = Tls();
  if (state.virtual_clock == nullptr) return 0;
  return state.virtual_clock(state.virtual_clock_ctx);
}

void EmitInstant(const char* name, const char* k1, std::int64_t v1,
                 const char* k2, std::int64_t v2) {
  EventRecord* record = Reserve();
  if (record == nullptr) return;
  *record = EventRecord{};
  record->name = name;
  record->mono_start_ns = MonotonicNowNs();
  record->instant = true;
  if (Tls().virtual_clock != nullptr) {
    record->has_virtual = true;
    record->virt_start_us = VirtualNowMicros();
  }
  if (k1 != nullptr) {
    record->arg_name[record->arg_count] = k1;
    record->arg_value[record->arg_count] = v1;
    ++record->arg_count;
  }
  if (k2 != nullptr) {
    record->arg_name[record->arg_count] = k2;
    record->arg_value[record->arg_count] = v2;
    ++record->arg_count;
  }
  Publish();
}

}  // namespace detail

void SetEnabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void SetPerThreadCapacity(std::size_t events) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.capacity = std::max<std::size_t>(events, 16);
}

void Reset() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  registry.buffers.clear();
  registry.epoch = g_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
}

void SetCurrentThreadName(std::string name) {
  ThreadState& state = Tls();
  state.label = std::move(name);
  if (!state.buffer) return;  // the first event's buffer copies the label
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mutex);
  state.buffer->label = state.label;
}

void SetThreadVirtualClock(VirtualClockFn fn, void* ctx) {
  ThreadState& state = Tls();
  state.virtual_clock = fn;
  state.virtual_clock_ctx = ctx;
}

void Span::Begin(const char* name) {
  name_ = name;
  mono_start_ns_ = detail::MonotonicNowNs();
  virt_start_us_ = detail::VirtualNowMicros();
  has_virtual_ = Tls().virtual_clock != nullptr;
}

void Span::End() {
  const std::uint64_t mono_end_ns = detail::MonotonicNowNs();
  detail::EventRecord* record = detail::Reserve();
  if (record == nullptr) return;
  *record = detail::EventRecord{};
  record->name = name_;
  record->mono_start_ns = mono_start_ns_;
  record->mono_dur_ns =
      mono_end_ns > mono_start_ns_ ? mono_end_ns - mono_start_ns_ : 0;
  if (has_virtual_) {
    const std::uint64_t virt_end_us = detail::VirtualNowMicros();
    record->has_virtual = true;
    record->virt_start_us = virt_start_us_;
    record->virt_dur_us =
        virt_end_us > virt_start_us_ ? virt_end_us - virt_start_us_ : 0;
  }
  for (std::uint8_t a = 0; a < arg_count_; ++a) {
    record->arg_name[a] = arg_names_[a];
    record->arg_value[a] = args_[a];
  }
  record->arg_count = arg_count_;
  detail::Publish();
}

void CompleteEvent(const char* name,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point end, const char* k1,
                   std::int64_t v1, const char* k2, std::int64_t v2) {
  if (!IsEnabled()) return;
  detail::EventRecord* record = detail::Reserve();
  if (record == nullptr) return;
  *record = detail::EventRecord{};
  record->name = name;
  record->mono_start_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start.time_since_epoch())
          .count());
  const auto dur =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start);
  record->mono_dur_ns =
      dur.count() > 0 ? static_cast<std::uint64_t>(dur.count()) : 0;
  if (k1 != nullptr) {
    record->arg_name[record->arg_count] = k1;
    record->arg_value[record->arg_count] = v1;
    ++record->arg_count;
  }
  if (k2 != nullptr) {
    record->arg_name[record->arg_count] = k2;
    record->arg_value[record->arg_count] = v2;
    ++record->arg_count;
  }
  detail::Publish();
}

ExportStats ExportChromeTrace(std::ostream& out) {
  // Snapshot the buffer set (and the mutex-guarded labels) under the
  // lock, then read published slots lock-free: slots below head are
  // immutable and tids are stable after registration.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::vector<std::string> labels;
  {
    Registry& registry = GlobalRegistry();
    std::lock_guard<std::mutex> lock(registry.mutex);
    buffers = registry.buffers;
    labels.reserve(buffers.size());
    for (const auto& buffer : buffers) labels.push_back(buffer->label);
  }

  ExportStats stats;
  stats.threads = buffers.size();

  // Rebase timestamps so the trace starts at ts=0 (keeps the JSON small
  // and the viewer's timeline readable).
  std::uint64_t base_ns = UINT64_MAX;
  for (const auto& buffer : buffers) {
    const std::size_t head = buffer->head.load(std::memory_order_acquire);
    for (std::size_t i = 0; i < head; ++i) {
      base_ns = std::min(base_ns, buffer->slots[i].mono_start_ns);
    }
  }
  if (base_ns == UINT64_MAX) base_ns = 0;

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    const auto& buffer = buffers[b];
    const std::size_t head = buffer->head.load(std::memory_order_acquire);
    stats.dropped += buffer->dropped.load(std::memory_order_relaxed);
    if (!labels[b].empty()) {
      if (!first) out << ',';
      first = false;
      out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << buffer->tid
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      WriteEscaped(out, labels[b]);
      out << "\"}}";
    }
    for (std::size_t i = 0; i < head; ++i) {
      const detail::EventRecord& event = buffer->slots[i];
      if (!first) out << ',';
      first = false;
      ++stats.events;
      const std::uint64_t rel_ns = event.mono_start_ns - base_ns;
      out << "{\"ph\":\"" << (event.instant ? 'i' : 'X')
          << "\",\"pid\":1,\"tid\":" << buffer->tid << ",\"ts\":"
          << rel_ns / 1000 << '.' << (rel_ns % 1000) / 100;
      if (event.instant) {
        out << ",\"s\":\"t\"";
      } else {
        out << ",\"dur\":" << event.mono_dur_ns / 1000 << '.'
            << (event.mono_dur_ns % 1000) / 100;
      }
      out << ",\"name\":\"" << event.name << "\",";
      WriteEventArgs(out, event);
      out << '}';
    }
  }
  out << "]}";
  return stats;
}

}  // namespace mobivine::support::trace
