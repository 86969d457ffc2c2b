// Live heap on the serving path, in an executable of its own: this file
// replaces the global operator new and delete to count the bytes in use,
// which in mobivine_tests would take over the sanitizers' own new/delete
// checks.
//
// What must hold: once warm, a shard keeps nothing per served request.
// A 1-shard gateway serves every op on every platform (sendSms to the
// shared peer and to a new number each time, on all three platforms) and
// kScript composites; a second round of the same traffic leaves the live
// heap where the first left it, give or take kSlackBytes. A holder that
// keeps one entry per message id or per destination grows by more than
// that in one round.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};

void* Allocate(std::size_t size, std::size_t alignment) {
  if (size == 0) size = 1;
  void* p = nullptr;
  if (alignment <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else if (posix_memalign(&p, alignment, size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void* AllocateNoThrow(std::size_t size, std::size_t alignment) noexcept {
  try {
    return Allocate(size, alignment);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

constexpr auto Align(std::align_val_t alignment) {
  return static_cast<std::size_t>(alignment);
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size, 0); }
void* operator new[](std::size_t size) { return Allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t a) {
  return Allocate(size, Align(a));
}
void* operator new[](std::size_t size, std::align_val_t a) {
  return Allocate(size, Align(a));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return AllocateNoThrow(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return AllocateNoThrow(size, 0);
}
void* operator new(std::size_t size, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return AllocateNoThrow(size, Align(a));
}
void* operator new[](std::size_t size, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return AllocateNoThrow(size, Align(a));
}
void operator delete(void* p) noexcept { Release(p); }
void operator delete[](void* p) noexcept { Release(p); }
void operator delete(void* p, std::size_t) noexcept { Release(p); }
void operator delete[](void* p, std::size_t) noexcept { Release(p); }
void operator delete(void* p, std::align_val_t) noexcept { Release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { Release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { Release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  Release(p);
}

namespace mobivine {
namespace {

using gateway::Gateway;
using gateway::GatewayConfig;
using gateway::Op;
using gateway::Platform;

/// Live-heap growth a warm round may show: what the shard worker has not
/// freed yet when the last call returns, and the push ring's deque
/// blocks, which it frees and takes a few events at a time.
constexpr std::int64_t kSlackBytes = 2048;

/// Iterations in one measured round: 1,500 requests and 200 scripts, in
/// which 250 S60 and 250 iPhone SMS succeed and 150 sends (50 on each
/// platform) name a number never seen before.
constexpr int kRound = 100;

std::int64_t LiveBytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

const core::DescriptorStore& Store() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

constexpr const char* kComposite =
    "var fix = mobile.invoke(args.p, 'getLocation');\n"
    "var echo = mobile.invoke(args.p, 'httpPost', args.url, fix,\n"
    "                         'text/plain');\n"
    "var a = mobile.invoke('s60', 'sendSms', args.peer, echo);\n"
    "var b = mobile.invoke('iphone', 'sendSms', args.peer, echo);\n"
    "a + ',' + b;\n";

class HeapTraffic {
 public:
  explicit HeapTraffic(Gateway& gateway) : gateway_(gateway) {}

  /// `iterations` times: every op on every platform, then two scripts.
  /// Every second sendSms names a new, unregistered number.
  void Serve(int iterations) {
    for (int i = 0; i < iterations; ++i) {
      for (std::size_t p = 0; p < gateway::kPlatformCount; ++p) {
        for (std::size_t o = 0; o < gateway::kOpCount; ++o) {
          const auto op = static_cast<Op>(o);
          gateway::Request request;
          request.client_id = 1 + (i + p) % 4;
          request.platform = static_cast<Platform>(p);
          request.op = op;
          request.retry.max_attempts = 1;
          if (op == Op::kSendSms) {
            request.target = i % 2 == 0
                                 ? std::string(gateway::kGatewaySmsPeer)
                                 : "+1666" + std::to_string(next_number_++);
            request.payload = "heap check";
          } else if (op == Op::kHttpGet || op == Op::kHttpPost) {
            request.target =
                std::string("http://") + gateway::kGatewayHttpHost + "/heap";
            request.payload = "body";
          } else if (op == Op::kSegmentCount) {
            request.payload = std::string(200, 'x');
          }
          gateway_.Call(std::move(request));
        }
      }
      for (const char* platform : {"android", "iphone"}) {
        gateway::ScriptRequest script;
        script.client_id = 1 + i % 4;
        script.source = kComposite;
        script.args = {
            {"p", platform},
            {"url",
             std::string("http://") + gateway::kGatewayHttpHost + "/ingest"},
            {"peer", gateway::kGatewaySmsPeer}};
        const gateway::ScriptResponse response =
            gateway_.CallScript(std::move(script));
        EXPECT_TRUE(response.ok) << response.message;
      }
    }
  }

 private:
  Gateway& gateway_;
  std::uint64_t next_number_ = 10'000'000;
};

TEST(GatewayHeap, ServingLeavesTheLiveHeapFlat) {
  GatewayConfig config;
  config.shards = 1;
  config.store = &Store();
  Gateway gateway(config);
  HeapTraffic traffic(gateway);

  // Warm-up: fills the push replay ring, the parse cache and the
  // scheduler's slab, and grows every reused buffer to its working size.
  traffic.Serve(3 * kRound);

  const std::int64_t warm = LiveBytes();
  traffic.Serve(kRound);
  const std::int64_t first = LiveBytes();
  traffic.Serve(kRound);
  const std::int64_t second = LiveBytes();

  EXPECT_LE(first - warm, kSlackBytes)
      << "first warm round grew the live heap by " << first - warm << " B";
  EXPECT_LE(second - first, kSlackBytes)
      << "second warm round grew the live heap by " << second - first << " B";
  const gateway::GatewaySnapshot stats = gateway.Stats();
  EXPECT_EQ(stats.totals.device_events_dropped, 0u);
}

}  // namespace
}  // namespace mobivine
