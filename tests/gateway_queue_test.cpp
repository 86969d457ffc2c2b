// The shard queue (gateway/mpsc_queue.h) and the gateway's admission
// bound on top of it.
//
// What must hold:
//  * FIFO order, across every growth step and across wrap-around after
//    growth;
//  * `capacity` is the exact admission bound, whatever the ring's size:
//    `capacity` pushes succeed and the next one fails;
//  * Close() stops admission, the consumer drains what is queued, then
//    Pop returns false;
//  * the ring holds only queued work: it starts small, grows on demand,
//    and an emptied slot holds no element (and so no heap);
//  * many producers, one consumer: every item is delivered exactly once;
//  * the gateway admits exactly queue_capacity outstanding requests per
//    stopped shard and sheds the next with kOverloaded;
//  * the shard hash and the fault-injection stream stay bit-identical,
//    so recorded runs (and the benchmark's fault pattern) replay.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "gateway/mpsc_queue.h"
#include "gateway_test_util.h"
#include "support/fault.h"
#include "support/seed.h"

namespace mobivine {
namespace {

using core::ErrorCode;
using gateway::BoundedMpscQueue;
using gateway::Gateway;
using gateway::GatewayConfig;
using gateway::Request;
using gateway::Response;
using testing::WorkerBlocker;

/// Queue element that counts its live instances and carries a string too
/// long for the small-string buffer, like a real SMS body or POST.
struct Counted {
  static std::atomic<int> live;

  explicit Counted(int v = 0) : value(v), body(64, 'x') { ++live; }
  Counted(const Counted& other) : value(other.value), body(other.body) {
    ++live;
  }
  Counted(Counted&& other) noexcept
      : value(other.value), body(std::move(other.body)) {
    ++live;
  }
  Counted& operator=(const Counted&) = default;
  Counted& operator=(Counted&&) noexcept = default;
  ~Counted() { --live; }

  int value;
  std::string body;
};
std::atomic<int> Counted::live{0};

TEST(GatewayQueue, StartsSmallAndGrowsOnlyOnDemand) {
  BoundedMpscQueue<int> queue(65536);
  EXPECT_EQ(queue.capacity(), 65536u);
  EXPECT_EQ(queue.slots(), BoundedMpscQueue<int>::kInitialSlots);

  // Depth 100 needs 128 slots, not 65,536.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(queue.TryPush(int{i}));
  EXPECT_EQ(queue.slots(), 128u);

  // A small capacity is the whole ring from the start.
  BoundedMpscQueue<int> tiny(3);
  EXPECT_EQ(tiny.slots(), 3u);
}

TEST(GatewayQueue, FifoAcrossGrowthAndWrapAround) {
  BoundedMpscQueue<int> queue(1000);
  std::deque<int> expected;
  int next = 0;
  int out = -1;
  // Bursts deeper than the ring, then partial drains, so every growth
  // step happens with head_ mid-ring and the items wrapped around.
  const int bursts[] = {5, 20, 40, 90, 200, 400, 700, 1000, 300, 17};
  for (int burst : bursts) {
    for (int i = 0; i < burst; ++i) {
      if (expected.size() == queue.capacity()) break;
      ASSERT_TRUE(queue.TryPush(int{next}));
      expected.push_back(next++);
    }
    const std::size_t drain = expected.size() * 2 / 3;
    for (std::size_t i = 0; i < drain; ++i) {
      ASSERT_TRUE(queue.Pop(out));
      ASSERT_EQ(out, expected.front());
      expected.pop_front();
    }
    ASSERT_EQ(queue.size(), expected.size());
  }
  // Fill to the bound and wrap several times at full size.
  for (int round = 0; round < 3000; ++round) {
    while (expected.size() < queue.capacity()) {
      ASSERT_TRUE(queue.TryPush(int{next}));
      expected.push_back(next++);
    }
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(queue.Pop(out));
      ASSERT_EQ(out, expected.front());
      expected.pop_front();
    }
  }
  EXPECT_EQ(queue.slots(), 1000u);
  queue.Close();
  while (queue.Pop(out)) {
    ASSERT_EQ(out, expected.front());
    expected.pop_front();
  }
  EXPECT_TRUE(expected.empty());
}

TEST(GatewayQueue, CapacityIsTheExactAdmissionBound) {
  for (std::size_t capacity : {1u, 3u, 1000u, 65536u}) {
    SCOPED_TRACE(capacity);
    BoundedMpscQueue<std::size_t> queue(capacity);
    for (std::size_t i = 0; i < capacity; ++i) {
      ASSERT_TRUE(queue.TryPush(std::size_t{i}));
    }
    EXPECT_EQ(queue.size(), capacity);
    EXPECT_EQ(queue.slots(), capacity);
    std::size_t rejected = 12345;
    EXPECT_FALSE(queue.TryPush(std::move(rejected)));
    // One pop frees exactly one slot.
    std::size_t out = 0;
    ASSERT_TRUE(queue.Pop(out));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(queue.TryPush(std::size_t{capacity}));
    EXPECT_FALSE(queue.TryPush(std::size_t{capacity + 1}));
  }
}

TEST(GatewayQueue, CloseDrainsQueuedItemsThenPopFails) {
  BoundedMpscQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.TryPush(int{i}));
  queue.Close();
  EXPECT_FALSE(queue.TryPush(99));
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.Pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(queue.Pop(out));
  EXPECT_FALSE(queue.Pop(out));
}

TEST(GatewayQueue, EmptiedSlotsHoldNoElements) {
  Counted::live = 0;
  {
    BoundedMpscQueue<Counted> queue(1000);
    EXPECT_EQ(Counted::live.load(), 0);  // no slot is constructed up front
    Counted out;
    for (int round = 0; round < 3; ++round) {
      for (int i = 0; i < 600; ++i) ASSERT_TRUE(queue.TryPush(Counted(i)));
      // Only the queued items (plus `out`) are alive, at every depth.
      EXPECT_EQ(Counted::live.load(), 600 + 1);
      for (int i = 0; i < 600; ++i) {
        ASSERT_TRUE(queue.Pop(out));
        ASSERT_EQ(out.value, i);
        ASSERT_EQ(Counted::live.load(), 600 - i - 1 + 1);
      }
    }
    // Drained after wrapping and growing: the queue holds nothing, so no
    // slot keeps a popped request's heap buffers alive either.
    EXPECT_EQ(Counted::live.load(), 1);
    EXPECT_EQ(queue.size(), 0u);
  }
  EXPECT_EQ(Counted::live.load(), 0);
}

TEST(GatewayQueue, FourProducersOneConsumerDeliverEachItemOnce) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 20000;
  // Small bound: producers hit "full" often and retry, and the ring grows
  // while other producers are pushing.
  BoundedMpscQueue<std::uint64_t> queue(100);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::uint64_t seq = 0; seq < kPerProducer; ++seq) {
        const std::uint64_t item =
            (static_cast<std::uint64_t>(p) << 32) | seq;
        std::uint64_t attempt = item;
        while (!queue.TryPush(std::move(attempt))) {
          std::this_thread::yield();
          attempt = item;
        }
      }
    });
  }

  std::vector<std::uint64_t> next_seq(kProducers, 0);
  std::vector<std::uint32_t> seen(kProducers * kPerProducer, 0);
  std::uint64_t item = 0;
  // No ASSERT in this loop: returning early would strand the producers
  // on a full queue.
  for (int received = 0; received < kProducers * kPerProducer; ++received) {
    queue.Pop(item);
    const auto p = static_cast<std::size_t>(item >> 32);
    const std::uint64_t seq = item & 0xffffffffu;
    if (p >= kProducers || seq >= kPerProducer) {
      ADD_FAILURE() << "foreign item " << item;
      continue;
    }
    // Per-producer FIFO: each producer's items arrive in push order.
    EXPECT_EQ(seq, next_seq[p]) << "producer " << p;
    next_seq[p] = seq + 1;
    ++seen[p * kPerProducer + seq];
  }
  for (auto& producer : producers) producer.join();
  queue.Close();
  EXPECT_FALSE(queue.Pop(item));  // nothing extra was delivered
  for (std::uint32_t count : seen) ASSERT_EQ(count, 1u);
}

// ---------------------------------------------------------------------------
// Admission through the gateway, with the shard's consumer stopped
// ---------------------------------------------------------------------------

const core::DescriptorStore& Store() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

Request HttpGetRequest(std::uint32_t tenant) {
  Request request;
  request.client_id = 1;  // one shard anyway
  request.tenant = tenant;
  request.platform = gateway::Platform::kAndroid;
  request.op = gateway::Op::kHttpGet;
  request.target =
      std::string("http://") + gateway::kGatewayHttpHost + "/ping";
  return request;
}

struct ShedProbe {
  bool admitted = true;
  Response response;
};

/// Submit one request and report whether it was shed, and with what.
ShedProbe SubmitProbe(Gateway& gw, std::uint32_t tenant) {
  ShedProbe probe;
  Request request = HttpGetRequest(tenant);
  request.on_complete = [&probe](const Response& response) {
    probe.response = response;
  };
  probe.admitted = gw.Submit(std::move(request));
  return probe;
}

TEST(GatewayQueue, ShardAdmitsExactlyCapacityOutstandingRequests) {
  // Non-power-of-two, so the ring's last growth step is capped at N.
  constexpr std::size_t kCapacity = 1000;
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = kCapacity;
  config.store = &Store();
  Gateway gw(config);

  WorkerBlocker blocker;
  blocker.Block(gw, /*tenant=*/0);  // outstanding #1, in service
  for (std::size_t i = 1; i < kCapacity; ++i) {
    EXPECT_TRUE(gw.Submit(HttpGetRequest(0))) << "request " << i + 1;
  }
  EXPECT_EQ(gw.queue_depth(), kCapacity - 1);

  // N + 1: the lone tenant's cap is the watermark, and it counts the
  // request in service, so this one sheds on the tenant quota.
  const ShedProbe probe = SubmitProbe(gw, 0);
  EXPECT_FALSE(probe.admitted);
  EXPECT_EQ(probe.response.error, ErrorCode::kOverloaded);
  EXPECT_EQ(probe.response.message, "tenant over admission quota");

  blocker.Release();
  gw.Stop();
  const auto stats = gw.Stats();
  EXPECT_EQ(stats.totals.accepted, kCapacity);
  EXPECT_EQ(stats.totals.ok, kCapacity);
  EXPECT_EQ(stats.totals.shed, 1u);
}

TEST(GatewayQueue, FullShardQueueShedsAtTheWatermark) {
  constexpr std::size_t kCapacity = 1000;
  GatewayConfig config;
  config.shards = 1;
  config.queue_capacity = kCapacity;
  config.store = &Store();
  // Caps are max(1, floor(1000 * w / 1,000,002)): 999 for the default
  // tenant and 1 each for tenants 1 and 2 — 1001 slots in all, so the
  // queue itself can fill to 1000 behind tenant 1's blocked request.
  config.tenants = {{0, "bulk", 1000000}, {1, "blocker", 1}, {2, "one", 1}};
  Gateway gw(config);

  WorkerBlocker blocker;
  blocker.Block(gw, /*tenant=*/1);
  for (std::size_t i = 0; i < kCapacity - 1; ++i) {
    EXPECT_TRUE(gw.Submit(HttpGetRequest(0))) << "request " << i;
  }
  EXPECT_TRUE(gw.Submit(HttpGetRequest(2)));
  EXPECT_EQ(gw.queue_depth(), kCapacity);

  // Request N + 1 of the queue: shed at the watermark, whichever tenant.
  for (std::uint32_t tenant : {0u, 2u}) {
    const ShedProbe probe = SubmitProbe(gw, tenant);
    EXPECT_FALSE(probe.admitted);
    EXPECT_EQ(probe.response.error, ErrorCode::kOverloaded);
    EXPECT_EQ(probe.response.message, "shard queue above shed watermark");
  }

  blocker.Release();
  gw.Stop();
  const auto stats = gw.Stats();
  EXPECT_EQ(stats.totals.max_queue_depth, kCapacity);
  EXPECT_EQ(stats.totals.ok, kCapacity + 1);
  EXPECT_EQ(stats.totals.shed, 2u);
}

// ---------------------------------------------------------------------------
// Pinned hash and fault streams (both draw on support/seed.h)
// ---------------------------------------------------------------------------

TEST(GatewayPin, ShardForIsBitIdentical) {
  const std::uint64_t ids[] = {0, 1, 2, 3, 4, 5, 6, 7,
                               42, 1000, 123456789, 0xffffffffffffffffull};
  const std::vector<std::uint32_t> expected[] = {
      {1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0},  // 2 shards
      {1, 2, 1, 0, 1, 2, 2, 0, 1, 1, 2, 2},  // 3 shards
      {3, 1, 2, 1, 2, 2, 0, 3, 1, 0, 1, 0},  // 4 shards
  };
  for (int shards = 2; shards <= 4; ++shards) {
    GatewayConfig config;
    config.shards = shards;
    config.queue_capacity = 4;
    config.store = &Store();
    Gateway gw(config);
    std::vector<std::uint32_t> got;
    for (std::uint64_t id : ids) got.push_back(gw.ShardFor(id));
    EXPECT_EQ(got, expected[shards - 2]) << shards << " shards";
  }
}

TEST(GatewayPin, FaultInjectorDrawsAreBitIdentical) {
  struct Case {
    const char* plan;
    std::uint64_t seed;
    std::uint64_t salt;        ///< the shard index
    std::uint64_t fired_mask;  ///< bit i: draw i fired
  };
  // The first two are the benchmark's wire_retry plan at seed 1
  // (SeedSequence(1).Fork("faults")) on its two shards.
  const Case cases[] = {
      {"s60:*:error=timeout:p=0.1", 0x2381b6c820792c75ull, 0,
       0x0028004000400001ull},
      {"s60:*:error=timeout:p=0.1", 0x2381b6c820792c75ull, 1,
       0x0094042100010401ull},
      {"s60:*:error=timeout:p=0.1", 1, 0, 0x0010070180000002ull},
      {"s60:*:error=timeout:p=0.1", 1, 1, 0x4000010804040000ull},
      {"*:*:error=timeout:p=0.5", 42, 0, 0x57d87a6d224be53aull},
      {"*:*:error=timeout:p=0.5", 42, 1, 0xa3512a95c7db2659ull},
  };
  ASSERT_EQ(support::SeedSequence(1).Fork("faults").state(),
            0x2381b6c820792c75ull);
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.plan) + " seed " + std::to_string(c.seed) +
                 " salt " + std::to_string(c.salt));
    auto plan = support::FaultPlan::Parse(c.plan);
    ASSERT_TRUE(plan.has_value());
    plan->seed = c.seed;
    support::FaultInjector injector(*plan, c.salt);
    std::uint64_t mask = 0;
    for (int i = 0; i < 64; ++i) {
      if (injector.Decide("s60", "getLocation").action !=
          support::FaultAction::kNone) {
        mask |= 1ull << i;
      }
    }
    EXPECT_EQ(mask, c.fired_mask);
  }
}

}  // namespace
}  // namespace mobivine
