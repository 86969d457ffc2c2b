// M-Push: the server-initiated subscription/streaming plane over M-Wire.
//
// What must hold:
//  * every push frame family (kSubscribe / kUnsubscribe / kSubscribeAck /
//    kEvent) round-trips bit-exactly through the codec;
//  * the per-shard feed notifies live listeners, retains a bounded replay
//    ring under monotonic cursors, and reports evicted ranges as explicit
//    gaps — AddListenerAndReplay is an exactly-once seam even against
//    concurrent publishers;
//  * over real sockets: a subscribe is acked before its first event, data
//    arrives WITHOUT polling, a reconnecting cursor replays the gap, and
//    kDrainOnce is the poll primitive (replay + end marker + auto-close);
//  * a slow subscriber sheds oldest-first into typed kEventsDropped gap
//    markers — every published cursor is either delivered or covered by
//    a gap range (no silent loss) — and request/response traffic on the
//    same connection still completes;
//  * NotificationTable bounds + counts loss instead of growing without
//    bound (the lost-notification bugfix regression);
//  * WireClient teardown never races an in-flight Submit into a recycled
//    fd, and every callback fires exactly once (run under TSan in CI);
//  * ParseWrongWorkerEpoch is strict: garbage, trailing bytes and
//    overflow map to 0, never to a saturated epoch no controller
//    publishes.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/client.h"
#include "core/descriptor/proxy_descriptor.h"
#include "gateway/gateway.h"
#include "gateway/push.h"
#include "minijs/value.h"
#include "support/seed.h"
#include "webview/notification_table.h"
#include "wire/client.h"
#include "wire/protocol.h"
#include "wire/server.h"

namespace mobivine {
namespace {

using gateway::Gateway;
using gateway::GatewayConfig;
using gateway::Op;
using gateway::Platform;
using minijs::Value;
using webview::NotificationTable;
using wire::DecodeFrame;
using wire::DecodeStatus;
using wire::EventKind;
using wire::FrameType;
using wire::FrameView;
using wire::PushTopic;
using wire::SubscribeMode;
using wire::WireClient;
using wire::WireEvent;
using wire::WireRequest;
using wire::WireResponse;
using wire::WireServer;
using wire::WireServerConfig;
using wire::WireStatus;
using wire::WireSubscribe;
using wire::WireSubscribeAck;
using wire::WireUnsubscribe;

const core::DescriptorStore& Store() {
  static const core::DescriptorStore store =
      core::DescriptorStore::LoadDirectory(MOBIVINE_DESCRIPTOR_DIR);
  return store;
}

GatewayConfig BaseConfig(int shards) {
  GatewayConfig config;
  config.shards = shards;
  config.store = &Store();
  return config;
}

WireRequest HttpGet(std::uint64_t client_id) {
  WireRequest request;
  request.client_id = client_id;
  request.platform = Platform::kAndroid;
  request.op = Op::kHttpGet;
  request.target = std::string("http://") + gateway::kGatewayHttpHost + "/ping";
  return request;
}

// ---------------------------------------------------------------------------
// Protocol: push frame families round-trip
// ---------------------------------------------------------------------------

TEST(PushProtocol, SubscribeRoundTripsAllFields) {
  WireSubscribe subscribe;
  subscribe.request_id = 0xfeedface12345678ull;
  subscribe.client_id = 42;
  subscribe.topic = PushTopic::kSmsDelivery;
  subscribe.mode = SubscribeMode::kFromCursor;
  subscribe.cursor = 0x1234567890ull;

  std::vector<std::uint8_t> bytes;
  wire::EncodeSubscribe(subscribe, bytes);

  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error),
            DecodeStatus::kOk)
      << error;
  EXPECT_EQ(frame.type, FrameType::kSubscribe);
  EXPECT_EQ(consumed, bytes.size());

  std::uint64_t peeked = 0;
  EXPECT_TRUE(wire::PeekPayloadId(frame.payload, frame.payload_size, &peeked));
  EXPECT_EQ(peeked, subscribe.request_id);

  WireSubscribe decoded;
  ASSERT_EQ(wire::DecodeSubscribe(frame.payload, frame.payload_size, &decoded,
                                  &error),
            wire::BodyStatus::kOk)
      << error;
  EXPECT_EQ(decoded.request_id, subscribe.request_id);
  EXPECT_EQ(decoded.client_id, subscribe.client_id);
  EXPECT_EQ(decoded.topic, subscribe.topic);
  EXPECT_EQ(decoded.mode, subscribe.mode);
  EXPECT_EQ(decoded.cursor, subscribe.cursor);

  // Every strict prefix is kNeedMore — never malformed, never a shorter
  // valid frame (the same invariant the request codec holds).
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    FrameView partial;
    std::size_t used = 0;
    EXPECT_EQ(DecodeFrame(bytes.data(), len, &partial, &used, &error),
              DecodeStatus::kNeedMore)
        << "prefix " << len;
  }
}

TEST(PushProtocol, UnsubscribeRoundTrips) {
  WireUnsubscribe unsubscribe;
  unsubscribe.request_id = 91;
  unsubscribe.subscription_id = 0xabcdefull;

  std::vector<std::uint8_t> bytes;
  wire::EncodeUnsubscribe(unsubscribe, bytes);

  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error),
            DecodeStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kUnsubscribe);

  WireUnsubscribe decoded;
  ASSERT_EQ(wire::DecodeUnsubscribe(frame.payload, frame.payload_size,
                                    &decoded, &error),
            wire::BodyStatus::kOk);
  EXPECT_EQ(decoded.request_id, unsubscribe.request_id);
  EXPECT_EQ(decoded.subscription_id, unsubscribe.subscription_id);
}

TEST(PushProtocol, SubscribeAckRoundTripsEveryStatus) {
  for (WireStatus status :
       {WireStatus::kOk, WireStatus::kWrongWorker,
        WireStatus::kMalformedRequest, WireStatus::kTransportError}) {
    WireSubscribeAck ack;
    ack.request_id = 7;
    ack.status = status;
    ack.subscription_id = 0x300;
    ack.start_cursor = 0x123456789abcull;  // kWrongWorker: the plan epoch

    std::vector<std::uint8_t> bytes;
    wire::EncodeSubscribeAck(ack, bytes);

    FrameView frame;
    std::size_t consumed = 0;
    std::string error;
    ASSERT_EQ(
        DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed, &error),
        DecodeStatus::kOk);
    EXPECT_EQ(frame.type, FrameType::kSubscribeAck);

    WireSubscribeAck decoded;
    ASSERT_TRUE(wire::DecodeSubscribeAck(frame.payload, frame.payload_size,
                                         &decoded, &error))
        << error;
    EXPECT_EQ(decoded.request_id, ack.request_id);
    EXPECT_EQ(decoded.status, status);
    EXPECT_EQ(decoded.subscription_id, ack.subscription_id);
    EXPECT_EQ(decoded.start_cursor, ack.start_cursor);
  }
}

TEST(PushProtocol, EventRoundTrips) {
  WireEvent event;
  event.subscription_id = 17;
  event.kind = EventKind::kData;
  event.topic = PushTopic::kNotification;
  event.cursor = 10'001;
  event.aux = 42;
  event.body = "{\"level\":3}";

  std::vector<std::uint8_t> owned;
  wire::EncodeEvent(event, owned);

  FrameView frame;
  std::size_t consumed = 0;
  std::string error;
  ASSERT_EQ(DecodeFrame(owned.data(), owned.size(), &frame, &consumed, &error),
            DecodeStatus::kOk);
  EXPECT_EQ(frame.type, FrameType::kEvent);

  WireEvent decoded;
  ASSERT_TRUE(
      wire::DecodeEvent(frame.payload, frame.payload_size, &decoded, &error))
      << error;
  EXPECT_EQ(decoded.subscription_id, event.subscription_id);
  EXPECT_EQ(decoded.kind, event.kind);
  EXPECT_EQ(decoded.topic, event.topic);
  EXPECT_EQ(decoded.cursor, event.cursor);
  EXPECT_EQ(decoded.aux, event.aux);
  EXPECT_EQ(decoded.body, event.body);
}

// ---------------------------------------------------------------------------
// PushFeed: notify + bounded replay + the exactly-once seam
// ---------------------------------------------------------------------------

TEST(PushFeed, PublishAssignsMonotonicCursorsAndNotifiesListeners) {
  gateway::PushFeed feed(/*replay_capacity=*/8);
  std::vector<gateway::PushEvent> seen;
  const std::uint64_t id =
      feed.AddListener([&](const gateway::PushEvent& e) { seen.push_back(e); });

  EXPECT_EQ(feed.Publish(gateway::PushTopic::kProximity, 5, "near"), 1u);
  EXPECT_EQ(feed.Publish(gateway::PushTopic::kCallState, 5, "ringing"), 2u);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].cursor, 1u);
  EXPECT_EQ(seen[1].cursor, 2u);
  EXPECT_EQ(seen[1].body, "ringing");

  feed.RemoveListener(id);
  feed.Publish(gateway::PushTopic::kProximity, 5, "far");
  EXPECT_EQ(seen.size(), 2u);  // fence: nothing after RemoveListener
  EXPECT_EQ(feed.last_cursor(), 3u);
}

TEST(PushFeed, ReplayReportsEvictedRangeAsGap) {
  gateway::PushFeed feed(/*replay_capacity=*/3);
  for (int i = 0; i < 6; ++i) {
    feed.Publish(gateway::PushTopic::kProximity, 1, "e" + std::to_string(i));
  }
  // Ring retains cursors 4..6; a replay after cursor 1 lost [2,3].
  std::vector<std::uint64_t> cursors;
  const auto result = feed.ReplayAfter(
      1, gateway::PushTopic::kAll, 0,
      [&](const gateway::PushEvent& e) { cursors.push_back(e.cursor); });
  EXPECT_TRUE(result.gap);
  EXPECT_EQ(result.gap_first, 2u);
  EXPECT_EQ(result.gap_last, 3u);
  EXPECT_EQ(result.resume_cursor, 6u);
  EXPECT_EQ(cursors, (std::vector<std::uint64_t>{4, 5, 6}));

  // A cursor from the future (another worker's timeline after a plan
  // change) clamps down instead of replaying garbage.
  const auto clamped = feed.ReplayAfter(100, gateway::PushTopic::kAll, 0,
                                        [](const gateway::PushEvent&) {});
  EXPECT_FALSE(clamped.gap);
  EXPECT_EQ(clamped.delivered, 0u);
  EXPECT_EQ(clamped.resume_cursor, 6u);

  const auto counters = feed.GetCounters();
  EXPECT_EQ(counters.published, 6u);
  EXPECT_EQ(counters.evicted, 3u);
  EXPECT_EQ(counters.replays, 2u);
  EXPECT_EQ(counters.replay_gaps, 1u);
}

TEST(PushFeed, ReplayFromAFullRingStartsAtTheFirstNewerEvent) {
  constexpr std::uint64_t kCapacity = 1024;
  gateway::PushFeed feed(kCapacity);
  // Wrap the ring once: it retains cursors 1025..2048.
  for (std::uint64_t i = 0; i < 2 * kCapacity; ++i) {
    feed.Publish(i % 2 == 0 ? gateway::PushTopic::kProximity
                            : gateway::PushTopic::kCallState,
                 1, "e");
  }
  const std::uint64_t last = feed.last_cursor();
  ASSERT_EQ(last, 2 * kCapacity);
  struct Case {
    std::uint64_t after;
    gateway::PushTopic topic;
    std::uint64_t delivered;
    std::uint64_t resume;
    bool gap;
  };
  const Case cases[] = {
      // Live-only subscribe and up-to-date resumes: nothing to replay.
      {last, gateway::PushTopic::kAll, 0, last, false},
      {last + 7, gateway::PushTopic::kAll, 0, last, false},
      // Resumes inside the ring deliver exactly the newer events; a
      // filtered replay still resumes after the newest retained event.
      {last - 1, gateway::PushTopic::kAll, 1, last, false},
      {last - 10, gateway::PushTopic::kProximity, 5, last, false},
      {kCapacity, gateway::PushTopic::kAll, kCapacity, last, false},
      // Older than the ring: the lost range is a gap, then all of it.
      {kCapacity - 4, gateway::PushTopic::kAll, kCapacity, last, true},
      {0, gateway::PushTopic::kCallState, kCapacity / 2, last, true},
  };
  for (const Case& c : cases) {
    std::uint64_t calls = 0;
    std::uint64_t previous = c.after;
    const auto result = feed.ReplayAfter(
        c.after, c.topic, 0, [&](const gateway::PushEvent& event) {
          EXPECT_GT(event.cursor, previous) << "after " << c.after;
          previous = event.cursor;
          ++calls;
        });
    EXPECT_EQ(calls, c.delivered) << "after " << c.after;
    EXPECT_EQ(result.delivered, c.delivered) << "after " << c.after;
    EXPECT_EQ(result.resume_cursor, c.resume) << "after " << c.after;
    EXPECT_EQ(result.gap, c.gap) << "after " << c.after;
    if (c.gap) {
      EXPECT_EQ(result.gap_first, c.after + 1);
      EXPECT_EQ(result.gap_last, kCapacity);
    }
  }
}

TEST(PushFeed, AddListenerAndReplayIsExactlyOnceUnderConcurrentPublish) {
  gateway::PushFeed feed(/*replay_capacity=*/4096);
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    while (!stop.load(std::memory_order_acquire)) {
      feed.Publish(gateway::PushTopic::kProximity, 1, "x");
    }
  });

  // Subscribe mid-stream many times: replay + live must cover every
  // cursor exactly once — no duplicate at the seam, no hole.
  for (int round = 0; round < 50; ++round) {
    std::mutex mutex;
    std::vector<std::uint64_t> cursors;
    auto record = [&](const gateway::PushEvent& e) {
      std::lock_guard<std::mutex> lock(mutex);
      cursors.push_back(e.cursor);
    };
    gateway::PushFeed::ReplayResult covered;
    const std::uint64_t id = feed.AddListenerAndReplay(
        /*after=*/0, gateway::PushTopic::kAll, 0, record, record, &covered);
    while (true) {
      std::lock_guard<std::mutex> lock(mutex);
      if (cursors.size() >= covered.delivered + 3) break;
    }
    feed.RemoveListener(id);
    std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t i = 1; i < cursors.size(); ++i) {
      ASSERT_EQ(cursors[i], cursors[i - 1] + 1)
          << "seam duplicated or dropped a cursor in round " << round;
    }
  }
  stop.store(true, std::memory_order_release);
  publisher.join();
}

// ---------------------------------------------------------------------------
// Server: push over real sockets
// ---------------------------------------------------------------------------

/// Collects one subscription's callbacks behind a condition variable so
/// tests wait on state, not on sleeps.
struct Subscriber {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<WireSubscribeAck> acks;
  std::vector<WireEvent> events;

  WireClient::AckCallback OnAck() {
    return [this](const WireSubscribeAck& ack) {
      std::lock_guard<std::mutex> lock(mutex);
      acks.push_back(ack);
      cv.notify_all();
    };
  }
  WireClient::EventHandler OnEvent() {
    return [this](const WireEvent& event) {
      std::lock_guard<std::mutex> lock(mutex);
      events.push_back(event);
      cv.notify_all();
    };
  }
  bool WaitForAck(std::size_t n = 1, int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return acks.size() >= n; });
  }
  bool WaitForEvents(std::size_t n, int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mutex);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return events.size() >= n; });
  }
};

class PushServerTest : public ::testing::Test {
 protected:
  void StartAll(GatewayConfig gateway_config, WireServerConfig wire_config) {
    gateway_ = std::make_unique<Gateway>(std::move(gateway_config));
    server_ = std::make_unique<WireServer>(*gateway_, wire_config);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  void TearDown() override {
    if (server_) server_->Stop();
    if (gateway_) gateway_->Stop();
  }

  std::unique_ptr<Gateway> gateway_;
  std::unique_ptr<WireServer> server_;
};

TEST_F(PushServerTest, SubscribeDeliversEventsWithoutPolling) {
  StartAll(BaseConfig(1), {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  WireSubscribe subscribe;
  subscribe.client_id = 9;
  subscribe.topic = PushTopic::kProximity;
  subscribe.mode = SubscribeMode::kLiveOnly;
  Subscriber sub;
  ASSERT_TRUE(client.Subscribe(subscribe, sub.OnEvent(), sub.OnAck()));
  ASSERT_TRUE(sub.WaitForAck());
  ASSERT_EQ(sub.acks[0].status, WireStatus::kOk);
  EXPECT_NE(sub.acks[0].subscription_id, 0u);

  // One publish, zero polls: the event arrives because the server sent
  // it, not because anyone asked.
  gateway_->PublishEvent(9, gateway::PushTopic::kProximity, "beacon-12");
  ASSERT_TRUE(sub.WaitForEvents(1));
  {
    // Scoped: Close() fires the synthetic death marker into OnEvent,
    // which needs sub.mutex — holding it across Close() deadlocks.
    std::lock_guard<std::mutex> lock(sub.mutex);
    EXPECT_EQ(sub.events[0].kind, EventKind::kData);
    EXPECT_EQ(sub.events[0].topic, PushTopic::kProximity);
    EXPECT_EQ(sub.events[0].aux, 9u);  // origin client id
    EXPECT_EQ(sub.events[0].body, "beacon-12");
    EXPECT_EQ(sub.events[0].subscription_id, sub.acks[0].subscription_id);
  }

  const auto stats = server_->Stats();
  EXPECT_EQ(stats.subscriptions_opened, 1u);
  EXPECT_EQ(stats.subscriptions_active(), 1u);
  EXPECT_GE(stats.events_out, 1u);
  client.Close();
}

TEST_F(PushServerTest, TopicAndClientFiltersDemuxOnOneConnection) {
  StartAll(BaseConfig(1), {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));

  WireSubscribe proximity;
  proximity.client_id = 5;
  proximity.topic = PushTopic::kProximity;
  Subscriber prox_sub;
  ASSERT_TRUE(
      client.Subscribe(proximity, prox_sub.OnEvent(), prox_sub.OnAck()));
  ASSERT_TRUE(prox_sub.WaitForAck());
  ASSERT_EQ(prox_sub.acks[0].status, WireStatus::kOk);

  WireSubscribe calls;
  calls.client_id = 5;
  calls.topic = PushTopic::kCallState;
  Subscriber call_sub;
  ASSERT_TRUE(client.Subscribe(calls, call_sub.OnEvent(), call_sub.OnAck()));
  ASSERT_TRUE(call_sub.WaitForAck());
  ASSERT_EQ(call_sub.acks[0].status, WireStatus::kOk);

  gateway_->PublishEvent(5, gateway::PushTopic::kCallState, "ringing");
  gateway_->PublishEvent(5, gateway::PushTopic::kProximity, "near");
  // Another client's event reaches neither subscription... unless it is
  // a broadcast (client 0), which reaches both topic subscribers.
  gateway_->PublishEvent(7, gateway::PushTopic::kProximity, "other");

  ASSERT_TRUE(call_sub.WaitForEvents(1));
  ASSERT_TRUE(prox_sub.WaitForEvents(1));
  {
    std::lock_guard<std::mutex> lock(call_sub.mutex);
    ASSERT_EQ(call_sub.events.size(), 1u);
    EXPECT_EQ(call_sub.events[0].body, "ringing");
  }
  {
    std::lock_guard<std::mutex> lock(prox_sub.mutex);
    ASSERT_EQ(prox_sub.events.size(), 1u);
    EXPECT_EQ(prox_sub.events[0].body, "near");
  }
  client.Close();
}

TEST_F(PushServerTest, ReconnectWithCursorReplaysTheGap) {
  StartAll(BaseConfig(1), {});

  // A first subscriber sees cursors 1..3, then its connection dies.
  std::uint64_t resume_after = 0;
  {
    WireClient client;
    ASSERT_TRUE(client.Connect(server_->port()));
    WireSubscribe subscribe;
    subscribe.client_id = 4;
    subscribe.topic = PushTopic::kAll;
    Subscriber sub;
    ASSERT_TRUE(client.Subscribe(subscribe, sub.OnEvent(), sub.OnAck()));
    ASSERT_TRUE(sub.WaitForAck());
    for (int i = 0; i < 3; ++i) {
      gateway_->PublishEvent(4, gateway::PushTopic::kProximity,
                             "pre" + std::to_string(i));
    }
    ASSERT_TRUE(sub.WaitForEvents(3));
    {
      std::lock_guard<std::mutex> lock(sub.mutex);
      resume_after = sub.events.back().cursor;
    }
    client.Close();
  }

  // Events published while disconnected.
  gateway_->PublishEvent(4, gateway::PushTopic::kProximity, "missed-a");
  gateway_->PublishEvent(4, gateway::PushTopic::kProximity, "missed-b");

  // Reconnect from the last cursor: the replay hands over exactly the
  // missed window, then the stream goes live.
  WireClient fresh;
  ASSERT_TRUE(fresh.Connect(server_->port()));
  WireSubscribe resubscribe;
  resubscribe.client_id = 4;
  resubscribe.topic = PushTopic::kAll;
  resubscribe.mode = SubscribeMode::kFromCursor;
  resubscribe.cursor = resume_after;
  Subscriber sub;
  ASSERT_TRUE(fresh.Subscribe(resubscribe, sub.OnEvent(), sub.OnAck()));
  ASSERT_TRUE(sub.WaitForAck());
  ASSERT_EQ(sub.acks[0].status, WireStatus::kOk);
  ASSERT_TRUE(sub.WaitForEvents(2));
  gateway_->PublishEvent(4, gateway::PushTopic::kProximity, "live");
  ASSERT_TRUE(sub.WaitForEvents(3));

  {
    std::lock_guard<std::mutex> lock(sub.mutex);
    EXPECT_EQ(sub.events[0].body, "missed-a");
    EXPECT_EQ(sub.events[1].body, "missed-b");
    EXPECT_EQ(sub.events[2].body, "live");
    for (std::size_t i = 1; i < sub.events.size(); ++i) {
      EXPECT_GT(sub.events[i].cursor, sub.events[i - 1].cursor);
    }
  }
  fresh.Close();
}

TEST_F(PushServerTest, StaleCursorGetsTypedGapMarkerThenData) {
  GatewayConfig config = BaseConfig(1);
  config.push_replay_capacity = 3;  // ring retains only the newest 3
  StartAll(std::move(config), {});
  for (int i = 1; i <= 6; ++i) {
    gateway_->PublishEvent(2, gateway::PushTopic::kProximity,
                           "e" + std::to_string(i));
  }

  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  WireSubscribe subscribe;
  subscribe.client_id = 2;
  subscribe.topic = PushTopic::kAll;
  subscribe.mode = SubscribeMode::kFromCursor;
  subscribe.cursor = 1;  // [2,3] were evicted; 4..6 retained
  Subscriber sub;
  ASSERT_TRUE(client.Subscribe(subscribe, sub.OnEvent(), sub.OnAck()));
  ASSERT_TRUE(sub.WaitForAck());
  ASSERT_TRUE(sub.WaitForEvents(4));

  {
    std::lock_guard<std::mutex> lock(sub.mutex);
    EXPECT_EQ(sub.events[0].kind, EventKind::kEventsDropped);
    EXPECT_EQ(sub.events[0].aux, 2u);     // gap start
    EXPECT_EQ(sub.events[0].cursor, 3u);  // gap end
    EXPECT_EQ(sub.events[1].body, "e4");
    EXPECT_EQ(sub.events[2].body, "e5");
    EXPECT_EQ(sub.events[3].body, "e6");
  }
  client.Close();
}

TEST_F(PushServerTest, DrainOnceReplaysEmitsEndMarkerAndAutoCloses) {
  StartAll(BaseConfig(1), {});
  for (int i = 0; i < 3; ++i) {
    gateway_->PublishEvent(8, gateway::PushTopic::kNotification,
                           "n" + std::to_string(i));
  }

  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  WireSubscribe drain;
  drain.client_id = 8;
  drain.topic = PushTopic::kAll;
  drain.mode = SubscribeMode::kDrainOnce;
  drain.cursor = 0;
  Subscriber sub;
  ASSERT_TRUE(client.Subscribe(drain, sub.OnEvent(), sub.OnAck()));
  ASSERT_TRUE(sub.WaitForAck());
  ASSERT_TRUE(sub.WaitForEvents(4));
  {
    std::lock_guard<std::mutex> lock(sub.mutex);
    EXPECT_EQ(sub.events[0].body, "n0");
    EXPECT_EQ(sub.events[2].body, "n2");
    EXPECT_EQ(sub.events[3].kind, EventKind::kEndOfDrain);
    // The end marker carries the resume point for the next drain.
    EXPECT_EQ(sub.events[3].cursor, sub.events[2].cursor);
  }

  // Auto-closed: later publishes deliver nothing to this subscription.
  gateway_->PublishEvent(8, gateway::PushTopic::kNotification, "after");
  WireResponse response;
  ASSERT_TRUE(client.Call(HttpGet(8), &response));  // round-trip fence
  {
    std::lock_guard<std::mutex> lock(sub.mutex);
    EXPECT_EQ(sub.events.size(), 4u);
  }
  EXPECT_EQ(server_->Stats().subscriptions_active(), 0u);
  client.Close();
}

TEST_F(PushServerTest, UnsubscribeStopsDeliveryAndAcks) {
  StartAll(BaseConfig(1), {});
  WireClient client;
  ASSERT_TRUE(client.Connect(server_->port()));
  WireSubscribe subscribe;
  subscribe.client_id = 3;
  subscribe.topic = PushTopic::kAll;
  Subscriber sub;
  ASSERT_TRUE(client.Subscribe(subscribe, sub.OnEvent(), sub.OnAck()));
  ASSERT_TRUE(sub.WaitForAck());
  const std::uint64_t id = sub.acks[0].subscription_id;

  Subscriber unsub;
  ASSERT_TRUE(client.Unsubscribe(id, unsub.OnAck()));
  ASSERT_TRUE(unsub.WaitForAck());
  EXPECT_EQ(unsub.acks[0].status, WireStatus::kOk);
  EXPECT_EQ(unsub.acks[0].subscription_id, id);

  gateway_->PublishEvent(3, gateway::PushTopic::kProximity, "late");
  WireResponse response;
  ASSERT_TRUE(client.Call(HttpGet(3), &response));  // round-trip fence
  {
    std::lock_guard<std::mutex> lock(sub.mutex);
    EXPECT_TRUE(sub.events.empty());
  }
  EXPECT_EQ(server_->Stats().subscriptions_active(), 0u);

  // Unsubscribing a subscription this connection does not own is a typed
  // rejection, not a hang.
  Subscriber bogus;
  ASSERT_TRUE(client.Unsubscribe(999'999, bogus.OnAck()));
  ASSERT_TRUE(bogus.WaitForAck());
  EXPECT_EQ(bogus.acks[0].status, WireStatus::kMalformedRequest);
  client.Close();
}

TEST_F(PushServerTest, ConnectionDeathDeliversSyntheticCursorZeroMarker) {
  StartAll(BaseConfig(1), {});
  auto client = std::make_unique<WireClient>();
  ASSERT_TRUE(client->Connect(server_->port()));
  WireSubscribe subscribe;
  subscribe.client_id = 6;
  subscribe.topic = PushTopic::kAll;
  Subscriber sub;
  ASSERT_TRUE(client->Subscribe(subscribe, sub.OnEvent(), sub.OnAck()));
  ASSERT_TRUE(sub.WaitForAck());
  ASSERT_EQ(sub.acks[0].status, WireStatus::kOk);

  server_->Stop();  // peer death, from the subscriber's point of view
  ASSERT_TRUE(sub.WaitForEvents(1));
  std::lock_guard<std::mutex> lock(sub.mutex);
  EXPECT_EQ(sub.events.back().kind, EventKind::kEventsDropped);
  EXPECT_EQ(sub.events.back().cursor, 0u)
      << "the death marker must be distinguishable from a real shed range";
}

// ---------------------------------------------------------------------------
// Slow consumer: shed + gap markers + request/response still completes
// ---------------------------------------------------------------------------

/// Raw client socket: lets a test be a deliberately terrible subscriber
/// (never reading) and then pick frames off the wire by hand.
class RawConn {
 public:
  ~RawConn() { CloseNow(); }

  bool Connect(std::uint16_t port, int rcvbuf) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool Send(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Blocking-read the next well-formed frame. False on EOF/error.
  bool ReadFrame(FrameView* frame, std::vector<std::uint8_t>* storage) {
    while (true) {
      std::size_t consumed = 0;
      std::string error;
      const DecodeStatus status = DecodeFrame(
          buf_.data() + start_, buf_.size() - start_, frame, &consumed, &error);
      if (status == DecodeStatus::kOk) {
        // Hand the caller a stable copy; the ring compacts under us.
        storage->assign(buf_.begin() + static_cast<std::ptrdiff_t>(start_),
                        buf_.begin() +
                            static_cast<std::ptrdiff_t>(start_ + consumed));
        std::size_t reconsumed = 0;
        EXPECT_EQ(DecodeFrame(storage->data(), storage->size(), frame,
                              &reconsumed, &error),
                  DecodeStatus::kOk);
        start_ += consumed;
        if (start_ > 1 << 20) {
          buf_.erase(buf_.begin(), buf_.begin() + start_);
          start_ = 0;
        }
        return true;
      }
      if (status != DecodeStatus::kNeedMore) return false;
      std::uint8_t chunk[64 * 1024];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.insert(buf_.end(), chunk, chunk + n);
    }
  }

  void CloseNow() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
  std::size_t start_ = 0;
};

TEST_F(PushServerTest, SlowSubscriberShedsWithGapMarkersNotStalledResponses) {
  GatewayConfig gateway_config = BaseConfig(1);
  gateway_config.push_replay_capacity = 8;  // keep the flood's memory small
  WireServerConfig wire_config;
  wire_config.output_high_watermark = 16 * 1024;
  wire_config.output_low_watermark = 4 * 1024;
  wire_config.push_queue_capacity = 8;
  StartAll(std::move(gateway_config), wire_config);

  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port(), /*rcvbuf=*/4096));
  WireSubscribe subscribe;
  subscribe.request_id = 1;
  subscribe.client_id = 11;
  subscribe.topic = PushTopic::kAll;
  std::vector<std::uint8_t> bytes;
  wire::EncodeSubscribe(subscribe, bytes);
  ASSERT_TRUE(conn.Send(bytes));

  FrameView frame;
  std::vector<std::uint8_t> storage;
  ASSERT_TRUE(conn.ReadFrame(&frame, &storage));
  ASSERT_EQ(frame.type, FrameType::kSubscribeAck);
  WireSubscribeAck ack;
  std::string error;
  ASSERT_TRUE(
      wire::DecodeSubscribeAck(frame.payload, frame.payload_size, &ack, &error));
  ASSERT_EQ(ack.status, WireStatus::kOk);

  // Flood without reading: enough bytes to fill the kernel's socket
  // buffers AND the server's output queue up to the watermark, so the
  // pump gates and the per-subscription queue (capacity 8) must shed.
  const int kEvents = 256;
  const std::string body(64 * 1024, 'x');
  for (int i = 0; i < kEvents; ++i) {
    gateway_->PublishEvent(11, gateway::PushTopic::kProximity, body);
  }
  // Request/response on the SAME connection, sent mid-flood. (The server
  // may have paused reading at the high watermark — the request parks in
  // kernel buffers until we start draining, then must complete.)
  WireRequest request = HttpGet(11);
  request.request_id = 42;
  std::vector<std::uint8_t> request_bytes;
  wire::EncodeRequest(request, request_bytes);
  ASSERT_TRUE(conn.Send(request_bytes));

  // Drain: every published cursor must be delivered or gap-covered, and
  // the response must arrive — shedding, not stalling.
  std::set<std::uint64_t> delivered;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> gaps;
  bool response_seen = false;
  std::uint64_t accounted = 0;
  while (accounted < static_cast<std::uint64_t>(kEvents) || !response_seen) {
    ASSERT_TRUE(conn.ReadFrame(&frame, &storage))
        << "connection died with " << accounted << "/" << kEvents
        << " cursors accounted, response_seen=" << response_seen;
    if (frame.type == FrameType::kResponse) {
      WireResponse response;
      ASSERT_TRUE(wire::DecodeResponse(frame.payload, frame.payload_size,
                                       &response, &error));
      EXPECT_EQ(response.request_id, 42u);
      EXPECT_EQ(response.status, WireStatus::kOk);
      response_seen = true;
      continue;
    }
    ASSERT_EQ(frame.type, FrameType::kEvent);
    WireEvent event;
    ASSERT_TRUE(
        wire::DecodeEvent(frame.payload, frame.payload_size, &event, &error));
    if (event.kind == EventKind::kData) {
      EXPECT_TRUE(delivered.insert(event.cursor).second)
          << "cursor " << event.cursor << " delivered twice";
      ++accounted;
    } else if (event.kind == EventKind::kEventsDropped) {
      ASSERT_GE(event.aux, 1u);
      ASSERT_GE(event.cursor, event.aux);
      gaps.emplace_back(event.aux, event.cursor);
      accounted += event.cursor - event.aux + 1;
    }
  }

  // Exactly-once-or-counted: cursors 1..kEvents partition into delivered
  // and gap ranges with no overlap.
  ASSERT_FALSE(gaps.empty()) << "flood never shed — test lost its teeth";
  for (const auto& [first, last] : gaps) {
    for (std::uint64_t c = first; c <= last; ++c) {
      EXPECT_EQ(delivered.count(c), 0u)
          << "cursor " << c << " both delivered and gap-covered";
    }
  }
  const auto stats = server_->Stats();
  EXPECT_GE(stats.events_dropped, 1u);
  EXPECT_GE(stats.gap_markers, 1u);
  conn.CloseNow();
}

TEST_F(PushServerTest, ClientSentEventFramesAreDirectionViolations) {
  StartAll(BaseConfig(1), {});
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port(), 0));
  WireEvent event;
  event.subscription_id = 1;
  std::vector<std::uint8_t> bytes;
  wire::EncodeEvent(event, bytes);
  ASSERT_TRUE(conn.Send(bytes));
  // Server closes the connection: next read is EOF, no reply frame.
  FrameView frame;
  std::vector<std::uint8_t> storage;
  EXPECT_FALSE(conn.ReadFrame(&frame, &storage));
  EXPECT_GE(server_->Stats().protocol_errors, 1u);
}

TEST_F(PushServerTest, MalformedSubscribeBodyGetsTypedAck) {
  StartAll(BaseConfig(1), {});
  RawConn conn;
  ASSERT_TRUE(conn.Connect(server_->port(), 0));
  // Valid frame, valid request id (7), then garbage where the body's
  // client id varint should be (0xff * 10 overflows any varint).
  std::vector<std::uint8_t> bytes = {7};
  bytes.insert(bytes.end(), 10, 0xff);
  wire::FinishFrame(bytes, 0, FrameType::kSubscribe);
  ASSERT_TRUE(conn.Send(bytes));

  FrameView frame;
  std::vector<std::uint8_t> storage;
  ASSERT_TRUE(conn.ReadFrame(&frame, &storage));
  ASSERT_EQ(frame.type, FrameType::kSubscribeAck);
  WireSubscribeAck ack;
  std::string error;
  ASSERT_TRUE(
      wire::DecodeSubscribeAck(frame.payload, frame.payload_size, &ack, &error));
  EXPECT_EQ(ack.request_id, 7u);
  EXPECT_EQ(ack.status, WireStatus::kMalformedRequest);

  // The connection survives a typed rejection.
  WireRequest request = HttpGet(1);
  request.request_id = 8;
  std::vector<std::uint8_t> request_bytes;
  wire::EncodeRequest(request, request_bytes);
  ASSERT_TRUE(conn.Send(request_bytes));
  ASSERT_TRUE(conn.ReadFrame(&frame, &storage));
  EXPECT_EQ(frame.type, FrameType::kResponse);
}

// ---------------------------------------------------------------------------
// NotificationTable: the lost-notification bugfix (regression)
// ---------------------------------------------------------------------------

TEST(PushNotificationTable, PendingIsCappedDropOldestAndCounted) {
  // Pre-fix, a channel nobody polls grew without bound and posts past
  // any reasonable buffer vanished on process death uncounted. Now: cap,
  // drop-oldest, count.
  NotificationTable table(/*pending_cap=*/4);
  const std::int64_t channel = table.NewChannel();
  for (int i = 0; i < 10; ++i) {
    table.Post(channel, Value::Number(i));
  }
  EXPECT_EQ(table.PendingCount(channel), 4u);
  EXPECT_EQ(table.dropped(), 6u);

  // The survivors are the NEWEST four — a prompt poller still sees the
  // latest burst, not a stale prefix.
  const std::vector<Value> drained = table.Drain(channel);
  ASSERT_EQ(drained.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(drained[static_cast<std::size_t>(i)].is_number());
    EXPECT_EQ(drained[static_cast<std::size_t>(i)].as_number(), 6.0 + i);
  }
}

TEST(PushNotificationTable, PostToNeverAllocatedIdIsDroppedAndCounted) {
  NotificationTable table(/*pending_cap=*/4);
  const std::int64_t channel = table.NewChannel();
  const std::size_t before = table.channel_count();
  table.Post(9999, Value::String("no such channel"));
  EXPECT_EQ(table.dropped(), 1u);
  EXPECT_EQ(table.channel_count(), before);  // no implicit table growth
  table.Post(channel, Value::Number(1));
  EXPECT_EQ(table.PendingCount(channel), 1u);
  EXPECT_EQ(table.dropped(), 1u);
}

TEST(PushNotificationTable, PostListenerSeesEveryAcceptedPostBeforeEviction) {
  NotificationTable table(/*pending_cap=*/2);
  std::vector<std::pair<std::int64_t, double>> seen;
  table.SetPostListener([&](std::int64_t channel, const Value& value) {
    ASSERT_TRUE(value.is_number());
    seen.emplace_back(channel, value.as_number());
  });
  const std::int64_t channel = table.NewChannel();
  for (int i = 0; i < 5; ++i) table.Post(channel, Value::Number(i));
  // Push delivery never loses what polling would have: the bridge saw
  // all five accepted posts even though the cap kept only two.
  ASSERT_EQ(seen.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].second, 1.0 * i);
  }
  EXPECT_EQ(table.PendingCount(channel), 2u);
  // But a rejected post (never-allocated id) is NOT bridged.
  table.Post(4242, Value::Number(99));
  EXPECT_EQ(seen.size(), 5u);
}

// ---------------------------------------------------------------------------
// WireClient: teardown vs in-flight Submit (the satellite-2 race)
// ---------------------------------------------------------------------------

TEST(WireClientTeardown, CloseNeverRacesInFlightSubmits) {
  // Pre-fix, Close()/reclaim closed fd_ without holding send_mutex_, so a
  // Submit mid-WriteAll could write into a recycled descriptor (and the
  // plain-int fd_ was a data race under TSan). Hammer the interleaving:
  // every Submit's callback must fire exactly once, whatever side of the
  // close it lands on.
  GatewayConfig gateway_config = BaseConfig(1);
  Gateway gateway(std::move(gateway_config));
  WireServer server(gateway, {});
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  for (int round = 0; round < 8; ++round) {
    WireClient client;
    ASSERT_TRUE(client.Connect(server.port()));
    std::atomic<int> submitted{0};
    std::atomic<int> completed{0};
    std::vector<std::thread> writers;
    for (int t = 0; t < 3; ++t) {
      writers.emplace_back([&] {
        for (int i = 0; i < 200; ++i) {
          submitted.fetch_add(1, std::memory_order_relaxed);
          client.Submit(HttpGet(1), [&](const WireResponse&) {
            completed.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
    // Land the close mid-burst.
    std::this_thread::sleep_for(std::chrono::microseconds(200 * round));
    client.Close();
    for (auto& thread : writers) thread.join();
    // Close() joined the reader and failed everything outstanding; any
    // Submit after it fails inline. Either way: exactly once each.
    EXPECT_EQ(completed.load(), submitted.load()) << "round " << round;
  }
  server.Stop();
  gateway.Stop();
}

// ---------------------------------------------------------------------------
// ParseWrongWorkerEpoch: strict parse (the satellite-3 bug)
// ---------------------------------------------------------------------------

TEST(PushEpochParse, StrictDigitsOnly) {
  using cluster::ParseWrongWorkerEpoch;
  EXPECT_EQ(ParseWrongWorkerEpoch("0"), 0u);
  EXPECT_EQ(ParseWrongWorkerEpoch("7"), 7u);
  EXPECT_EQ(ParseWrongWorkerEpoch("123456789"), 123456789u);
  EXPECT_EQ(ParseWrongWorkerEpoch("18446744073709551615"),
            18446744073709551615ull);  // UINT64_MAX parses exactly

  // Everything a buggy or hostile worker could send maps to 0 ("refresh
  // to anything newer"), never to a saturated or partial epoch.
  EXPECT_EQ(ParseWrongWorkerEpoch(""), 0u);
  EXPECT_EQ(ParseWrongWorkerEpoch("abc"), 0u);
  EXPECT_EQ(ParseWrongWorkerEpoch("12x"), 0u);    // trailing garbage
  EXPECT_EQ(ParseWrongWorkerEpoch(" 12"), 0u);    // leading space
  EXPECT_EQ(ParseWrongWorkerEpoch("12 "), 0u);
  EXPECT_EQ(ParseWrongWorkerEpoch("-1"), 0u);
  EXPECT_EQ(ParseWrongWorkerEpoch("+1"), 0u);
  EXPECT_EQ(ParseWrongWorkerEpoch("0x10"), 0u);
  EXPECT_EQ(ParseWrongWorkerEpoch("18446744073709551616"), 0u);  // MAX+1
  EXPECT_EQ(ParseWrongWorkerEpoch("99999999999999999999999"), 0u);
  EXPECT_EQ(ParseWrongWorkerEpoch(std::string("1\0", 2)), 0u);  // embedded NUL
  EXPECT_EQ(ParseWrongWorkerEpoch("1.0"), 0u);
}

TEST(PushEpochParse, MalformedBodyCorpusNeverMisparses) {
  // Deterministic corpus of hostile bodies (the satellite-3 fuzz sweep):
  // the strict parser must agree with a trivially-correct reference on
  // every input — in particular it must not saturate on overflow the way
  // the old strtoull-based parse did.
  auto reference = [](const std::string& body) -> std::uint64_t {
    if (body.empty()) return 0;
    for (char c : body) {
      if (c < '0' || c > '9') return 0;
    }
    // 128-bit accumulation: overflow detected exactly, no width games.
    unsigned __int128 value = 0;
    for (char c : body) {
      value = value * 10 + static_cast<unsigned>(c - '0');
      if (value > std::numeric_limits<std::uint64_t>::max()) return 0;
    }
    return static_cast<std::uint64_t>(value);
  };

  support::SplitMix64 rng{0xec0c0ull};
  const char alphabet[] = "0123456789 -+.xeE\xff\x00" "abz";
  for (int iteration = 0; iteration < 20'000; ++iteration) {
    std::string body;
    const std::size_t len = rng.Next() % 24;
    for (std::size_t i = 0; i < len; ++i) {
      // Bias toward digits so plenty of the corpus is almost-valid.
      if (rng.Next() % 4 != 0) {
        body.push_back(static_cast<char>('0' + rng.Next() % 10));
      } else {
        body.push_back(alphabet[rng.Next() % (sizeof(alphabet) - 1)]);
      }
    }
    ASSERT_EQ(cluster::ParseWrongWorkerEpoch(body), reference(body))
        << "iteration " << iteration << " body \"" << body << '"';
  }
}

}  // namespace
}  // namespace mobivine
