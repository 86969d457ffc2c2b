// M-Cluster control plane: the REGISTER/HEARTBEAT/PLAN/DRAIN frame
// family and the channel that speaks it over a wire::WireClient.
//
// Control traffic rides the same M-Wire envelope as data (magic/version/
// type/varint-length/CRC — wire/protocol.h) under FrameType::kControl, so
// one socket layer, one fuzzer and one failure table cover both planes.
// The payload is one ControlMessage, declared once by ControlLayout in
// control.cpp (docs/wire-protocol.md#kcontrol lists its fields). Every
// op encodes the full field set (control frames are rare and tiny;
// uniformity beats per-op schemas), and the leading varint correlation
// id keeps the kUnsupportedFrame convention intact: a data-only server
// answering a control frame in-band echoes an id the sender can
// correlate.
//
// Message flow (C = controller, W = worker agent, R = cluster client):
//
//     W -> C  kRegister(worker_id, data_port)      -> kRegisterAck(plan)
//     W -> C  kHeartbeat(worker_id, epoch)         -> kHeartbeatAck(epoch)
//     R -> C  kPlanGet                             -> kPlanPush(plan)
//     C -> *  kPlanPush(plan)      unsolicited on every epoch change
//     W -> C  kLeave(worker_id)                    -> kLeaveAck
//     C -> W  kDrain(epoch)        after a leave   -> kDrainAck(worker_id)
//     C -> *  kError(message)      unknown/invalid control op
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/plan.h"
#include "wire/client.h"
#include "wire/protocol.h"

namespace mobivine::cluster {

/// The control ops, declared once: X(enumerator, wire code, name). The
/// flow above is their protocol; an unsolicited kPlanPush carries
/// correlation id 0.
#define MOBIVINE_CLUSTER_CONTROL_OPS(X) \
  X(kRegister, 1, "register")           \
  X(kRegisterAck, 2, "register-ack")    \
  X(kHeartbeat, 3, "heartbeat")         \
  X(kHeartbeatAck, 4, "heartbeat-ack")  \
  X(kPlanGet, 5, "plan-get")            \
  X(kPlanPush, 6, "plan-push")          \
  X(kLeave, 7, "leave")                 \
  X(kLeaveAck, 8, "leave-ack")          \
  X(kDrain, 9, "drain")                 \
  X(kDrainAck, 10, "drain-ack")         \
  X(kError, 11, "error")

MOBIVINE_WIRE_ENUM(ControlOp, MOBIVINE_CLUSTER_CONTROL_OPS)

[[nodiscard]] const char* ToString(ControlOp op);

#define MOBIVINE_CLUSTER_ACK_STATUSES(X) \
  X(kOk, 0, "ok")                        \
  X(kRejected, 1, "e.g. register with worker_id 0")
MOBIVINE_WIRE_ENUM(AckStatus, MOBIVINE_CLUSTER_ACK_STATUSES)

/// One control message, any direction. Unused fields stay zero/empty.
struct ControlMessage {
  std::uint64_t correlation_id = 0;
  ControlOp op = ControlOp::kError;
  std::uint64_t worker_id = 0;
  std::uint64_t data_port = 0;
  std::uint64_t epoch = 0;
  AckStatus status = AckStatus::kOk;
  PartitionPlan plan;
  std::string message;
};

/// Pooled-buffer size hint for one encoded control frame.
inline constexpr std::size_t kControlFrameHint = 256;

/// Append one kControl frame carrying `message` to `out`.
bool EncodeControl(const ControlMessage& message,
                   std::vector<std::uint8_t>& out);

/// Decode a kControl frame payload. False (with `error`) on any
/// violation — truncation, caps, an op byte outside the enum.
[[nodiscard]] bool DecodeControl(const std::uint8_t* payload,
                                 std::size_t size, ControlMessage* message,
                                 std::string* error);

/// The control plane's client end: a wire::WireClient, whose frames
/// without an owner are this channel's, plus one correlation-id waiter.
/// Every control frame but the awaited reply goes to the push handler
/// given at construction, on the link's reader thread, in arrival order;
/// it hears a null message once when the link dies, and must neither
/// block on this channel nor Close() it. A Roundtrip fails at once, not
/// at its deadline, when the link dies, when the peer sends an
/// undecodable control frame (the link is dropped) and when a data-plane
/// peer answers kUnsupportedFrame in-band. One user thread at a time.
class ControlChannel {
 public:
  using PushHandler = std::function<void(const ControlMessage* push)>;

  explicit ControlChannel(PushHandler on_push = nullptr)
      : on_push_(std::move(on_push)) {}
  ~ControlChannel();

  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  [[nodiscard]] bool Connect(std::uint16_t port,
                             const wire::ConnectOptions& options,
                             std::string* error = nullptr);

  [[nodiscard]] bool Send(const ControlMessage& message,
                          std::string* error = nullptr);

  /// Send with a fresh nonzero correlation id; wait for its reply.
  [[nodiscard]] bool Roundtrip(ControlMessage request, ControlMessage* reply,
                               std::uint64_t timeout_us,
                               std::string* error = nullptr);

  void Close() { client_.Close(); }

  [[nodiscard]] bool connected() const { return client_.connected(); }

 private:
  /// The link's unowned-frame handler (reader thread).
  bool OnFrame(const wire::FrameView* frame);
  /// End the waiting Roundtrip, if any: with `reply` when given (and it
  /// carries the awaited id), else with `failure`. False when none ended.
  bool Finish(std::string failure, ControlMessage* reply = nullptr);

  const PushHandler on_push_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::uint64_t next_correlation_ = 1;
  /// The Roundtrip in flight (id 0: none), and how it ended.
  std::uint64_t waiting_for_ = 0;
  ControlMessage* reply_ = nullptr;
  bool done_ = false;
  std::string failure_;
  wire::WireClient client_;  ///< last: its reader calls into the above
};

}  // namespace mobivine::cluster
