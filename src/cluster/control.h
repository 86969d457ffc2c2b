// M-Cluster control plane: the REGISTER/HEARTBEAT/PLAN/DRAIN frame
// family and a small blocking channel for speaking it.
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

#include <cstdint>
#include <functional>
#include <string>
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

/// Append one kControl frame carrying `message` to `out`.
bool EncodeControl(const ControlMessage& message,
                   std::vector<std::uint8_t>& out);

/// Decode a kControl frame payload. False (with `error`) on any
/// violation — truncation, caps, an op byte outside the enum.
[[nodiscard]] bool DecodeControl(const std::uint8_t* payload,
                                 std::size_t size, ControlMessage* message,
                                 std::string* error);

/// A blocking control-plane socket: connect with wire::ConnectOptions
/// (bounded timeout + backoff), send messages whole, receive frames with
/// a receive-timeout deadline. Single-threaded by design — each user (worker
/// agent, cluster client, test harness) owns one channel and serializes
/// its use; there is no background reader.
class ControlChannel {
 public:
  ControlChannel() = default;
  ~ControlChannel();

  ControlChannel(const ControlChannel&) = delete;
  ControlChannel& operator=(const ControlChannel&) = delete;

  [[nodiscard]] bool Connect(std::uint16_t port,
                             const wire::ConnectOptions& options,
                             std::string* error = nullptr);

  [[nodiscard]] bool Send(const ControlMessage& message,
                          std::string* error = nullptr);

  /// Block up to `timeout_us` for the next control frame (unsolicited
  /// pushes included — callers dispatch on op/correlation). False on
  /// timeout, transport death, or a non-control/undecodable frame; a
  /// timeout sets `*timed_out` true when given. A kResponse frame with
  /// status kUnsupportedFrame (a data-plane peer that speaks no control)
  /// also returns false with a descriptive error.
  [[nodiscard]] bool Receive(ControlMessage* message, std::uint64_t timeout_us,
                             std::string* error = nullptr,
                             bool* timed_out = nullptr);

  /// Request/response: send with a fresh nonzero correlation id, then
  /// receive until the reply with that id arrives or the deadline
  /// passes. Frames that are not the reply are handed to `on_push` (when
  /// set) — unsolicited kPlanPush frames must not be dropped mid-wait.
  [[nodiscard]] bool Roundtrip(
      ControlMessage request, ControlMessage* reply, std::uint64_t timeout_us,
      std::string* error = nullptr,
      const std::function<void(const ControlMessage&)>& on_push = nullptr);

  void Close();

  [[nodiscard]] bool connected() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
  std::uint64_t next_correlation_ = 1;
  std::vector<std::uint8_t> carry_;    ///< partial-frame bytes between reads
  std::vector<std::uint8_t> scratch_;  ///< encode buffer, reused
};

}  // namespace mobivine::cluster
