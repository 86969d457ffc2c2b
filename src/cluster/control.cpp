#include "cluster/control.h"

#include <chrono>
#include <utility>

#include "support/buffer_pool.h"
#include "wire/payload.h"

namespace mobivine::cluster {

namespace {

/// Plans are small (a handful of workers), but the decoder still bounds
/// the count before reserving — same discipline as the data plane's caps.
constexpr std::uint64_t kMaxPlanMembers = 4096;
constexpr std::uint64_t kMaxPort = 0xffff;

[[nodiscard]] bool Fail(std::string* error, const char* why) {
  if (error != nullptr) *error = why;
  return false;
}

/// The control payload, every op alike. Each group of fields fails with
/// one label (the reader runs label-only).
constexpr auto ControlLayout = [](auto& io, auto& m) {
  constexpr const char* kHeader = "control: truncated header";
  constexpr const char* kFields = "control: truncated fields";
  constexpr const char* kMember = "control: truncated plan member";
  return io.Varint(m.correlation_id, kHeader) && io.Byte(m.op, kHeader) &&
         io.Check(IsKnown(m.op), "control: unknown op") &&
         io.Varint(m.worker_id, kFields) && io.Varint(m.data_port, kFields) &&
         io.Varint(m.epoch, kFields) && io.Byte(m.status, kFields) &&
         io.Check(IsKnown(m.status), "control: unknown ack status") &&
         io.Check(m.data_port <= kMaxPort, "control: data_port out of range") &&
         io.Varint(m.plan.epoch, "control: truncated plan") &&
         io.Seq(m.plan.members, kMaxPlanMembers, "control: truncated plan",
                "control: plan member count over cap",
                [&](auto& member) {
                  return io.Varint(member.worker_id, kMember) &&
                         io.Varint(member.data_port, kMember, kMaxPort,
                                   "control: member port out of range");
                }) &&
         io.String(m.message, "control: bad message string") &&
         io.End("control: trailing bytes");
};

}  // namespace

const char* ToString(ControlOp op) {
  switch (op) {
#define MOBIVINE_X(op, code, name) \
  case ControlOp::op:              \
    return name;
    MOBIVINE_CLUSTER_CONTROL_OPS(MOBIVINE_X)
#undef MOBIVINE_X
  }
  return "unknown";
}

bool EncodeControl(const ControlMessage& message,
                   std::vector<std::uint8_t>& out) {
  return wire::WriteFrame(out, wire::FrameType::kControl, ControlLayout,
                          message);
}

bool DecodeControl(const std::uint8_t* payload, std::size_t size,
                   ControlMessage* message, std::string* error) {
  return wire::ReadPayload<bool, /*kLabelOnly=*/true>(
      payload, size, error, ControlLayout, *message);
}

// ---------------------------------------------------------------------------
// ControlChannel
// ---------------------------------------------------------------------------

ControlChannel::~ControlChannel() { Close(); }

bool ControlChannel::Connect(std::uint16_t port,
                             const wire::ConnectOptions& options,
                             std::string* error) {
  return client_.Connect(
      port, options, error,
      [this](const wire::FrameView* frame) { return OnFrame(frame); });
}

bool ControlChannel::Send(const ControlMessage& message, std::string* error) {
  support::PooledBuffer frame =
      support::BufferPool::WirePool().Acquire(kControlFrameHint);
  EncodeControl(message, frame.bytes());
  return client_.SendFrames(frame.bytes()) ||
         Fail(error, connected() ? "control send failed"
                                 : "control channel not connected");
}

bool ControlChannel::Roundtrip(ControlMessage request, ControlMessage* reply,
                               std::uint64_t timeout_us, std::string* error) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  std::unique_lock<std::mutex> lock(mutex_);
  request.correlation_id = waiting_for_ = next_correlation_++;
  reply_ = reply;
  done_ = false;
  lock.unlock();
  const bool sent = Send(request, error);
  lock.lock();
  const bool ended =
      sent && cv_.wait_until(lock, deadline, [this] { return done_; });
  waiting_for_ = 0;
  if (!sent) return false;
  if (!ended) return Fail(error, "control roundtrip timed out");
  if (failure_.empty()) return true;
  if (error != nullptr) *error = failure_;
  return false;
}

bool ControlChannel::Finish(std::string failure, ControlMessage* reply) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (waiting_for_ == 0 || done_ ||
        (reply != nullptr && reply->correlation_id != waiting_for_)) {
      return false;
    }
    if (reply != nullptr) *reply_ = std::move(*reply);
    done_ = true;
    failure_ = std::move(failure);
  }
  cv_.notify_all();
  return true;
}

bool ControlChannel::OnFrame(const wire::FrameView* frame) {
  if (frame == nullptr) {
    Finish("control connection closed");
    if (on_push_) on_push_(nullptr);
    return true;
  }
  if (frame->type == wire::FrameType::kResponse) {
    // A data-plane peer that answered our control frame in-band: a typed
    // failure, not a hang.
    wire::WireResponse response;
    const bool unsupported =
        DecodeResponse(frame->payload, frame->payload_size, &response,
                       nullptr) &&
        response.status == wire::WireStatus::kUnsupportedFrame;
    Finish(unsupported ? "peer does not speak the control plane"
                       : "control: unexpected response frame");
    return true;
  }
  ControlMessage message;
  std::string error;
  if (!DecodeControl(frame->payload, frame->payload_size, &message, &error)) {
    Finish(std::move(error));
    return false;  // drops the link
  }
  if (!Finish({}, &message) && on_push_) on_push_(&message);
  return true;
}

}  // namespace mobivine::cluster
