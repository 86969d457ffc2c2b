#include "cluster/control.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "wire/payload.h"

namespace mobivine::cluster {

namespace {

/// Plans are small (a handful of workers), but the decoder still bounds
/// the count before reserving — same discipline as the data plane's caps.
constexpr std::uint64_t kMaxPlanMembers = 4096;
constexpr std::uint64_t kMaxPort = 0xffff;

constexpr std::size_t kReadChunk = 16 * 1024;

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
  Close();
  fd_ = wire::ConnectLoopback(port, options, error);
  carry_.clear();
  return fd_ >= 0;
}

void ControlChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  carry_.clear();
}

bool ControlChannel::Send(const ControlMessage& message, std::string* error) {
  if (fd_ < 0) return Fail(error, "control channel not connected");
  scratch_.clear();
  EncodeControl(message, scratch_);
  std::size_t off = 0;
  while (off < scratch_.size()) {
    // MSG_NOSIGNAL: a peer death mid-send is this channel's error, not a
    // process-wide SIGPIPE.
    const ssize_t w = ::send(fd_, scratch_.data() + off,
                             scratch_.size() - off, MSG_NOSIGNAL);
    if (w > 0) {
      off += static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    Close();
    return Fail(error, "control send failed");
  }
  return true;
}

bool ControlChannel::Receive(ControlMessage* message, std::uint64_t timeout_us,
                             std::string* error, bool* timed_out) {
  if (timed_out != nullptr) *timed_out = false;
  if (fd_ < 0) return Fail(error, "control channel not connected");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  while (true) {
    // Decode first: a complete frame may already sit in the carry.
    wire::FrameView frame;
    std::size_t consumed = 0;
    std::string frame_error;
    const wire::DecodeStatus status = wire::DecodeFrame(
        carry_.data(), carry_.size(), &frame, &consumed, &frame_error);
    if (status == wire::DecodeStatus::kMalformed) {
      Close();
      return Fail(error, "control: malformed frame");
    }
    if (status == wire::DecodeStatus::kOk) {
      bool ok = false;
      if (frame.type == wire::FrameType::kControl) {
        ok = DecodeControl(frame.payload, frame.payload_size, message, error);
      } else if (frame.type == wire::FrameType::kResponse) {
        // A data-plane peer that answered our control frame in-band:
        // surface it as a typed failure, not a hang.
        wire::WireResponse response;
        if (DecodeResponse(frame.payload, frame.payload_size, &response,
                           nullptr) &&
            response.status == wire::WireStatus::kUnsupportedFrame) {
          (void)Fail(error, "peer does not speak the control plane");
        } else {
          (void)Fail(error, "control: unexpected response frame");
        }
      } else {
        // Unknown or data frame on the control channel: skip it — the
        // same forward-compatibility stance as the data-plane client.
        carry_.erase(carry_.begin(),
                     carry_.begin() + static_cast<std::ptrdiff_t>(consumed));
        continue;
      }
      carry_.erase(carry_.begin(),
                   carry_.begin() + static_cast<std::ptrdiff_t>(consumed));
      return ok;
    }
    // kNeedMore: wait for bytes within the deadline.
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      if (timed_out != nullptr) *timed_out = true;
      return Fail(error, "control receive timed out");
    }
    // The socket blocks; its receive timeout is the deadline (rounded up:
    // a zero timeval would mean "forever").
    const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
                          deadline - now).count() + 1;
    const timeval tv{static_cast<time_t>(left / 1'000'000),
                     static_cast<suseconds_t>(left % 1'000'000)};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    std::uint8_t chunk[kReadChunk];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (timed_out != nullptr) *timed_out = true;
      return Fail(error, "control receive timed out");
    }
    if (n <= 0) {
      Close();
      return Fail(error, "control connection closed");
    }
    carry_.insert(carry_.end(), chunk, chunk + n);
  }
}

bool ControlChannel::Roundtrip(
    ControlMessage request, ControlMessage* reply, std::uint64_t timeout_us,
    std::string* error,
    const std::function<void(const ControlMessage&)>& on_push) {
  request.correlation_id = next_correlation_++;
  if (!Send(request, error)) return false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return Fail(error, "control roundtrip timed out");
    const auto left =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
    if (!Receive(reply, static_cast<std::uint64_t>(left.count()), error)) {
      return false;
    }
    if (reply->correlation_id == request.correlation_id) return true;
    if (on_push) on_push(*reply);
  }
}

}  // namespace mobivine::cluster
