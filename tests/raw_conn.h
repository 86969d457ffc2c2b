// A blocking loopback socket that speaks frames by hand, for the wire
// and cluster tests that need byte-level control the WireClient (and the
// ControlChannel that rides it) deliberately forbid: hostile bytes and
// half-closes toward a server, and, accepted from a RawListener, a peer
// that answers a client with garbled frames or hangs up on it mid-wait.
// Also a thread count for the tests that pin how many loops a server
// runs.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <vector>

#include "wire/protocol.h"

namespace mobivine::wire_testing {

class RawConn {
 public:
  ~RawConn() { CloseNow(); }

  [[nodiscard]] bool Connect(std::uint16_t port, int rcvbuf = 0,
                             int rcvtimeo_ms = 10000) {
    // A retry after a refused connect starts on a new socket.
    Adopt(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0), rcvtimeo_ms);
    if (fd_ < 0) return false;
    if (rcvbuf > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    const sockaddr_in addr = Loopback(port);
    return ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr) == 0;
  }

  /// Take over a connected socket (RawListener::Accept).
  void Adopt(int fd, int rcvtimeo_ms = 10000) {
    CloseNow();
    fd_ = fd;
    buf_.clear();
    start_ = 0;
    peer_closed_ = false;
    if (fd_ >= 0) SetReceiveTimeout(fd_, rcvtimeo_ms);
  }

  static sockaddr_in Loopback(std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    return addr;
  }

  /// Reads (and accepts) fail loud instead of hanging the test.
  static void SetReceiveTimeout(int fd, int timeout_ms) {
    timeval tv{timeout_ms / 1000, (timeout_ms % 1000) * 1000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }

  [[nodiscard]] bool Send(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      // MSG_NOSIGNAL: a peer that already closed is a false return, not
      // SIGPIPE for the test process.
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  /// Half-close: the peer reads EOF after the bytes already sent, and
  /// can still answer on the other direction.
  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Read until one whole frame decodes, of any type; its type and a
  /// copy of its payload land in the outputs. False on EOF, read
  /// timeout, or malformed bytes from the peer.
  [[nodiscard]] bool RecvFrame(wire::FrameType* type,
                               std::vector<std::uint8_t>* payload) {
    while (true) {
      wire::FrameView frame;
      std::size_t consumed = 0;
      const wire::DecodeStatus status =
          wire::DecodeFrame(buf_.data() + start_, buf_.size() - start_,
                            &frame, &consumed, nullptr);
      if (status == wire::DecodeStatus::kMalformed) return false;
      if (status == wire::DecodeStatus::kOk) {
        *type = frame.type;
        payload->assign(frame.payload, frame.payload + frame.payload_size);
        start_ += consumed;
        if (start_ == buf_.size()) {
          buf_.clear();
          start_ = 0;
        }
        return true;
      }
      std::uint8_t chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      peer_closed_ = n == 0 || (n < 0 && errno == ECONNRESET);
      if (n <= 0) return false;
      buf_.insert(buf_.end(), chunk, chunk + n);
    }
  }

  /// Read until one whole response frame decodes. False on EOF, read
  /// timeout, malformed bytes, or a frame of another type.
  [[nodiscard]] bool RecvResponse(wire::WireResponse* response) {
    wire::FrameType type{};
    std::vector<std::uint8_t> payload;
    return RecvFrame(&type, &payload) && type == wire::FrameType::kResponse &&
           wire::DecodeResponse(payload.data(), payload.size(), response,
                                nullptr);
  }

  /// True if the peer closed this connection (EOF within the timeout).
  [[nodiscard]] bool WaitForClose() {
    std::uint8_t chunk[4096];
    while (true) {
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      return n == 0;  // timeout or error means "not closed"
    }
  }

  /// True once a read has seen the peer close (EOF or reset), not a
  /// timeout.
  [[nodiscard]] bool peer_closed() const { return peer_closed_; }

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
  bool peer_closed_ = false;
};

/// A loopback listener on a kernel-assigned port: the peer end for tests
/// of a client, one accepted RawConn at a time.
class RawListener {
 public:
  RawListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    RawConn::SetReceiveTimeout(fd_, 10000);  // bounds Accept
    sockaddr_in addr = RawConn::Loopback(0);
    socklen_t len = sizeof addr;
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
        ::listen(fd_, 4) == 0 &&
        ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
      port_ = ntohs(addr.sin_port);
    }
  }
  ~RawListener() { ::close(fd_); }

  RawListener(const RawListener&) = delete;
  RawListener& operator=(const RawListener&) = delete;

  /// 0 when the listener could not be opened.
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Accept one connection into `conn`. False on error or after ten
  /// seconds with no client.
  [[nodiscard]] bool Accept(RawConn* conn) {
    const int fd = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    conn->Adopt(fd);
    return fd >= 0;
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Threads this process runs now (Linux: one /proc/self/task entry each).
inline std::size_t ProcessThreads() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/task"),
      std::filesystem::directory_iterator{}));
}

}  // namespace mobivine::wire_testing
