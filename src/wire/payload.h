// The frame-payload reader and string writer behind every codec: the
// data plane's (wire/protocol.cpp) and the cluster control plane's
// (cluster/control.cpp). Internal to those codecs; peers see only the
// bytes, whose layout wire/protocol.h documents.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/varint.h"
#include "wire/protocol.h"

namespace mobivine::wire {

/// Append a varint length and the bytes of `s`.
inline void PutString(std::vector<std::uint8_t>& out, std::string_view s) {
  support::PutVarint(out, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

/// Sequential reader over a frame payload. Every getter returns false on
/// violation (truncation or a cap breach) and records why, prefixed with
/// the field name it was given.
class PayloadReader {
 public:
  PayloadReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool Varint(std::uint64_t* value, const char* what) {
    std::size_t consumed = 0;
    if (support::GetVarint(data_ + pos_, size_ - pos_, value, &consumed) !=
        support::VarintStatus::kOk) {
      return Fail(what, "bad varint");
    }
    pos_ += consumed;
    return true;
  }

  bool Byte(std::uint8_t* value, const char* what) {
    if (pos_ >= size_) return Fail(what, "truncated");
    *value = data_[pos_++];
    return true;
  }

  /// A view into the payload, at most kMaxStringBytes long.
  bool String(std::string_view* value, const char* what) {
    std::uint64_t len = 0;
    if (!Varint(&len, what)) return false;
    if (len > kMaxStringBytes) return Fail(what, "over string cap");
    if (len > size_ - pos_) return Fail(what, "truncated");
    *value = std::string_view(reinterpret_cast<const char*>(data_ + pos_),
                              static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }

  bool Fixed64(std::uint64_t* value, const char* what) {
    if (size_ - pos_ < 8) return Fail(what, "truncated");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    *value = v;
    pos_ += 8;
    return true;
  }

  /// True when every byte was read; otherwise records "trailing bytes
  /// after <body>".
  bool End(const char* body) {
    if (pos_ == size_) return true;
    error_ = std::string("trailing bytes after ") + body;
    return false;
  }

  /// Record "<what>: <why>" for a rule the getters cannot see (an
  /// unknown enum code, a count over its cap) and return false.
  bool Fail(const char* what, const char* why) {
    error_ = std::string(what) + ": " + why;
    return false;
  }

  /// `status`, with the recorded reason copied to *error when asked.
  template <typename Status>
  Status Report(Status status, std::string* error) const {
    if (error != nullptr) *error = error_;
    return status;
  }

 private:

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace mobivine::wire
