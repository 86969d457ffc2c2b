// The payload IO behind every codec (wire/protocol.cpp and
// cluster/control.cpp). Each payload kind's field order is one layout,
// `XLayout(io, msg)`: WriteFrame runs it over a PayloadWriter to encode,
// ReadPayload over a PayloadReader to decode, both taking the same calls
// (docs/wire-protocol.md#one-layout-per-payload).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "support/varint.h"
#include "wire/protocol.h"

namespace mobivine::wire {

/// Appends a payload's fields to a frame buffer; labels, caps and rules
/// are the reader's.
class PayloadWriter {
 public:
  explicit PayloadWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  bool Id(std::uint64_t value, const char*) { return Varint(value); }
  bool Varint(std::uint64_t value, auto&&...) {
    support::PutVarint(out_, value);
    return true;
  }
  bool Byte(auto value, const char*) {
    out_.push_back(static_cast<std::uint8_t>(value));
    return true;
  }
  bool String(std::string_view value, const char*) {
    Varint(value.size());
    out_.insert(out_.end(), value.begin(), value.end());
    return true;
  }
  bool Zigzag(long long value, const char*) {
    return Varint(support::ZigzagEncode(value));
  }
  bool Double(double value, const char*) {
    const auto bits = std::bit_cast<std::uint64_t>(value);
    for (int i = 0; i < 64; i += 8) out_.push_back(std::uint8_t(bits >> i));
    return true;
  }
  /// A count, then each item through `item`.
  bool Seq(const auto& items, std::uint64_t, const char*, const char*,
           auto&& item) {
    Varint(items.size());
    for (const auto& each : items) item(each);
    return true;
  }
  /// Alternative `I` of `value`, which holds it.
  template <std::size_t I>
  const auto& Lane(const auto& value) {
    return std::get<I>(value);
  }
  bool Check(auto&&...) { return true; }
  bool End(const char*) { return true; }

 private:
  std::vector<std::uint8_t>& out_;
};

/// Sequential reader over a frame payload. Every call returns false on a
/// violation (truncation, a cap breach, a failed Check) and records why:
/// "<what>: <why>", or `what` alone in a `label_only` reader (the control
/// codec labels each group of fields with its whole error).
class PayloadReader {
 public:
  PayloadReader(const std::uint8_t* data, std::size_t size, bool label_only)
      : data_(data), size_(size), label_only_(label_only) {}

  /// The correlation id: when it cannot be read, nothing can be answered.
  template <typename T>
  bool Id(T& value, const char* what) {
    bad_id_ = !Varint(value, what);
    return !bad_id_;
  }
  /// A varint, at most `max`; over it records `over` (default `what`)
  /// with "over cap".
  template <typename T>
  bool Varint(T& value, const char* what, std::uint64_t max = ~0ull,
              const char* over = nullptr) {
    std::uint64_t raw = 0;
    std::size_t consumed = 0;
    if (support::GetVarint(data_ + pos_, size_ - pos_, &raw, &consumed) !=
        support::VarintStatus::kOk) {
      return Fail(what, "bad varint");
    }
    pos_ += consumed;
    if (raw > max) return Fail(over != nullptr ? over : what, "over cap");
    value = static_cast<T>(raw);
    return true;
  }
  template <typename T>
  bool Byte(T& value, const char* what) {
    if (pos_ >= size_) return Fail(what, "truncated");
    value = static_cast<T>(data_[pos_++]);
    return true;
  }
  /// At most kMaxStringBytes: a view into the payload, or a copy into a
  /// std::string `value`.
  template <typename S>
  bool String(S& value, const char* what) {
    std::uint64_t len = 0;
    if (!Varint(len, what)) return false;
    if (len > kMaxStringBytes) return Fail(what, "over string cap");
    if (len > size_ - pos_) return Fail(what, "truncated");
    value = std::string_view(reinterpret_cast<const char*>(data_ + pos_),
                             static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return true;
  }
  bool Zigzag(long long& value, const char* what) {
    std::uint64_t raw = 0;
    return Varint(raw, what) && (value = support::ZigzagDecode(raw), true);
  }
  bool Double(double& value, const char* what) {
    if (size_ - pos_ < 8) return Fail(what, "truncated");
    std::uint64_t bits = 0;
    for (int i = 0; i < 64; i += 8) bits |= std::uint64_t{data_[pos_++]} << i;
    value = std::bit_cast<double>(bits);
    return true;
  }
  /// A count (at most `max`; `over` as in Varint), then that many items,
  /// each appended to `items` and filled by `item`.
  template <typename Items, typename Item>
  bool Seq(Items& items, std::uint64_t max, const char* what,
           const char* over, Item&& item) {
    std::uint64_t count = 0;
    if (!Varint(count, what, max, over)) return false;
    items.clear();
    items.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      if (!item(items.emplace_back())) return false;
    }
    return true;
  }
  /// Switch `value` to its alternative `I`, for the next call to fill.
  template <std::size_t I, typename Variant>
  auto& Lane(Variant& value) {
    return value.template emplace<I>();
  }
  /// A body rule the getters cannot see (an unknown enum code, an empty
  /// field): false, recording "<what>: <why>", when it does not hold.
  bool Check(bool rule, const char* what, const char* why = nullptr) {
    return rule || Fail(what, why);
  }
  /// True when every byte was read; else records "trailing bytes after
  /// <what>".
  bool End(const char* what) {
    if (pos_ == size_) return true;
    error_ = label_only_ ? what : std::string("trailing bytes after ") + what;
    return false;
  }

  [[nodiscard]] bool bad_id() const { return bad_id_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  bool Fail(const char* what, const char* why) {
    error_ = what;
    if (!label_only_ && why != nullptr) (error_ += ": ") += why;
    return false;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool label_only_;
  bool bad_id_ = false;
  std::string error_;
};

/// Append one `type` frame whose payload `layout` writes from `fields`;
/// false when the payload is over kMaxFramePayload (FinishFrame).
template <typename Layout, typename... Fields>
bool WriteFrame(std::vector<std::uint8_t>& out, FrameType type,
                Layout layout, const Fields&... fields) {
  const std::size_t start = out.size();
  PayloadWriter writer(out);
  layout(writer, fields...);
  return FinishFrame(out, start, type);
}

/// Decode a payload into `fields` by `layout`, as a BodyStatus or a bool;
/// on failure the reason is copied to *error when asked.
template <typename Status, bool kLabelOnly = false, typename Layout,
          typename... Fields>
Status ReadPayload(const std::uint8_t* payload, std::size_t size,
                   std::string* error, Layout layout, Fields&... fields) {
  PayloadReader reader(payload, size, kLabelOnly);
  const bool ok = layout(reader, fields...);
  if (!ok && error != nullptr) *error = reader.error();
  if constexpr (std::is_same_v<Status, bool>) {
    return ok;
  } else {
    return ok ? BodyStatus::kOk
              : reader.bad_id() ? BodyStatus::kBadId : BodyStatus::kBadBody;
  }
}

}  // namespace mobivine::wire
