// Bump allocator for parsed documents that are built once and freed
// whole: a MiniJS Program and an XML Document each own one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

namespace mobivine::support {

/// Owns every byte of one parsed document. Nothing allocated here is ever
/// destroyed, only freed with its chunk, which is why New() accepts
/// trivially destructible types only. Moving an Arena moves the chunk
/// list; the chunks themselves never move, so pointers into them survive.
/// Chunks start 16-byte aligned, and no allocation may ask for more.
class Arena {
 public:
  Arena() = default;
  Arena(Arena&& other) noexcept { *this = std::move(other); }
  Arena& operator=(Arena&& other) noexcept;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() { Release(); }

  /// Size the next chunk to hold at least `bytes` more, so a caller that
  /// knows how much it will allocate gets exactly one chunk.
  void Reserve(std::size_t bytes);

  [[nodiscard]] void* Allocate(std::size_t bytes, std::size_t align);

  template <typename T, typename... Args>
  T* New(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>);
    return ::new (Allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(args)...);
  }

  template <typename T>
  std::span<const T> Copy(std::span<const T> items) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (items.empty()) return {};
    T* out = static_cast<T*>(Allocate(items.size_bytes(), alignof(T)));
    std::copy(items.begin(), items.end(), out);
    return {out, items.size()};
  }

  std::string_view CopyString(std::string_view text);

  /// Bytes handed out so far, alignment padding included, counted as if
  /// every allocation had come from one chunk. Replaying the same
  /// allocations into an arena that Reserve()d this much from a 16-byte
  /// aligned start fills it exactly.
  [[nodiscard]] std::size_t used() const { return used_; }
  /// Heap bytes held: every chunk, headers included.
  [[nodiscard]] std::size_t bytes() const;

 private:
  struct Chunk {
    Chunk* next;
    std::size_t size;  // bytes, this header included
  };
  void Release();

  Chunk* head_ = nullptr;  // newest first
  char* cursor_ = nullptr;
  char* end_ = nullptr;
  std::size_t next_chunk_ = 0;
  std::size_t used_ = 0;
};

}  // namespace mobivine::support
