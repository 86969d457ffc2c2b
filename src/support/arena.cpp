#include "support/arena.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>

namespace mobivine::support {

namespace {

/// Chunk payload when nothing was reserved (or the reservation ran out).
constexpr std::size_t kDefaultChunkBytes = 1024;
constexpr std::size_t kChunkAlign = 16;

std::size_t RoundUp(std::size_t value, std::size_t align) {
  return (value + align - 1) & ~(align - 1);
}

}  // namespace

static_assert(__STDCPP_DEFAULT_NEW_ALIGNMENT__ >= kChunkAlign,
              "operator new must return chunk-aligned blocks");

Arena& Arena::operator=(Arena&& other) noexcept {
  if (this != &other) {
    Release();
    head_ = std::exchange(other.head_, nullptr);
    cursor_ = std::exchange(other.cursor_, nullptr);
    end_ = std::exchange(other.end_, nullptr);
    next_chunk_ = std::exchange(other.next_chunk_, 0);
    used_ = std::exchange(other.used_, 0);
  }
  return *this;
}

void Arena::Release() {
  while (head_ != nullptr) {
    Chunk* next = head_->next;
    ::operator delete(head_, head_->size);
    head_ = next;
  }
  cursor_ = end_ = nullptr;
}

void Arena::Reserve(std::size_t bytes) {
  if (static_cast<std::size_t>(end_ - cursor_) < bytes) next_chunk_ = bytes;
}

void* Arena::Allocate(std::size_t bytes, std::size_t align) {
  static_assert(sizeof(Chunk) % kChunkAlign == 0);
  assert(align <= kChunkAlign && (align & (align - 1)) == 0);
  used_ = RoundUp(used_, align) + bytes;
  auto aligned = [align](char* p) {
    return reinterpret_cast<char*>(
        RoundUp(reinterpret_cast<std::uintptr_t>(p), align));
  };
  if (cursor_ == nullptr ||
      bytes > static_cast<std::size_t>(end_ - aligned(cursor_))) {
    // A fresh chunk's payload starts kChunkAlign-aligned, so it needs no
    // padding in front of this allocation.
    const std::size_t payload = std::max(
        next_chunk_ != 0 ? next_chunk_ : kDefaultChunkBytes, bytes);
    auto* chunk =
        static_cast<Chunk*>(::operator new(sizeof(Chunk) + payload));
    *chunk = Chunk{head_, sizeof(Chunk) + payload};
    head_ = chunk;
    cursor_ = reinterpret_cast<char*>(chunk + 1);
    end_ = cursor_ + payload;
    next_chunk_ = 0;
  }
  char* out = aligned(cursor_);
  cursor_ = out + bytes;
  return out;
}

std::string_view Arena::CopyString(std::string_view text) {
  if (text.empty()) return {};
  char* out = static_cast<char*>(Allocate(text.size(), 1));
  std::memcpy(out, text.data(), text.size());
  return {out, text.size()};
}

std::size_t Arena::bytes() const {
  std::size_t total = 0;
  for (const Chunk* chunk = head_; chunk != nullptr; chunk = chunk->next) {
    total += chunk->size;
  }
  return total;
}

}  // namespace mobivine::support
