// Cache-line ownership for data that the step kernel's threads share.
//
// Every participant of a step stage reads the compiled program's tables
// for every parcel it sorts, and writes its own sort histogram for every
// parcel. When a table and a histogram (or two participants' histograms)
// share a 64-byte line, each histogram write takes the line away from
// the readers, and a stage slows down by about half — depending only on
// where the heap happened to put the two. CacheLineAllocator removes the
// luck: each allocation starts on a line boundary and owns every line it
// touches, so nothing else can land on them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <new>

namespace torex {

/// The line size the allocator aligns and pads to (x86-64 and most
/// AArch64 cores).
inline constexpr std::size_t kCacheLine = 64;

/// Rounds a byte count up to whole cache lines.
constexpr std::size_t round_up_to_line(std::size_t bytes) {
  return (bytes + kCacheLine - 1) / kCacheLine * kCacheLine;
}

/// A std::vector allocator that gives each allocation whole cache lines
/// of its own: the storage starts on a kCacheLine boundary and is padded
/// to whole lines. It takes one block per allocation from the global
/// operator new (so allocation counters see exactly the allocations a
/// std::allocator would make), one line larger than the padded storage,
/// and keeps the block's address just below the storage.
template <typename T>
struct CacheLineAllocator {
  static_assert(alignof(T) <= kCacheLine, "over-aligned element type");
  using value_type = T;

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    if (n > (std::numeric_limits<std::size_t>::max() - 2 * kCacheLine) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    // operator new returns at least pointer-aligned blocks, so the
    // aligned storage sits between one pointer and one line past the
    // block's start, with the block's address right below it.
    auto* block = static_cast<std::byte*>(::operator new(round_up_to_line(n * sizeof(T)) +
                                                         kCacheLine));
    const auto at = reinterpret_cast<std::uintptr_t>(block) + sizeof(void*);
    auto* storage = block + (round_up_to_line(at) - reinterpret_cast<std::uintptr_t>(block));
    std::memcpy(storage - sizeof(void*), &block, sizeof(void*));
    return reinterpret_cast<T*>(storage);
  }

  void deallocate(T* p, std::size_t /*n*/) noexcept {
    void* block = nullptr;
    std::memcpy(&block, reinterpret_cast<std::byte*>(p) - sizeof(void*), sizeof(void*));
    ::operator delete(block);
  }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

}  // namespace torex
