// A digest that pins a journal's bytes.
//
// Not a CRC-32: the journal's header and every record end in the CRC-32
// of their own bytes, and a CRC-32 over such sealed pieces depends only
// on their lengths, so it would pin no header field and no record value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace torex::testing {

/// Length and 64-bit FNV-1a of `bytes`.
inline std::pair<std::size_t, std::uint64_t> digest(const std::vector<std::byte>& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const std::byte b : bytes) {
    hash = (hash ^ std::to_integer<std::uint64_t>(b)) * 0x100000001B3ull;
  }
  return {bytes.size(), hash};
}

}  // namespace torex::testing
