// A test payload that carries its own block identity.
//
// The step kernel moves bare payloads: whose payload sits in which slot
// is known only to the compiled program. Tests and torex_verify seed
// the exchange with Tagged payloads instead — trivially copyable, so
// they cross the framed wire like any word — and check the result slot
// for slot: every payload names the origin and destination it was
// seeded for, plus a salt that differs per run, so a payload that lands
// in the wrong slot, or survives from an earlier run, cannot pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "topology/shape.hpp"

namespace torex::testing {

struct Tagged {
  Rank origin = -1;
  Rank dest = -1;
  std::uint64_t salt = 0;

  bool operator==(const Tagged&) const = default;
};

/// The payload origin seeds for dest under `salt`.
inline Tagged tagged(Rank origin, Rank dest, std::uint64_t salt) {
  const auto pair = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin)) << 32) |
                    static_cast<std::uint32_t>(dest);
  return Tagged{origin, dest, (salt * 0x9E3779B97F4A7C15ull) ^ pair};
}

/// N rows in destination order: rows[p][q] = tagged(p, q, salt).
inline std::vector<std::vector<Tagged>> tagged_rows(Rank N, std::uint64_t salt) {
  std::vector<std::vector<Tagged>> rows(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    auto& row = rows[static_cast<std::size_t>(p)];
    row.reserve(static_cast<std::size_t>(N));
    for (Rank q = 0; q < N; ++q) row.push_back(tagged(p, q, salt));
  }
  return rows;
}

/// Empty when `recv` is the transpose of tagged_rows(N, salt) — recv[q][p]
/// is tagged(p, q, salt) for every pair — else the first slot that is
/// not, described.
inline std::string transpose_mismatch(Rank N, const std::vector<std::vector<Tagged>>& recv,
                                      std::uint64_t salt) {
  if (static_cast<Rank>(recv.size()) != N) return "expected " + std::to_string(N) + " rows";
  for (Rank q = 0; q < N; ++q) {
    const auto& row = recv[static_cast<std::size_t>(q)];
    if (static_cast<Rank>(row.size()) != N) return "row " + std::to_string(q) + " is short";
    for (Rank p = 0; p < N; ++p) {
      const Tagged& got = row[static_cast<std::size_t>(p)];
      if (got == tagged(p, q, salt)) continue;
      return "recv[" + std::to_string(q) + "][" + std::to_string(p) + "] holds the payload of " +
             std::to_string(got.origin) + " -> " + std::to_string(got.dest) +
             (got.origin == p && got.dest == q ? " with a stale salt" : "");
    }
  }
  return {};
}

}  // namespace torex::testing
