// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for parcel sealing.
//
// The integrity layer checksums every parcel and frame that crosses a
// simulated channel, so the implementation must be deterministic across
// platforms, incremental (a sealed frame hashes a header and payload
// runs that live in separate slabs), and fast enough that the seal is
// not the wire path's bottleneck. Four tiers, all producing identical
// IEEE digests (pinned by golden tests in tests/crc32_test.cpp):
//
//  * bytewise  — the classic one-table-lookup-per-byte loop; the
//    reference implementation, and the inline fast path for short
//    updates (per-parcel metadata fields);
//  * slicing-by-8 ("slice8") — eight 256-entry tables consume 8 bytes
//    per iteration with independent lookups, ~5-8x the bytewise
//    throughput; the portable default for slab-sized updates;
//  * hardware — carry-less-multiply folding on x86-64 ("pclmul":
//    PCLMULQDQ, 64 bytes per iteration; the SSE4.2 `crc32`
//    *instruction* is the Castagnoli polynomial and cannot reproduce
//    IEEE digests, so the x86 path folds with PCLMULQDQ instead) and
//    the ARMv8 CRC32 extension ("armv8-crc", which does implement the
//    IEEE polynomial) on AArch64;
//  * wide hardware ("vpclmul512") — the same fold on four 512-bit
//    registers with VPCLMULQDQ, 256 bytes per iteration, on x86-64
//    CPUs with AVX-512 (Ice Lake, Sapphire Rapids, Zen 4 and later)
//    whose OS saves the ZMM state; inputs under 256 bytes run on
//    "pclmul".
//
// The tier is selected once per process from CPUID (and, for the
// AVX-512 tier, XGETBV); the tier code is compiled with function-level
// target attributes, so the library needs no -m flag and has no
// switch. Digests are bit-identical to the portable tiers by
// construction and by test.
//
// bench_wire times every tier this CPU runs; crc32_backend_name()
// reports which tier large updates run on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

namespace torex {

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32Table = make_crc32_table();

/// Reference bytewise update (also the inline short-input fast path).
inline std::uint32_t crc32_update_bytewise(std::uint32_t state, const void* data,
                                           std::size_t len) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = state;
  for (std::size_t i = 0; i < len; ++i) {
    c = kCrc32Table[static_cast<std::size_t>((c ^ bytes[i]) & 0xFFu)] ^ (c >> 8);
  }
  return c;
}

/// Portable slicing-by-8 update; same digests as bytewise.
std::uint32_t crc32_update_sliced(std::uint32_t state, const void* data, std::size_t len);

/// Dispatched slab update: the fastest tier the CPU supports (see
/// crc32_select_tier). Same digests as bytewise, always.
std::uint32_t crc32_update_large(std::uint32_t state, const void* data, std::size_t len);

/// Inputs shorter than this stay on the inline bytewise loop — the
/// call + dispatch overhead beats the table win below ~2 words.
inline constexpr std::size_t kCrc32InlineCutoff = 16;

/// The CPU features the tier choice reads: CPUID and XGETBV on x86-64,
/// the auxiliary vector on AArch64.
struct Crc32CpuFeatures {
  bool pclmulqdq = false;     ///< PCLMULQDQ and SSE4.1 (CPUID leaf 1)
  bool avx512f = false;       ///< AVX512F (CPUID leaf 7)
  bool avx512vl = false;      ///< AVX512VL (CPUID leaf 7)
  bool vpclmulqdq = false;    ///< VPCLMULQDQ (CPUID leaf 7)
  bool os_saves_zmm = false;  ///< XCR0: the OS saves SSE, AVX, opmask and all ZMM state
  bool armv8_crc = false;     ///< the AArch64 CRC32 extension
};

/// This CPU's features, as crc32_update_large's dispatch reads them.
Crc32CpuFeatures crc32_cpu_features();

/// The tier large updates run on for a CPU with `cpu`: "vpclmul512",
/// "pclmul", "armv8-crc" or "slice8". A pure function of its argument.
const char* crc32_select_tier(const Crc32CpuFeatures& cpu);

/// One CRC tier: its name and its update function (state in, state out,
/// like crc32_update_bytewise).
struct Crc32Tier {
  const char* name;
  std::uint32_t (*update)(std::uint32_t state, const void* data, std::size_t len);
};

/// Every tier this CPU can run, slowest first, so tests and benches can
/// drive each one; "slice8" is always present. Not a switch: large
/// updates always run on crc32_select_tier(crc32_cpu_features()).
std::span<const Crc32Tier> crc32_tiers();

}  // namespace detail

/// Name of the backend large updates dispatch to ("vpclmul512",
/// "pclmul", "armv8-crc", or "slice8"); for diagnostics and tests.
const char* crc32_backend_name();

/// Incremental CRC-32 accumulator. Feed bytes with update(), read the
/// finalized digest with value(); value() does not consume the state,
/// so it can be sampled mid-stream.
class Crc32 {
 public:
  Crc32() = default;

  void update(const void* data, std::size_t len) {
    if (len < detail::kCrc32InlineCutoff) {
      state_ = detail::crc32_update_bytewise(state_, data, len);
    } else {
      state_ = detail::crc32_update_large(state_, data, len);
    }
  }

  /// Hashes the object representation of a trivially copyable value.
  template <typename T>
  void update_value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "can only hash trivially copyable values");
    update(&v, sizeof(T));
  }

  std::uint32_t value() const { return state_ ^ 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot CRC-32 of a byte range.
inline std::uint32_t crc32(const void* data, std::size_t len) {
  Crc32 crc;
  crc.update(data, len);
  return crc.value();
}

}  // namespace torex
