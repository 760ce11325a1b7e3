// Out-of-line CRC-32 backends: portable slicing-by-8 and the
// runtime-dispatched hardware folding paths (PCLMULQDQ and VPCLMULQDQ
// on x86-64, the CRC32 extension on AArch64). Every backend computes
// the same IEEE 802.3 (0xEDB88320, reflected) digest as the bytewise
// reference in crc32.hpp; tests/crc32_test.cpp pins them against each
// other and against golden vectors.

#include "util/crc32.hpp"

#include <atomic>

#if defined(__x86_64__) || defined(_M_X64)
#define TOREX_CRC32_X86 1
#include <cpuid.h>
#include <immintrin.h>
#include <wmmintrin.h>
#endif

#if defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define TOREX_CRC32_ARM 1
#include <arm_acle.h>
#if defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#endif
#endif

namespace torex {
namespace detail {
namespace {

// ---- slicing-by-8 -------------------------------------------------------
//
// Eight derived tables: slice[k][b] is the CRC contribution of byte b
// positioned k bytes deeper in the stream, so one iteration folds 8
// message bytes with 8 independent table loads instead of an 8-deep
// dependency chain of single-byte steps.

struct SliceTables {
  std::uint32_t t[8][256];
};

constexpr SliceTables make_slice_tables() {
  SliceTables s{};
  for (int i = 0; i < 256; ++i) {
    s.t[0][i] = kCrc32Table[static_cast<std::size_t>(i)];
  }
  for (int k = 1; k < 8; ++k) {
    for (int i = 0; i < 256; ++i) {
      const std::uint32_t prev = s.t[k - 1][i];
      s.t[k][i] = s.t[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return s;
}

constexpr SliceTables kSlices = make_slice_tables();

inline std::uint32_t load_le32(const unsigned char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_BIG_ENDIAN__)
  v = __builtin_bswap32(v);
#endif
  return v;
}

std::uint32_t crc32_sliced(std::uint32_t state, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = state;
  while (len >= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = kSlices.t[7][lo & 0xFFu] ^ kSlices.t[6][(lo >> 8) & 0xFFu] ^
        kSlices.t[5][(lo >> 16) & 0xFFu] ^ kSlices.t[4][lo >> 24] ^
        kSlices.t[3][hi & 0xFFu] ^ kSlices.t[2][(hi >> 8) & 0xFFu] ^
        kSlices.t[1][(hi >> 16) & 0xFFu] ^ kSlices.t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  return crc32_update_bytewise(c, p, len);
}

// ---- x86-64: PCLMULQDQ folding ------------------------------------------
//
// The SSE4.2 `crc32` instruction is hard-wired to the Castagnoli
// polynomial (0x1EDC6F41) and cannot produce IEEE digests, so the x86
// hardware tiers instead fold blocks with carry-less multiply (Gopal et
// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
// Intel whitepaper 2009). A 128-bit lane is folded D bits forward by
// multiplying its low qword by x^(D+32) and its high qword by x^(D-32)
// (mod P, bit-reflected) and xoring both products into the lane D bits
// ahead. Constants below are the standard reflected-IEEE fold/reduce
// multipliers; golden tests pin the digests against the table backends.
//
// The tiers are compiled with function-level target attributes only.
// GCC does not give a lambda its enclosing function's target, so the
// fold steps are always-inline functions whose target is a subset of
// every caller's.

#if TOREX_CRC32_X86

/// Folds 128-bit lane `x` forward by the distance `k` encodes (low
/// qword: x^(D+32), high qword: x^(D-32)) onto `next`.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i fold_128(__m128i x,
                                                                               __m128i k,
                                                                               __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Finishes a fold whose state is the four 16-byte lanes x0..x3 (64
/// consecutive stream bytes, x0 first) and whose unread input is
/// [p, p + len): collapses the lanes into one, folds the remaining whole
/// 16-byte blocks, reduces to the 32-bit CRC by Barrett reduction, and
/// runs the last len % 16 bytes bytewise.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline std::uint32_t finish_fold(
    __m128i x0, __m128i x1, __m128i x2, __m128i x3, const unsigned char* p, std::size_t len) {
  // _mm_set_epi64x takes (high, low): k3/k5/poly ride the low lane
  // (clmul selector 0x00), k4/mu the high lane (0x11 / 0x10).
  const __m128i k3k4 = _mm_set_epi64x(0x00000000ccaa009e, 0x00000001751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0000000163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x00000001f7011641, 0x00000001db710641);
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);

  // Collapse the four lanes into one.
  x0 = fold_128(x0, k3k4, x1);
  x0 = fold_128(x0, k3k4, x2);
  x0 = fold_128(x0, k3k4, x3);

  // Fold remaining whole 16-byte blocks.
  while (len >= 16) {
    x0 = fold_128(x0, k3k4, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    p += 16;
    len -= 16;
  }

  // Reduce 128 -> 64 bits.
  __m128i r = _mm_xor_si128(_mm_clmulepi64_si128(x0, k3k4, 0x10),
                            _mm_srli_si128(x0, 8));
  // Reduce 64 -> 32 bits.
  r = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(r, mask32), k5, 0x00),
                    _mm_srli_si128(r, 4));
  // Barrett reduction to the final 32-bit remainder.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(r, mask32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly_mu, 0x00);
  r = _mm_xor_si128(r, t);
  const std::uint32_t crc = static_cast<std::uint32_t>(_mm_extract_epi32(r, 1));

  return crc32_update_bytewise(crc, p, len);
}

__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_pclmul(std::uint32_t state,
                                                                    const void* data,
                                                                    std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  if (len < 64) {
    return crc32_sliced(state, p, len);
  }

  // Fold by 512 bits: x^544 on the low qword, x^480 on the high.
  const __m128i k1k2 = _mm_set_epi64x(0x00000001c6e41596, 0x0000000154442bd4);

  __m128i x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
  x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(static_cast<int>(state)));
  p += 64;
  len -= 64;

  // Fold four 16-byte lanes in parallel while at least 64 bytes remain.
  while (len >= 64) {
    x0 = fold_128(x0, k1k2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    x1 = fold_128(x1, k1k2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)));
    x2 = fold_128(x2, k1k2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)));
    x3 = fold_128(x3, k1k2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)));
    p += 64;
    len -= 64;
  }

  return finish_fold(x0, x1, x2, x3, p, len);
}

// ---- x86-64: VPCLMULQDQ folding on 512-bit registers --------------------
//
// The same fold, four 128-bit lanes per ZMM register: four registers
// carry 256 bytes per iteration, each lane folded 2048 bits forward.
// The four registers then fold into one at the 512-bit distance (the
// pclmul tier's constants), its remaining whole 64-byte blocks fold the
// same way, and its four lanes finish exactly as the pclmul tier's do.

/// Folds each 128-bit lane of `x` forward by the distance `k` encodes
/// onto the matching lane of `next` (ternary logic 0x96: a ^ b ^ c).
__attribute__((target("avx512f,vpclmulqdq"), always_inline)) inline __m512i fold_512(
    __m512i x, __m512i k, __m512i next) {
  return _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(x, k, 0x00),
                                   _mm512_clmulepi64_epi128(x, k, 0x11), next, 0x96);
}

__attribute__((target("avx512f,avx512vl,vpclmulqdq,pclmul"))) std::uint32_t crc32_vpclmul512(
    std::uint32_t state, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  if (len < 256) {
    return crc32_pclmul(state, p, len);
  }

  // Per 128-bit lane, fold by 2048 bits (x^2080 low, x^2016 high) and
  // by 512 bits (x^544 low, x^480 high). _mm512_set4_epi64 takes (high,
  // low, high, low).
  const __m512i k_2048 = _mm512_set4_epi64(0x00000001322d1430, 0x000000011542778a,
                                           0x00000001322d1430, 0x000000011542778a);
  const __m512i k_512 = _mm512_set4_epi64(0x00000001c6e41596, 0x0000000154442bd4,
                                          0x00000001c6e41596, 0x0000000154442bd4);

  __m512i z0 = _mm512_xor_si512(_mm512_loadu_si512(p),
                                _mm512_maskz_set1_epi32(1, static_cast<int>(state)));
  __m512i z1 = _mm512_loadu_si512(p + 64);
  __m512i z2 = _mm512_loadu_si512(p + 128);
  __m512i z3 = _mm512_loadu_si512(p + 192);
  p += 256;
  len -= 256;

  while (len >= 256) {
    z0 = fold_512(z0, k_2048, _mm512_loadu_si512(p));
    z1 = fold_512(z1, k_2048, _mm512_loadu_si512(p + 64));
    z2 = fold_512(z2, k_2048, _mm512_loadu_si512(p + 128));
    z3 = fold_512(z3, k_2048, _mm512_loadu_si512(p + 192));
    p += 256;
    len -= 256;
  }

  // Collapse the four registers into one, then fold whole 64-byte blocks.
  z1 = fold_512(z0, k_512, z1);
  z2 = fold_512(z1, k_512, z2);
  z3 = fold_512(z2, k_512, z3);
  while (len >= 64) {
    z3 = fold_512(z3, k_512, _mm512_loadu_si512(p));
    p += 64;
    len -= 64;
  }

  // Zero-masked extracts: in GCC 12 the unmasked extract (and the
  // 512-to-128 cast built on it) reads an undefined source, which
  // -Werror=maybe-uninitialized refuses.
  return finish_fold(_mm512_maskz_extracti32x4_epi32(0xF, z3, 0),
                     _mm512_maskz_extracti32x4_epi32(0xF, z3, 1),
                     _mm512_maskz_extracti32x4_epi32(0xF, z3, 2),
                     _mm512_maskz_extracti32x4_epi32(0xF, z3, 3), p, len);
}

/// XCR0, the OS-enabled state components (only valid when CPUID
/// reports OSXSAVE).
std::uint64_t read_xcr0() {
  std::uint32_t eax = 0;
  std::uint32_t edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(0));
  return (std::uint64_t{edx} << 32) | eax;
}

#endif  // TOREX_CRC32_X86

// ---- AArch64: CRC32 extension -------------------------------------------
//
// ARMv8's crc32{b,w,d} instructions implement the IEEE polynomial
// directly (unlike x86's SSE4.2 crc32, which is Castagnoli-only), so
// the hardware path is a straight translation of the bytewise loop at
// 8 bytes per instruction.

#if TOREX_CRC32_ARM

std::uint32_t crc32_armv8(std::uint32_t state, const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = state;
  while (len >= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    c = __crc32d(c, v);
    p += 8;
    len -= 8;
  }
  if (len >= 4) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    c = __crc32w(c, v);
    p += 4;
    len -= 4;
  }
  while (len-- > 0) {
    c = __crc32b(c, *p++);
  }
  return c;
}

bool cpu_has_arm_crc() {
#if defined(__linux__)
  return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0;
#else
  return true;  // __ARM_FEATURE_CRC32 implied it at compile time.
#endif
}

#endif  // TOREX_CRC32_ARM

// ---- dispatch -----------------------------------------------------------

bool runs_vpclmul512(const Crc32CpuFeatures& cpu) {
  return cpu.pclmulqdq && cpu.avx512f && cpu.avx512vl && cpu.vpclmulqdq && cpu.os_saves_zmm;
}

/// The tiers compiled in that `cpu` runs, slowest first. A fixed array,
/// so the first CRC of a process allocates nothing.
struct TierList {
  Crc32Tier tiers[3]{};
  std::size_t count = 0;
};

TierList tiers_for([[maybe_unused]] const Crc32CpuFeatures& cpu) {
  TierList list;
  list.tiers[list.count++] = {"slice8", &crc32_sliced};
#if TOREX_CRC32_X86
  if (cpu.pclmulqdq) list.tiers[list.count++] = {"pclmul", &crc32_pclmul};
  if (runs_vpclmul512(cpu)) list.tiers[list.count++] = {"vpclmul512", &crc32_vpclmul512};
#endif
#if TOREX_CRC32_ARM
  if (cpu.armv8_crc) list.tiers[list.count++] = {"armv8-crc", &crc32_armv8};
#endif
  return list;
}

const TierList& this_cpus_tiers() {
  static const TierList kTiers = tiers_for(crc32_cpu_features());
  return kTiers;
}

Crc32Tier pick_backend() {
  const char* chosen = crc32_select_tier(crc32_cpu_features());
  const TierList& list = this_cpus_tiers();
  for (std::size_t i = 0; i < list.count; ++i) {
    if (std::strcmp(list.tiers[i].name, chosen) == 0) return list.tiers[i];
  }
  return list.tiers[0];
}

const Crc32Tier& backend() {
  static const Crc32Tier kBackend = pick_backend();
  return kBackend;
}

}  // namespace

std::uint32_t crc32_update_sliced(std::uint32_t state, const void* data, std::size_t len) {
  return crc32_sliced(state, data, len);
}

std::uint32_t crc32_update_large(std::uint32_t state, const void* data, std::size_t len) {
  return backend().update(state, data, len);
}

Crc32CpuFeatures crc32_cpu_features() {
  Crc32CpuFeatures cpu;
#if TOREX_CRC32_X86
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0) {
    cpu.pclmulqdq = (ecx & bit_PCLMUL) != 0 && (ecx & bit_SSE4_1) != 0;
    // XCR0 bits 1, 2, 5, 6, 7: SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM.
    const std::uint64_t kZmmState = 0xE6;
    cpu.os_saves_zmm = (ecx & bit_OSXSAVE) != 0 && (read_xcr0() & kZmmState) == kZmmState;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) != 0) {
    cpu.avx512f = (ebx & bit_AVX512F) != 0;
    cpu.avx512vl = (ebx & bit_AVX512VL) != 0;
    cpu.vpclmulqdq = (ecx & bit_VPCLMULQDQ) != 0;
  }
#endif
#if TOREX_CRC32_ARM
  cpu.armv8_crc = cpu_has_arm_crc();
#endif
  return cpu;
}

const char* crc32_select_tier(const Crc32CpuFeatures& cpu) {
  if (runs_vpclmul512(cpu)) return "vpclmul512";
  if (cpu.pclmulqdq) return "pclmul";
  if (cpu.armv8_crc) return "armv8-crc";
  return "slice8";
}

std::span<const Crc32Tier> crc32_tiers() {
  const TierList& list = this_cpus_tiers();
  return {list.tiers, list.count};
}

}  // namespace detail

const char* crc32_backend_name() { return detail::backend().name; }

}  // namespace torex
