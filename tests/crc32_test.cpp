// CRC-32 golden digests and cross-tier equivalence.
//
// The wire integrity layer depends on every CRC tier (inline bytewise,
// slicing-by-8, the hardware folding tiers) producing bit-identical
// IEEE 802.3 digests: frames sealed by one tier must verify under any
// other, and committed golden frames must verify forever. These tests
// pin the standard check vectors and drive every tier this CPU runs —
// not just the dispatched one — over the same inputs: split at every
// offset, misaligned, zero-length, frame-sized. A tier this CPU cannot
// run is skipped by name. A table or folding-constant regression
// cannot land silently, and neither can a change to which tier a CPU's
// features select.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/crc32.hpp"

namespace torex {
namespace {

std::uint32_t bytewise(const void* data, std::size_t len) {
  return detail::crc32_update_bytewise(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

std::uint32_t sliced(const void* data, std::size_t len) {
  return detail::crc32_update_sliced(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

std::uint32_t dispatched(const void* data, std::size_t len) {
  return detail::crc32_update_large(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

/// xorshift-seeded deterministic byte pattern (no <random> so the
/// vectors are identical across library implementations).
std::vector<unsigned char> pattern_bytes(std::size_t len, std::uint32_t seed) {
  std::vector<unsigned char> out(len);
  std::uint32_t x = seed != 0 ? seed : 1;
  for (std::size_t i = 0; i < len; ++i) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    out[i] = static_cast<unsigned char>(x & 0xFFu);
  }
  return out;
}

TEST(Crc32Test, GoldenDigests) {
  // The canonical IEEE 802.3 check vector plus a few pinned strings.
  // These exact digests are what every committed sealed frame carries:
  // if any tier ever disagrees here, old journals stop verifying.
  const struct {
    const char* input;
    std::uint32_t digest;
  } kGolden[] = {
      {"", 0x00000000u},
      {"a", 0xE8B7BE43u},
      {"abc", 0x352441C2u},
      {"123456789", 0xCBF43926u},
      {"The quick brown fox jumps over the lazy dog", 0x414FA339u},
  };
  for (const auto& g : kGolden) {
    const std::size_t len = std::strlen(g.input);
    EXPECT_EQ(crc32(g.input, len), g.digest) << '"' << g.input << '"';
    EXPECT_EQ(bytewise(g.input, len), g.digest) << '"' << g.input << '"';
    EXPECT_EQ(sliced(g.input, len), g.digest) << '"' << g.input << '"';
    EXPECT_EQ(dispatched(g.input, len), g.digest) << '"' << g.input << '"';
  }
}

TEST(Crc32Test, BackendNameIsKnown) {
  const std::string name = crc32_backend_name();
  EXPECT_TRUE(name == "slice8" || name == "pclmul" || name == "vpclmul512" ||
              name == "armv8-crc")
      << name;
}

TEST(Crc32Test, TiersAgreeAcrossLengths) {
  // Sweep lengths through every interesting regime: inline cutoff,
  // slicing-by-8 8-byte blocks and tails, and the hardware path's
  // 64-byte fold loop with every partial-block tail.
  const std::vector<unsigned char> data = pattern_bytes(4096, 0xC0FFEEu);
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::uint32_t ref = bytewise(data.data(), len);
    EXPECT_EQ(sliced(data.data(), len), ref) << "len=" << len;
    EXPECT_EQ(dispatched(data.data(), len), ref) << "len=" << len;
    EXPECT_EQ(crc32(data.data(), len), ref) << "len=" << len;
  }
  for (std::size_t len : {512u, 1000u, 1024u, 2048u, 4095u, 4096u}) {
    const std::uint32_t ref = bytewise(data.data(), len);
    EXPECT_EQ(sliced(data.data(), len), ref) << "len=" << len;
    EXPECT_EQ(dispatched(data.data(), len), ref) << "len=" << len;
  }
}

TEST(Crc32Test, TiersAgreeAtEveryAlignment) {
  // Hardware folding loads 16-byte lanes; slicing-by-8 loads words.
  // Neither may require alignment: start at every offset into the
  // buffer and compare against the bytewise reference.
  const std::vector<unsigned char> data = pattern_bytes(512 + 32, 0xA11CEu);
  for (std::size_t offset = 0; offset < 32; ++offset) {
    const unsigned char* p = data.data() + offset;
    for (std::size_t len : {0u, 1u, 7u, 8u, 15u, 16u, 63u, 64u, 65u, 127u, 256u, 512u}) {
      const std::uint32_t ref = bytewise(p, len);
      EXPECT_EQ(sliced(p, len), ref) << "offset=" << offset << " len=" << len;
      EXPECT_EQ(dispatched(p, len), ref) << "offset=" << offset << " len=" << len;
    }
  }
}

TEST(Crc32Test, IncrementalSplitsMatchOneShot) {
  // CRC streams: update(a+b) == update(a); update(b), for every split
  // point. The seal loop relies on this to hash header and payload
  // runs in separate calls, sampling value() mid-stream.
  const std::vector<unsigned char> data = pattern_bytes(200, 0x5EA1u);
  const std::uint32_t whole = crc32(data.data(), data.size());
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Crc32 crc;
    crc.update(data.data(), split);
    crc.update(data.data() + split, data.size() - split);
    EXPECT_EQ(crc.value(), whole) << "split=" << split;
  }
}

TEST(Crc32Test, IncrementalManyChunksWithZeroLengthSlices) {
  // Ragged multi-chunk feed, with zero-length updates interleaved:
  // exactly the shape of a multi-run frame seal (header, run table,
  // then N payload runs, some of which may be empty-adjacent).
  const std::vector<unsigned char> data = pattern_bytes(1000, 0xBEEFu);
  const std::uint32_t whole = crc32(data.data(), data.size());
  const std::size_t chunks[] = {0, 1, 0, 3, 17, 0, 52, 8, 200, 0, 719, 0};
  Crc32 crc;
  std::size_t at = 0;
  for (const std::size_t n : chunks) {
    ASSERT_LE(at + n, data.size());
    crc.update(data.data() + at, n);
    at += n;
  }
  ASSERT_EQ(at, data.size());
  EXPECT_EQ(crc.value(), whole);
}

TEST(Crc32Test, ValueSamplesMidStreamWithoutConsuming) {
  // encode_frame() reads the header digest mid-stream and
  // keeps hashing; value() must not perturb the accumulator.
  const std::vector<unsigned char> data = pattern_bytes(96, 0xD16E57u);
  Crc32 crc;
  crc.update(data.data(), 48);
  const std::uint32_t head = crc.value();
  EXPECT_EQ(head, crc32(data.data(), 48));
  EXPECT_EQ(head, crc.value());  // idempotent
  crc.update(data.data() + 48, 48);
  EXPECT_EQ(crc.value(), crc32(data.data(), data.size()));
}

TEST(Crc32Test, UpdateValueHashesObjectRepresentation) {
  const std::uint64_t v = 0x0123456789ABCDEFull;
  Crc32 a;
  a.update_value(v);
  Crc32 b;
  b.update(&v, sizeof(v));
  EXPECT_EQ(a.value(), b.value());
}

TEST(Crc32Test, DigestDetectsSingleBitFlips) {
  // Not a proof, a tripwire: flipping any single bit of a small buffer
  // must change the digest (CRC-32 detects all 1-bit errors).
  std::vector<unsigned char> data = pattern_bytes(64, 0xF1A6u);
  const std::uint32_t clean = crc32(data.data(), data.size());
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_NE(crc32(data.data(), data.size()), clean) << "bit=" << bit;
    data[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  EXPECT_EQ(crc32(data.data(), data.size()), clean);
}

// ---- every tier this CPU runs -------------------------------------------

/// One dispatch tier, driven directly. Parameterized by tier name; a
/// tier this CPU cannot run (say, vpclmul512 without AVX-512) skips.
class Crc32TierTest : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    for (const detail::Crc32Tier& tier : detail::crc32_tiers()) {
      if (std::strcmp(tier.name, GetParam()) == 0) update_ = tier.update;
    }
    if (update_ == nullptr) GTEST_SKIP() << GetParam() << " does not run on this CPU";
  }

  std::uint32_t digest(const void* data, std::size_t len) const {
    return update_(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
  }

  std::uint32_t (*update_)(std::uint32_t, const void*, std::size_t) = nullptr;
};

TEST_P(Crc32TierTest, GoldenDigests) {
  EXPECT_EQ(digest("", 0), 0x00000000u);
  EXPECT_EQ(digest("123456789", 9), 0xCBF43926u);
  const char* fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(digest(fox, std::strlen(fox)), 0x414FA339u);
}

TEST_P(Crc32TierTest, EveryLengthUpTo1100) {
  // Past four 256-byte blocks: every tail of the wide fold's 256-, 64-
  // and 16-byte loops, and every handoff to a narrower tier.
  const std::vector<unsigned char> data = pattern_bytes(1100, 0x7135u);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    ASSERT_EQ(digest(data.data(), len), bytewise(data.data(), len)) << "len=" << len;
  }
}

TEST_P(Crc32TierTest, FrameLengths) {
  // Frame-sized inputs: about alltoall_word's 2.1 KB frames and
  // checked_kib's 64-96 KiB ones, none a whole number of 256-byte blocks.
  const std::vector<unsigned char> data = pattern_bytes(98348, 0xF4A3Eu);
  for (const std::size_t len : {2052u, 65540u, 98348u}) {
    EXPECT_EQ(digest(data.data(), len), bytewise(data.data(), len)) << "len=" << len;
  }
}

TEST_P(Crc32TierTest, EveryStartOffset) {
  // Every start offset within a cache line: no tier may need aligned
  // loads, 64-byte ones included.
  const std::vector<unsigned char> data = pattern_bytes(2052 + 64, 0x0FF5E7u);
  for (std::size_t offset = 0; offset < 64; ++offset) {
    const unsigned char* p = data.data() + offset;
    for (const std::size_t len :
         {0u, 1u, 15u, 16u, 17u, 63u, 64u, 65u, 255u, 256u, 257u, 511u, 512u, 1100u, 2052u}) {
      ASSERT_EQ(digest(p, len), bytewise(p, len)) << "offset=" << offset << " len=" << len;
    }
  }
}

TEST_P(Crc32TierTest, IncrementalSplitsStraddle256ByteBlocks) {
  // A frame is hashed in pieces (header, then payload runs), so a tier
  // must resume from any state at any point: split the input into
  // three updates around every multiple of 256 bytes, with the middle
  // piece shorter than, equal to and longer than one block.
  const std::vector<unsigned char> data = pattern_bytes(1100, 0x5B11Cu);
  const std::uint32_t whole = bytewise(data.data(), data.size());
  for (std::size_t block = 0; block <= data.size(); block += 256) {
    for (const std::size_t before : {1u, 16u, 63u, 64u}) {
      for (const std::size_t middle : {0u, 1u, 255u, 256u, 257u, 300u}) {
        const std::size_t a = block >= before ? block - before : 0;
        const std::size_t b = std::min(data.size(), a + middle);
        std::uint32_t state = update_(0xFFFFFFFFu, data.data(), a);
        state = update_(state, data.data() + a, b - a);
        state = update_(state, data.data() + b, data.size() - b);
        ASSERT_EQ(state ^ 0xFFFFFFFFu, whole) << "split at " << a << " and " << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Tiers, Crc32TierTest,
                         ::testing::Values("slice8", "pclmul", "vpclmul512", "armv8-crc"),
                         [](const ::testing::TestParamInfo<const char*>& tier) {
                           std::string name = tier.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// ---- which tier a CPU's features select ---------------------------------

detail::Crc32CpuFeatures avx512_server() {
  detail::Crc32CpuFeatures cpu;
  cpu.pclmulqdq = true;
  cpu.avx512f = true;
  cpu.avx512vl = true;
  cpu.vpclmulqdq = true;
  cpu.os_saves_zmm = true;
  return cpu;
}

TEST(Crc32DispatchTest, WideTierNeedsEveryFeatureAndTheOsState) {
  EXPECT_STREQ(detail::crc32_select_tier(avx512_server()), "vpclmul512");

  detail::Crc32CpuFeatures cpu = avx512_server();
  cpu.vpclmulqdq = false;
  EXPECT_STREQ(detail::crc32_select_tier(cpu), "pclmul") << "no VPCLMULQDQ";

  cpu = avx512_server();
  cpu.os_saves_zmm = false;
  EXPECT_STREQ(detail::crc32_select_tier(cpu), "pclmul") << "AVX-512 whose state the OS drops";

  cpu = avx512_server();
  cpu.avx512f = false;
  EXPECT_STREQ(detail::crc32_select_tier(cpu), "pclmul") << "no AVX512F";

  cpu = avx512_server();
  cpu.avx512vl = false;
  EXPECT_STREQ(detail::crc32_select_tier(cpu), "pclmul") << "no AVX512VL";
}

TEST(Crc32DispatchTest, NoCarrylessMultiplyFallsBackToSlicing) {
  detail::Crc32CpuFeatures cpu = avx512_server();
  cpu.pclmulqdq = false;
  EXPECT_STREQ(detail::crc32_select_tier(cpu), "slice8");
  EXPECT_STREQ(detail::crc32_select_tier({}), "slice8");

  detail::Crc32CpuFeatures arm;
  arm.armv8_crc = true;
  EXPECT_STREQ(detail::crc32_select_tier(arm), "armv8-crc");
}

TEST(Crc32DispatchTest, DispatchRunsThisCpusSelectionAndItIsListed) {
  const char* selected = detail::crc32_select_tier(detail::crc32_cpu_features());
  EXPECT_STREQ(crc32_backend_name(), selected);
  bool listed = false;
  for (const detail::Crc32Tier& tier : detail::crc32_tiers()) {
    listed = listed || std::strcmp(tier.name, selected) == 0;
  }
  EXPECT_TRUE(listed) << selected;
  ASSERT_FALSE(detail::crc32_tiers().empty());
  EXPECT_STREQ(detail::crc32_tiers().front().name, "slice8");
}

}  // namespace
}  // namespace torex
