// CRC-32 golden digests and cross-tier equivalence.
//
// The wire integrity layer depends on every CRC tier (inline bytewise,
// slicing-by-8, dispatched hardware folding) producing bit-identical
// IEEE 802.3 digests: frames sealed by one tier must verify under any
// other, and committed golden frames must verify forever. These tests
// pin the standard check vectors and drive every tier over the same
// inputs — split at every offset, misaligned, zero-length — so a table
// or folding-constant regression cannot land silently.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
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
  EXPECT_TRUE(name == "slice8" || name == "pclmul" || name == "armv8-crc") << name;
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

}  // namespace
}  // namespace torex
