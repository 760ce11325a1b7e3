// The zero-copy pooled wire path: WireArena recycling semantics,
// PooledFrame RAII, the TOX3 multi-run codec (round-trip, every-bit-flip
// and every-truncation detection, run gather/erase primitives, scatter
// offsets, negative metadata, forged counts and run tables as typed
// errors), strided user-buffer views, the compiled StepProgram (maximal
// send runs; tables and sort histograms on cache lines of their own),
// the process's program cache (one compile per key, also under
// concurrent first use; least-recently-used eviction that keeps held
// programs valid), and the step kernel's drivers that replay it —
// pooled, sealed and journaled (transpose delivery, §3.3 run
// accounting and buffer order differential against the block-level
// layout simulator, on both layouts and every reference shape;
// mismatched programs refused; in-place receives that survive
// retransmission; steady-state allocation behavior; every driver also
// on a four-participant StepPool, with worker failures surfacing on the
// caller) — and a
// seeded deterministic fuzz harness over the frame codec: mutations
// must never decode and never read out of bounds (the ASan/UBSan CI job
// runs this suite under sanitizers, the TSan job under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <latch>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/data_array.hpp"
#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "core/step_program_cache.hpp"
#include "core/wire_buffer.hpp"
#include "obs/recorder.hpp"
#include "runtime/journal.hpp"
#include "util/cache_line.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "util/step_pool.hpp"

namespace torex {
namespace {

// --- WireArena ---------------------------------------------------------

TEST(WireArenaTest, RecyclesFrames) {
  WireArena arena;
  {
    PooledFrame f(arena, 64);
    EXPECT_TRUE(f.bound());
    EXPECT_EQ(arena.in_use(), 1);
    EXPECT_EQ(arena.stats().pool_misses, 1);
    EXPECT_EQ(arena.stats().pool_hits, 0);
  }
  EXPECT_EQ(arena.in_use(), 0);
  EXPECT_EQ(arena.pooled(), 1u);
  {
    PooledFrame f(arena, 32);
    EXPECT_EQ(arena.stats().pool_hits, 1);
    EXPECT_EQ(arena.stats().pool_misses, 1);
    EXPECT_EQ(arena.pooled(), 0u);
  }
  arena.trim();
  EXPECT_EQ(arena.pooled(), 0u);
  // Stats survive a trim.
  EXPECT_EQ(arena.stats().pool_hits, 1);
  EXPECT_EQ(arena.stats().acquires, 2);
}

TEST(WireArenaTest, HandsOutLargestPooledFrameFirst) {
  WireArena arena;
  std::vector<std::byte> small = arena.acquire(16);
  std::vector<std::byte> big = arena.acquire(4096);
  const std::size_t big_cap = big.capacity();
  arena.release(std::move(small));
  arena.release(std::move(big));
  const std::vector<std::byte> got = arena.acquire(0);
  EXPECT_GE(got.capacity(), big_cap);
}

TEST(WireArenaTest, UndersizedPooledFrameStillReused) {
  WireArena arena;
  arena.release(arena.acquire(8));
  const std::vector<std::byte> f = arena.acquire(std::size_t{1} << 16);
  EXPECT_EQ(arena.stats().pool_hits, 1);
  EXPECT_EQ(arena.stats().pool_misses, 1);
  EXPECT_EQ(arena.stats().undersized_hits, 1);
  // Grown on acquire, so a step-kernel worker filling it never allocates.
  EXPECT_GE(f.capacity(), std::size_t{1} << 16);
}

TEST(WireArenaTest, TracksPeakInUse) {
  WireArena arena;
  PooledFrame a(arena), b(arena), c(arena);
  c.reset();
  PooledFrame d(arena);
  EXPECT_EQ(arena.stats().peak_in_use, 3);
  EXPECT_EQ(arena.in_use(), 3);
}

TEST(PooledFrameTest, MoveTransfersOwnership) {
  WireArena arena;
  PooledFrame a(arena, 64);
  a.bytes().resize(10);
  PooledFrame b = std::move(a);
  EXPECT_FALSE(a.bound());
  EXPECT_TRUE(b.bound());
  EXPECT_EQ(b.bytes().size(), 10u);
  EXPECT_EQ(arena.in_use(), 1);
  b.reset();
  EXPECT_EQ(arena.in_use(), 0);
  EXPECT_EQ(arena.pooled(), 1u);
}

TEST(PooledFrameTest, DefaultConstructedIsUnboundAndRebindable) {
  PooledFrame f;
  EXPECT_FALSE(f.bound());
  WireArena arena;
  f.bind(arena, 128);
  EXPECT_TRUE(f.bound());
  f.reset();
  EXPECT_FALSE(f.bound());
  EXPECT_EQ(arena.pooled(), 1u);
}

// --- TOX3 multi-run frame codec ----------------------------------------

std::vector<Parcel<std::int64_t>> make_parcels(Rank src, int count) {
  std::vector<Parcel<std::int64_t>> out;
  for (int i = 0; i < count; ++i) {
    out.push_back({Block{src, static_cast<Rank>(i)}, src * 1000 + i});
  }
  return out;
}

/// A buffer with a known send set: parcels at indices {1,2} and {5,6}
/// of an 8-parcel buffer (two runs with gaps on both sides).
struct MultiRunFixture {
  std::vector<Parcel<std::int64_t>> buf = make_parcels(3, 8);
  std::vector<SendRun> runs{{1, 2}, {5, 2}};
  std::size_t count = 4;
};

TEST(MultiRunFrameTest, EraseRunsCompactsStably) {
  MultiRunFixture fx;
  detail::erase_runs(fx.buf, fx.runs);
  ASSERT_EQ(fx.buf.size(), 4u);
  EXPECT_EQ(fx.buf[0].block.dest, 0);
  EXPECT_EQ(fx.buf[1].block.dest, 3);
  EXPECT_EQ(fx.buf[2].block.dest, 4);
  EXPECT_EQ(fx.buf[3].block.dest, 7);
}

TEST(MultiRunFrameTest, MultiRunRoundTrips) {
  MultiRunFixture fx;
  std::vector<std::byte> frame;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 2, 1, 3, 7, frame);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  ASSERT_TRUE(decode_multi_run_frame<std::int64_t>(WireView(frame), 2, 1, 3, 7, 16, view, &reason))
      << reason;
  ASSERT_EQ(view.count(), 4u);
  ASSERT_EQ(view.run_count(), 2u);
  // Payload order is send order (buffer order of the send set).
  const int expect_dest[] = {1, 2, 5, 6};
  for (std::size_t i = 0; i < view.count(); ++i) {
    EXPECT_EQ(view.parcel(i).block.dest, expect_dest[i]);
    EXPECT_EQ(view.parcel(i).payload, 3000 + expect_dest[i]);
  }
  // Run descriptors carry cumulative destination offsets.
  EXPECT_EQ(view.run(0).dst_offset, 0u);
  EXPECT_EQ(view.run(0).count, 2u);
  EXPECT_EQ(view.run(1).dst_offset, 2u);
  EXPECT_EQ(view.run(1).count, 2u);
  // scatter() reproduces the send set contiguously at the destination.
  std::vector<Parcel<std::int64_t>> out;
  view.append_to(out);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].block.dest, expect_dest[i]);
  }
}

TEST(MultiRunFrameTest, EmptyFrameRoundTrips) {
  const std::vector<Parcel<std::int64_t>> buf;
  const std::vector<SendRun> runs;
  std::vector<std::byte> frame;
  encode_multi_run_frame(buf, runs, 0, 1, 1, 0, 1, frame);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  ASSERT_TRUE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 1, 0, 1, 4, view, &reason))
      << reason;
  EXPECT_EQ(view.count(), 0u);
  EXPECT_EQ(view.run_count(), 0u);
}

TEST(MultiRunFrameTest, NegativeMetadataRejected) {
  MultiRunFixture fx;
  std::vector<std::byte> frame;
  EXPECT_THROW(encode_multi_run_frame(fx.buf, fx.runs, fx.count, -1, 2, 5, 6, frame),
               std::invalid_argument);
  EXPECT_THROW(encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 2, -5, 6, frame),
               std::invalid_argument);
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 2, 5, 6, frame);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(frame), -1, 2, 5, 6, 16, view, &reason));
  EXPECT_EQ(reason, "negative message metadata");
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(frame), 1, -2, 5, 6, 16, view, &reason));
  EXPECT_EQ(reason, "negative message metadata");
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 2, -5, 6, 16, view, &reason));
  EXPECT_EQ(reason, "negative message metadata");
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 2, 5, -6, 16, view, &reason));
  EXPECT_EQ(reason, "negative message metadata");
}

TEST(MultiRunFrameTest, EveryBitFlipIsDetected) {
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 2, 5, 6, clean);
  SealedRunFrameView<std::int64_t> view;
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    auto frame = clean;
    frame[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 2, 5, 6, 16, view))
        << "flipped bit " << bit << " slipped through";
  }
}

TEST(MultiRunFrameTest, EveryTruncationIsDetected) {
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 2, 0, 4, clean);
  SealedRunFrameView<std::int64_t> view;
  for (std::size_t keep = 0; keep < clean.size(); ++keep) {
    const std::vector<std::byte> frame(clean.begin(),
                                       clean.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 2, 0, 4, 16, view))
        << "truncation to " << keep << " bytes slipped through";
  }
}

/// Re-seals a forged TOX3 frame (header CRC at 48, trailer CRC last)
/// so the forged structure itself — not a checksum — is what decode
/// must reject.
std::vector<std::byte> reseal_v3(std::vector<std::byte> frame) {
  Crc32 crc;
  crc.update(frame.data(), 48);
  wire_write_u32(frame.data() + 48, crc.value());
  crc.update(frame.data() + 48, frame.size() - 48 - 4);
  wire_write_u32(frame.data() + frame.size() - 4, crc.value());
  return frame;
}

/// Patches descriptor `r`'s {dst_offset, count} in a sealed v3 frame
/// and re-seals it.
std::vector<std::byte> forge_descriptor(std::vector<std::byte> frame, std::size_t r,
                                        std::uint64_t dst_offset, std::uint64_t n) {
  std::byte* d = frame.data() + detail::kFrameV3HeaderBytes + r * detail::kRunDescriptorBytes;
  wire_write_u64(d, dst_offset);
  wire_write_u64(d + 8, n);
  return reseal_v3(std::move(frame));
}

TEST(MultiRunFrameTest, ForgedRunTablesAreTypedErrors) {
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 1, 1, 2, clean);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  const auto refuse = [&](const std::vector<std::byte>& frame, const char* why) {
    EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 1, 1, 2, 16, view,
                                                      &reason));
    EXPECT_EQ(reason, why);
  };
  // Zero-length run.
  refuse(forge_descriptor(clean, 0, 0, 0), "empty run descriptor");
  // Second run overlaps the first ([0,2) then [1,3)).
  refuse(forge_descriptor(clean, 1, 1, 2), "overlapping run descriptors");
  // Out-of-order descriptors are the same overlap class ([2..) then [0..)).
  {
    auto frame = forge_descriptor(clean, 0, 2, 2);
    refuse(forge_descriptor(std::move(frame), 1, 0, 2), "overlapping run descriptors");
  }
  // Run reaching past the scatter region [0, count).
  refuse(forge_descriptor(clean, 1, 3, 2), "run descriptor out of bounds");
  // Run count far beyond the region (also trips the bounds check, not
  // an allocation or an OOB scatter).
  refuse(forge_descriptor(clean, 1, 2, std::uint64_t{1} << 60), "run descriptor out of bounds");
  // A gap the table never covers: [0,2) then [3,4) accounts for only 3
  // of the 4 parcels on the wire.
  refuse(forge_descriptor(clean, 1, 3, 1), "run table does not cover the frame");
}

TEST(MultiRunFrameTest, ForgedRunCountIsBoundedBeforeParsing) {
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 1, 1, 2, clean);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  // A run count claiming a table longer than the whole frame must be
  // rejected by the bound check before any descriptor is read.
  auto forged = clean;
  wire_write_u32(forged.data() + 44, 0xFFFFFFFFu);
  forged = reseal_v3(std::move(forged));
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(forged), 1, 1, 1, 2, 16, view, &reason));
  EXPECT_EQ(reason, "run table exceeds message size");
  // A plausible-but-wrong run count shifts the table/payload boundary;
  // the exact-size check refuses it.
  forged = clean;
  wire_write_u32(forged.data() + 44, 1);
  forged = reseal_v3(std::move(forged));
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(forged), 1, 1, 1, 2, 16, view, &reason));
  EXPECT_EQ(reason, "frame size mismatch");
}

TEST(MultiRunFrameTest, RejectsAnAppendedByte) {
  // One byte past the last run, resealed so both CRCs match: only the
  // exact-size check stands between the extra byte and the decoder.
  MultiRunFixture fx;
  std::vector<std::byte> frame;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 1, 1, 2, frame);
  frame.push_back(std::byte{0});
  frame = reseal_v3(std::move(frame));
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  EXPECT_FALSE(
      decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 1, 1, 2, 16, view, &reason));
  EXPECT_EQ(reason, "frame size mismatch");
}

TEST(MultiRunFrameTest, RejectsWrongStepChannelAndIdentity) {
  MultiRunFixture fx;
  std::vector<std::byte> frame;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 2, 1, 3, frame);
  SealedRunFrameView<std::int64_t> view;
  std::string reason;
  EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 2, 2, 1, 3, 16, view, &reason));
  EXPECT_EQ(reason, "message sealed for a different step");
  EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 2, 1, 4, 16, view, &reason));
  EXPECT_EQ(reason, "message sealed for a different channel");
  // Origin 3 is out of range in a 2-node torus.
  EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 2, 1, 3, 2, view, &reason));
  EXPECT_EQ(reason, "parcel identity out of range");
}

// --- Strided user-buffer views ------------------------------------------

TEST(StridedViewTest, SeedAndScatterTransposeColumns) {
  // Both matrices live row-major; the views walk columns (stride N).
  // seed reads send column p as node p's row; scatter writes node q's
  // result into recv column q — the engine never sees a dense copy.
  const Rank N = 16;
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  std::vector<std::int64_t> send_mat(static_cast<std::size_t>(N) * N);
  std::vector<std::int64_t> recv_mat(static_cast<std::size_t>(N) * N, -1);
  std::vector<StridedView<const std::int64_t>> send_views;
  std::vector<StridedView<std::int64_t>> recv_views;
  for (Rank p = 0; p < N; ++p) {
    send_views.push_back({send_mat.data() + p, static_cast<std::size_t>(N),
                          static_cast<std::ptrdiff_t>(N)});
    recv_views.push_back({recv_mat.data() + p, static_cast<std::size_t>(N),
                          static_cast<std::ptrdiff_t>(N)});
  }
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      // Column p, element q of the row-major send matrix.
      send_mat[static_cast<std::size_t>(q) * static_cast<std::size_t>(N) +
               static_cast<std::size_t>(p)] = p * 10000 + q;
    }
  }
  auto delivered = exchange_payloads_pooled(algo, StepProgram(algo),
                                            seed_parcels_strided(N, send_views));
  scatter_parcels_strided(N, delivered, recv_views);
  for (Rank q = 0; q < N; ++q) {
    for (Rank p = 0; p < N; ++p) {
      EXPECT_EQ(recv_views[static_cast<std::size_t>(q)].at(static_cast<std::size_t>(p)),
                p * 10000 + q)
          << "recv[" << q << "][" << p << "]";
    }
  }
}

TEST(StridedViewTest, SeedRejectsShortViews) {
  std::int64_t one = 0;
  std::vector<StridedView<const std::int64_t>> views(4, {&one, 1, 1});
  EXPECT_THROW(seed_parcels_strided<std::int64_t>(4, views), std::invalid_argument);
}

// --- Pooled layout-faithful exchange -----------------------------------

ParcelBuffers<std::int64_t> canonical_parcels(Rank N) {
  ParcelBuffers<std::int64_t> buffers(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      buffers[static_cast<std::size_t>(p)].push_back({Block{p, q}, p * 10000 + q});
    }
  }
  return buffers;
}

void expect_delivered(Rank N, const ParcelBuffers<std::int64_t>& out) {
  for (Rank q = 0; q < N; ++q) {
    ASSERT_EQ(out[static_cast<std::size_t>(q)].size(), static_cast<std::size_t>(N));
    std::set<Rank> origins;
    for (const auto& parcel : out[static_cast<std::size_t>(q)]) {
      EXPECT_EQ(parcel.block.dest, q);
      EXPECT_EQ(parcel.payload, parcel.block.origin * 10000 + q);
      origins.insert(parcel.block.origin);
    }
    EXPECT_EQ(origins.size(), static_cast<std::size_t>(N));
  }
}

/// One pooled exchange of the canonical parcels, replaying a program
/// compiled for `layout` on `pool`; returns the arena's traffic.
WirePoolStats run_pooled(const SuhShinAape& algo, LayoutPolicy layout,
                         ParcelBuffers<std::int64_t>* out = nullptr, StepPool* pool = nullptr) {
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  options.pool = pool;
  auto delivered = exchange_payloads_pooled(
      algo, StepProgram(algo, layout), canonical_parcels(algo.shape().num_nodes()), options);
  if (out != nullptr) *out = std::move(delivered);
  return arena.stats();
}

/// The wire's run accounting must equal the layout simulator's, run for
/// run: both order buffers by the same keys and splice at the same hole.
void expect_matches_simulator(const WirePoolStats& wire, const LayoutStats& blocks,
                              const std::string& what) {
  EXPECT_EQ(wire.total_sends, blocks.total_sends) << what;
  EXPECT_EQ(wire.contiguous_sends, blocks.contiguous_sends) << what;
  EXPECT_EQ(wire.gathered_parcels, blocks.gathered_blocks) << what;
  EXPECT_EQ(wire.max_runs_per_send, blocks.max_runs_per_send) << what;
  EXPECT_EQ(wire.runs_encoded, blocks.total_runs) << what;
  EXPECT_EQ(wire.rearrangement_passes, blocks.rearrangement_passes) << what;
  EXPECT_EQ(wire.parcels_rearranged, blocks.blocks_rearranged) << what;
}

TEST(PooledExchangeTest, DeliversTheAapePermutation) {
  for (const auto& extents :
       std::vector<std::vector<std::int32_t>>{{4, 4}, {8, 8}, {8, 4, 4}, {4, 4, 4}}) {
    const SuhShinAape algo{TorusShape(extents)};
    ParcelBuffers<std::int64_t> out;
    run_pooled(algo, LayoutPolicy::kPaper, &out);
    expect_delivered(algo.shape().num_nodes(), out);
  }
}

TEST(PooledExchangeTest, NaiveLayoutDeliversToo) {
  const SuhShinAape algo(TorusShape({4, 4}));
  ParcelBuffers<std::int64_t> out;
  run_pooled(algo, LayoutPolicy::kNaiveDestinationOrder, &out);
  expect_delivered(16, out);
}

TEST(PooledExchangeTest, RunAccountingMatchesLayoutSimulator) {
  // The paper's §3.3 claim, cross-checked at the payload layer: the
  // pooled executor's run accounting must agree exactly with the
  // block-level layout simulator, because both order their buffers
  // with the same keys and hole-splice discipline.
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{{8, 8}, {4, 4, 4}}) {
    const SuhShinAape algo{TorusShape(extents)};
    expect_matches_simulator(run_pooled(algo, LayoutPolicy::kPaper),
                             run_layout_simulation(algo, LayoutPolicy::kPaper),
                             algo.shape().to_string());
  }
}

TEST(PooledExchangeTest, PaperLayoutIsFullyContiguousIn2D) {
  const WirePoolStats wire = run_pooled(SuhShinAape(TorusShape({8, 8})), LayoutPolicy::kPaper);
  EXPECT_TRUE(wire.fully_contiguous());
  EXPECT_EQ(wire.max_runs_per_send, 1);
  EXPECT_EQ(wire.gathered_parcels, 0);
}

TEST(PooledExchangeTest, PaperLayoutBoundsRunsIn3D) {
  // n = 3: the parity obstruction allows at most 2^(n-2) = 2 runs.
  const SuhShinAape algo(TorusShape({8, 4, 4}));
  EXPECT_LE(run_pooled(algo, LayoutPolicy::kPaper).max_runs_per_send, 2);
}

TEST(PooledExchangeTest, NaiveLayoutFragmentsSends) {
  const WirePoolStats wire =
      run_pooled(SuhShinAape(TorusShape({8, 8})), LayoutPolicy::kNaiveDestinationOrder);
  EXPECT_FALSE(wire.fully_contiguous());
  EXPECT_GT(wire.gathered_parcels, 0);
  EXPECT_GT(wire.max_runs_per_send, 1);
}

TEST(PooledExchangeTest, NaiveLayoutRunAccountingMatchesSimulatorToo) {
  // The dead-path regression: the fragmented (multi-run) branch of the
  // accounting must agree with the layout simulator as exactly as the
  // contiguous branch does. Before the run-gather rework the executors
  // hard-coded one run per message, so gathered_parcels never moved.
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{{8, 8}, {4, 4, 4}}) {
    const SuhShinAape algo{TorusShape(extents)};
    const WirePoolStats wire = run_pooled(algo, LayoutPolicy::kNaiveDestinationOrder);
    expect_matches_simulator(
        wire, run_layout_simulation(algo, LayoutPolicy::kNaiveDestinationOrder),
        algo.shape().to_string());
    EXPECT_GT(wire.gathered_parcels, 0) << algo.shape().to_string();
    EXPECT_GT(wire.max_runs_per_send, 1) << algo.shape().to_string();
  }
}

TEST(PooledExchangeTest, RunsEncodedCountsTrueRunsPerMessage) {
  const SuhShinAape algo(TorusShape({8, 8}));
  // Contiguous 2D paper layout: every message is exactly one run.
  {
    const WirePoolStats wire = run_pooled(algo, LayoutPolicy::kPaper);
    EXPECT_EQ(wire.runs_encoded, wire.total_sends);
  }
  // Fragmented naive layout: strictly more runs than messages, and
  // never more than max_runs_per_send allows.
  {
    const WirePoolStats wire = run_pooled(algo, LayoutPolicy::kNaiveDestinationOrder);
    EXPECT_GT(wire.runs_encoded, wire.total_sends);
    EXPECT_LE(wire.runs_encoded, wire.total_sends * wire.max_runs_per_send);
  }
}

TEST(PooledExchangeTest, ArenaReachesSteadyStateAcrossExchanges) {
  const SuhShinAape algo(TorusShape({4, 4}));
  const StepProgram program(algo);
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  exchange_payloads_pooled(algo, program, canonical_parcels(16), options);
  const std::int64_t misses_first = arena.stats().pool_misses;
  EXPECT_GT(misses_first, 0);
  EXPECT_EQ(arena.in_use(), 0);
  // The pool is warm: a second exchange allocates no new frames.
  exchange_payloads_pooled(algo, program, canonical_parcels(16), options);
  EXPECT_EQ(arena.stats().pool_misses, misses_first);
  EXPECT_GT(arena.stats().pool_hits, 0);
  EXPECT_EQ(arena.in_use(), 0);
}

TEST(PooledExchangeTest, PublishesWireMetrics) {
  const SuhShinAape algo(TorusShape({4, 4}));
  Recorder recorder;
  WireExchangeOptions options;
  options.obs = &recorder;
  exchange_payloads_pooled(algo, StepProgram(algo), canonical_parcels(16), options);
  MetricsRegistry& m = recorder.metrics();
  EXPECT_GT(m.counter("wire.messages").value(), 0);
  EXPECT_GT(m.counter("wire.parcels").value(), 0);
  EXPECT_GT(m.counter("wire.bytes_encoded").value(), 0);
  EXPECT_GT(m.counter("wire.contiguous_sends").value(), 0);
}

// --- Compiled step programs ----------------------------------------------

/// The step kernel's drivers.
enum class Driver { kPooled, kSealed, kJournaled };

struct ReplayCase {
  std::vector<std::int32_t> extents;
  LayoutPolicy layout;
  Driver driver;
  int participants;  ///< of the StepPool the kernel runs on
};

/// Everything the wire carried, counter for counter.
void expect_same_traffic(const WirePoolStats& got, const WirePoolStats& want,
                         const std::string& what) {
  EXPECT_EQ(got.messages, want.messages) << what;
  EXPECT_EQ(got.parcels, want.parcels) << what;
  EXPECT_EQ(got.bytes_encoded, want.bytes_encoded) << what;
  EXPECT_EQ(got.bytes_copied, want.bytes_copied) << what;
  EXPECT_EQ(got.contiguous_sends, want.contiguous_sends) << what;
  EXPECT_EQ(got.runs_encoded, want.runs_encoded) << what;
  EXPECT_EQ(got.max_runs_per_send, want.max_runs_per_send) << what;
  EXPECT_EQ(got.parcels_rearranged, want.parcels_rearranged) << what;
}

/// One fresh exchange of the canonical parcels by `driver` on `pool`,
/// replaying a program compiled for `layout`; returns the arena's
/// traffic. Every driver at every pool size must carry exactly what the
/// pooled driver carries inline; the sealed and journaled drivers run a
/// clean wire and a fresh journal.
WirePoolStats run_driver(const SuhShinAape& algo, LayoutPolicy layout, Driver driver,
                         StepPool& pool, ParcelBuffers<std::int64_t>& out) {
  const std::string what = algo.shape().to_string();
  const WirePoolStats pooled = run_pooled(algo, layout);
  if (driver == Driver::kPooled) {
    const WirePoolStats wire = run_pooled(algo, layout, &out, &pool);
    expect_same_traffic(wire, pooled, what);
    return wire;
  }
  const Rank N = algo.shape().num_nodes();
  const StepProgram program(algo, layout);
  WireArena arena;
  if (driver == Driver::kSealed) {
    IntegrityOptions options;
    options.arena = &arena;
    options.pool = &pool;
    IntegrityReport report;
    out = exchange_payloads_sealed(algo, program, canonical_parcels(N), {}, options, &report);
    EXPECT_TRUE(report.clean()) << what;
    EXPECT_EQ(report.messages, pooled.messages) << what;
    EXPECT_EQ(report.parcels, pooled.parcels) << what;
    EXPECT_EQ(report.final_tick, algo.total_steps()) << what;  // one tick per step
  } else {
    ExchangeJournal journal;
    JournalRunOptions options;
    options.wire = &arena;
    options.pool = &pool;
    ResumeReport report;
    out = exchange_payloads_journaled(algo, program, canonical_parcels(N), journal, options,
                                      report);
    EXPECT_TRUE(journal.exchange_complete()) << what;
    EXPECT_EQ(report.sent_parcels, pooled.parcels) << what;
    EXPECT_EQ(report.replayed_parcels, 0) << what;
  }
  expect_same_traffic(arena.stats(), pooled, what);
  return arena.stats();
}

class StepProgramReplayTest : public ::testing::TestWithParam<ReplayCase> {};

TEST_P(StepProgramReplayTest, DeliversTheTransposeWithSimulatorRunAccounting) {
  const SuhShinAape algo{TorusShape(GetParam().extents)};
  StepPool pool(GetParam().participants);
  ParcelBuffers<std::int64_t> out;
  const WirePoolStats wire = run_driver(algo, GetParam().layout, GetParam().driver, pool, out);
  expect_delivered(algo.shape().num_nodes(), out);
  std::vector<std::vector<Block>> oracle_order;
  expect_matches_simulator(wire, run_layout_simulation(algo, GetParam().layout, &oracle_order),
                           algo.shape().to_string());
  // Same order, bit for bit: the counting sort is stable and both
  // splice at the receiver's own hole, so every delivered buffer ends
  // in the simulator's physical order.
  for (std::size_t p = 0; p < out.size(); ++p) {
    ASSERT_EQ(out[p].size(), oracle_order[p].size());
    for (std::size_t i = 0; i < out[p].size(); ++i) {
      ASSERT_EQ(out[p][i].block, oracle_order[p][i]) << "node " << p << " slot " << i;
    }
  }
}

std::vector<ReplayCase> replay_cases() {
  std::vector<ReplayCase> cases;
  // Four participants even on a smaller host: the stages then really
  // interleave on more threads than cores.
  for (const int participants : {1, 4}) {
    for (const Driver driver : {Driver::kPooled, Driver::kSealed, Driver::kJournaled}) {
      for (const auto& extents : std::vector<std::vector<std::int32_t>>{
               {4, 4}, {8, 8}, {16, 8}, {12, 8}, {8, 4, 4}, {8, 8, 8}, {4, 4, 4, 4}, {12, 12, 4}}) {
        for (const LayoutPolicy layout :
             {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
          cases.push_back({extents, layout, driver, participants});
        }
      }
    }
  }
  return cases;
}

std::string replay_case_label(const ReplayCase& c) {
  const char* driver = c.driver == Driver::kSealed      ? "_sealed"
                       : c.driver == Driver::kJournaled ? "_journaled"
                                                        : "";
  return TorusShape(c.extents).to_string() +
         (c.layout == LayoutPolicy::kPaper ? "_paper" : "_naive") + driver +
         (c.participants > 1 ? "_pool" + std::to_string(c.participants) : "");
}

void PrintTo(const ReplayCase& c, std::ostream* os) { *os << replay_case_label(c); }

std::string replay_case_name(const ::testing::TestParamInfo<ReplayCase>& info) {
  return replay_case_label(info.param);
}

INSTANTIATE_TEST_SUITE_P(Shapes, StepProgramReplayTest, ::testing::ValuesIn(replay_cases()),
                         replay_case_name);

TEST(StepProgramTest, RefusesAProgramCompiledForAnotherSchedule) {
  const SuhShinAape algo(TorusShape({8, 8}));
  // Another shape.
  const StepProgram small(SuhShinAape(TorusShape({4, 4})));
  EXPECT_THROW(exchange_payloads_pooled(algo, small, canonical_parcels(64)),
               StepProgramMismatchError);
  // The same shape under another pattern convention.
  const StepProgram nested(SuhShinAape(TorusShape({8, 8}), PatternConvention::kNested));
  ASSERT_NE(algo.convention(), PatternConvention::kNested);
  EXPECT_THROW(exchange_payloads_pooled(algo, nested, canonical_parcels(64)),
               StepProgramMismatchError);
  EXPECT_NO_THROW(exchange_payloads_pooled(algo, StepProgram(algo), canonical_parcels(64)));
}

TEST(StepProgramTest, TablesStayFarBelowAPermutationPerNode) {
  // 8x8x8: one uint16 permutation per node per boundary would cost
  // N^2 * 2 bytes = 512 KiB per boundary, 2.5 MiB in all. The program
  // keeps per-step runs and small key tables instead; the naive layout
  // needs more runs, since its sends fragment.
  const SuhShinAape algo(TorusShape({8, 8, 8}));
  EXPECT_LT(StepProgram(algo, LayoutPolicy::kPaper).memory_bytes(), std::size_t{192} << 10);
  EXPECT_LT(StepProgram(algo, LayoutPolicy::kNaiveDestinationOrder).memory_bytes(),
            std::size_t{640} << 10);
}

TEST(StepProgramTest, PaperLayoutReceivesInPlaceIn2D) {
  // Every 2D paper-layout send is one run, and partners trade equal
  // counts, so every receive overwrites its node's own send slots.
  const SuhShinAape algo(TorusShape({8, 8}));
  const StepProgram program(algo);
  for (int phase = 1; phase <= program.num_phases(); ++phase) {
    for (int step = 1; step <= program.steps_in_phase(phase); ++step) {
      for (Rank p = 0; p < program.num_nodes(); ++p) {
        const StepProgram::NodeStep& s = program.step(phase, step, p);
        ASSERT_GT(s.count, 0u);
        EXPECT_EQ(s.run_count, 1u);
        EXPECT_TRUE(s.in_place) << "phase " << phase << " step " << step << " node " << p;
      }
    }
  }
}

TEST(StepProgramTest, ReplaysAnySeedOrder) {
  // The program is compiled for seeds in destination order; a seed in
  // any other order is put in that order first.
  const SuhShinAape algo(TorusShape({8, 4, 4}));
  auto seed = canonical_parcels(128);
  for (auto& buf : seed) std::reverse(buf.begin(), buf.end());
  expect_delivered(128, exchange_payloads_pooled(algo, StepProgram(algo), std::move(seed)));
}

TEST(StepProgramTest, CopiesReplayIndependentlyOfTheOriginal) {
  const SuhShinAape algo(TorusShape({8, 8}));
  std::optional<StepProgram> original(std::in_place, algo);
  const StepProgram copy = *original;
  original.reset();
  expect_delivered(64, exchange_payloads_pooled(algo, copy, canonical_parcels(64)));
}

TEST(StepProgramTest, SendRunsAreMaximalAscendingSpans) {
  // Each node step's runs are exactly the maximal spans of its send set:
  // non-empty, ascending and never adjacent (adjacent runs would be one
  // run), and they add up to the step's parcel count.
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{{8, 8}, {8, 4, 4}}) {
    const SuhShinAape algo{TorusShape(extents)};
    for (const LayoutPolicy layout :
         {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
      const StepProgram program(algo, layout);
      for (int phase = 1; phase <= program.num_phases(); ++phase) {
        for (int step = 1; step <= program.steps_in_phase(phase); ++step) {
          for (Rank p = 0; p < program.num_nodes(); ++p) {
            const StepProgram::NodeStep& s = program.step(phase, step, p);
            const std::span<const SendRun> runs = program.runs(s);
            ASSERT_EQ(runs.size(), s.run_count);
            EXPECT_EQ(s.count == 0, runs.empty());
            std::size_t total = 0;
            for (std::size_t r = 0; r < runs.size(); ++r) {
              EXPECT_GT(runs[r].count, 0u);
              if (r > 0) {
                EXPECT_LT(runs[r - 1].offset + runs[r - 1].count, runs[r].offset);
              }
              total += runs[r].count;
            }
            EXPECT_EQ(total, s.count) << "phase " << phase << " step " << step << " node " << p;
          }
        }
      }
    }
  }
}

TEST(StepProgramTest, TablesAndSortHistogramsOwnTheirCacheLines) {
  // Every participant reads the program's tables for every parcel it
  // sorts, and writes its own histogram for every parcel. None of them
  // may share a 64-byte line: each starts on a line boundary, and the
  // lines each spans are disjoint from all the others'.
  const SuhShinAape algo(TorusShape({8, 8, 8}));
  const Rank N = algo.shape().num_nodes();
  for (const LayoutPolicy layout : {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
    const StepProgram program(algo, layout);
    for (const int participants : {1, 4}) {
      std::optional<StepPool> pool;
      if (participants > 1) pool.emplace(participants);
      StepPool* workers = pool.has_value() ? &*pool : nullptr;
      auto buffers = canonical_parcels(N);
      detail::StepReplay<std::int64_t> replay;
      detail::begin_replay(program, buffers, workers, replay);
      ASSERT_EQ(replay.scratch.size(), static_cast<std::size_t>(participants));

      struct Lines {
        std::uintptr_t first;
        std::uintptr_t end;
        std::string what;
      };
      std::vector<Lines> lines;
      const auto add = [&](const void* data, std::size_t bytes, const std::string& what) {
        ASSERT_GT(bytes, 0u) << what;
        const auto at = reinterpret_cast<std::uintptr_t>(data);
        EXPECT_EQ(at % kCacheLine, 0u) << what << " does not start on a cache line";
        lines.push_back({at / kCacheLine, (at + bytes + kCacheLine - 1) / kCacheLine, what});
      };
      const auto tables = program.tables();
      for (std::size_t t = 0; t < tables.size(); ++t) {
        add(tables[t].data(), tables[t].size(), "program table " + std::to_string(t));
      }
      std::vector<const std::uint32_t*> histograms;
      for (std::size_t who = 0; who < replay.scratch.size(); ++who) {
        const auto& counts = replay.scratch[who].key_counts;
        add(counts.data(), counts.capacity() * sizeof(std::uint32_t),
            "histogram of participant " + std::to_string(who));
        histograms.push_back(counts.data());
      }
      std::sort(lines.begin(), lines.end(),
                [](const Lines& a, const Lines& b) { return a.first < b.first; });
      for (std::size_t i = 1; i < lines.size(); ++i) {
        EXPECT_LE(lines[i - 1].end, lines[i].first)
            << lines[i - 1].what << " shares a cache line with " << lines[i].what;
      }

      // The replay sorts in place: no histogram moves to another line.
      detail::StepHooks hooks;
      WireArena arena;
      while (replay.phase <= program.num_phases()) {
        ASSERT_TRUE(
            detail::replay_phase(program, buffers, arena, workers, nullptr, hooks, replay));
      }
      for (std::size_t who = 0; who < replay.scratch.size(); ++who) {
        EXPECT_EQ(replay.scratch[who].key_counts.data(), histograms[who]);
      }
      expect_delivered(N, buffers);
    }
  }
}

// --- The process's program cache ----------------------------------------

TEST(StepProgramCacheTest, SameKeyReturnsOneProgramCompiledOnce) {
  StepProgramCache cache;
  const SuhShinAape algo(TorusShape({8, 8}));
  const auto first = cache.get(algo, LayoutPolicy::kPaper);
  const auto second = cache.get(SuhShinAape(TorusShape({8, 8})), LayoutPolicy::kPaper);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.compiles(), 1);
  EXPECT_EQ(cache.size(), 1u);
  expect_delivered(64, exchange_payloads_pooled(algo, *first, canonical_parcels(64)));
}

TEST(StepProgramCacheTest, LayoutAndConventionAreTheirOwnKeys) {
  StepProgramCache cache;
  const SuhShinAape paper2d(TorusShape({8, 8}));
  const SuhShinAape nested(TorusShape({8, 8}), PatternConvention::kNested);
  ASSERT_NE(paper2d.convention(), nested.convention());
  const auto paper = cache.get(paper2d, LayoutPolicy::kPaper);
  const auto naive = cache.get(paper2d, LayoutPolicy::kNaiveDestinationOrder);
  const auto other = cache.get(nested, LayoutPolicy::kPaper);
  EXPECT_NE(paper.get(), naive.get());
  EXPECT_NE(paper.get(), other.get());
  EXPECT_EQ(cache.compiles(), 3);
  EXPECT_NO_THROW(other->require_compiled_for(nested));
  EXPECT_THROW(other->require_compiled_for(paper2d), StepProgramMismatchError);
  // The naive program fragments the sends the paper program keeps whole.
  WireArena paper_wire;
  WireArena naive_wire;
  exchange_payloads_pooled(paper2d, *paper, canonical_parcels(64), {&paper_wire});
  exchange_payloads_pooled(paper2d, *naive, canonical_parcels(64), {&naive_wire});
  EXPECT_TRUE(paper_wire.stats().fully_contiguous());
  EXPECT_FALSE(naive_wire.stats().fully_contiguous());
}

TEST(StepProgramCacheTest, ConcurrentFirstUsesCompileOnce) {
  StepProgramCache cache;
  const SuhShinAape algo(TorusShape({8, 8, 8}));
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const StepProgram>> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      got[static_cast<std::size_t>(t)] = cache.get(algo, LayoutPolicy::kPaper);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.compiles(), 1);
  for (const auto& program : got) EXPECT_EQ(program.get(), got.front().get());
}

TEST(StepProgramCacheTest, EvictsTheLeastRecentlyUsedAndKeepsHeldProgramsValid) {
  StepProgramCache cache;
  std::vector<SuhShinAape> schedules;
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{
           {4, 4}, {8, 4}, {8, 8}, {12, 4}, {4, 4, 4}, {8, 4, 4}}) {
    schedules.emplace_back(TorusShape(extents));
  }
  const SuhShinAape& oldest = schedules.front();
  const auto held = cache.get(oldest, LayoutPolicy::kPaper);
  const auto key = [&](std::size_t i) {
    return std::pair{&schedules[i / 2], i % 2 == 0 ? LayoutPolicy::kPaper
                                                   : LayoutPolicy::kNaiveDestinationOrder};
  };
  // Fill the cache behind `held`, touching `oldest`'s naive program on
  // the way so that it is not the least recently used.
  const auto touched = cache.get(oldest, LayoutPolicy::kNaiveDestinationOrder);
  for (std::size_t i = 2; cache.size() < StepProgramCache::kCapacity; ++i) {
    cache.get(*key(i).first, key(i).second);
  }
  ASSERT_EQ(cache.compiles(), static_cast<std::int64_t>(StepProgramCache::kCapacity));
  cache.get(oldest, LayoutPolicy::kNaiveDestinationOrder);
  const auto [next_algo, next_layout] = key(StepProgramCache::kCapacity);
  cache.get(*next_algo, next_layout);  // one past capacity: evicts the oldest
  EXPECT_EQ(cache.size(), StepProgramCache::kCapacity);
  EXPECT_EQ(cache.get(oldest, LayoutPolicy::kNaiveDestinationOrder).get(), touched.get())
      << "a recently used program was evicted";
  const std::int64_t compiled = cache.compiles();
  const auto recompiled = cache.get(oldest, LayoutPolicy::kPaper);
  EXPECT_EQ(cache.compiles(), compiled + 1) << "the least recently used program stayed cached";
  EXPECT_NE(recompiled.get(), held.get());
  // The evicted program is still whole for the caller holding it.
  expect_delivered(16, exchange_payloads_pooled(oldest, *held, canonical_parcels(16)));
}

// --- Sealed driver -------------------------------------------------------

TEST(SealedWirePathTest, PooledPathSurvivesTamperingWithRetransmit) {
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  int tampered = 0;
  // Flip one header-CRC byte of the first few transmissions; the sealed
  // frame must detect each and heal under retransmission.
  const ParcelTamperer tamperer = [&](const TransferContext&, std::vector<std::byte>& wire) {
    if (tampered >= 3 || wire.size() < 60) return false;
    ++tampered;
    wire[50] ^= std::byte{0x10};
    return true;
  };
  IntegrityReport report;
  const auto out =
      exchange_payloads_sealed(algo, StepProgram(algo), canonical_parcels(16), tamperer, {}, &report);
  expect_delivered(16, out);
  EXPECT_EQ(report.corrupted, 3);
  EXPECT_EQ(report.retransmits, 3);
}

TEST(SealedWirePathTest, PooledPathGathersMultiRunFrames) {
  // Replaying the naive-layout program, sends fragment: the sealed
  // driver's messages exercise the v3 run-gather encode, the hole-splice
  // scatter, and the true-run accounting.
  const TorusShape shape({8, 8});
  const SuhShinAape algo(shape);
  WireArena arena;
  IntegrityOptions options;
  options.arena = &arena;
  IntegrityReport report;
  const auto out =
      exchange_payloads_sealed(algo, StepProgram(algo, LayoutPolicy::kNaiveDestinationOrder),
                               canonical_parcels(64), {}, options, &report);
  expect_delivered(64, out);
  EXPECT_GT(arena.stats().gathered_parcels, 0);
  EXPECT_GT(arena.stats().max_runs_per_send, 1);
  EXPECT_GT(arena.stats().runs_encoded, arena.stats().total_sends);
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);
}

/// Messages of one step; `in_place` reports whether every receive of
/// the step lands over its node's own send run.
std::int64_t step_messages(const StepProgram& program, int phase, int step, bool& in_place) {
  std::int64_t messages = 0;
  in_place = true;
  for (Rank p = 0; p < program.num_nodes(); ++p) {
    const StepProgram::NodeStep& s = program.step(phase, step, p);
    messages += s.count > 0 ? 1 : 0;
    in_place = in_place && s.in_place;
  }
  return messages;
}

/// Refuses the first attempt of every message in (phase, step): each
/// must re-encode from its sender's source runs and arrive intact, on
/// one participant and on four.
void expect_step_retransmits_intact(const SuhShinAape& algo, const StepProgram& program,
                                    int phase, int step, std::int64_t messages) {
  const Rank N = algo.shape().num_nodes();
  const ParcelTamperer refuse_first = [&](const TransferContext& ctx,
                                          std::vector<std::byte>& wire) {
    if (ctx.phase != phase || ctx.step != step || ctx.attempt != 0) return false;
    wire.back() ^= std::byte{0x01};  // the frame CRC
    return true;
  };
  for (const int participants : {1, 4}) {
    StepPool pool(participants);
    IntegrityOptions options;
    options.pool = &pool;
    IntegrityReport report;
    const auto out = exchange_payloads_sealed(algo, program, canonical_parcels(N), refuse_first,
                                              options, &report);
    expect_delivered(N, out);
    EXPECT_EQ(report.corrupted, messages) << participants << " participants";
    EXPECT_EQ(report.retransmits, messages) << participants << " participants";
    // The step took one extra tick.
    EXPECT_EQ(report.final_tick, algo.total_steps() + 1) << participants << " participants";
  }
}

TEST(SealedWirePathTest, InPlaceStepRetransmitsFromIntactRuns) {
  // Every 2D paper-layout step receives in place, overwriting the run
  // the node just sent. A refused message re-encodes from that run, so
  // it must still hold the original parcels: receives integrate only
  // after every frame of the step has been verified.
  const SuhShinAape algo(TorusShape({8, 8}));
  const StepProgram program(algo);
  bool in_place = false;
  const std::int64_t messages = step_messages(program, algo.num_phases(), 1, in_place);
  ASSERT_TRUE(in_place);
  ASSERT_GT(messages, 0);
  expect_step_retransmits_intact(algo, program, algo.num_phases(), 1, messages);
}

TEST(SealedWirePathTest, CompactingStepRetransmitsFromIntactRuns) {
  // The 3D counterpart: a step whose senders compact their buffers. The
  // compaction must wait until the message has been verified.
  const SuhShinAape algo(TorusShape({8, 4, 4}));
  const StepProgram program(algo);
  for (int phase = 1; phase <= program.num_phases(); ++phase) {
    for (int step = 1; step <= program.steps_in_phase(phase); ++step) {
      bool in_place = true;
      const std::int64_t messages = step_messages(program, phase, step, in_place);
      if (in_place || messages == 0) continue;
      expect_step_retransmits_intact(algo, program, phase, step, messages);
      return;
    }
  }
  FAIL() << "no compacting step in the 8x4x4 program";
}

TEST(SealedWirePathTest, WorkerFailureSurfacesOnTheCallerWithEveryFrameReturned) {
  // The tamperer re-seals every first transmission of one step a parcel
  // short: each frame verifies, but none can land in place over the
  // send it replaces. The invariant check fails inside the integrate
  // stage, on whichever participant lands the receive; it must surface
  // on the calling thread, and every leased frame must be back.
  const SuhShinAape algo(TorusShape({8, 8}));
  const StepProgram program(algo);
  const int phase = algo.num_phases();
  const ParcelTamperer shorten = [&](const TransferContext& ctx, std::vector<std::byte>& wire) {
    if (ctx.phase != phase || ctx.step != 1 || ctx.attempt != 0) return false;
    SealedRunFrameView<std::int64_t> view;
    EXPECT_TRUE(decode_multi_run_frame<std::int64_t>(wire, ctx.phase, ctx.step, ctx.src, ctx.dst,
                                                     64, view));
    std::vector<Parcel<std::int64_t>> parcels(view.count());
    view.scatter(parcels.data());
    const SendRun run{0, static_cast<std::uint32_t>(parcels.size() - 1)};
    encode_multi_run_frame(parcels, std::span<const SendRun>(&run, 1), run.count, ctx.phase,
                           ctx.step, ctx.src, ctx.dst, wire);
    return true;
  };
  for (const int participants : {1, 4}) {
    StepPool pool(participants);
    WireArena arena;
    IntegrityOptions options;
    options.arena = &arena;
    options.pool = &pool;
    try {
      exchange_payloads_sealed(algo, program, canonical_parcels(64), shorten, options);
      ADD_FAILURE() << "a short in-place receive must fail the kernel's check";
    } catch (const std::logic_error& error) {
      EXPECT_NE(std::string(error.what()).find("in-place receive"), std::string::npos)
          << error.what();
    }
    EXPECT_EQ(arena.stats().outstanding_frames(), 0) << participants << " participants";
    EXPECT_EQ(arena.in_use(), 0) << participants << " participants";
  }
}

// --- Deterministic fuzz harness ----------------------------------------

/// Applies one seeded mutation (truncate, extend, or bit flips) and
/// returns true when the result differs from the input.
bool mutate(SplitMix64& rng, const std::vector<std::byte>& clean, std::vector<std::byte>& out) {
  out = clean;
  switch (rng.next_below(4)) {
    case 0: {  // truncate
      const std::size_t keep = static_cast<std::size_t>(rng.next_below(clean.size()));
      out.resize(keep);
      return true;
    }
    case 1: {  // extend with garbage
      const std::size_t extra = 1 + static_cast<std::size_t>(rng.next_below(64));
      for (std::size_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<std::byte>(rng.next() & 0xFF));
      }
      return true;
    }
    default: {  // flip 1..8 bits
      const int flips = 1 + static_cast<int>(rng.next_below(8));
      for (int i = 0; i < flips; ++i) {
        const std::size_t bit = static_cast<std::size_t>(rng.next_below(out.size() * 8));
        out[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
      }
      return out != clean;  // an even re-flip of the same bit cancels
    }
  }
}

TEST(WireFuzzTest, MutatedMultiRunFramesNeverDecode) {
  // The v3 codec under a seeded mutation harness: no mutation may
  // decode, and (under the ASan/UBSan CI job) none may read out of
  // bounds — the run-table bound checks are what this leans on.
  SplitMix64 rng(0xD00DF00Du);
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 3, 1, 2, 9, clean);
  SealedRunFrameView<std::int64_t> view;
  std::vector<std::byte> wire;
  for (int iter = 0; iter < 4000; ++iter) {
    if (!mutate(rng, clean, wire)) continue;
    std::string reason;
    const bool ok =
        decode_multi_run_frame<std::int64_t>(WireView(wire), 3, 1, 2, 9, 16, view, &reason);
    ASSERT_FALSE(ok) << "mutated multi-run frame decoded at iter " << iter;
    EXPECT_FALSE(reason.empty()) << "rejection must be named (iter " << iter << ")";
  }
}

TEST(WireFuzzTest, ResealedRandomRunTablesNeverScatterOutOfBounds) {
  // Adversarial (not just corrupted) tables: random descriptors with
  // *valid* CRCs. Decode must either refuse with a typed reason or
  // yield a view whose scatter stays inside count() parcels.
  SplitMix64 rng(0x7AB1E5u);
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_multi_run_frame(fx.buf, fx.runs, fx.count, 1, 1, 1, 2, clean);
  SealedRunFrameView<std::int64_t> view;
  std::vector<Parcel<std::int64_t>> out;
  for (int iter = 0; iter < 2000; ++iter) {
    auto frame = clean;
    for (std::size_t r = 0; r < fx.runs.size(); ++r) {
      std::byte* d =
          frame.data() + detail::kFrameV3HeaderBytes + r * detail::kRunDescriptorBytes;
      wire_write_u64(d, rng.next() % 8);
      wire_write_u64(d + 8, rng.next() % 8);
    }
    frame = reseal_v3(std::move(frame));
    std::string reason;
    if (decode_multi_run_frame<std::int64_t>(WireView(frame), 1, 1, 1, 2, 16, view, &reason)) {
      out.clear();
      view.append_to(out);  // ASan-audited: never writes past count()
      EXPECT_EQ(out.size(), view.count());
    } else {
      EXPECT_FALSE(reason.empty());
    }
  }
}

TEST(WireFuzzTest, RandomGarbageNeverDecodes) {
  SplitMix64 rng(0x5EEDu);
  SealedRunFrameView<std::int64_t> run_view;
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<std::byte> wire(static_cast<std::size_t>(rng.next_below(256)));
    for (auto& b : wire) b = static_cast<std::byte>(rng.next() & 0xFF);
    EXPECT_FALSE(decode_multi_run_frame<std::int64_t>(WireView(wire), 1, 1, 0, 1, 4, run_view));
  }
}

}  // namespace
}  // namespace torex
