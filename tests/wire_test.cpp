// The zero-copy pooled wire path: WireArena recycling semantics,
// PooledFrame RAII, the TOX4 frame codec (round-trip with run gather,
// every-bit-flip and every-truncation detection, negative metadata,
// re-sealed frames with a wrong program, step, channel, count or
// element size refused by name), strided user-buffer views, the
// compiled StepProgram (maximal send runs; every node receiving what
// it sends; interned tables on cache lines of their own; the final
// and arrival tables pinned to the layout simulator, slot for slot),
// the process's program cache (one compile per key, also under
// concurrent first use; least-recently-used eviction that keeps held
// programs valid), and the step kernel's drivers that replay it —
// pooled, sealed and journaled, over Tagged payloads that carry their
// own identity (the transpose checked slot for slot, §3.3 run
// accounting against the block-level layout simulator, on both layouts
// and every reference shape; mismatched programs refused; in-place
// receives that survive retransmission; steady-state allocation
// behavior; every driver also on a four-participant StepPool) — and a
// seeded deterministic fuzz harness over the frame codec: mutations
// must never verify and never read out of bounds (the ASan/UBSan CI
// job runs this suite under sanitizers, the TSan job under TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <latch>
#include <memory>
#include <optional>
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
#include "tagged.hpp"
#include "util/cache_line.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "util/step_pool.hpp"

namespace torex {
namespace {

using testing::Tagged;
using testing::tagged;
using testing::tagged_rows;
using testing::transpose_mismatch;

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

// --- TOX4 frame codec ---------------------------------------------------

/// A row with a known send set: slots {1,2} and {5,6} of an 8-slot row
/// (two runs with gaps on both sides).
struct MultiRunFixture {
  std::vector<std::int64_t> row{3000, 3001, 3002, 3003, 3004, 3005, 3006, 3007};
  std::vector<SendRun> runs{{1, 2}, {5, 2}};
  FrameHeader header{0xF1A6F1A6F1A6F1A6ull, 2, 1, 3, 7, 4};
};

/// The payloads of a verified frame.
std::vector<std::int64_t> payloads_of(const std::vector<std::byte>& frame, std::size_t count) {
  std::vector<std::int64_t> out(count);
  std::memcpy(out.data(), frame.data() + detail::kFrameHeaderBytes, count * sizeof(std::int64_t));
  return out;
}

TEST(MultiRunFrameTest, MultiRunRoundTrips) {
  MultiRunFixture fx;
  std::vector<std::byte> frame;
  encode_frame(fx.row.data(), fx.runs, fx.header, frame);
  EXPECT_EQ(frame.size(), frame_size<std::int64_t>(4));
  EXPECT_EQ(verify_frame<std::int64_t>(WireView(frame), fx.header), nullptr);
  // Payload order is send order (row order of the send set); the row
  // itself is untouched.
  EXPECT_EQ(payloads_of(frame, 4), (std::vector<std::int64_t>{3001, 3002, 3005, 3006}));
  EXPECT_EQ(fx.row[1], 3001);
}

TEST(MultiRunFrameTest, EmptyFrameRoundTrips) {
  const std::vector<std::int64_t> row;
  const FrameHeader header{7, 1, 1, 0, 1, 0};
  std::vector<std::byte> frame;
  encode_frame<std::int64_t>(row.data(), {}, header, frame);
  EXPECT_EQ(frame.size(), detail::kFrameHeaderBytes + detail::kFrameTrailerBytes);
  EXPECT_EQ(verify_frame<std::int64_t>(WireView(frame), header), nullptr);
}

TEST(MultiRunFrameTest, NegativeMetadataRejected) {
  MultiRunFixture fx;
  std::vector<std::byte> frame;
  FrameHeader bad = fx.header;
  bad.phase = -1;
  EXPECT_THROW(encode_frame(fx.row.data(), fx.runs, bad, frame), std::invalid_argument);
  bad = fx.header;
  bad.src = -5;
  EXPECT_THROW(encode_frame(fx.row.data(), fx.runs, bad, frame), std::invalid_argument);
  encode_frame(fx.row.data(), fx.runs, fx.header, frame);
  for (int field = 0; field < 4; ++field) {
    FrameHeader want = fx.header;
    (field == 0 ? want.phase : field == 1 ? want.step : field == 2 ? want.src : want.dst) = -1;
    const char* reason = verify_frame<std::int64_t>(WireView(frame), want);
    ASSERT_NE(reason, nullptr) << "field " << field;
    EXPECT_STREQ(reason, "negative message metadata");
  }
}

TEST(MultiRunFrameTest, EveryBitFlipIsDetected) {
  // Header, payload and trailer alike: both CRCs cover every byte.
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_frame(fx.row.data(), fx.runs, fx.header, clean);
  for (std::size_t bit = 0; bit < clean.size() * 8; ++bit) {
    auto frame = clean;
    frame[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_NE(verify_frame<std::int64_t>(WireView(frame), fx.header), nullptr)
        << "flipped bit " << bit << " slipped through";
  }
}

TEST(MultiRunFrameTest, EveryTruncationIsDetected) {
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_frame(fx.row.data(), fx.runs, fx.header, clean);
  for (std::size_t keep = 0; keep < clean.size(); ++keep) {
    const std::vector<std::byte> frame(clean.begin(),
                                       clean.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_NE(verify_frame<std::int64_t>(WireView(frame), fx.header), nullptr)
        << "truncation to " << keep << " bytes slipped through";
  }
}

/// Re-seals a forged TOX4 frame (header CRC after the header fields,
/// frame CRC last) so the forged field itself — not a checksum — is
/// what verify must reject.
std::vector<std::byte> reseal(std::vector<std::byte> frame) {
  Crc32 crc;
  crc.update(frame.data(), detail::kFrameHeaderCrcAt);
  wire_write_u32(frame.data() + detail::kFrameHeaderCrcAt, crc.value());
  crc.update(frame.data() + detail::kFrameHeaderCrcAt,
             frame.size() - detail::kFrameHeaderCrcAt - detail::kFrameTrailerBytes);
  wire_write_u32(frame.data() + frame.size() - detail::kFrameTrailerBytes, crc.value());
  return frame;
}

TEST(MultiRunFrameTest, ResealedHeaderFieldsAreRefusedByName) {
  // A frame re-sealed with valid CRCs but one header field changed: the
  // frame is intact, the field is wrong, and verify names the field.
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_frame(fx.row.data(), fx.runs, fx.header, clean);
  ASSERT_EQ(verify_frame<std::int64_t>(WireView(clean), fx.header), nullptr);
  struct Forgery {
    std::size_t at;
    bool wide;
    const char* reason;
  };
  for (const Forgery& f : {Forgery{28, true, "message sealed for another program"},
                           Forgery{4, false, "message sealed for another phase"},
                           Forgery{8, false, "message sealed for another step"},
                           Forgery{12, false, "message sealed by another sender"},
                           Forgery{16, false, "message sealed for another receiver"},
                           Forgery{24, false, "element size mismatch"},
                           Forgery{20, false, "parcel count mismatch"},
                           Forgery{0, false, "bad magic"}}) {
    auto frame = clean;
    if (f.wide) {
      wire_write_u64(frame.data() + f.at, fx.header.fingerprint + 1);
    } else {
      std::size_t offset = f.at;
      std::uint32_t v = 0;
      ASSERT_TRUE(wire_get_u32(WireView(frame), offset, v));
      wire_write_u32(frame.data() + f.at, v + 1);
    }
    const char* reason = verify_frame<std::int64_t>(WireView(reseal(std::move(frame))), fx.header);
    ASSERT_NE(reason, nullptr) << f.reason;
    EXPECT_STREQ(reason, f.reason);
  }
  // A count forged together with the frame's length, so the size check
  // agrees with the header: the program's expected count still refuses.
  std::vector<std::int64_t> longer = fx.row;
  const std::vector<SendRun> five{{1, 2}, {4, 3}};
  FrameHeader forged = fx.header;
  forged.count = 5;
  std::vector<std::byte> frame;
  encode_frame(longer.data(), five, forged, frame);
  EXPECT_STREQ(verify_frame<std::int64_t>(WireView(frame), fx.header), "parcel count mismatch");
}

TEST(MultiRunFrameTest, RejectsAnAppendedByte) {
  // One byte past the payload, resealed so both CRCs match: only the
  // exact-size check stands between the extra byte and the receive.
  MultiRunFixture fx;
  std::vector<std::byte> frame;
  encode_frame(fx.row.data(), fx.runs, fx.header, frame);
  frame.push_back(std::byte{0});
  frame = reseal(std::move(frame));
  EXPECT_STREQ(verify_frame<std::int64_t>(WireView(frame), fx.header), "frame size mismatch");
}

TEST(MultiRunFrameTest, RejectsWrongProgramStepAndChannel) {
  // An intact frame verified against the wrong expectation: a stale or
  // misrouted frame fails its header check.
  MultiRunFixture fx;
  std::vector<std::byte> frame;
  encode_frame(fx.row.data(), fx.runs, fx.header, frame);
  const auto refused = [&](FrameHeader want) {
    const char* reason = verify_frame<std::int64_t>(WireView(frame), want);
    return std::string(reason == nullptr ? "verified" : reason);
  };
  FrameHeader want = fx.header;
  want.fingerprint ^= 1;
  EXPECT_EQ(refused(want), "message sealed for another program");
  want = fx.header;
  want.step = 2;
  EXPECT_EQ(refused(want), "message sealed for another step");
  want = fx.header;
  want.dst = 4;
  EXPECT_EQ(refused(want), "message sealed for another receiver");
  // The same bytes read as another payload type: the element size.
  EXPECT_STREQ(verify_frame<std::int32_t>(WireView(frame), fx.header), "element size mismatch");
}

TEST(MultiRunFrameTest, CloseSendGapsCompactsStably) {
  // A two-run send from an 8-slot row: the slots that stay after the
  // first run move, in order, to the end, leaving the receive one piece
  // of four slots at the first run's offset.
  std::vector<int> row{0, 1, 2, 3, 4, 5, 6, 7};
  const std::vector<SendRun> runs{{1, 2}, {5, 2}};
  close_send_gaps(row.data(), row.size(), runs);
  EXPECT_EQ(row[0], 0);
  EXPECT_EQ(row[5], 3);
  EXPECT_EQ(row[6], 4);
  EXPECT_EQ(row[7], 7);
}

TEST(MultiRunFrameTest, CloseSendGapsLeavesTheTailInPlace) {
  // The slot after the last run is already where it belongs; moving it
  // onto itself would empty a heap-sized string.
  const auto slot = [](int i) { return "slot " + std::to_string(i) + std::string(32, '.'); };
  std::vector<std::string> row;
  for (int i = 0; i < 8; ++i) row.push_back(slot(i));
  const std::vector<SendRun> runs{{1, 2}, {5, 2}};
  close_send_gaps(row.data(), row.size(), runs);
  EXPECT_EQ(row[0], slot(0));
  EXPECT_EQ(row[5], slot(3));
  EXPECT_EQ(row[6], slot(4));
  EXPECT_EQ(row[7], slot(7));
}

// --- Strided user-buffer views ------------------------------------------

TEST(StridedViewTest, SeedAndScatterTransposeColumns) {
  // Both matrices live row-major; the views walk columns (stride N).
  // seed reads send column p as node p's row; scatter writes node q's
  // result into recv column q through the program's final table — the
  // exchange never sees a dense copy.
  const Rank N = 16;
  const SuhShinAape algo(TorusShape({4, 4}));
  const StepProgram program(algo);
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
  auto rows = seed_rows_strided(N, send_views);
  detail::StepReplay<std::int64_t> replay;
  detail::run_pooled(algo, program, rows, {}, replay);
  scatter_rows_strided(program, rows, recv_views);
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
  EXPECT_THROW(seed_rows_strided<std::int64_t>(4, views), std::invalid_argument);
}

// --- Pooled layout-faithful exchange -----------------------------------

std::vector<std::vector<std::int64_t>> canonical_rows(Rank N) {
  std::vector<std::vector<std::int64_t>> rows(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) rows[static_cast<std::size_t>(p)].push_back(p * 10000 + q);
  }
  return rows;
}

void expect_delivered(Rank N, const std::vector<std::vector<std::int64_t>>& out) {
  ASSERT_EQ(out.size(), static_cast<std::size_t>(N));
  for (Rank q = 0; q < N; ++q) {
    ASSERT_EQ(out[static_cast<std::size_t>(q)].size(), static_cast<std::size_t>(N));
    for (Rank p = 0; p < N; ++p) {
      EXPECT_EQ(out[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)], p * 10000 + q)
          << "recv[" << q << "][" << p << "]";
    }
  }
}

/// The salt every Tagged run of this suite seeds with.
constexpr std::uint64_t kSalt = 0x7A66ED;

/// One pooled exchange of Tagged rows, replaying a program compiled for
/// `layout` on `pool`; returns the arena's traffic.
WirePoolStats run_pooled(const SuhShinAape& algo, LayoutPolicy layout,
                         std::vector<std::vector<Tagged>>* out = nullptr,
                         StepPool* pool = nullptr) {
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  options.pool = pool;
  auto delivered = exchange_payloads_pooled(algo, StepProgram(algo, layout),
                                            tagged_rows(algo.shape().num_nodes(), kSalt), options);
  if (out != nullptr) *out = std::move(delivered);
  return arena.stats();
}

/// The wire's run accounting must equal the layout simulator's, run for
/// run: both order rows by the same keys and land at the same slot.
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
    std::vector<std::vector<Tagged>> out;
    run_pooled(algo, LayoutPolicy::kPaper, &out);
    EXPECT_EQ(transpose_mismatch(algo.shape().num_nodes(), out, kSalt), "")
        << algo.shape().to_string();
    expect_delivered(algo.shape().num_nodes(),
                     exchange_payloads_pooled(algo, StepProgram(algo),
                                              canonical_rows(algo.shape().num_nodes())));
  }
}

TEST(PooledExchangeTest, NaiveLayoutDeliversToo) {
  const SuhShinAape algo(TorusShape({4, 4}));
  std::vector<std::vector<Tagged>> out;
  run_pooled(algo, LayoutPolicy::kNaiveDestinationOrder, &out);
  EXPECT_EQ(transpose_mismatch(16, out, kSalt), "");
}

TEST(PooledExchangeTest, RunAccountingMatchesLayoutSimulator) {
  // The paper's §3.3 claim, cross-checked at the payload layer: the
  // pooled executor's run accounting must agree exactly with the
  // block-level layout simulator, because both order their rows with
  // the same keys and land every receive at the same slot.
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

TEST(PooledExchangeTest, FramesCarryPayloadsOnly) {
  // Every frame is a 40-byte header, the payloads and a 4-byte trailer:
  // no identity and no run table, whatever the runs. Each payload byte
  // is copied twice (gathered, landed).
  const SuhShinAape algo(TorusShape({8, 4, 4}));
  for (const LayoutPolicy layout : {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
    const WirePoolStats wire = run_pooled(algo, layout);
    EXPECT_EQ(wire.bytes_encoded,
              wire.messages * 44 + wire.parcels * static_cast<std::int64_t>(sizeof(Tagged)));
    EXPECT_EQ(wire.bytes_copied, 2 * wire.parcels * static_cast<std::int64_t>(sizeof(Tagged)));
  }
}

TEST(PooledExchangeTest, ArenaReachesSteadyStateAcrossExchanges) {
  const SuhShinAape algo(TorusShape({4, 4}));
  const StepProgram program(algo);
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  exchange_payloads_pooled(algo, program, canonical_rows(16), options);
  const std::int64_t misses_first = arena.stats().pool_misses;
  EXPECT_GT(misses_first, 0);
  EXPECT_EQ(arena.in_use(), 0);
  // The pool is warm: a second exchange allocates no new frames.
  exchange_payloads_pooled(algo, program, canonical_rows(16), options);
  EXPECT_EQ(arena.stats().pool_misses, misses_first);
  EXPECT_GT(arena.stats().pool_hits, 0);
  EXPECT_EQ(arena.in_use(), 0);
}

// The kernel runs its tamper and settle caller loops only for hooks that
// hide StepHooks' defaults: never for the pooled wire or the journal's.
static_assert(!detail::kHidesTamper<detail::StepHooks> &&
              !detail::kHidesSettle<detail::StepHooks>);
static_assert(!detail::kHidesTamper<detail::JournalHooks> &&
              !detail::kHidesSettle<detail::JournalHooks>);

TEST(PooledExchangeTest, EachSenderLeasesOneFramePerPhase) {
  // Frames belong to senders: every node leases one frame at the first
  // step of each phase, sized for the phase's largest message, and
  // returns it at the phase's end. A refusal that ends the call
  // mid-phase returns the phase's frames too.
  const SuhShinAape algo(TorusShape({8, 8, 8}));
  const StepProgram program(algo);
  const Rank N = program.num_nodes();
  std::int64_t phases_with_steps = 0;
  for (int phase = 1; phase <= program.num_phases(); ++phase) {
    phases_with_steps += program.steps_in_phase(phase) > 0 ? 1 : 0;
  }
  StepPool pool(4);
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  options.pool = &pool;
  for (int call = 0; call < 2; ++call) {
    const WirePoolStats before = arena.stats();
    expect_delivered(N, exchange_payloads_pooled(algo, program, canonical_rows(N), options));
    const WirePoolStats d = wire_stats_delta(arena.stats(), before);
    EXPECT_EQ(d.acquires, phases_with_steps * N) << "call " << call;
    EXPECT_EQ(d.releases, d.acquires) << "call " << call;
    EXPECT_EQ(d.messages, algo.total_steps() * N) << "call " << call;
    EXPECT_LE(arena.stats().peak_in_use, N) << "call " << call;
    EXPECT_EQ(arena.in_use(), 0) << "call " << call;
  }

  // The second step of a phase refuses every frame for good.
  int phase = 1;
  std::int64_t leasing_phases = 1;  // every phase up to the refused one leases
  for (; program.steps_in_phase(phase) < 2; ++phase) {
    leasing_phases += program.steps_in_phase(phase) > 0 ? 1 : 0;
  }
  const ParcelTamperer refuse = [&](const TransferContext& ctx, std::vector<std::byte>& wire) {
    if (ctx.phase != phase || ctx.step != 2) return false;
    wire.back() ^= std::byte{0x01};
    return true;
  };
  IntegrityOptions sealed;
  sealed.arena = &arena;
  sealed.pool = &pool;
  sealed.max_retransmits = 1;
  const std::int64_t acquires = arena.stats().acquires;
  EXPECT_THROW(exchange_payloads_sealed(algo, program, canonical_rows(N), refuse, sealed),
               IntegrityError);
  EXPECT_EQ(arena.stats().acquires - acquires, leasing_phases * N);
  EXPECT_EQ(arena.in_use(), 0);
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);
}

TEST(PooledExchangeTest, PublishesWireMetrics) {
  const SuhShinAape algo(TorusShape({4, 4}));
  Recorder recorder;
  WireExchangeOptions options;
  options.obs = &recorder;
  exchange_payloads_pooled(algo, StepProgram(algo), canonical_rows(16), options);
  MetricsRegistry& m = recorder.metrics();
  EXPECT_GT(m.counter("wire.messages").value(), 0);
  EXPECT_GT(m.counter("wire.parcels").value(), 0);
  EXPECT_GT(m.counter("wire.bytes_encoded").value(), 0);
  EXPECT_GT(m.counter("wire.contiguous_sends").value(), 0);
}

TEST(PooledExchangeTest, RefusesRowsThatAreNotNByN) {
  const SuhShinAape algo(TorusShape({4, 4}));
  const StepProgram program(algo);
  auto short_row = canonical_rows(16);
  short_row[5].pop_back();
  EXPECT_THROW(exchange_payloads_pooled(algo, program, std::move(short_row)),
               std::invalid_argument);
  auto missing_row = canonical_rows(16);
  missing_row.pop_back();
  EXPECT_THROW(exchange_payloads_pooled(algo, program, std::move(missing_row)),
               std::invalid_argument);
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

/// One fresh exchange of Tagged rows by `driver` on `pool`, replaying a
/// program compiled for `layout`; returns the arena's traffic. Every
/// driver at every pool size must carry exactly what the pooled driver
/// carries inline; the sealed and journaled drivers run a clean wire
/// and a fresh journal.
WirePoolStats run_driver(const SuhShinAape& algo, LayoutPolicy layout, Driver driver,
                         StepPool& pool, std::vector<std::vector<Tagged>>& out) {
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
    out = exchange_payloads_sealed(algo, program, tagged_rows(N, kSalt), {}, options, &report);
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
    out = exchange_payloads_journaled(algo, program, tagged_rows(N, kSalt), journal, options,
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
  std::vector<std::vector<Tagged>> out;
  const WirePoolStats wire = run_driver(algo, GetParam().layout, GetParam().driver, pool, out);
  // Slot for slot: every payload names the origin and destination it
  // was seeded for, so a payload in the wrong slot cannot pass.
  EXPECT_EQ(transpose_mismatch(algo.shape().num_nodes(), out, kSalt), "");
  expect_matches_simulator(wire, run_layout_simulation(algo, GetParam().layout),
                           algo.shape().to_string());
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
  EXPECT_THROW(exchange_payloads_pooled(algo, small, canonical_rows(64)),
               StepProgramMismatchError);
  // The same shape under another pattern convention.
  const StepProgram nested(SuhShinAape(TorusShape({8, 8}), PatternConvention::kNested));
  ASSERT_NE(algo.convention(), PatternConvention::kNested);
  EXPECT_THROW(exchange_payloads_pooled(algo, nested, canonical_rows(64)),
               StepProgramMismatchError);
  EXPECT_NO_THROW(exchange_payloads_pooled(algo, StepProgram(algo), canonical_rows(64)));
}

TEST(StepProgramTest, FingerprintNamesShapeConventionAndLayout) {
  const SuhShinAape algo(TorusShape({8, 8}));
  const StepProgram paper(algo);
  EXPECT_EQ(paper.fingerprint(), StepProgram(SuhShinAape(TorusShape({8, 8}))).fingerprint());
  EXPECT_NE(paper.fingerprint(),
            StepProgram(algo, LayoutPolicy::kNaiveDestinationOrder).fingerprint());
  EXPECT_NE(paper.fingerprint(),
            StepProgram(SuhShinAape(TorusShape({8, 8}), PatternConvention::kNested)).fingerprint());
  EXPECT_NE(paper.fingerprint(), StepProgram(SuhShinAape(TorusShape({8, 4}))).fingerprint());
}

TEST(StepProgramTest, TablesStayFarBelowAPermutationPerNode) {
  // 8x8x8: one uint16 permutation per node per boundary would cost
  // N^2 * 2 bytes = 512 KiB per boundary, 2.5 MiB in all, and absolute
  // per-node identity tables more again. The program interns its
  // permutations, final layouts and arrival lists in node-relative form
  // instead; the naive layout's permutations differ more from node to
  // node, since its sends fragment.
  const SuhShinAape algo(TorusShape({8, 8, 8}));
  EXPECT_LE(StepProgram(algo, LayoutPolicy::kPaper).memory_bytes(), std::size_t{1} << 20);
  EXPECT_LE(StepProgram(algo, LayoutPolicy::kNaiveDestinationOrder).memory_bytes(),
            std::size_t{2} << 20);
}

TEST(StepProgramTest, PaperLayoutReceivesInPlaceIn2D) {
  // Every 2D paper-layout send is one run, so every receive overwrites
  // its node's own send slots.
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

TEST(StepProgramTest, EveryNodeReceivesWhatItSends) {
  // Rows stay N slots: at every node step the partner's message is
  // exactly as large as the node's own send.
  for (const auto& extents :
       std::vector<std::vector<std::int32_t>>{{8, 8}, {8, 4, 4}, {4, 4, 4, 4}}) {
    const SuhShinAape algo{TorusShape(extents)};
    for (const LayoutPolicy layout :
         {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
      const StepProgram program(algo, layout);
      for (int phase = 1; phase <= program.num_phases(); ++phase) {
        for (int step = 1; step <= program.steps_in_phase(phase); ++step) {
          std::vector<std::uint32_t> received(static_cast<std::size_t>(program.num_nodes()));
          for (Rank p = 0; p < program.num_nodes(); ++p) {
            const StepProgram::NodeStep& s = program.step(phase, step, p);
            if (s.count > 0) received[static_cast<std::size_t>(s.partner)] = s.count;
          }
          for (Rank p = 0; p < program.num_nodes(); ++p) {
            EXPECT_EQ(received[static_cast<std::size_t>(p)], program.step(phase, step, p).count)
                << algo.shape().to_string() << " phase " << phase << " step " << step;
          }
        }
      }
    }
  }
}

TEST(StepProgramTest, FinalAndArrivalTablesMatchTheLayoutSimulator) {
  // The program's identity tables, resolved from their node-relative
  // form, against the block-level layout simulator's own buffers: the
  // final table names the slot of every origin in each node's last
  // buffer, and each receive's arrival list names, in wire order, the
  // offset and origin of every block that reached its destination.
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{
           {4, 4}, {8, 8}, {12, 8}, {8, 4, 4}, {8, 8, 8}, {4, 4, 4, 4}}) {
    const SuhShinAape algo{TorusShape(extents)};
    for (const LayoutPolicy layout :
         {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
      const StepProgram program(algo, layout);
      const std::string what = algo.shape().to_string() +
                               (layout == LayoutPolicy::kPaper ? " paper" : " naive");
      std::int64_t arrivals = 0;
      std::vector<std::vector<Block>> final_buffers;
      run_layout_simulation(
          algo, layout, &final_buffers,
          [&](int phase, int step, Rank q, const std::vector<Block>& message) {
            std::vector<std::pair<std::uint32_t, Rank>> want;
            for (std::size_t i = 0; i < message.size(); ++i) {
              if (message[i].dest != q) continue;
              want.emplace_back(static_cast<std::uint32_t>(i), message[i].origin);
            }
            std::vector<std::pair<std::uint32_t, Rank>> got;
            program.for_each_arrival(phase, step, q, [&](std::uint32_t offset, Rank origin) {
              got.emplace_back(offset, origin);
            });
            EXPECT_EQ(got, want) << what << " phase " << phase << " step " << step << " node " << q;
            EXPECT_EQ(program.step(phase, step, q).count, message.size()) << what;
            arrivals += static_cast<std::int64_t>(got.size());
          });
      const Rank N = program.num_nodes();
      EXPECT_EQ(arrivals, static_cast<std::int64_t>(N) * (N - 1)) << what;
      for (Rank p = 0; p < N; ++p) {
        const auto& buf = final_buffers[static_cast<std::size_t>(p)];
        std::vector<int> held(buf.size());
        Rank expected_origin = 0;
        program.for_each_origin(p, [&](Rank origin, std::uint32_t slot) {
          EXPECT_EQ(origin, expected_origin++) << what;
          ASSERT_LT(slot, buf.size()) << what;
          EXPECT_EQ(buf[slot].origin, origin) << what << " node " << p << " slot " << slot;
          ++held[slot];
        });
        EXPECT_EQ(expected_origin, N) << what;
        EXPECT_EQ(std::count(held.begin(), held.end(), 1), N) << what << " node " << p;
      }
    }
  }
}

TEST(StepProgramTest, CopiesReplayIndependentlyOfTheOriginal) {
  const SuhShinAape algo(TorusShape({8, 8}));
  std::optional<StepProgram> original(std::in_place, algo);
  const StepProgram copy = *original;
  original.reset();
  expect_delivered(64, exchange_payloads_pooled(algo, copy, canonical_rows(64)));
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

/// The shapes `torex_verify --layout --max-nodes=<max_nodes>` sweeps:
/// every non-increasing multiple-of-four shape of 2 to 4 dimensions.
std::vector<std::vector<std::int32_t>> layout_sweep_shapes(std::int64_t max_nodes) {
  std::vector<std::vector<std::int32_t>> out;
  std::vector<std::int32_t> prefix;
  const auto grow = [&](const auto& self, std::int64_t nodes, std::int32_t largest) -> void {
    if (prefix.size() >= 2) out.push_back(prefix);
    if (prefix.size() == 4) return;
    for (std::int32_t e = 4; e <= largest && nodes * e <= max_nodes; e += 4) {
      prefix.push_back(e);
      self(self, nodes * e, e);
      prefix.pop_back();
    }
  };
  for (std::int32_t e = 4; e <= max_nodes; e += 4) {
    prefix.push_back(e);
    grow(grow, e, e);
    prefix.pop_back();
  }
  return out;
}

TEST(StepProgramTest, FromInvertsPartnerAndTotalsSumTheNodeSteps) {
  // The kernel lands each receive from the sender `from` names, and
  // records each step's wire statistics from the step's totals, with no
  // per-message check: both must follow from the node steps exactly.
  const auto shapes = layout_sweep_shapes(400);
  ASSERT_EQ(shapes.size(), 55u);  // as torex_verify --layout --max-nodes=400 reports
  for (const auto& extents : shapes) {
    const SuhShinAape algo{TorusShape(extents)};
    for (const LayoutPolicy layout :
         {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
      const StepProgram program(algo, layout);
      const Rank N = program.num_nodes();
      for (int phase = 1; phase <= program.num_phases(); ++phase) {
        std::uint32_t largest = 0;
        for (int step = 1; step <= program.steps_in_phase(phase); ++step) {
          const std::string what = algo.shape().to_string() +
                                   (layout == LayoutPolicy::kPaper ? " paper" : " naive") +
                                   " phase " + std::to_string(phase) + " step " +
                                   std::to_string(step);
          StepProgram::StepTotals sum;
          for (Rank p = 0; p < N; ++p) {
            const StepProgram::NodeStep& s = program.step(phase, step, p);
            if (s.count == 0) {
              EXPECT_EQ(s.from, -1) << what << " node " << p;
              continue;
            }
            ASSERT_GE(s.from, 0) << what << " node " << p;
            EXPECT_EQ(program.step(phase, step, s.from).partner, p) << what << " node " << p;
            EXPECT_EQ(program.step(phase, step, s.partner).from, p) << what << " node " << p;
            ++sum.messages;
            sum.parcels += s.count;
            sum.runs += s.run_count;
            if (s.run_count == 1) {
              ++sum.contiguous;
            } else {
              sum.gathered += s.count;
            }
            sum.max_runs = std::max(sum.max_runs, s.run_count);
            largest = std::max(largest, s.count);
          }
          const StepProgram::StepTotals& t = program.totals(phase, step);
          EXPECT_EQ(t.messages, sum.messages) << what;
          EXPECT_EQ(t.parcels, sum.parcels) << what;
          EXPECT_EQ(t.runs, sum.runs) << what;
          EXPECT_EQ(t.contiguous, sum.contiguous) << what;
          EXPECT_EQ(t.gathered, sum.gathered) << what;
          EXPECT_EQ(t.max_runs, sum.max_runs) << what;
        }
        EXPECT_EQ(program.largest_message(phase), largest)
            << algo.shape().to_string() << " phase " << phase;
      }
    }
  }
}

TEST(StepProgramTest, TablesOwnTheirCacheLines) {
  // Every participant reads the program's tables for every slot it
  // moves, while writing rows. No table may share a 64-byte line with
  // anything else: each starts on a line boundary, and the lines each
  // spans are disjoint from all the others'.
  const SuhShinAape algo(TorusShape({8, 8, 8}));
  for (const LayoutPolicy layout : {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
    const StepProgram program(algo, layout);
    struct Lines {
      std::uintptr_t first;
      std::uintptr_t end;
      std::string what;
    };
    std::vector<Lines> lines;
    const auto tables = program.tables();
    for (std::size_t t = 0; t < tables.size(); ++t) {
      const std::string what = "program table " + std::to_string(t);
      ASSERT_GT(tables[t].size(), 0u) << what;
      const auto at = reinterpret_cast<std::uintptr_t>(tables[t].data());
      EXPECT_EQ(at % kCacheLine, 0u) << what << " does not start on a cache line";
      lines.push_back({at / kCacheLine, (at + tables[t].size() + kCacheLine - 1) / kCacheLine,
                       what});
    }
    std::sort(lines.begin(), lines.end(),
              [](const Lines& a, const Lines& b) { return a.first < b.first; });
    for (std::size_t i = 1; i < lines.size(); ++i) {
      EXPECT_LE(lines[i - 1].end, lines[i].first)
          << lines[i - 1].what << " shares a cache line with " << lines[i].what;
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
  expect_delivered(64, exchange_payloads_pooled(algo, *first, canonical_rows(64)));
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
  exchange_payloads_pooled(paper2d, *paper, canonical_rows(64), {&paper_wire});
  exchange_payloads_pooled(paper2d, *naive, canonical_rows(64), {&naive_wire});
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
  expect_delivered(16, exchange_payloads_pooled(oldest, *held, canonical_rows(16)));
}

// --- Sealed driver -------------------------------------------------------

TEST(SealedWirePathTest, PooledPathSurvivesTamperingWithRetransmit) {
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  int tampered = 0;
  // Flip one header-CRC byte of the first few transmissions; the sealed
  // frame must detect each and heal under retransmission.
  const ParcelTamperer tamperer = [&](const TransferContext&, std::vector<std::byte>& wire) {
    if (tampered >= 3) return false;
    ++tampered;
    wire[detail::kFrameHeaderCrcAt + 1] ^= std::byte{0x10};
    return true;
  };
  IntegrityReport report;
  const auto out = exchange_payloads_sealed(algo, StepProgram(algo), tagged_rows(16, kSalt),
                                            tamperer, {}, &report);
  EXPECT_EQ(transpose_mismatch(16, out, kSalt), "");
  EXPECT_EQ(report.corrupted, 3);
  EXPECT_EQ(report.retransmits, 3);
}

TEST(SealedWirePathTest, PooledPathGathersMultiRunFrames) {
  // Replaying the naive-layout program, sends fragment: the sealed
  // driver's messages exercise the run gather, the gap-closing landing
  // and the true-run accounting.
  const TorusShape shape({8, 8});
  const SuhShinAape algo(shape);
  WireArena arena;
  IntegrityOptions options;
  options.arena = &arena;
  IntegrityReport report;
  const auto out =
      exchange_payloads_sealed(algo, StepProgram(algo, LayoutPolicy::kNaiveDestinationOrder),
                               tagged_rows(64, kSalt), {}, options, &report);
  EXPECT_EQ(transpose_mismatch(64, out, kSalt), "");
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
    const auto out = exchange_payloads_sealed(algo, program, tagged_rows(N, kSalt), refuse_first,
                                              options, &report);
    EXPECT_EQ(transpose_mismatch(N, out, kSalt), "") << participants << " participants";
    EXPECT_EQ(report.corrupted, messages) << participants << " participants";
    EXPECT_EQ(report.retransmits, messages) << participants << " participants";
    // The step took one extra tick.
    EXPECT_EQ(report.final_tick, algo.total_steps() + 1) << participants << " participants";
  }
}

TEST(SealedWirePathTest, InPlaceStepRetransmitsFromIntactRuns) {
  // Every 2D paper-layout step receives in place, overwriting the run
  // the node just sent. A refused message re-encodes from that run, so
  // it must still hold the original payloads: receives land only after
  // every frame of the step has been verified.
  const SuhShinAape algo(TorusShape({8, 8}));
  const StepProgram program(algo);
  bool in_place = false;
  const std::int64_t messages = step_messages(program, algo.num_phases(), 1, in_place);
  ASSERT_TRUE(in_place);
  ASSERT_GT(messages, 0);
  expect_step_retransmits_intact(algo, program, algo.num_phases(), 1, messages);
}

TEST(SealedWirePathTest, CompactingStepRetransmitsFromIntactRuns) {
  // The 3D counterpart: a step whose senders close their send's gaps.
  // That must wait until the message has been verified.
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

TEST(SealedWirePathTest, ForgedCountIsRefusedWithEveryFrameReturned) {
  // The tamperer re-seals every transmission of one step a payload
  // short, with valid CRCs: each frame is intact, but its count is not
  // the program's, so verify refuses it by name — before anything could
  // land short — and the budget runs out. The error surfaces on the
  // calling thread with every leased frame back in the arena.
  const SuhShinAape algo(TorusShape({8, 8}));
  const StepProgram program(algo);
  const int phase = algo.num_phases();
  const ParcelTamperer shorten = [&](const TransferContext& ctx, std::vector<std::byte>& wire) {
    if (ctx.phase != phase || ctx.step != 1) return false;
    const std::size_t count = (wire.size() - frame_size<std::int64_t>(0)) / sizeof(std::int64_t);
    std::vector<std::int64_t> payloads(count);
    std::memcpy(payloads.data(), wire.data() + detail::kFrameHeaderBytes,
                count * sizeof(std::int64_t));
    const SendRun run{0, static_cast<std::uint32_t>(count - 1)};
    const FrameHeader header{program.fingerprint(), ctx.phase, ctx.step, ctx.src, ctx.dst,
                             run.count};
    encode_frame(payloads.data(), std::span<const SendRun>(&run, 1), header, wire);
    return true;
  };
  for (const int participants : {1, 4}) {
    StepPool pool(participants);
    WireArena arena;
    IntegrityOptions options;
    options.arena = &arena;
    options.pool = &pool;
    try {
      exchange_payloads_sealed(algo, program, canonical_rows(64), shorten, options);
      ADD_FAILURE() << "a forged count must exhaust the retransmit budget";
    } catch (const IntegrityError& error) {
      ASSERT_TRUE(error.report().fatal.has_value());
      EXPECT_EQ(error.report().fatal->reason, "parcel count mismatch");
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
  // The codec under a seeded mutation harness: no mutation may verify,
  // and (under the ASan/UBSan CI job) none may read out of bounds.
  SplitMix64 rng(0xD00DF00Du);
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_frame(fx.row.data(), fx.runs, fx.header, clean);
  std::vector<std::byte> wire;
  for (int iter = 0; iter < 4000; ++iter) {
    if (!mutate(rng, clean, wire)) continue;
    const char* reason = verify_frame<std::int64_t>(WireView(wire), fx.header);
    ASSERT_NE(reason, nullptr) << "mutated frame verified at iter " << iter;
    EXPECT_GT(std::strlen(reason), 0u) << "rejection must be named (iter " << iter << ")";
  }
}

TEST(WireFuzzTest, ResealedRandomHeadersNeverVerify) {
  // Adversarial (not just corrupted) headers: random field values with
  // *valid* CRCs. Verify must refuse every frame whose header differs
  // from what the program expects, with a named reason.
  SplitMix64 rng(0x7AB1E5u);
  MultiRunFixture fx;
  std::vector<std::byte> clean;
  encode_frame(fx.row.data(), fx.runs, fx.header, clean);
  for (int iter = 0; iter < 2000; ++iter) {
    auto frame = clean;
    const std::size_t field = 4 * (1 + static_cast<std::size_t>(rng.next_below(8)));  // [4, 32]
    const std::uint32_t value = static_cast<std::uint32_t>(rng.next() % 16);
    std::size_t offset = field;
    std::uint32_t old = 0;
    ASSERT_TRUE(wire_get_u32(WireView(frame), offset, old));
    if (value == old) continue;
    wire_write_u32(frame.data() + field, value);
    const char* reason = verify_frame<std::int64_t>(WireView(reseal(std::move(frame))), fx.header);
    ASSERT_NE(reason, nullptr) << "re-sealed header verified at iter " << iter;
    EXPECT_GT(std::strlen(reason), 0u);
  }
}

TEST(WireFuzzTest, RandomGarbageNeverDecodes) {
  SplitMix64 rng(0x5EEDu);
  const FrameHeader want{1, 1, 1, 0, 1, 2};
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<std::byte> wire(static_cast<std::size_t>(rng.next_below(256)));
    for (auto& b : wire) b = static_cast<std::byte>(rng.next() & 0xFF);
    EXPECT_NE(verify_frame<std::int64_t>(WireView(wire), want), nullptr);
  }
}

}  // namespace
}  // namespace torex
