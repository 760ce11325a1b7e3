// Cross-executor differential tests: the three independent executors
// (sequential engine, layout engine, step kernel) replay the same
// schedule oracle; on random workloads and shapes their observable
// results must agree. A bug in any one of them — or in the oracle —
// shows up as a divergence here even if each executor's own checks
// pass. Irregular (Alltoallv) workloads run on the kernel as buckets:
// one std::vector of payloads per (origin, dest) pair.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <string>

#include "core/data_array.hpp"
#include "core/exchange_engine.hpp"
#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "tagged.hpp"
#include "util/prng.hpp"
#include "util/step_pool.hpp"

namespace torex {
namespace {

struct DiffCase {
  std::vector<std::int32_t> extents;
  std::uint64_t seed;
};

class DifferentialTest : public ::testing::TestWithParam<DiffCase> {};

/// The case's name, e.g. "8x4x4_seed6": its extents and seed.
std::string diff_case_label(const DiffCase& c) {
  std::string label;
  for (const std::int32_t extent : c.extents) label += std::to_string(extent) + "x";
  label.pop_back();
  return label + "_seed" + std::to_string(c.seed);
}

void PrintTo(const DiffCase& c, std::ostream* os) { *os << diff_case_label(c); }

std::string diff_case_name(const ::testing::TestParamInfo<DiffCase>& info) {
  return diff_case_label(info.param);
}

TEST_P(DifferentialTest, CustomWorkloadBucketsMatchEngine) {
  // Same random sparse workload through ExchangeEngine::run_custom and
  // through the step kernel as buckets, on a seeded pool of 1 to 4
  // participants: identical delivered multisets, every bucket whole.
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  const auto n = static_cast<std::size_t>(N);
  SplitMix64 rng(GetParam().seed);

  using Bucket = std::vector<std::uint64_t>;
  std::vector<std::vector<Block>> blocks(n);
  std::vector<std::vector<Bucket>> rows(n, std::vector<Bucket>(n));
  for (Rank p = 0; p < N; ++p) {
    const int count = static_cast<int>(rng.next_below(7));
    for (int i = 0; i < count; ++i) {
      const Rank d = static_cast<Rank>(rng.next_below(static_cast<std::uint64_t>(N)));
      blocks[static_cast<std::size_t>(p)].push_back(Block{p, d});
      rows[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)].push_back(rng.next());
    }
  }
  const int participants = 1 + static_cast<int>(rng.next_below(4));

  ExchangeEngine engine(algo);
  engine.run_custom(blocks);
  const auto& engine_buffers = engine.buffers();
  const auto sent = rows;
  StepPool pool(participants);
  WireExchangeOptions options;
  options.pool = &pool;
  const auto recv = exchange_payloads_pooled(algo, StepProgram(algo), std::move(rows), options);

  for (Rank q = 0; q < N; ++q) {
    const auto& row = recv[static_cast<std::size_t>(q)];
    std::vector<Block> a = engine_buffers[static_cast<std::size_t>(q)];
    std::vector<Block> b;
    for (Rank o = 0; o < N; ++o) {
      const Bucket& bucket = row[static_cast<std::size_t>(o)];
      EXPECT_EQ(bucket, sent[static_cast<std::size_t>(o)][static_cast<std::size_t>(q)])
          << "bucket " << o << " -> " << q << " at " << participants << " participant(s)";
      b.insert(b.end(), bucket.size(), Block{o, q});
    }
    std::sort(a.begin(), a.end());
    EXPECT_EQ(a, b) << "node " << q;
  }
}

TEST_P(DifferentialTest, LayoutEngineAgreesWithTraceCounts) {
  // The layout engine's send events must number the same as the plain
  // engine's transfers, step for step in aggregate.
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  std::int64_t engine_sends = 0;
  for (const auto& step : trace.steps) {
    engine_sends += static_cast<std::int64_t>(step.transfers.size());
  }
  const LayoutStats layout = run_layout_simulation(algo);
  EXPECT_EQ(layout.total_sends, engine_sends);
  EXPECT_EQ(layout.rearrangement_passes, algo.num_dims() + 1);
}

/// Blocks the engine's trace moved, over every step.
std::int64_t total_blocks(const ExchangeTrace& trace) {
  std::int64_t blocks = 0;
  for (const auto& step : trace.steps) blocks += step.total_blocks;
  return blocks;
}

/// The step kernel over Tagged rows salted with `salt`, on a pool of
/// `participants`: the transpose must arrive slot for slot, and the
/// wire must carry exactly the blocks the engine moved.
void expect_kernel_agrees(const SuhShinAape& algo, const ExchangeTrace& trace,
                          int participants, std::uint64_t salt) {
  const Rank N = algo.shape().num_nodes();
  StepPool pool(participants);
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  options.pool = &pool;
  const auto recv =
      exchange_payloads_pooled(algo, StepProgram(algo), testing::tagged_rows(N, salt), options);
  EXPECT_EQ(testing::transpose_mismatch(N, recv, salt), "") << "participants=" << participants;
  EXPECT_EQ(arena.stats().parcels, total_blocks(trace)) << "participants=" << participants;
}

TEST_P(DifferentialTest, StepKernelAgreesOnRandomParticipantCounts) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  SplitMix64 rng(GetParam().seed ^ 0xABCDEF);
  const int participants = 1 + static_cast<int>(rng.next_below(8));

  EngineOptions opts;
  opts.record_transfers = false;
  const ExchangeTrace trace = ExchangeEngine(algo, opts).run_verified();
  expect_kernel_agrees(algo, trace, participants, GetParam().seed);
}

INSTANTIATE_TEST_SUITE_P(Cases, DifferentialTest,
                         ::testing::Values(DiffCase{{8, 8}, 1}, DiffCase{{8, 8}, 2},
                                           DiffCase{{12, 8}, 3}, DiffCase{{12, 12}, 4},
                                           DiffCase{{8, 8, 4}, 5}, DiffCase{{8, 4, 4}, 6},
                                           DiffCase{{16, 4}, 7},
                                           DiffCase{{4, 4, 4, 4}, 8}),
                         diff_case_name);

TEST(DifferentialTest, CanonicalWorkloadAcrossAllExecutors) {
  // The full N^2 workload through every executor on one shape.
  const SuhShinAape algo(TorusShape::make_2d(12, 8));
  const Rank N = algo.shape().num_nodes();

  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  expect_kernel_agrees(algo, trace, 3, 0xC0FFEE);

  const LayoutStats layout = run_layout_simulation(algo);
  EXPECT_TRUE(layout.fully_contiguous());  // 2D: §3.3 exact

  for (Rank q = 0; q < N; ++q) {
    auto a = engine.buffers()[static_cast<std::size_t>(q)];
    std::vector<Block> expected;
    for (Rank o = 0; o < N; ++o) expected.push_back(Block{o, q});
    std::sort(a.begin(), a.end());
    EXPECT_EQ(a, expected) << "node " << q;
  }
}

}  // namespace
}  // namespace torex
