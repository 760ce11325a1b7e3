// Integration tests: run the full exchange and verify the paper's
// correctness and cost invariants on a sweep of torus shapes.
#include <gtest/gtest.h>

#include <numeric>
#include <ostream>
#include <string>

#include "core/exchange_engine.hpp"
#include "sim/contention.hpp"

namespace torex {
namespace {

struct EngineCase {
  std::vector<std::int32_t> extents;
  PatternConvention convention;
};

/// The case's name, e.g. "8x8_paper2d": its extents and convention.
std::string engine_case_label(const EngineCase& c) {
  std::string name;
  for (auto e : c.extents) name += std::to_string(e) + "x";
  name.pop_back();
  name += c.convention == PatternConvention::kPaper2D ? "_paper2d" : "_nested";
  return name;
}

void PrintTo(const EngineCase& c, std::ostream* os) { *os << engine_case_label(c); }

std::string case_name(const ::testing::TestParamInfo<EngineCase>& info) {
  return engine_case_label(info.param);
}

class EngineSweepTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  TorusShape shape() const { return TorusShape(GetParam().extents); }
};

TEST_P(EngineSweepTest, CompletesAndVerifiesPostcondition) {
  const SuhShinAape algo(shape(), GetParam().convention);
  ExchangeEngine engine(algo);
  EXPECT_NO_THROW(engine.run_verified());
}

TEST_P(EngineSweepTest, EveryStepIsContentionFree) {
  const SuhShinAape algo(shape(), GetParam().convention);
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  const ContentionReport report = check_trace_contention(algo.torus(), trace);
  EXPECT_TRUE(report.contention_free)
      << "conflict at trace step "
      << (report.first_conflict_step ? static_cast<std::int64_t>(*report.first_conflict_step)
                                     : -1)
      << ": " << report.first_conflict.value_or("");
  EXPECT_LE(report.max_channel_load, 1);
}

TEST_P(EngineSweepTest, StepAndHopTotalsMatchTable1) {
  const TorusShape s = shape();
  const SuhShinAape algo(s, GetParam().convention);
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  const int n = s.num_dims();
  const std::int64_t a1 = s.extent(0);
  // Startup count: n(a1/4 + 1).
  EXPECT_EQ(trace.num_steps(), n * (a1 / 4 + 1));
  // Propagation hops: n(a1 - 1)  [= 4 hops x n(a1/4-1) steps + n*2 + n*1].
  EXPECT_EQ(trace.total_hops(), n * (a1 - 1));
}

TEST_P(EngineSweepTest, TransmittedBlocksMatchTable1) {
  const TorusShape s = shape();
  const SuhShinAape algo(s, GetParam().convention);
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  const int n = s.num_dims();
  const std::int64_t a1 = s.extent(0);
  const std::int64_t N = s.num_nodes();
  // Per-step largest message, summed: (n/8)(a1 + 4) * (a1 a2 ... an).
  // (Table 1, message-transmission row; the 2D row RC(C+4)/4 is the
  // n = 2 instance.)
  EXPECT_EQ(trace.total_max_blocks() * 8, n * (a1 + 4) * N);
}

TEST_P(EngineSweepTest, PerStepBlockCountsMatchPaperFormula) {
  const TorusShape s = shape();
  const SuhShinAape algo(s, GetParam().convention);
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  const int n = s.num_dims();
  const std::int64_t a1 = s.extent(0);
  const std::int64_t N = s.num_nodes();
  for (const auto& rec : trace.steps) {
    if (rec.phase <= n) {
      // Step s of a scatter phase: (a1 - 4s) * (N / a1) blocks from the
      // busiest node (§4.3(b); §3.4(b) is the 2D case R(C - 4p)).
      EXPECT_EQ(rec.max_blocks_per_node, (a1 - 4 * rec.step) * (N / a1))
          << "phase " << rec.phase << " step " << rec.step;
    } else {
      // Each step of phases n+1 and n+2 moves half of each node's N
      // blocks (§4.3(b)).
      EXPECT_EQ(rec.max_blocks_per_node, N / 2)
          << "phase " << rec.phase << " step " << rec.step;
    }
  }
}

TEST_P(EngineSweepTest, OnePortSendSideHolds) {
  // The engine already enforces one-port receive; check the send side:
  // per step, every source appears at most once in the transfer list.
  const SuhShinAape algo(shape(), GetParam().convention);
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  for (const auto& rec : trace.steps) {
    std::vector<Rank> sources;
    for (const auto& t : rec.transfers) sources.push_back(t.src);
    std::sort(sources.begin(), sources.end());
    EXPECT_TRUE(std::adjacent_find(sources.begin(), sources.end()) == sources.end());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineSweepTest,
    ::testing::Values(
        EngineCase{{4, 4}, PatternConvention::kPaper2D},
        EngineCase{{8, 8}, PatternConvention::kPaper2D},
        EngineCase{{8, 8}, PatternConvention::kNested},
        EngineCase{{8, 4}, PatternConvention::kPaper2D},
        EngineCase{{12, 8}, PatternConvention::kPaper2D},
        EngineCase{{12, 12}, PatternConvention::kPaper2D},
        EngineCase{{16, 16}, PatternConvention::kPaper2D},
        EngineCase{{16, 4}, PatternConvention::kPaper2D},
        EngineCase{{4, 4, 4}, PatternConvention::kNested},
        EngineCase{{8, 4, 4}, PatternConvention::kNested},
        EngineCase{{8, 8, 4}, PatternConvention::kNested},
        EngineCase{{8, 8, 4}, PatternConvention::kPaper2D},  // base-2D orientation swap
        EngineCase{{8, 4, 4, 4}, PatternConvention::kPaper2D},
        EngineCase{{8, 8, 8}, PatternConvention::kNested},
        EngineCase{{12, 8, 4}, PatternConvention::kNested},
        EngineCase{{16, 12}, PatternConvention::kPaper2D},
        EngineCase{{20, 8}, PatternConvention::kPaper2D},
        EngineCase{{24, 24}, PatternConvention::kPaper2D},
        EngineCase{{12, 12, 4}, PatternConvention::kNested},
        EngineCase{{4, 4, 4, 4}, PatternConvention::kNested},
        EngineCase{{8, 4, 4, 4}, PatternConvention::kNested},
        EngineCase{{8, 8, 4, 4}, PatternConvention::kNested},
        EngineCase{{4, 4, 4, 4, 4}, PatternConvention::kNested}),
    case_name);

TEST(EngineTest, TraceRecordsRearrangementModel) {
  const SuhShinAape algo(TorusShape::make_2d(12, 12));
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  // n + 1 = 3 rearrangement passes of RC blocks each (§3.4(c)).
  EXPECT_EQ(trace.rearrangement_passes, 3);
  EXPECT_EQ(trace.blocks_per_rearrangement, 144);
}

TEST(EngineTest, BuffersExposeFinalState) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  ExchangeEngine engine(algo);
  engine.run_verified();
  const auto& buffers = engine.buffers();
  ASSERT_EQ(buffers.size(), 16u);
  for (Rank p = 0; p < 16; ++p) {
    for (const Block& b : buffers[static_cast<std::size_t>(p)]) {
      EXPECT_EQ(b.dest, p);
    }
  }
}

TEST(EngineTest, RecordTransfersOffStillCountsBlocks) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  EngineOptions opts;
  opts.record_transfers = false;
  ExchangeEngine engine(algo, opts);
  const ExchangeTrace trace = engine.run_verified();
  std::int64_t total = 0;
  for (const auto& rec : trace.steps) {
    EXPECT_TRUE(rec.transfers.empty());
    total += rec.max_blocks_per_node;
  }
  EXPECT_GT(total, 0);
}

TEST(EngineTest, IdleNodesInNonSquareTorusSendNothingLate) {
  // In a 12x8 torus the phase-1 rings along the short dimension have
  // R/4 = 2 nodes, so their members are done after step 1 and must not
  // appear as senders in step 2.
  const TorusShape s = TorusShape::make_2d(12, 8);
  const SuhShinAape algo(s);
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  const auto& step2 = trace.steps[1];
  ASSERT_EQ(step2.phase, 1);
  ASSERT_EQ(step2.step, 2);
  for (const auto& t : step2.transfers) {
    const Coord c = s.coord_of(t.src);
    // Only nodes scattering along the 12-long dimension (rows of the
    // rank-0 dim) still have traffic: their direction dim must be 0.
    EXPECT_EQ(t.dir.dim, 0) << "short-ring node still sending in step 2";
  }
}

}  // namespace
}  // namespace torex
