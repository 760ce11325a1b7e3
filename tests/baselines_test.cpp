// Tests for the non-combining baselines: direct exchange and the
// Gray-code ring exchange.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "baselines/bruck.hpp"
#include "baselines/dimwise.hpp"
#include "baselines/direct_exchange.hpp"
#include "baselines/ring_exchange.hpp"
#include "core/exchange_engine.hpp"
#include "costmodel/models.hpp"
#include "sim/contention.hpp"
#include "sim/cost_simulator.hpp"

namespace torex {
namespace {

// ---------------------------------------------------------------------------
// Gray-code Hamiltonian ring embedding.
// ---------------------------------------------------------------------------

struct GrayCase {
  std::vector<std::int32_t> extents;
};

class GrayCodeTest : public ::testing::TestWithParam<GrayCase> {};

/// The case's name, e.g. "8x4x4": its extents.
std::string gray_case_label(const GrayCase& c) {
  std::string label;
  for (const std::int32_t extent : c.extents) label += std::to_string(extent) + "x";
  label.pop_back();
  return label;
}

void PrintTo(const GrayCase& c, std::ostream* os) { *os << gray_case_label(c); }

std::string gray_case_name(const ::testing::TestParamInfo<GrayCase>& info) {
  return gray_case_label(info.param);
}

TEST_P(GrayCodeTest, VisitsEveryNodeOnce) {
  const TorusShape s(GetParam().extents);
  std::set<Rank> seen;
  for (std::int64_t k = 0; k < s.num_nodes(); ++k) {
    seen.insert(s.rank_of(gray_coord(s, k)));
  }
  EXPECT_EQ(static_cast<Rank>(seen.size()), s.num_nodes());
}

TEST_P(GrayCodeTest, ConsecutiveCodesAreTorusNeighbors) {
  const TorusShape s(GetParam().extents);
  for (std::int64_t k = 0; k < s.num_nodes(); ++k) {
    const Coord a = gray_coord(s, k);
    const Coord b = gray_coord(s, (k + 1) % s.num_nodes());
    EXPECT_EQ(s.distance(a, b), 1) << "positions " << k << " -> " << (k + 1) % s.num_nodes();
  }
}

TEST_P(GrayCodeTest, PositionIsInverseOfCoord) {
  const TorusShape s(GetParam().extents);
  for (std::int64_t k = 0; k < s.num_nodes(); ++k) {
    EXPECT_EQ(gray_position(s, gray_coord(s, k)), k);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GrayCodeTest,
                         ::testing::Values(GrayCase{{4, 4}}, GrayCase{{8, 6}},
                                           GrayCase{{2, 2}}, GrayCase{{6, 4, 2}},
                                           GrayCase{{4, 4, 4}}, GrayCase{{2, 2, 2, 2}},
                                           GrayCase{{12, 8}}),
                         gray_case_name);

TEST(GrayCodeTest, RejectsOddExtents) {
  EXPECT_THROW(RingExchange(TorusShape({5, 4})), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Ring exchange.
// ---------------------------------------------------------------------------

TEST(RingExchangeTest, CompletesOnSmallTori) {
  for (auto extents : {std::vector<std::int32_t>{4, 4}, {8, 4}, {4, 4, 4}}) {
    RingExchange ring((TorusShape(extents)));
    EXPECT_NO_THROW(ring.run_verified());
  }
}

TEST(RingExchangeTest, TraceIsContentionFree) {
  RingExchange ring(TorusShape::make_2d(8, 4));
  const ExchangeTrace trace = ring.run_verified();
  const ContentionReport report = check_trace_contention(ring.torus(), trace);
  EXPECT_TRUE(report.contention_free) << report.first_conflict.value_or("");
}

TEST(RingExchangeTest, AnalyticTraceMatchesSimulated) {
  RingExchange ring(TorusShape::make_2d(8, 4));
  const ExchangeTrace simulated = ring.run_verified();
  const ExchangeTrace analytic = ring.analytic_trace();
  ASSERT_EQ(simulated.steps.size(), analytic.steps.size());
  for (std::size_t i = 0; i < simulated.steps.size(); ++i) {
    EXPECT_EQ(simulated.steps[i].max_blocks_per_node, analytic.steps[i].max_blocks_per_node)
        << "step " << i;
    EXPECT_EQ(simulated.steps[i].total_blocks, analytic.steps[i].total_blocks) << "step " << i;
    EXPECT_EQ(simulated.steps[i].hops, analytic.steps[i].hops);
  }
}

TEST(RingExchangeTest, NeedsQuadraticallyMoreTransmissionThanCombining) {
  // The motivating comparison: on a 12x12 torus the ring pipeline moves
  // N(N-1)/2 blocks through the busiest node vs RC(C+4)/4 for the
  // proposed algorithm.
  const TorusShape s = TorusShape::make_2d(12, 12);
  RingExchange ring(s);
  const ExchangeTrace ring_trace = ring.analytic_trace();
  const SuhShinAape algo(s);
  ExchangeEngine engine(algo);
  const ExchangeTrace ours = engine.run_verified();
  EXPECT_EQ(ring_trace.total_max_blocks(), 144 * 143 / 2);
  EXPECT_EQ(ours.total_max_blocks(), 576);
  EXPECT_GT(ring_trace.total_max_blocks(), 10 * ours.total_max_blocks());
}

// ---------------------------------------------------------------------------
// Direct exchange.
// ---------------------------------------------------------------------------

TEST(DirectExchangeTest, DeliversEveryBlockExactlyOnce) {
  for (auto extents : {std::vector<std::int32_t>{4, 4}, {8, 8}, {4, 4, 4}}) {
    DirectExchange direct((TorusShape(extents)));
    EXPECT_NO_THROW(direct.verify());
  }
}

TEST(DirectExchangeTest, HasNMinusOneSteps) {
  DirectExchange direct(TorusShape::make_2d(8, 8));
  EXPECT_EQ(direct.steps().size(), 63u);
  for (const auto& step : direct.steps()) {
    EXPECT_EQ(step.messages.size(), 64u);
    EXPECT_EQ(step.blocks_per_message, 1);
  }
}

TEST(DirectExchangeTest, SuffersChannelContention) {
  // Dimension-ordered direct traffic is *not* contention-free on a
  // torus of this size — the very problem message combining removes.
  DirectExchange direct(TorusShape::make_2d(8, 8));
  EXPECT_GT(direct.worst_channel_load(), 1);
}

TEST(DirectExchangeTest, CongestionPricingExceedsIdealModel) {
  const TorusShape s = TorusShape::make_2d(8, 8);
  DirectExchange direct(s);
  const CostParams p = CostParams::balanced();
  const CostBreakdown priced = price_routed_steps(direct.torus(), direct.steps(), p);
  const CostBreakdown ideal = direct_ideal_cost(s, p);
  EXPECT_NEAR(priced.startup, ideal.startup, 1e-9);
  EXPECT_GE(priced.transmission, ideal.transmission);
}

// ---------------------------------------------------------------------------
// Bruck exchange.
// ---------------------------------------------------------------------------

TEST(BruckExchangeTest, DeliversOnPowerOfTwoAndOtherSizes) {
  for (auto extents : {std::vector<std::int32_t>{4, 4}, {8, 8}, {12, 12}, {6, 4},
                       {4, 4, 4}}) {
    BruckExchange bruck{TorusShape{extents}};
    EXPECT_NO_THROW(bruck.run_verified()) << TorusShape(extents).to_string();
  }
}

TEST(BruckExchangeTest, HasLogarithmicStepCount) {
  EXPECT_EQ(BruckExchange(TorusShape({8, 8})).num_steps(), 6);     // log2(64)
  EXPECT_EQ(BruckExchange(TorusShape({16, 16})).num_steps(), 8);   // log2(256)
  EXPECT_EQ(BruckExchange(TorusShape({12, 12})).num_steps(), 8);   // ceil(log2 144)
  EXPECT_EQ(BruckExchange(TorusShape({4, 4})).num_steps(), 4);
}

TEST(BruckExchangeTest, MessageSizesAreAtMostHalfTheBlocks) {
  BruckExchange bruck(TorusShape({8, 8}));
  const auto steps = bruck.run_verified();
  for (const auto& step : steps) {
    ASSERT_EQ(step.messages.size(), step.message_blocks.size());
    for (std::size_t i = 0; i < step.messages.size(); ++i) {
      EXPECT_LE(step.blocks_of(i), 32);  // N/2 for N = 64
      EXPECT_GT(step.blocks_of(i), 0);
    }
  }
}

TEST(BruckExchangeTest, FewerStartupsButCongestionLosesToCombiningOnTorus) {
  // Bruck needs only ceil(log2 N) startups and even *fewer* nominal
  // critical-path blocks than the combining schedule (N/2 * log2 N =
  // 1024 vs 1280 on 16x16) — its weakness on a torus is that rank-space
  // partners are physically distant, so messages contend: the
  // congestion-priced transmission is several times the proposed
  // algorithm's, and the priced total loses despite the startup edge.
  const TorusShape shape = TorusShape::make_2d(16, 16);
  BruckExchange bruck(shape);
  EXPECT_LT(bruck.num_steps(), 10);  // proposed needs C/2 + 2 = 10
  EXPECT_EQ(bruck.critical_path_blocks(), 1024);
  const CostParams p = CostParams::balanced();
  const CostBreakdown priced = price_routed_steps(bruck.torus(), bruck.run_verified(), p);
  const CostBreakdown ours = proposed_cost_nd(shape, p);
  EXPECT_GT(priced.transmission, 2.0 * ours.transmission);
  EXPECT_GT(priced.total(), ours.total());
}

TEST(BruckExchangeTest, CongestionPricingReflectsTorusMismatch) {
  // Bruck's rank-space partners are far away in the torus, so its
  // congestion-priced transmission exceeds its ideal (contention-free)
  // value.
  const TorusShape shape = TorusShape::make_2d(8, 8);
  BruckExchange bruck(shape);
  const CostParams p = CostParams::balanced();
  const auto steps = bruck.run_verified();
  const CostBreakdown priced = price_routed_steps(bruck.torus(), steps, p);
  // Ideal: sum over steps of max blocks * m * t_c.
  double ideal = 0.0;
  for (const auto& step : steps) {
    std::int64_t worst = 0;
    for (std::size_t i = 0; i < step.messages.size(); ++i) {
      worst = std::max(worst, step.blocks_of(i));
    }
    ideal += static_cast<double>(worst) * static_cast<double>(p.m) * p.t_c;
  }
  EXPECT_GT(priced.transmission, ideal);
}

// ---------------------------------------------------------------------------
// Dimension-wise recursive-doubling exchange.
// ---------------------------------------------------------------------------

TEST(DimwiseExchangeTest, DeliversOnPowerOfTwoShapes) {
  for (auto extents : {std::vector<std::int32_t>{4, 4}, {8, 8}, {16, 4}, {4, 4, 4},
                       {8, 8, 2}}) {
    DimwiseExchange dimwise{TorusShape{extents}};
    EXPECT_NO_THROW(dimwise.run_verified()) << TorusShape(extents).to_string();
  }
}

TEST(DimwiseExchangeTest, RejectsNonPowerOfTwoExtents) {
  EXPECT_THROW(DimwiseExchange(TorusShape({12, 8})), std::invalid_argument);
  EXPECT_THROW(DimwiseExchange(TorusShape({8, 1})), std::invalid_argument);
}

TEST(DimwiseExchangeTest, StepCountIsSumOfLogs) {
  EXPECT_EQ(DimwiseExchange(TorusShape({8, 8})).num_steps(), 6);
  EXPECT_EQ(DimwiseExchange(TorusShape({16, 4})).num_steps(), 6);
  EXPECT_EQ(DimwiseExchange(TorusShape({4, 4, 4})).num_steps(), 6);
}

TEST(DimwiseExchangeTest, SuffersContentionWithoutScheduling) {
  // The point of the baseline: digit correction alone, without the
  // paper's mod-4 direction scheduling, overlaps neighbors' paths.
  // Step at hop 2^k has loads up to 2^k on an 8-ring (the +4 step's
  // messages tile since 2^k == extent/2 pairs them; the +2 step loads 2).
  DimwiseExchange dimwise(TorusShape({8, 8}));
  EXPECT_GT(dimwise.worst_channel_load(), 1);
}

TEST(DimwiseExchangeTest, FewStartupsButLosesPricedComparison) {
  // 16x16: 8 startups (vs the proposed 10) — but the unscheduled
  // contention makes its congestion-priced total worse.
  const TorusShape shape = TorusShape::make_2d(16, 16);
  DimwiseExchange dimwise(shape);
  EXPECT_EQ(dimwise.num_steps(), 8);
  const CostParams p = CostParams::balanced();
  const CostBreakdown priced = price_routed_steps(dimwise.torus(), dimwise.run_verified(), p);
  const CostBreakdown ours = proposed_cost_nd(shape, p);
  EXPECT_GT(priced.transmission, ours.transmission);
  EXPECT_GT(priced.total(), ours.total());
}

}  // namespace
}  // namespace torex
