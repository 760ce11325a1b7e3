// Tests for the closed-form cost models (Tables 1 and 2) and the trace
// pricer: the analytic forms must agree with each other where they
// overlap, and with measured traces everywhere.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/exchange_engine.hpp"
#include "costmodel/lower_bounds.hpp"
#include "costmodel/models.hpp"
#include "sim/cost_simulator.hpp"
#include "util/math.hpp"

namespace torex {
namespace {

constexpr double kTol = 1e-9;

CostParams unit_params() {
  CostParams p;
  p.t_s = 1.0;
  p.t_c = 1.0;
  p.t_l = 1.0;
  p.rho = 1.0;
  p.m = 1;
  return p;
}

TEST(CostModelTest, Table1TwoDimensionalRow) {
  const CostParams p = unit_params();
  const CostBreakdown c = proposed_cost_2d(12, 12, p);
  EXPECT_NEAR(c.startup, 12.0 / 2 + 2, kTol);                  // 8 startups
  EXPECT_NEAR(c.transmission, 144.0 / 4 * 16, kTol);           // RC(C+4)/4 = 576
  EXPECT_NEAR(c.rearrangement, 3.0 * 144, kTol);               // 432
  EXPECT_NEAR(c.propagation, 2.0 * 11, kTol);                  // 22
}

TEST(CostModelTest, Table1NdRowReducesTo2dRow) {
  const CostParams p = CostParams::balanced();
  for (auto [r, c] : {std::pair{8, 8}, std::pair{8, 12}, std::pair{12, 16}}) {
    // Paper 2D form takes R <= C; the n-D form takes a1 >= a2, so feed
    // it the transposed shape.
    const CostBreakdown two = proposed_cost_2d(r, c, p);
    const CostBreakdown nd = proposed_cost_nd(TorusShape({c, r}), p);
    EXPECT_NEAR(two.startup, nd.startup, kTol);
    EXPECT_NEAR(two.transmission, nd.transmission, kTol);
    EXPECT_NEAR(two.rearrangement, nd.rearrangement, kTol);
    EXPECT_NEAR(two.propagation, nd.propagation, kTol);
  }
}

TEST(CostModelTest, Table2ProposedColumnEqualsGeneralForm) {
  const CostParams p = CostParams::balanced();
  for (int d = 2; d <= 7; ++d) {
    const std::int64_t side = ipow(2, d);
    const CostBreakdown pow2 = proposed_cost_power_of_two(d, p);
    const CostBreakdown general = proposed_cost_2d(side, side, p);
    EXPECT_NEAR(pow2.startup, general.startup, kTol) << "d=" << d;
    EXPECT_NEAR(pow2.transmission, general.transmission, kTol) << "d=" << d;
    EXPECT_NEAR(pow2.rearrangement, general.rearrangement, kTol) << "d=" << d;
    EXPECT_NEAR(pow2.propagation, general.propagation, kTol) << "d=" << d;
  }
}

TEST(CostModelTest, Table2TsengSharesStartupAndTransmissionWithProposed) {
  // §5: "the startup time and message-transmission time are equivalent
  // to those in [13]".
  const CostParams p = CostParams::balanced();
  for (int d = 2; d <= 7; ++d) {
    const CostBreakdown tseng = tseng_cost(d, p);
    const CostBreakdown ours = proposed_cost_power_of_two(d, p);
    EXPECT_NEAR(tseng.startup, ours.startup, kTol);
    EXPECT_NEAR(tseng.transmission, ours.transmission, kTol);
    // ...but the proposed algorithm wins on rearrangement from d = 3
    // and on propagation from d = 4 (the forms tie at 14 t_l for d = 3).
    if (d >= 3) {
      EXPECT_LT(ours.rearrangement, tseng.rearrangement);
    }
    if (d >= 4) {
      EXPECT_LT(ours.propagation, tseng.propagation);
    }
  }
}

TEST(CostModelTest, Table2SuhYalamanchiliHasLowerStartupHigherElsewhere) {
  // §5 narrative: [9] wins on startups (O(d) vs O(2^d)); the proposed
  // algorithm wins on the other three components.
  const CostParams p = CostParams::balanced();
  for (int d = 4; d <= 8; ++d) {
    const CostBreakdown sy = suh_yalamanchili_cost(d, p);
    const CostBreakdown ours = proposed_cost_power_of_two(d, p);
    EXPECT_LT(sy.startup, ours.startup) << "d=" << d;
    EXPECT_GT(sy.transmission, ours.transmission) << "d=" << d;
    EXPECT_GT(sy.rearrangement, ours.rearrangement) << "d=" << d;
    EXPECT_GT(sy.propagation, ours.propagation) << "d=" << d;
  }
}

TEST(CostModelTest, RejectsInvalidArguments) {
  const CostParams p = CostParams::balanced();
  EXPECT_THROW(proposed_cost_2d(10, 12, p), std::invalid_argument);
  EXPECT_THROW(proposed_cost_2d(16, 12, p), std::invalid_argument);  // R > C
  EXPECT_THROW(proposed_cost_nd(TorusShape({8, 12}), p), std::invalid_argument);
  EXPECT_THROW(tseng_cost(1, p), std::invalid_argument);
  EXPECT_THROW(suh_yalamanchili_cost(0, p), std::invalid_argument);
}

struct PriceCase {
  std::vector<std::int32_t> extents;
};

class TracePricingTest : public ::testing::TestWithParam<PriceCase> {};

/// The case's name, e.g. "8x4x4": its extents.
std::string price_case_label(const PriceCase& c) {
  std::string label;
  for (const std::int32_t extent : c.extents) label += std::to_string(extent) + "x";
  label.pop_back();
  return label;
}

void PrintTo(const PriceCase& c, std::ostream* os) { *os << price_case_label(c); }

std::string price_case_name(const ::testing::TestParamInfo<PriceCase>& info) {
  return price_case_label(info.param);
}

TEST_P(TracePricingTest, MeasuredTraceMatchesClosedForm) {
  // The central calibration check: pricing the engine's measured trace
  // with the model parameters reproduces Table 1's closed form exactly,
  // component by component.
  const TorusShape shape(GetParam().extents);
  const CostParams p = CostParams::balanced();
  const SuhShinAape algo(shape);
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  const CostBreakdown measured = price_trace(trace, p);
  const CostBreakdown analytic = proposed_cost_nd(shape, p);
  EXPECT_NEAR(measured.startup, analytic.startup, 1e-6);
  EXPECT_NEAR(measured.transmission, analytic.transmission, 1e-6);
  EXPECT_NEAR(measured.rearrangement, analytic.rearrangement, 1e-6);
  EXPECT_NEAR(measured.propagation, analytic.propagation, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Shapes, TracePricingTest,
                         ::testing::Values(PriceCase{{8, 8}}, PriceCase{{12, 8}},
                                           PriceCase{{12, 12}}, PriceCase{{16, 16}},
                                           PriceCase{{8, 8, 4}}, PriceCase{{12, 8, 4}},
                                           PriceCase{{8, 8, 8}}, PriceCase{{8, 4, 4, 4}}),
                         price_case_name);

TEST(CostModelTest, BreakdownTotalsAndAccumulate) {
  CostBreakdown a{1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(a.total(), 10.0, kTol);
  CostBreakdown b{0.5, 0.5, 0.5, 0.5};
  a += b;
  EXPECT_NEAR(a.total(), 12.0, kTol);
}

TEST(CostModelTest, CumulativeStepTimesAreMonotone) {
  const SuhShinAape algo(TorusShape::make_2d(12, 12));
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  const auto series = cumulative_step_times(trace, CostParams::balanced());
  ASSERT_EQ(series.size(), trace.steps.size());
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GT(series[i], series[i - 1]);
  }
  // Final cumulative time equals the priced total (both include all
  // n+1 = 3 rearrangement passes because every phase has steps here).
  const CostBreakdown priced = price_trace(trace, CostParams::balanced());
  EXPECT_NEAR(series.back(), priced.total(), 1e-6);
}

TEST(CostModelTest, OverlappedPricingBoundsPlainPricing) {
  const SuhShinAape algo(TorusShape::make_2d(16, 16));
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  for (const CostParams& p : {CostParams::balanced(), CostParams::bandwidth_dominated(),
                              CostParams::startup_dominated()}) {
    const CostBreakdown plain = price_trace(trace, p);
    const CostBreakdown overlapped = price_trace_overlapped(trace, p);
    // Overlap only ever reduces the rearrangement component.
    EXPECT_NEAR(overlapped.startup, plain.startup, 1e-9);
    EXPECT_NEAR(overlapped.transmission, plain.transmission, 1e-9);
    EXPECT_NEAR(overlapped.propagation, plain.propagation, 1e-9);
    EXPECT_LE(overlapped.rearrangement, plain.rearrangement + 1e-9);
    EXPECT_GE(overlapped.rearrangement, 0.0);
  }
  // With the balanced parameters a 16x16 phase's communication dwarfs
  // one rearrangement pass, so overlap hides it completely.
  const CostBreakdown hidden = price_trace_overlapped(trace, CostParams::balanced());
  EXPECT_NEAR(hidden.rearrangement, 0.0, 1e-9);
}

TEST(CostModelTest, OverlappedPricingDegeneratesGracefully) {
  // A 4x4 torus has only two phases with steps: at most one boundary
  // can hide a pass; the remaining passes stay visible.
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  const CostParams p = CostParams::balanced();
  const CostBreakdown overlapped = price_trace_overlapped(trace, p);
  const double pass =
      static_cast<double>(trace.blocks_per_rearrangement) * static_cast<double>(p.m) * p.rho;
  EXPECT_GE(overlapped.rearrangement,
            static_cast<double>(trace.rearrangement_passes - 2) * pass);
}

TEST(CostModelTest, LowerBoundsComputeClassicValues) {
  const CostParams p = unit_params();
  const AapeLowerBounds lb = aape_lower_bounds(TorusShape::make_2d(8, 8), p);
  EXPECT_NEAR(lb.startup, 6.0, kTol);       // ceil(log2 64)
  EXPECT_NEAR(lb.injection, 63.0, kTol);    // N - 1
  EXPECT_NEAR(lb.bisection, 64.0, kTol);    // N*a1/8 = 64*8/8
  EXPECT_NEAR(lb.transmission(), 64.0, kTol);
  EXPECT_NEAR(lb.combined(), 70.0, kTol);
}

TEST(CostModelTest, ProposedRespectsAllLowerBounds) {
  const CostParams p = unit_params();
  for (auto extents : {std::vector<std::int32_t>{8, 8}, {16, 16}, {32, 32}, {12, 8},
                       {8, 8, 8}, {8, 8, 4, 4}}) {
    const TorusShape shape(extents);
    const CostBreakdown ours = proposed_cost_nd(shape, p);
    const AapeLowerBounds lb = aape_lower_bounds(shape, p);
    EXPECT_GE(ours.startup, lb.startup - kTol) << shape.to_string();
    EXPECT_GE(ours.transmission, lb.transmission() - kTol) << shape.to_string();
    // The optimality characterization: the transmission ratio equals
    // exactly n * (1 + 4/a1) against the bisection bound.
    const double ratio = ours.transmission / lb.bisection;
    const double expected =
        shape.num_dims() * (1.0 + 4.0 / static_cast<double>(shape.extent(0)));
    EXPECT_NEAR(ratio, expected, 1e-9) << shape.to_string();
  }
}

TEST(CostModelTest, LowerBoundsRejectDegenerateShape) {
  EXPECT_THROW(aape_lower_bounds(TorusShape({1, 1}), CostParams::balanced()),
               std::invalid_argument);
}

TEST(CostModelTest, DirectIdealCostScalesWithN) {
  const CostParams p = unit_params();
  const CostBreakdown c = direct_ideal_cost(TorusShape::make_2d(8, 8), p);
  EXPECT_NEAR(c.startup, 63.0, kTol);
  EXPECT_NEAR(c.transmission, 63.0, kTol);
  // Sum of distances from node 0 in an 8x8 torus: per dimension the
  // ring distances sum to 2*(1+2+3)+4 = 16, and each of the 64 nodes
  // contributes dist_r + dist_c -> total 16*8 + 16*8 = 256.
  EXPECT_NEAR(c.propagation, 256.0, kTol);
}

}  // namespace
}  // namespace torex
