// Tests for the flit-level wormhole simulator: single-message timing,
// serialization under contention, deadlock freedom, one-port behaviour,
// and the flit-level validation of the proposed schedule's
// contention-freedom.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "baselines/direct_exchange.hpp"
#include "core/exchange_engine.hpp"
#include "sim/wormhole.hpp"

namespace torex {
namespace {

TEST(WormholeTest, SingleMessageUncontendedTiming) {
  const Torus torus(TorusShape::make_2d(8, 8));
  WormholeSimulator sim(torus);
  // 3 hops, 16 flits: header pipeline 3 cycles, drain 15 more.
  WormSpec spec;
  spec.src = torus.shape().rank_of({0, 0});
  spec.dst = torus.shape().rank_of({0, 3});
  spec.flits = 16;
  const WormholeOutcome out = sim.simulate({spec});
  ASSERT_EQ(out.messages.size(), 1u);
  EXPECT_EQ(out.messages[0].hops, 3);
  EXPECT_EQ(out.messages[0].start, 0);
  EXPECT_EQ(out.messages[0].header_arrival, 3);
  EXPECT_EQ(out.messages[0].delivered, WormholeSimulator::uncontended_time(3, 16));
  EXPECT_EQ(out.messages[0].stall_cycles, 0);
  EXPECT_TRUE(out.stall_free());
}

TEST(WormholeTest, DisjointMessagesRunInParallel) {
  const Torus torus(TorusShape::make_2d(8, 8));
  WormholeSimulator sim(torus);
  std::vector<WormSpec> specs;
  for (std::int32_t r = 0; r < 8; ++r) {
    WormSpec s;
    s.src = torus.shape().rank_of({r, 0});
    s.dst = torus.shape().rank_of({r, 4});
    s.flits = 32;
    specs.push_back(s);
  }
  const WormholeOutcome out = sim.simulate(specs);
  EXPECT_TRUE(out.stall_free());
  EXPECT_EQ(out.makespan, WormholeSimulator::uncontended_time(4, 32));
}

TEST(WormholeTest, SharedChannelSerializes) {
  const Torus torus(TorusShape::make_2d(8, 8));
  WormholeSimulator sim(torus);
  // Both messages traverse channel (0,1)->(0,2).
  WormSpec a;
  a.src = torus.shape().rank_of({0, 0});
  a.dst = torus.shape().rank_of({0, 3});
  a.flits = 16;
  WormSpec b;
  b.src = torus.shape().rank_of({0, 1});
  b.dst = torus.shape().rank_of({0, 3});
  b.flits = 16;
  const WormholeOutcome out = sim.simulate({a, b});
  EXPECT_FALSE(out.stall_free());
  // The blocked worm finishes roughly one message-time later.
  EXPECT_GT(out.makespan, WormholeSimulator::uncontended_time(3, 16) + 10);
}

TEST(WormholeTest, ConsumptionPortEnforcesOnePortReceive) {
  const Torus torus(TorusShape::make_2d(8, 8));
  WormholeSimulator sim(torus);
  // Two messages to the same destination from opposite sides: disjoint
  // channels, but one consumption port.
  WormSpec a;
  a.src = torus.shape().rank_of({0, 2});
  a.dst = torus.shape().rank_of({0, 0});
  a.flits = 32;
  WormSpec b;
  b.src = torus.shape().rank_of({2, 0});
  b.dst = torus.shape().rank_of({0, 0});
  b.flits = 32;
  const WormholeOutcome out = sim.simulate({a, b});
  // Second worm must wait for the first to drain.
  EXPECT_GE(out.makespan, 2 * 32 - 4);
}

TEST(WormholeTest, InjectionIsOnePortPerSource) {
  const Torus torus(TorusShape::make_2d(8, 8));
  WormholeSimulator sim(torus);
  // Same source, two destinations on disjoint paths.
  WormSpec a;
  a.src = torus.shape().rank_of({0, 0});
  a.dst = torus.shape().rank_of({0, 2});
  a.flits = 32;
  WormSpec b;
  b.src = torus.shape().rank_of({0, 0});
  b.dst = torus.shape().rank_of({2, 0});
  b.flits = 32;
  const WormholeOutcome out = sim.simulate({a, b});
  // b cannot start until a's tail has left the source.
  EXPECT_GE(out.messages[1].start, 32 - 2);
}

TEST(WormholeTest, ForcedRouteOverridesMinimalTieBreak) {
  const Torus torus(TorusShape::make_2d(8, 8));
  WormholeSimulator sim(torus);
  WormSpec spec;
  spec.src = torus.shape().rank_of({0, 4});
  spec.dst = torus.shape().rank_of({0, 0});
  spec.flits = 4;
  spec.route = StraightRoute{{1, Sign::kPositive}, 4};  // the long way via wrap
  const WormholeOutcome out = sim.simulate({spec});
  EXPECT_EQ(out.messages[0].hops, 4);
  EXPECT_TRUE(out.stall_free());
  // Wrong forced route must be rejected.
  WormSpec bad = spec;
  bad.route = StraightRoute{{1, Sign::kPositive}, 3};
  EXPECT_THROW(sim.simulate({bad}), std::invalid_argument);
}

struct FlitCase {
  std::vector<std::int32_t> extents;
};

class FlitLevelScheduleTest : public ::testing::TestWithParam<FlitCase> {};

/// The case's name, e.g. "8x4x4": its extents.
std::string flit_case_label(const FlitCase& c) {
  std::string label;
  for (const std::int32_t extent : c.extents) label += std::to_string(extent) + "x";
  label.pop_back();
  return label;
}

void PrintTo(const FlitCase& c, std::ostream* os) { *os << flit_case_label(c); }

std::string flit_case_name(const ::testing::TestParamInfo<FlitCase>& info) {
  return flit_case_label(info.param);
}

TEST_P(FlitLevelScheduleTest, EveryScheduleStepIsStallFree) {
  // Flit-level confirmation of the paper's central claim: every step of
  // the proposed schedule runs without a single stall cycle, so each
  // step's makespan is exactly hops + flits - 1 of its largest message.
  const TorusShape shape(GetParam().extents);
  const SuhShinAape algo(shape);
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  const std::int64_t flits_per_block = 4;
  const auto outcomes = simulate_trace_steps(algo.torus(), trace, flits_per_block);
  ASSERT_EQ(outcomes.size(), trace.steps.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_TRUE(outcomes[i].stall_free()) << "step " << i;
    if (trace.steps[i].max_blocks_per_node > 0) {
      const std::int64_t expected = WormholeSimulator::uncontended_time(
          trace.steps[i].hops, 1 + trace.steps[i].max_blocks_per_node * flits_per_block);
      EXPECT_EQ(outcomes[i].makespan, expected) << "step " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, FlitLevelScheduleTest,
                         ::testing::Values(FlitCase{{8, 8}}, FlitCase{{12, 8}},
                                           FlitCase{{12, 12}}, FlitCase{{8, 8, 4}},
                                           FlitCase{{8, 4, 4, 4}}),
                         flit_case_name);

TEST(WormholeTest, DirectExchangeStallsButCompletes) {
  // The direct baseline must survive (deadlock-free dateline VCs) and
  // exhibit real stalls — the contention combining eliminates.
  const TorusShape shape = TorusShape::make_2d(8, 8);
  DirectExchange direct(shape);
  const auto outcomes = simulate_routed_steps(direct.torus(), direct.steps(), 4);
  EXPECT_EQ(outcomes.size(), 63u);
  std::int64_t stalls = 0;
  for (const auto& out : outcomes) stalls += out.total_stalls;
  EXPECT_GT(stalls, 0);
}

// ---------------------------------------------------------------------------
// Switching modes (paper §2: the algorithms also suit virtual
// cut-through and packet switching).
// ---------------------------------------------------------------------------

TEST(SwitchingModeTest, UncontendedTimesPerMode) {
  const Torus torus(TorusShape::make_2d(8, 8));
  WormholeSimulator sim(torus);
  WormSpec spec;
  spec.src = torus.shape().rank_of({0, 0});
  spec.dst = torus.shape().rank_of({0, 3});  // 3 hops
  spec.flits = 16;
  const auto wh = sim.simulate({spec}, SwitchingMode::kWormhole);
  const auto vct = sim.simulate({spec}, SwitchingMode::kVirtualCutThrough);
  const auto saf = sim.simulate({spec}, SwitchingMode::kStoreAndForward);
  // Cut-through matches wormhole without contention: h + L - 1.
  EXPECT_EQ(wh.messages[0].delivered, 3 + 16 - 1);
  EXPECT_EQ(vct.messages[0].delivered, wh.messages[0].delivered);
  // Store-and-forward pays L per hop plus the final consumption copy.
  EXPECT_EQ(saf.messages[0].delivered, (3 + 1) * 16 - 1);
  EXPECT_TRUE(saf.stall_free());  // waiting for one's own tail is not a stall
}

TEST(SwitchingModeTest, CutThroughReleasesChannelsBehindABlockedHeader) {
  // Message A blocks on a busy consumption port; in wormhole mode it
  // keeps holding its channels, blocking message B; in cut-through mode
  // it drains into the blocked node's buffer and B proceeds.
  const Torus torus(TorusShape::make_2d(8, 8));
  WormholeSimulator sim(torus);
  // C occupies the consumption port of (0,4) for a long time.
  WormSpec c;
  c.src = torus.shape().rank_of({1, 4});
  c.dst = torus.shape().rank_of({0, 4});
  c.flits = 64;
  // A follows the row toward the same destination and blocks behind C.
  WormSpec a;
  a.src = torus.shape().rank_of({0, 0});
  a.dst = torus.shape().rank_of({0, 4});
  a.flits = 8;
  // B wants a channel on A's path ((0,2) -> (0,3)), injected once A
  // holds it (A's header crosses it at cycle 2).
  WormSpec b;
  b.src = torus.shape().rank_of({0, 2});
  b.dst = torus.shape().rank_of({0, 3});
  b.flits = 8;
  b.inject_time = 4;
  const auto wh = sim.simulate({c, a, b}, SwitchingMode::kWormhole);
  const auto vct = sim.simulate({c, a, b}, SwitchingMode::kVirtualCutThrough);
  // B finishes earlier under cut-through (A's worm no longer occupies
  // the channel B needs while A waits for the consumption port).
  EXPECT_LT(vct.messages[2].delivered, wh.messages[2].delivered);
  // And overall cut-through is never slower here.
  EXPECT_LE(vct.makespan, wh.makespan);
}

TEST(SwitchingModeTest, ProposedScheduleStallFreeInAllModes) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  for (SwitchingMode mode : {SwitchingMode::kWormhole, SwitchingMode::kVirtualCutThrough,
                             SwitchingMode::kStoreAndForward}) {
    const auto outcomes = simulate_trace_steps(algo.torus(), trace, 4, mode);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      EXPECT_TRUE(outcomes[i].stall_free())
          << "mode " << static_cast<int>(mode) << " step " << i;
    }
  }
}

TEST(SwitchingModeTest, WormholeAndCutThroughAgreeOnContentionFreeSteps) {
  const SuhShinAape algo(TorusShape::make_2d(12, 12));
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_verified();
  const auto wh = simulate_trace_steps(algo.torus(), trace, 4, SwitchingMode::kWormhole);
  const auto vct =
      simulate_trace_steps(algo.torus(), trace, 4, SwitchingMode::kVirtualCutThrough);
  for (std::size_t i = 0; i < wh.size(); ++i) {
    EXPECT_EQ(wh[i].makespan, vct[i].makespan) << "step " << i;
  }
}

TEST(WormholeTest, RejectsDegenerateMessages) {
  const Torus torus(TorusShape::make_2d(8, 8));
  WormholeSimulator sim(torus);
  WormSpec self;
  self.src = self.dst = 0;
  EXPECT_THROW(sim.simulate({self}), std::invalid_argument);
  WormSpec empty;
  empty.src = 0;
  empty.dst = 1;
  empty.flits = 0;
  EXPECT_THROW(sim.simulate({empty}), std::invalid_argument);
}

}  // namespace
}  // namespace torex
