// Tests for the schedule object: phase structure, step counts, partner
// geometry, and the forwarding predicates (paper §3.2-§3.4, §4).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/aape.hpp"
#include "core/schedule_stats.hpp"
#include "topology/group.hpp"

namespace torex {
namespace {

TEST(AapeTest, RejectsInvalidShapes) {
  EXPECT_THROW(SuhShinAape(TorusShape({16})), std::invalid_argument);       // 1D
  EXPECT_THROW(SuhShinAape(TorusShape({12, 10})), std::invalid_argument);   // not mult of 4
  EXPECT_THROW(SuhShinAape(TorusShape({8, 12})), std::invalid_argument);    // unsorted
  EXPECT_NO_THROW(SuhShinAape(TorusShape({12, 8})));
  EXPECT_NO_THROW(SuhShinAape(TorusShape({4, 4})));
}

TEST(AapeTest, PhaseStructure2D) {
  const SuhShinAape algo(TorusShape::make_2d(12, 12));
  EXPECT_EQ(algo.num_phases(), 4);
  EXPECT_EQ(algo.phase_kind(1), PhaseKind::kScatter);
  EXPECT_EQ(algo.phase_kind(2), PhaseKind::kScatter);
  EXPECT_EQ(algo.phase_kind(3), PhaseKind::kQuarterExchange);
  EXPECT_EQ(algo.phase_kind(4), PhaseKind::kPairExchange);
  // C/4 - 1 = 2 steps in each scatter phase; 2 steps in phases 3-4.
  EXPECT_EQ(algo.steps_in_phase(1), 2);
  EXPECT_EQ(algo.steps_in_phase(2), 2);
  EXPECT_EQ(algo.steps_in_phase(3), 2);
  EXPECT_EQ(algo.steps_in_phase(4), 2);
  // Total = C/2 + 2 (Table 1 startup count).
  EXPECT_EQ(algo.total_steps(), 12 / 2 + 2);
  EXPECT_EQ(algo.hops_per_step(1), 4);
  EXPECT_EQ(algo.hops_per_step(3), 2);
  EXPECT_EQ(algo.hops_per_step(4), 1);
}

TEST(AapeTest, StartupCountMatchesTable1AcrossShapes) {
  // Table 1: n(a1/4 + 1) steps for an a1 x ... x an torus (a1 largest).
  struct Case { std::vector<std::int32_t> extents; };
  for (const auto& c : {Case{{8, 8}}, Case{{16, 8}}, Case{{12, 12}},
                        Case{{12, 8, 4}}, Case{{8, 8, 8}}, Case{{8, 8, 4, 4}}}) {
    const TorusShape s(c.extents);
    const SuhShinAape algo(s);
    const int n = s.num_dims();
    const int a1 = s.extent(0);
    EXPECT_EQ(algo.total_steps(), n * (a1 / 4 + 1)) << s.to_string();
    for (int phase = 1; phase <= n; ++phase) {
      EXPECT_EQ(algo.steps_in_phase(phase), a1 / 4 - 1)
          << s.to_string() << " phase " << phase;
    }
  }
}

TEST(AapeTest, NonSquare2DStepCountUsesLargerDimension) {
  // 12x8: phases 1-2 must run C/4 - 1 = 2 steps with C = max(R, C) = 12;
  // the short rings finish after 1 step and idle (paper end of §3.2).
  const SuhShinAape algo(TorusShape::make_2d(12, 8));
  EXPECT_EQ(algo.steps_in_phase(1), 2);
  EXPECT_EQ(algo.steps_in_phase(2), 2);
}

TEST(AapeTest, ScatterPartnersAreStrideFourGroupMates) {
  const SuhShinAape algo(TorusShape::make_3d(12, 8, 4));
  const TorusShape& s = algo.shape();
  for (Rank p = 0; p < s.num_nodes(); ++p) {
    for (int phase = 1; phase <= algo.num_dims(); ++phase) {
      if (algo.steps_in_phase(phase) == 0) continue;
      // Nodes whose phase dimension has extent 4 form rings of length
      // one: they never send and their +-4 "partner" wraps to
      // themselves, so there is no geometry to check.
      if (s.extent(algo.direction(p, phase, 1).dim) == 4) continue;
      const Rank q = algo.partner(p, phase, 1);
      const Coord pc = s.coord_of(p);
      const Coord qc = s.coord_of(q);
      EXPECT_TRUE(same_group(pc, qc)) << "scatter partner must be in the same group";
      EXPECT_EQ(s.distance(pc, qc), 4);
    }
  }
}

TEST(AapeTest, QuarterPartnersStayInSubmeshAndPairUp) {
  const SuhShinAape algo(TorusShape::make_3d(8, 8, 4));
  const TorusShape& s = algo.shape();
  const int n = algo.num_dims();
  for (Rank p = 0; p < s.num_nodes(); ++p) {
    for (int step = 1; step <= n; ++step) {
      const Rank q = algo.partner(p, n + 1, step);
      EXPECT_TRUE(same_submesh(s.coord_of(p), s.coord_of(q)));
      EXPECT_EQ(s.distance(s.coord_of(p), s.coord_of(q)), 2);
      EXPECT_EQ(algo.partner(q, n + 1, step), p) << "quarter exchange must be pairwise";
    }
  }
}

TEST(AapeTest, PairPartnersStayInHalfSubmeshAndPairUp) {
  const SuhShinAape algo(TorusShape::make_3d(8, 8, 4));
  const TorusShape& s = algo.shape();
  const int n = algo.num_dims();
  for (Rank p = 0; p < s.num_nodes(); ++p) {
    for (int step = 1; step <= n; ++step) {
      const Rank q = algo.partner(p, n + 2, step);
      EXPECT_TRUE(same_half_submesh(s.coord_of(p), s.coord_of(q)));
      EXPECT_EQ(s.distance(s.coord_of(p), s.coord_of(q)), 1);
      EXPECT_EQ(algo.partner(q, n + 2, step), p) << "pair exchange must be pairwise";
    }
  }
}

TEST(AapeTest, ShouldSendNeverForwardsOwnBlocks) {
  // A block already at its destination must never be forwarded again in
  // the quarter / pair phases, and never along a dimension where it is
  // already aligned in scatter phases.
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  const TorusShape& s = algo.shape();
  for (Rank p = 0; p < s.num_nodes(); ++p) {
    const Block own{p, p};
    for (int phase = 1; phase <= algo.num_phases(); ++phase) {
      for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
        EXPECT_FALSE(algo.should_send(p, phase, step, own));
      }
    }
  }
}

TEST(AapeTest, ScatterPredicateComparesSubmeshAlongPhaseDimension) {
  const SuhShinAape algo(TorusShape::make_2d(12, 12), PatternConvention::kPaper2D);
  const TorusShape& s = algo.shape();
  // Node (0,0) has key 0 and scatters along +c in phase 1: blocks for
  // destinations in SM columns != 0 must be forwarded, others not.
  const Rank p = s.rank_of({0, 0});
  EXPECT_TRUE(algo.should_send(p, 1, 1, Block{p, s.rank_of({0, 4})}));
  EXPECT_TRUE(algo.should_send(p, 1, 1, Block{p, s.rank_of({5, 11})}));
  EXPECT_FALSE(algo.should_send(p, 1, 1, Block{p, s.rank_of({8, 3})}));  // same SM column
  // Phase 2 for key 0 goes +r: SM rows != 0 forwarded.
  EXPECT_TRUE(algo.should_send(p, 2, 1, Block{p, s.rank_of({4, 0})}));
  EXPECT_FALSE(algo.should_send(p, 2, 1, Block{p, s.rank_of({2, 0})}));
}

/// The forwarding rule as one node evaluates it: mod-4 arithmetic on
/// its own coordinates and the block's destination along the dimension
/// it transmits in this step. Nothing global is consulted.
bool forwards_locally(PhaseKind kind, int dim, const Coord& self, const Coord& dest) {
  const auto d = static_cast<std::size_t>(dim);
  switch (kind) {
    case PhaseKind::kScatter:
      return dest[d] / 4 != self[d] / 4;
    case PhaseKind::kQuarterExchange:
      return (dest[d] % 4) / 2 != (self[d] % 4) / 2;
    case PhaseKind::kPairExchange:
      return dest[d] % 2 != self[d] % 2;
  }
  return false;
}

TEST(AapeTest, ForwardingRuleIsNodeLocal) {
  // A node needs only its coordinates, its per-step transmit dimension
  // and the block's destination to decide what to send, so a real
  // machine runs the schedule with no global knowledge. The local rule
  // must agree with the oracle for every node, step and destination.
  for (const auto& extents :
       std::vector<std::vector<std::int32_t>>{{8, 8}, {12, 8}, {8, 8, 4}}) {
    const SuhShinAape algo{TorusShape(extents)};
    const TorusShape& s = algo.shape();
    std::int64_t mismatches = 0;
    for (Rank node = 0; node < s.num_nodes(); ++node) {
      const Coord self = s.coord_of(node);
      for (int phase = 1; phase <= algo.num_phases(); ++phase) {
        for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
          const PhaseKind kind = algo.phase_kind(phase);
          const int dim = algo.direction(node, phase, step).dim;
          for (Rank dest = 0; dest < s.num_nodes(); ++dest) {
            const bool local = forwards_locally(kind, dim, self, s.coord_of(dest));
            if (local != algo.should_send(node, phase, step, Block{node, dest})) ++mismatches;
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0) << s.to_string();
  }
}

TEST(AapeTest, FourByFourTorusHasOnlyExchangePhases) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  EXPECT_EQ(algo.steps_in_phase(1), 0);
  EXPECT_EQ(algo.steps_in_phase(2), 0);
  EXPECT_EQ(algo.steps_in_phase(3), 2);
  EXPECT_EQ(algo.steps_in_phase(4), 2);
  EXPECT_EQ(algo.total_steps(), 4);
}

TEST(AapeTest, ScheduleStatsQuantifyPartnerStability) {
  // Paper claim (ii): destinations stay fixed for whole scatter phases,
  // and the number of distinct partners is Theta(n), not Theta(N).
  const ScheduleStats small = compute_schedule_stats(SuhShinAape(TorusShape({16, 16})));
  EXPECT_EQ(small.total_steps, 10);
  EXPECT_LE(small.max_distinct_partners, 6);  // 3n for n = 2
  EXPECT_GE(small.longest_fixed_run, 3);      // a1/4 - 1 scatter steps

  const ScheduleStats cube = compute_schedule_stats(SuhShinAape(TorusShape({12, 12, 12})));
  EXPECT_LE(cube.max_distinct_partners, 9);  // 3n for n = 3
  EXPECT_GE(cube.longest_fixed_run, 2);

  // Distinct partners are independent of torus size: 32x32 matches 8x8.
  const ScheduleStats big = compute_schedule_stats(SuhShinAape(TorusShape({32, 32})));
  const ScheduleStats tiny = compute_schedule_stats(SuhShinAape(TorusShape({8, 8})));
  EXPECT_EQ(big.max_distinct_partners, tiny.max_distinct_partners);
}

TEST(AapeTest, StartupStepsClassifyColdAndWarm) {
  // 16x16: each scatter phase has 3 steps (first cold, rest warm); all
  // 4 exchange steps are cold. Cold = 2 + 4, warm = 2 * 2.
  const CachedStartupCost c = classify_startup_steps(SuhShinAape(TorusShape({16, 16})));
  EXPECT_EQ(c.cold_steps, 6);
  EXPECT_EQ(c.warm_steps, 4);
  EXPECT_NEAR(c.total(100.0, 0.2), 6 * 100.0 + 4 * 20.0, 1e-9);
  // On a 4x4 torus every step is an exchange step: all cold.
  const CachedStartupCost tiny = classify_startup_steps(SuhShinAape(TorusShape({4, 4})));
  EXPECT_EQ(tiny.warm_steps, 0);
  EXPECT_EQ(tiny.cold_steps, 4);
}

TEST(AapeTest, ConventionDefaults) {
  EXPECT_EQ(SuhShinAape(TorusShape::make_2d(8, 8)).convention(),
            PatternConvention::kPaper2D);
  EXPECT_EQ(SuhShinAape(TorusShape::make_3d(8, 8, 4)).convention(),
            PatternConvention::kNested);
}

}  // namespace
}  // namespace torex
