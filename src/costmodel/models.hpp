// Closed-form completion-time models (paper Tables 1 and 2).
//
// Table 1 gives the proposed algorithms' four cost components for
// general R x C and a1 x ... x an tori. Table 2 specializes to
// 2^d x 2^d tori and adds the two prior message-combining algorithms
// the paper compares against:
//   [13] Tseng, Gupta & Panda, IPPS'95  (power-of-two square 2D tori)
//   [9]  Suh & Yalamanchili, TPDS'98    (power-of-two 2D/3D tori,
//        O(d) startups)
// We implement the rows exactly as printed so the benches can reproduce
// the tables and the crossover study.
#pragma once

#include "costmodel/params.hpp"
#include "topology/shape.hpp"

namespace torex {

/// Table 1, left column: proposed algorithm on an R x C torus
/// (R <= C, both multiples of four).
CostBreakdown proposed_cost_2d(std::int64_t rows, std::int64_t cols, const CostParams& p);

/// Table 1, right column: proposed algorithm on an a1 x ... x an torus
/// (a1 >= ... >= an, all multiples of four).
CostBreakdown proposed_cost_nd(const TorusShape& shape, const CostParams& p);

/// One phase of proposed_cost_nd: the total spread evenly over the
/// schedule's n + 2 phases (n scatter phases, then the quarter and pair
/// exchanges). The torexd service charges this per executed phase.
double proposed_phase_cost(const TorusShape& shape, const CostParams& p);

/// Table 2, column "[13]": Tseng et al. on a 2^d x 2^d torus.
CostBreakdown tseng_cost(int d, const CostParams& p);

/// Table 2, column "[9]": Suh & Yalamanchili on a 2^d x 2^d torus.
CostBreakdown suh_yalamanchili_cost(int d, const CostParams& p);

/// Table 2, column "Proposed": the proposed algorithm on a 2^d x 2^d
/// torus. Algebraically identical to proposed_cost_2d(2^d, 2^d, p);
/// kept separate so tests can pin the printed power-of-two forms.
CostBreakdown proposed_cost_power_of_two(int d, const CostParams& p);

/// Lower bound reference: a direct (no-combining) exchange needs N-1
/// message startups per node; with minimal routing the busiest channel
/// makes transmission Theta(N * avg-distance / channels). Used as the
/// motivation baseline in the benches. This is the *idealized* direct
/// cost assuming perfect link scheduling (no combining, no conflicts
/// beyond bandwidth): N-1 startups, N-1 blocks, average-distance hops.
CostBreakdown direct_ideal_cost(const TorusShape& shape, const CostParams& p);

}  // namespace torex
