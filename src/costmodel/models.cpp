#include "costmodel/models.hpp"

#include "util/assert.hpp"
#include "util/math.hpp"

namespace torex {

CostBreakdown proposed_cost_2d(std::int64_t rows, std::int64_t cols, const CostParams& p) {
  TOREX_REQUIRE(rows >= 4 && cols >= 4 && rows % 4 == 0 && cols % 4 == 0,
                "R and C must be multiples of four");
  TOREX_REQUIRE(rows <= cols, "paper convention: R <= C");
  const double R = static_cast<double>(rows);
  const double C = static_cast<double>(cols);
  const double m = static_cast<double>(p.m);
  CostBreakdown out;
  out.startup = (C / 2 + 2) * p.t_s;                    // (C/2 + 2) t_s
  out.transmission = R * C / 4 * (C + 4) * m * p.t_c;   // RC(C+4)/4 m t_c
  out.rearrangement = 3 * R * C * m * p.rho;            // 3 RC m rho
  out.propagation = 2 * (C - 1) * p.t_l;                // 2(C-1) t_l
  return out;
}

CostBreakdown proposed_cost_nd(const TorusShape& shape, const CostParams& p) {
  TOREX_REQUIRE(shape.num_dims() >= 2, "n-D model needs n >= 2");
  TOREX_REQUIRE(shape.all_extents_multiple_of_four(), "extents must be multiples of four");
  TOREX_REQUIRE(shape.extents_non_increasing(), "extents must satisfy a1 >= ... >= an");
  const double n = static_cast<double>(shape.num_dims());
  const double a1 = static_cast<double>(shape.extent(0));
  const double N = static_cast<double>(shape.num_nodes());
  const double m = static_cast<double>(p.m);
  CostBreakdown out;
  out.startup = n * (a1 / 4 + 1) * p.t_s;               // n(a1/4 + 1) t_s
  out.transmission = n / 8 * (a1 + 4) * N * m * p.t_c;  // n/8 (a1+4)(a1...an) m t_c
  out.rearrangement = (n + 1) * N * m * p.rho;          // (n+1)(a1...an) m rho
  out.propagation = n * (a1 - 1) * p.t_l;               // n(a1 - 1) t_l
  return out;
}

double proposed_phase_cost(const TorusShape& shape, const CostParams& p) {
  return proposed_cost_nd(shape, p).total() / static_cast<double>(shape.num_dims() + 2);
}

CostBreakdown tseng_cost(int d, const CostParams& p) {
  TOREX_REQUIRE(d >= 2, "2^d x 2^d torus needs d >= 2");
  const double m = static_cast<double>(p.m);
  CostBreakdown out;
  out.startup = static_cast<double>(ipow(2, d - 1) + 2) * p.t_s;
  out.transmission =
      static_cast<double>(ipow(2, 3 * d - 2) + ipow(2, 2 * d)) * m * p.t_c;
  out.rearrangement =
      static_cast<double>((ipow(2, d - 1) + 1) * ipow(2, 2 * d)) * m * p.rho;
  out.propagation = (static_cast<double>(ipow(2, 2 * d - 1)) + 10.0) / 3.0 * p.t_l;
  return out;
}

CostBreakdown suh_yalamanchili_cost(int d, const CostParams& p) {
  TOREX_REQUIRE(d >= 2, "2^d x 2^d torus needs d >= 2");
  const double m = static_cast<double>(p.m);
  // {9 * 2^(3d-4) + (d^2 - 5d + 3) 2^(2d-1)}  appears as both the
  // transmission and rearrangement block count in Table 2.
  const double blocks = 9.0 * static_cast<double>(ipow(2, 3 * d - 4)) +
                        static_cast<double>((static_cast<std::int64_t>(d) * d - 5 * d + 3)) *
                            static_cast<double>(ipow(2, 2 * d - 1));
  CostBreakdown out;
  out.startup = (3.0 * d - 3.0) * p.t_s;
  out.transmission = blocks * m * p.t_c;
  out.rearrangement = blocks * m * p.rho;
  out.propagation = (13.0 * static_cast<double>(ipow(2, d - 2)) - 3.0 * d - 3.0) * p.t_l;
  return out;
}

CostBreakdown proposed_cost_power_of_two(int d, const CostParams& p) {
  TOREX_REQUIRE(d >= 2, "2^d x 2^d torus needs d >= 2");
  const double m = static_cast<double>(p.m);
  CostBreakdown out;
  out.startup = static_cast<double>(ipow(2, d - 1) + 2) * p.t_s;
  out.transmission =
      static_cast<double>(ipow(2, 3 * d - 2) + ipow(2, 2 * d)) * m * p.t_c;
  out.rearrangement = 3.0 * static_cast<double>(ipow(2, 2 * d)) * m * p.rho;
  out.propagation = static_cast<double>(ipow(2, d + 1) - 2) * p.t_l;
  return out;
}

CostBreakdown direct_ideal_cost(const TorusShape& shape, const CostParams& p) {
  const Rank N = shape.num_nodes();
  const double m = static_cast<double>(p.m);
  CostBreakdown out;
  out.startup = static_cast<double>(N - 1) * p.t_s;
  out.transmission = static_cast<double>(N - 1) * m * p.t_c;
  // Propagation modeled from node 0's viewpoint: its step-i message
  // travels distance(0, i) hops, so the total is the sum of distances
  // from node 0 (other nodes differ only via rank wraparound effects;
  // the measured baseline prices the true per-step maximum).
  std::int64_t hops = 0;
  const Coord origin(static_cast<std::size_t>(shape.num_dims()), 0);
  for (Rank i = 1; i < N; ++i) hops += shape.distance(origin, shape.coord_of(i));
  out.propagation = static_cast<double>(hops) * p.t_l;
  out.rearrangement = 0.0;  // blocks are sent straight from the initial array
  return out;
}

}  // namespace torex
