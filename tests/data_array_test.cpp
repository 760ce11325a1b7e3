// Tests for the physical data-array model (§3.3) and the virtual-node
// padding extension (§6).
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/data_array.hpp"
#include "core/virtual_torus.hpp"
#include "sim/cost_simulator.hpp"

namespace torex {
namespace {

// ---------------------------------------------------------------------------
// Layout simulation (§3.3).
// ---------------------------------------------------------------------------

TEST(DataArrayTest, TwoDimensionalLayoutIsFullyContiguous) {
  // The paper's central §3.3 claim: with the B[u,v] ordering, every
  // send in every step of the 2D algorithm is physically contiguous —
  // only the 3 inter-phase rearrangement passes are needed.
  for (auto extents : {std::vector<std::int32_t>{8, 8}, {12, 8}, {12, 12}, {16, 16},
                       {16, 4}, {4, 4}}) {
    const SuhShinAape algo{TorusShape{extents}};
    const LayoutStats stats = run_layout_simulation(algo);
    EXPECT_TRUE(stats.fully_contiguous()) << TorusShape(extents).to_string() << ": "
                                          << stats.total_sends - stats.contiguous_sends
                                          << " non-contiguous sends";
    EXPECT_EQ(stats.max_runs_per_send, 1) << TorusShape(extents).to_string();
    EXPECT_EQ(stats.rearrangement_passes, 3);
  }
}

TEST(DataArrayTest, RearrangementPassCountIsNPlusOne) {
  EXPECT_EQ(run_layout_simulation(SuhShinAape(TorusShape({8, 8}))).rearrangement_passes, 3);
  EXPECT_EQ(run_layout_simulation(SuhShinAape(TorusShape({8, 4, 4}))).rearrangement_passes, 4);
  EXPECT_EQ(run_layout_simulation(SuhShinAape(TorusShape({4, 4, 4, 4}))).rearrangement_passes,
            5);
}

TEST(DataArrayTest, ScatterPhasesAreContiguousInAnyDimension) {
  // The distance-sorted layout keeps every scatter send a contiguous
  // tail in 3D too; only the final two phases hit the parity
  // obstruction (see DESIGN.md).
  const SuhShinAape algo(TorusShape({8, 8, 4}));
  const LayoutStats stats = run_layout_simulation(algo);
  // Some sends in phases n+1 / n+2 need gathering in 3D...
  EXPECT_GT(stats.total_sends, 0);
  // ...but the gathered volume is bounded by the exchange-phase traffic
  // (2n steps of N/2 blocks per node), a small fraction of the total.
  const std::int64_t exchange_blocks =
      2 * 3 * static_cast<std::int64_t>(algo.shape().num_nodes()) *
      (algo.shape().num_nodes() / 2);
  EXPECT_LE(stats.gathered_blocks, exchange_blocks);
}

TEST(DataArrayTest, ThreeDimensionalExchangePhasesNeedGathering) {
  // Documented deviation from the paper's idealized n-D claim: for
  // n >= 3 no fixed ordering keeps all n quarter-exchange steps
  // contiguous, so the simulator must report gathered blocks.
  const LayoutStats stats = run_layout_simulation(SuhShinAape(TorusShape({4, 4, 4})));
  EXPECT_FALSE(stats.fully_contiguous());
  EXPECT_GT(stats.gathered_blocks, 0);
  EXPECT_EQ(stats.max_runs_per_send, 2);
}

TEST(DataArrayTest, FragmentationDoublesPerDimension) {
  // The empirical law behind DESIGN.md §7.2: with the reflected-Gray
  // layout the worst send fragments into exactly 2^(n-2) runs.
  EXPECT_EQ(run_layout_simulation(SuhShinAape(TorusShape({8, 8}))).max_runs_per_send, 1);
  EXPECT_EQ(run_layout_simulation(SuhShinAape(TorusShape({4, 4, 4}))).max_runs_per_send, 2);
  EXPECT_EQ(run_layout_simulation(SuhShinAape(TorusShape({4, 4, 4, 4}))).max_runs_per_send,
            4);
  EXPECT_EQ(
      run_layout_simulation(SuhShinAape(TorusShape({4, 4, 4, 4, 4}))).max_runs_per_send, 8);
}

// ---------------------------------------------------------------------------
// Virtual-node padding (§6).
// ---------------------------------------------------------------------------

TEST(VirtualTorusTest, PadsToMultiplesOfFour) {
  const VirtualTorusAape padded(TorusShape({10, 7}));
  EXPECT_EQ(padded.virtual_shape().extents(), (std::vector<std::int32_t>{12, 8}));
  const VirtualTorusAape tiny(TorusShape({3, 2}));
  EXPECT_EQ(tiny.virtual_shape().extents(), (std::vector<std::int32_t>{4, 4}));
  const VirtualTorusAape exact(TorusShape({8, 8}));
  EXPECT_EQ(exact.virtual_shape().extents(), (std::vector<std::int32_t>{8, 8}));
}

TEST(VirtualTorusTest, PrimaryAndHostMapping) {
  const VirtualTorusAape padded(TorusShape({10, 8}));
  const TorusShape& v = padded.virtual_shape();  // 12x8
  EXPECT_TRUE(padded.is_primary(v.rank_of({9, 7})));
  EXPECT_FALSE(padded.is_primary(v.rank_of({10, 0})));
  EXPECT_FALSE(padded.is_primary(v.rank_of({11, 3})));
  // Folding: virtual (10, 3) is hosted by physical (0, 3).
  EXPECT_EQ(padded.host_of(v.rank_of({10, 3})), padded.physical_shape().rank_of({0, 3}));
  EXPECT_EQ(padded.host_of(v.rank_of({3, 5})), padded.physical_shape().rank_of({3, 5}));
}

struct VirtualCase {
  std::vector<std::int32_t> extents;
};

class VirtualSweepTest : public ::testing::TestWithParam<VirtualCase> {};

/// The case's name, e.g. "8x4x4": its extents.
std::string virtual_case_label(const VirtualCase& c) {
  std::string label;
  for (const std::int32_t extent : c.extents) label += std::to_string(extent) + "x";
  label.pop_back();
  return label;
}

void PrintTo(const VirtualCase& c, std::ostream* os) { *os << virtual_case_label(c); }

std::string virtual_case_name(const ::testing::TestParamInfo<VirtualCase>& info) {
  return virtual_case_label(info.param);
}

TEST_P(VirtualSweepTest, PaddedExchangeCompletes) {
  const VirtualTorusAape padded{TorusShape{GetParam().extents}};
  VirtualExchangeResult result;
  ASSERT_NO_THROW(result = padded.run_verified());
  EXPECT_GE(result.max_roles_per_host, 1);
  EXPECT_GE(result.max_host_serialization, 1);
  EXPECT_EQ(result.per_step_host_sends.size(), result.trace.steps.size());
}

INSTANTIATE_TEST_SUITE_P(Shapes, VirtualSweepTest,
                         ::testing::Values(VirtualCase{{10, 10}}, VirtualCase{{9, 7}},
                                           VirtualCase{{11, 5}}, VirtualCase{{6, 6}},
                                           VirtualCase{{13, 4}}, VirtualCase{{7, 6, 5}},
                                           VirtualCase{{5, 4, 3}}, VirtualCase{{8, 8}}),
                         virtual_case_name);

TEST(VirtualTorusTest, ExactMultipleOfFourHasNoSerializationOverhead) {
  // When no padding is needed every virtual node is primary and hosts
  // exactly one role: the padded run degenerates to the plain schedule.
  const VirtualTorusAape exact(TorusShape({8, 8}));
  const VirtualExchangeResult result = exact.run_verified();
  EXPECT_EQ(result.max_roles_per_host, 1);
  EXPECT_EQ(result.max_host_serialization, 1);
}

TEST(VirtualTorusTest, PaddingOverheadIsBoundedByRoleMultiplicity) {
  const VirtualTorusAape padded(TorusShape({10, 10}));  // virtual 12x12
  const VirtualExchangeResult result = padded.run_verified();
  // ceil(12/10)^2 = 4 roles max; serialization can never exceed it.
  EXPECT_LE(result.max_roles_per_host, 4);
  EXPECT_LE(result.max_host_serialization, result.max_roles_per_host);
}

TEST(VirtualTorusTest, RejectsUnsortedPhysicalShape) {
  EXPECT_THROW(VirtualTorusAape(TorusShape({5, 9})), std::invalid_argument);
}

}  // namespace
}  // namespace torex
