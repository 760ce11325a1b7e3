// Tests for the derived collectives built on the same schedule, all on
// the step kernel: scatter and gather (rows of placeholders), and
// irregular Alltoallv workloads as buckets, one std::vector of payloads
// per (origin, dest) pair.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "util/prng.hpp"

namespace torex {
namespace {

struct CollectiveCase {
  std::vector<std::int32_t> extents;
  Rank root;
};

class ScatterGatherTest : public ::testing::TestWithParam<CollectiveCase> {};

/// The case's name, e.g. "8x8_root37": its extents and root.
std::string collective_case_label(const CollectiveCase& c) {
  std::string label;
  for (const std::int32_t extent : c.extents) label += std::to_string(extent) + "x";
  label.pop_back();
  return label + "_root" + std::to_string(c.root);
}

void PrintTo(const CollectiveCase& c, std::ostream* os) { *os << collective_case_label(c); }

std::string collective_case_name(const ::testing::TestParamInfo<CollectiveCase>& info) {
  return collective_case_label(info.param);
}

TEST_P(ScatterGatherTest, ScatterDeliversPerNodePayloads) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  const Rank root = GetParam().root;
  std::vector<std::string> payloads;
  for (Rank d = 0; d < N; ++d) payloads.push_back("to-" + std::to_string(d));
  const auto received = scatter_payloads(algo, root, std::move(payloads));
  for (Rank d = 0; d < N; ++d) {
    EXPECT_EQ(received[static_cast<std::size_t>(d)], "to-" + std::to_string(d));
  }
}

TEST_P(ScatterGatherTest, GatherCollectsEveryPayloadAtRoot) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  const Rank root = GetParam().root;
  std::vector<std::int64_t> payloads;
  for (Rank p = 0; p < N; ++p) payloads.push_back(p * 31 + 7);
  const auto gathered = gather_payloads(algo, root, std::move(payloads));
  ASSERT_EQ(static_cast<Rank>(gathered.size()), N);
  for (Rank p = 0; p < N; ++p) {
    EXPECT_EQ(gathered[static_cast<std::size_t>(p)], p * 31 + 7);
  }
}

TEST_P(ScatterGatherTest, GatherInvertsScatter) {
  const SuhShinAape algo{TorusShape{GetParam().extents}};
  const Rank N = algo.shape().num_nodes();
  const Rank root = GetParam().root;
  std::vector<std::int64_t> original;
  for (Rank d = 0; d < N; ++d) original.push_back(d * d + 3);
  auto scattered = scatter_payloads(algo, root, original);
  const auto regathered = gather_payloads(algo, root, std::move(scattered));
  EXPECT_EQ(regathered, original);
}

INSTANTIATE_TEST_SUITE_P(Cases, ScatterGatherTest,
                         ::testing::Values(CollectiveCase{{4, 4}, 0},
                                           CollectiveCase{{8, 8}, 0},
                                           CollectiveCase{{8, 8}, 37},
                                           CollectiveCase{{12, 8}, 95},
                                           CollectiveCase{{8, 4, 4}, 64}),
                         collective_case_name);

TEST(CustomParcelsTest, RandomSparseWorkloadWithPayloads) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  const Rank N = algo.shape().num_nodes();
  const auto n = static_cast<std::size_t>(N);
  SplitMix64 rng(99);
  using Bucket = std::vector<std::uint64_t>;
  std::vector<std::vector<Bucket>> rows(n, std::vector<Bucket>(n));
  std::int64_t created = 0;
  for (Rank p = 0; p < N; ++p) {
    const int count = static_cast<int>(rng.next_below(5));
    for (int i = 0; i < count; ++i) {
      const Rank d = static_cast<Rank>(rng.next_below(static_cast<std::uint64_t>(N)));
      rows[static_cast<std::size_t>(p)][static_cast<std::size_t>(d)].push_back(
          (static_cast<std::uint64_t>(p) << 32) | static_cast<std::uint64_t>(d));
      ++created;
    }
  }
  const auto sent = rows;
  const auto recv = exchange_payloads_pooled(algo, StepProgram(algo), std::move(rows));
  std::int64_t received = 0;
  for (std::size_t q = 0; q < n; ++q) {
    for (std::size_t p = 0; p < n; ++p) {
      EXPECT_EQ(recv[q][p], sent[p][q]) << "bucket " << p << " -> " << q;
      received += static_cast<std::int64_t>(recv[q][p].size());
    }
  }
  EXPECT_EQ(received, created);
}

TEST(CustomParcelsTest, SelfAddressedParcelsStayPut) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  std::vector<std::vector<std::vector<int>>> rows(16, std::vector<std::vector<int>>(16));
  rows[5][5] = {42};
  const auto recv = exchange_payloads_pooled(algo, StepProgram(algo), std::move(rows));
  for (std::size_t q = 0; q < recv.size(); ++q) {
    for (std::size_t p = 0; p < recv[q].size(); ++p) {
      if (p == 5 && q == 5) {
        EXPECT_EQ(recv[q][p], std::vector<int>{42});
      } else {
        EXPECT_TRUE(recv[q][p].empty()) << "bucket " << p << " -> " << q;
      }
    }
  }
}

TEST(CustomParcelsTest, RejectsRootAndSizeErrors) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  EXPECT_THROW(scatter_payloads(algo, -1, std::vector<int>(16)), std::invalid_argument);
  EXPECT_THROW(scatter_payloads(algo, 16, std::vector<int>(16)), std::invalid_argument);
  EXPECT_THROW(scatter_payloads(algo, 0, std::vector<int>(15)), std::invalid_argument);
  EXPECT_THROW(gather_payloads(algo, 0, std::vector<int>(17)), std::invalid_argument);
}

}  // namespace
}  // namespace torex
