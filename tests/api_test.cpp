// Tests for the application-facing API layers: payload exchange, the
// Alltoallv-style custom workloads, the communicator facade (including
// its refusal of re-entrant and concurrent calls), and schedule
// serialization.
#include <gtest/gtest.h>

#include <functional>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>

#include "core/exchange_engine.hpp"
#include "core/payload_exchange.hpp"
#include "core/schedule_io.hpp"
#include "core/step_program.hpp"
#include "runtime/communicator.hpp"
#include "util/prng.hpp"
#include "util/step_pool.hpp"

namespace torex {
namespace {

// ---------------------------------------------------------------------------
// Payload exchange.
// ---------------------------------------------------------------------------

TEST(PayloadExchangeTest, DeliversEveryPayload) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  const Rank N = algo.shape().num_nodes();
  std::vector<std::vector<std::int64_t>> rows(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      rows[static_cast<std::size_t>(p)].push_back(static_cast<std::int64_t>(p) * 1000 + q);
    }
  }
  const auto recv = exchange_payloads_pooled(algo, StepProgram(algo), std::move(rows));
  for (Rank q = 0; q < N; ++q) {
    for (Rank p = 0; p < N; ++p) {
      EXPECT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)],
                static_cast<std::int64_t>(p) * 1000 + q);
    }
  }
}

TEST(PayloadExchangeTest, MoveOnlyPayloadsWork) {
  // The kernel sizes its scratch rows in place, so payloads that can
  // only be moved replay too: inline, and with their moves on one or
  // three participants. 8x4x4 closes multi-run sends' gaps as well.
  for (const std::vector<std::int32_t>& extents :
       std::vector<std::vector<std::int32_t>>{{4, 4}, {8, 4, 4}}) {
    const SuhShinAape algo{TorusShape(extents)};
    const StepProgram program(algo);
    const Rank N = algo.shape().num_nodes();
    for (const int participants : {0, 1, 3}) {
      std::vector<std::vector<std::unique_ptr<int>>> rows(static_cast<std::size_t>(N));
      for (Rank p = 0; p < N; ++p) {
        for (Rank q = 0; q < N; ++q) {
          rows[static_cast<std::size_t>(p)].push_back(std::make_unique<int>(p * 1000 + q));
        }
      }
      const auto pool = participants > 0 ? std::make_unique<StepPool>(participants) : nullptr;
      WireExchangeOptions options;
      options.pool = pool.get();
      const auto recv = exchange_payloads_pooled(algo, program, std::move(rows), options);
      for (Rank q = 0; q < N; ++q) {
        for (Rank p = 0; p < N; ++p) {
          const auto& got = recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)];
          ASSERT_NE(got, nullptr) << algo.shape().to_string() << " at " << participants;
          EXPECT_EQ(*got, p * 1000 + q) << algo.shape().to_string() << " at " << participants;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Alltoallv-style custom workloads.
// ---------------------------------------------------------------------------

TEST(CustomWorkloadTest, SparseExchangeDelivers) {
  // Only a random 20% of (origin, dest) pairs carry a block.
  const SuhShinAape algo(TorusShape::make_2d(12, 8));
  const Rank N = algo.shape().num_nodes();
  SplitMix64 rng(2024);
  std::vector<std::vector<Block>> initial(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank d = 0; d < N; ++d) {
      if (rng.next_double() < 0.2) initial[static_cast<std::size_t>(p)].push_back(Block{p, d});
    }
  }
  ExchangeEngine engine(algo);
  EXPECT_NO_THROW(engine.run_custom(std::move(initial)));
}

TEST(CustomWorkloadTest, DuplicateBlocksPerPairDeliver) {
  // Alltoallv with counts > 1: several blocks per (origin, dest).
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  const Rank N = algo.shape().num_nodes();
  std::vector<std::vector<Block>> initial(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank d = 0; d < N; d += 3) {
      for (int copy = 0; copy < 1 + (p + d) % 3; ++copy) {
        initial[static_cast<std::size_t>(p)].push_back(Block{p, d});
      }
    }
  }
  ExchangeEngine engine(algo);
  EXPECT_NO_THROW(engine.run_custom(std::move(initial)));
}

TEST(CustomWorkloadTest, EmptyWorkloadIsANoOp) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  ExchangeEngine engine(algo);
  const ExchangeTrace trace =
      engine.run_custom(std::vector<std::vector<Block>>(64));
  for (const auto& step : trace.steps) {
    EXPECT_EQ(step.total_blocks, 0);
  }
}

TEST(CustomWorkloadTest, SingleSourceScatterUsesOnlyItsRings) {
  // One node scatters to everyone (personalized one-to-all): works and
  // moves exactly N-1 blocks... plus nothing from anyone else.
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  const Rank N = algo.shape().num_nodes();
  std::vector<std::vector<Block>> initial(static_cast<std::size_t>(N));
  for (Rank d = 0; d < N; ++d) initial[0].push_back(Block{0, d});
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run_custom(std::move(initial));
  std::int64_t moved = 0;
  for (const auto& step : trace.steps) moved += step.total_blocks;
  EXPECT_GT(moved, 0);
}

TEST(CustomWorkloadTest, RejectsForeignOrigins) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  std::vector<std::vector<Block>> initial(16);
  initial[3].push_back(Block{4, 7});  // block claims origin 4 but sits at 3
  ExchangeEngine engine(algo);
  EXPECT_THROW(engine.run_custom(std::move(initial)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Communicator facade.
// ---------------------------------------------------------------------------

TEST(CommunicatorTest, AlltoallPermutesCorrectly) {
  TorusCommunicator comm(TorusShape::make_2d(8, 8), CostParams::balanced());
  const Rank N = comm.size();
  std::vector<std::vector<int>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) {
      send[static_cast<std::size_t>(p)].push_back(p * 1000 + q);
    }
  }
  for (auto algorithm : {AlltoallAlgorithm::kSuhShin, AlltoallAlgorithm::kRing,
                         AlltoallAlgorithm::kDirect, AlltoallAlgorithm::kBruck,
                         AlltoallAlgorithm::kAuto}) {
    double modeled = 0.0;
    const auto recv = comm.alltoall(send, algorithm, 64, &modeled);
    EXPECT_GT(modeled, 0.0);
    for (Rank q = 0; q < N; ++q) {
      for (Rank p = 0; p < N; ++p) {
        EXPECT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)],
                  p * 1000 + q);
      }
    }
  }
}

TEST(CommunicatorTest, StringPayloadsRunOnTheStepKernel) {
  // Payloads that are not trivially copyable run on the step kernel
  // too, through its local transport: nothing crosses the framed wire,
  // and the phase-boundary rearrangements count as they do for words.
  // The kernel on a four-participant pool (moves on its workers) must
  // return the same rows.
  TorusCommunicator comm(TorusShape::make_2d(8, 8), CostParams::balanced());
  const Rank N = comm.size();
  const auto payload = [](Rank from, Rank to) {
    return "parcel " + std::to_string(from) + " -> " + std::to_string(to) +
           ", longer than any small-string buffer";
  };
  std::vector<std::vector<std::string>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) send[static_cast<std::size_t>(p)].push_back(payload(p, q));
  }
  const auto recv = comm.alltoall(send, AlltoallAlgorithm::kSuhShin);
  for (Rank q = 0; q < N; ++q) {
    for (Rank p = 0; p < N; ++p) {
      ASSERT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)], payload(p, q));
    }
  }
  EXPECT_EQ(comm.wire_stats().messages, 0);
  EXPECT_GT(comm.wire_stats().rearrangement_passes, 0);

  const SuhShinAape algo(comm.shape());
  StepPool pool(4);
  WireExchangeOptions options;
  options.pool = &pool;
  EXPECT_EQ(exchange_payloads_pooled(algo, StepProgram(algo), send, options), recv);
}

TEST(CommunicatorTest, StringPayloadsSurviveMultiRunSends) {
  // On 8x4x4 some sends take two runs, and closing their gaps moves the
  // slots after the last run as well: none may come back empty, through
  // alltoall or alltoall_resilient.
  TorusCommunicator comm(TorusShape({8, 4, 4}), CostParams::balanced());
  const Rank N = comm.size();
  const auto payload = [](Rank from, Rank to) {
    return "parcel " + std::to_string(from) + " -> " + std::to_string(to) +
           ", longer than any small-string buffer";
  };
  std::vector<std::vector<std::string>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) send[static_cast<std::size_t>(p)].push_back(payload(p, q));
  }
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  ExchangeOutcome outcome;
  for (const auto& recv : {comm.alltoall(send, AlltoallAlgorithm::kSuhShin),
                           comm.alltoall_resilient(send, FaultModel{}, outcome, options)}) {
    std::int64_t wrong = 0;
    for (Rank q = 0; q < N; ++q) {
      for (Rank p = 0; p < N; ++p) {
        if (recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)] != payload(p, q)) {
          ++wrong;
        }
      }
    }
    EXPECT_EQ(wrong, 0) << "of " << N * N << " payloads";
  }
}

TEST(CommunicatorTest, AlltoallStridedExchangesColumnsInPlace) {
  // Träff-style datatypes: both endpoints are columns of row-major
  // matrices (stride = row length); the exchange reads and writes the
  // caller's memory through the views with no dense staging rows.
  TorusCommunicator comm(TorusShape::make_2d(4, 4), CostParams::balanced());
  const Rank N = comm.size();
  const auto n = static_cast<std::size_t>(N);
  std::vector<std::int64_t> send_mat(n * n);
  std::vector<std::int64_t> recv_mat(n * n, -1);
  std::vector<StridedView<const std::int64_t>> send;
  std::vector<StridedView<std::int64_t>> recv;
  for (Rank p = 0; p < N; ++p) {
    send.push_back({send_mat.data() + p, n, static_cast<std::ptrdiff_t>(n)});
    recv.push_back({recv_mat.data() + p, n, static_cast<std::ptrdiff_t>(n)});
    for (Rank q = 0; q < N; ++q) {
      send_mat[static_cast<std::size_t>(q) * n + static_cast<std::size_t>(p)] = p * 1000 + q;
    }
  }
  comm.alltoall_strided(send, recv);
  for (Rank q = 0; q < N; ++q) {
    for (Rank p = 0; p < N; ++p) {
      EXPECT_EQ(recv[static_cast<std::size_t>(q)].at(static_cast<std::size_t>(p)), p * 1000 + q);
    }
  }
}

TEST(CommunicatorTest, AlltoallStridedChecksEveryViewBeforeAnyDataMoves) {
  // A bad receive view at the last node must be refused before a single
  // element of the caller's memory is written: rows are unpacked
  // concurrently, so a late check would leave other rows overwritten.
  TorusCommunicator comm(TorusShape::make_2d(4, 4), CostParams::balanced());
  const Rank N = comm.size();
  const auto n = static_cast<std::size_t>(N);
  constexpr std::int64_t kSentinel = -7;
  std::vector<std::int64_t> send_mat(n * n, 1);
  for (const bool null_view : {false, true}) {
    std::vector<std::int64_t> recv_mat(n * n, kSentinel);
    std::vector<StridedView<const std::int64_t>> send;
    std::vector<StridedView<std::int64_t>> recv;
    for (std::size_t p = 0; p < n; ++p) {
      send.push_back({send_mat.data() + p * n, n, 1});
      recv.push_back({recv_mat.data() + p * n, n, 1});
    }
    if (null_view) {
      recv.back().base = nullptr;
    } else {
      recv.back().count = n - 1;  // one element short
    }
    EXPECT_THROW(comm.alltoall_strided(send, recv), std::invalid_argument)
        << (null_view ? "null view" : "short view");
    for (const std::int64_t v : recv_mat) {
      ASSERT_EQ(v, kSentinel) << (null_view ? "null view" : "short view");
    }
  }
  // A bad send view is refused the same way.
  std::vector<std::int64_t> recv_mat(n * n, kSentinel);
  std::vector<StridedView<const std::int64_t>> send;
  std::vector<StridedView<std::int64_t>> recv;
  for (std::size_t p = 0; p < n; ++p) {
    send.push_back({send_mat.data() + p * n, n, 1});
    recv.push_back({recv_mat.data() + p * n, n, 1});
  }
  send.back().count = n - 1;
  EXPECT_THROW(comm.alltoall_strided(send, recv), std::invalid_argument);
  for (const std::int64_t v : recv_mat) ASSERT_EQ(v, kSentinel);
}

TEST(CommunicatorTest, AlltoallStridedRequiresApplicableShape) {
  TorusCommunicator comm(TorusShape({10, 6}), CostParams::balanced());
  std::vector<StridedView<const std::int64_t>> send;
  std::vector<StridedView<std::int64_t>> recv;
  EXPECT_THROW(comm.alltoall_strided(send, recv), std::invalid_argument);
}

TEST(CommunicatorTest, AutoPrefersSuhShinOnValidShapes) {
  // With the balanced parameters the combining schedule dominates both
  // baselines on any reasonable torus.
  TorusCommunicator comm(TorusShape::make_2d(16, 16), CostParams::balanced());
  EXPECT_EQ(comm.select(64), AlltoallAlgorithm::kSuhShin);
  EXPECT_TRUE(comm.suh_shin_applicable());
}

TEST(CommunicatorTest, FallsBackWhenShapeNotApplicable) {
  TorusCommunicator comm(TorusShape({10, 6}), CostParams::balanced());
  EXPECT_FALSE(comm.suh_shin_applicable());
  const AlltoallAlgorithm chosen = comm.select(64);
  EXPECT_NE(chosen, AlltoallAlgorithm::kSuhShin);
  EXPECT_THROW(comm.estimate(AlltoallAlgorithm::kSuhShin, 64), std::invalid_argument);
}

TEST(CommunicatorTest, EstimatesOrderSensibly) {
  TorusCommunicator comm(TorusShape::make_2d(12, 12), CostParams::balanced());
  const double ours = comm.estimate(AlltoallAlgorithm::kSuhShin, 64).total();
  const double ring = comm.estimate(AlltoallAlgorithm::kRing, 64).total();
  EXPECT_LT(ours, ring);
}

TEST(CommunicatorTest, PaddedSuhShinRunsOnAwkwardShapes) {
  // A 10x6 torus cannot run the plain schedule; the padded variant
  // must both price and execute correctly.
  TorusCommunicator comm(TorusShape({10, 6}), CostParams::balanced());
  const Rank N = comm.size();
  std::vector<std::vector<int>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) send[static_cast<std::size_t>(p)].push_back(p * 100 + q);
  }
  double modeled = 0.0;
  const auto recv = comm.alltoall(send, AlltoallAlgorithm::kSuhShinPadded, 64, &modeled);
  EXPECT_GT(modeled, 0.0);
  for (Rank q = 0; q < N; ++q) {
    for (Rank p = 0; p < N; ++p) {
      EXPECT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)], p * 100 + q);
    }
  }
  // On a qualifying shape, auto never picks the padded variant.
  TorusCommunicator square(TorusShape({8, 8}), CostParams::balanced());
  EXPECT_NE(square.select(64), AlltoallAlgorithm::kSuhShinPadded);
}

// --- §6 padding on the step kernel ---------------------------------------

class PaddedAlltoallTest : public ::testing::TestWithParam<std::vector<std::int32_t>> {};

/// comm.alltoall(kSuhShinPadded) over payload(p, q) must return the
/// transpose, run on the kernel (rearrangement passes counted) and
/// leave no frame outstanding in the communicator's arena.
template <typename Payload>
void expect_padded_transpose(const TorusCommunicator& comm, Payload payload) {
  const Rank N = comm.size();
  std::vector<std::vector<decltype(payload(0, 0))>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) send[static_cast<std::size_t>(p)].push_back(payload(p, q));
  }
  const auto recv = comm.alltoall(send, AlltoallAlgorithm::kSuhShinPadded);
  ASSERT_EQ(recv.size(), static_cast<std::size_t>(N));
  std::int64_t wrong = 0;
  for (Rank q = 0; q < N; ++q) {
    ASSERT_EQ(recv[static_cast<std::size_t>(q)].size(), static_cast<std::size_t>(N));
    for (Rank p = 0; p < N; ++p) {
      if (recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)] != payload(p, q)) {
        ++wrong;
      }
    }
  }
  EXPECT_EQ(wrong, 0) << "of " << N * N << " payloads";
  EXPECT_GT(comm.wire_stats().rearrangement_passes, 0);
  EXPECT_EQ(comm.wire_stats().outstanding_frames(), 0);
}

TEST_P(PaddedAlltoallTest, WordsArriveAsTheTranspose) {
  const TorusCommunicator comm(TorusShape(GetParam()), CostParams::balanced());
  expect_padded_transpose(comm, [](Rank p, Rank q) {
    return static_cast<std::int64_t>(p) * 100000 + q;
  });
  EXPECT_GT(comm.wire_stats().messages, 0);  // words cross the framed wire
}

TEST_P(PaddedAlltoallTest, StringsArriveAsTheTranspose) {
  const TorusCommunicator comm(TorusShape(GetParam()), CostParams::balanced());
  expect_padded_transpose(comm, [](Rank p, Rank q) {
    return "parcel " + std::to_string(p) + " -> " + std::to_string(q) +
           ", longer than any small-string buffer";
  });
  EXPECT_EQ(comm.wire_stats().messages, 0);  // strings move locally
}

INSTANTIATE_TEST_SUITE_P(Shapes, PaddedAlltoallTest,
                         ::testing::Values(std::vector<std::int32_t>{6, 6},
                                           std::vector<std::int32_t>{10, 6},
                                           std::vector<std::int32_t>{7, 5},
                                           std::vector<std::int32_t>{10, 7},
                                           std::vector<std::int32_t>{14, 10},
                                           std::vector<std::int32_t>{7, 5, 3},
                                           std::vector<std::int32_t>{6, 6, 6}),
                         [](const ::testing::TestParamInfo<std::vector<std::int32_t>>& shape) {
                           return TorusShape(shape.param).to_string();
                         });

TEST(CommunicatorTest, AutoSkipsPaddingWhereItCannotPad) {
  // §6 pads tori of two or more dimensions sorted non-increasing. On
  // these shapes kAuto must price and run ring, direct or Bruck instead,
  // through every entry point that selects, while an explicit padded
  // request still refuses.
  for (const std::vector<std::int32_t>& extents :
       std::vector<std::vector<std::int32_t>>{{16}, {4, 8}, {6, 10}, {8, 4, 6}}) {
    const TorusCommunicator comm(TorusShape(extents), CostParams{});
    const std::string label = comm.shape().to_string();
    const Rank N = comm.size();
    std::vector<std::vector<int>> send(static_cast<std::size_t>(N));
    for (Rank p = 0; p < N; ++p) {
      for (Rank q = 0; q < N; ++q) send[static_cast<std::size_t>(p)].push_back(p * 1000 + q);
    }
    const auto expect_transpose = [&](const std::vector<std::vector<int>>& recv) {
      for (Rank q = 0; q < N; ++q) {
        for (Rank p = 0; p < N; ++p) {
          ASSERT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)], p * 1000 + q)
              << label;
        }
      }
    };
    const AlltoallAlgorithm chosen = comm.select(64);
    EXPECT_TRUE(chosen == AlltoallAlgorithm::kRing || chosen == AlltoallAlgorithm::kDirect ||
                chosen == AlltoallAlgorithm::kBruck)
        << label << " chose " << to_string(chosen);
    expect_transpose(comm.alltoall(send));
    ExchangeOutcome outcome;
    expect_transpose(comm.alltoall_resilient(send, FaultModel{}, outcome));
    EXPECT_EQ(outcome.algorithm, chosen) << label;
    expect_transpose(comm.alltoall_checked(send, FaultModel{}, CorruptionModel{}, outcome));
    EXPECT_EQ(outcome.algorithm, chosen) << label;
    EXPECT_THROW(comm.alltoall(send, AlltoallAlgorithm::kSuhShinPadded), std::invalid_argument)
        << label;
  }
}

TEST(CommunicatorTest, BruckEstimateAvailableOnAnyShape) {
  // Bruck has no multiple-of-four requirement: it must price (and be
  // selectable) on shapes the Suh-Shin schedule rejects.
  TorusCommunicator comm(TorusShape({10, 6}), CostParams::balanced());
  const double bruck = comm.estimate(AlltoallAlgorithm::kBruck, 64).total();
  EXPECT_GT(bruck, 0.0);
  const AlltoallAlgorithm chosen = comm.select(64);
  EXPECT_TRUE(chosen == AlltoallAlgorithm::kBruck || chosen == AlltoallAlgorithm::kRing ||
              chosen == AlltoallAlgorithm::kDirect);
}

/// A payload whose copy constructor runs a hook: the deterministic way
/// to land inside a running collective, since seeding copies every
/// payload. Not trivially copyable, so alltoall moves it locally, on
/// the calling thread.
struct HookedPayload {
  static inline std::function<void()> on_copy;
  int value = 0;
  HookedPayload() = default;
  explicit HookedPayload(int v) : value(v) {}
  HookedPayload(const HookedPayload& other) : value(other.value) {
    if (on_copy) on_copy();
  }
  HookedPayload& operator=(const HookedPayload&) = default;
};
static_assert(!std::is_trivially_copyable_v<HookedPayload>);

std::vector<std::vector<HookedPayload>> hooked_send(Rank N) {
  std::vector<std::vector<HookedPayload>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) send[static_cast<std::size_t>(p)].emplace_back(p * 100 + q);
  }
  return send;
}

void expect_hooked_transpose(Rank N, const std::vector<std::vector<HookedPayload>>& recv) {
  for (Rank q = 0; q < N; ++q) {
    for (Rank p = 0; p < N; ++p) {
      EXPECT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)].value,
                p * 100 + q);
    }
  }
}

TEST(CommunicatorTest, ReentrantCallsAreRefused) {
  // Every entry point, re-entered from inside a running alltoall (here:
  // from a payload's copy constructor), must refuse with a typed error
  // instead of sharing the running call's arena and program.
  TorusCommunicator comm(TorusShape::make_2d(4, 4), CostParams::balanced());
  const Rank N = comm.size();
  const auto n = static_cast<std::size_t>(N);
  const std::vector<std::vector<std::int64_t>> words(n, std::vector<std::int64_t>(n, 7));
  std::vector<std::int64_t> send_mat(n * n, 7);
  std::vector<std::int64_t> recv_mat(n * n, 0);
  std::vector<StridedView<const std::int64_t>> send_views;
  std::vector<StridedView<std::int64_t>> recv_views;
  for (std::size_t p = 0; p < n; ++p) {
    send_views.push_back({send_mat.data() + p * n, n, 1});
    recv_views.push_back({recv_mat.data() + p * n, n, 1});
  }
  const auto send = hooked_send(N);
  int refused = 0;
  bool hooked = false;
  const auto expect_busy = [&](auto&& call) {
    try {
      call();
    } catch (const CommunicatorBusyError&) {
      ++refused;
    }
  };
  HookedPayload::on_copy = [&] {
    if (hooked) return;
    hooked = true;
    ExchangeOutcome outcome;
    ExchangeJournal journal;
    expect_busy([&] { comm.alltoall(words, AlltoallAlgorithm::kSuhShin); });
    expect_busy([&] { comm.alltoall_strided(send_views, recv_views); });
    expect_busy([&] { comm.alltoall_resilient(words, FaultModel{}, outcome); });
    expect_busy(
        [&] { comm.alltoall_checked(words, FaultModel{}, CorruptionModel{}, outcome); });
    expect_busy([&] { comm.alltoall_resumable(words, FaultModel{}, journal, outcome); });
  };
  const auto recv = comm.alltoall(send, AlltoallAlgorithm::kSuhShin);
  HookedPayload::on_copy = nullptr;
  EXPECT_EQ(refused, 5);
  expect_hooked_transpose(N, recv);
  // The running call released the communicator when it returned.
  EXPECT_EQ(comm.alltoall(words, AlltoallAlgorithm::kSuhShin)[3][2], 7);
}

TEST(CommunicatorTest, ConcurrentCallIsRefused) {
  // A second thread calls while the first is parked inside its
  // alltoall; the second must get the typed error, and the first must
  // finish unharmed. (Runs under TSan in CI.)
  TorusCommunicator comm(TorusShape::make_2d(4, 4), CostParams::balanced());
  const Rank N = comm.size();
  const auto n = static_cast<std::size_t>(N);
  const std::vector<std::vector<std::int64_t>> words(n, std::vector<std::int64_t>(n, 7));
  const auto send = hooked_send(N);
  std::latch inside(1);
  std::latch attempted(1);
  bool parked = false;
  bool refused = false;
  HookedPayload::on_copy = [&] {
    if (parked) return;
    parked = true;
    inside.count_down();
    attempted.wait();
  };
  std::thread other([&] {
    inside.wait();
    try {
      comm.alltoall(words, AlltoallAlgorithm::kSuhShin);
    } catch (const CommunicatorBusyError&) {
      refused = true;
    }
    attempted.count_down();
  });
  const auto recv = comm.alltoall(send, AlltoallAlgorithm::kSuhShin);
  other.join();
  HookedPayload::on_copy = nullptr;
  EXPECT_TRUE(refused);
  expect_hooked_transpose(N, recv);
}

TEST(CommunicatorTest, ToStringNames) {
  EXPECT_EQ(to_string(AlltoallAlgorithm::kSuhShin), "suh-shin");
  EXPECT_EQ(to_string(AlltoallAlgorithm::kAuto), "auto");
  EXPECT_EQ(to_string(AlltoallAlgorithm::kBruck), "bruck");
  EXPECT_EQ(to_string(AlltoallAlgorithm::kRing), "ring");
  EXPECT_EQ(to_string(AlltoallAlgorithm::kDirect), "direct");
}

// ---------------------------------------------------------------------------
// Schedule serialization.
// ---------------------------------------------------------------------------

TEST(ScheduleIoTest, RoundTripsAcrossShapes) {
  for (auto extents : {std::vector<std::int32_t>{8, 8}, {12, 8}, {8, 8, 4}}) {
    const SuhShinAape algo{TorusShape{extents}};
    std::stringstream stream;
    write_schedule(stream, algo);
    const ScheduleDescription parsed = read_schedule(stream);
    EXPECT_TRUE(matches(parsed, algo)) << TorusShape(extents).to_string();
  }
}

TEST(ScheduleIoTest, DetectsTampering) {
  const SuhShinAape algo(TorusShape::make_2d(8, 8));
  std::stringstream stream;
  write_schedule(stream, algo);
  std::string text = stream.str();
  // Flip one direction token.
  const auto pos = text.find(" +1");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 1] = '-';
  std::stringstream tampered(text);
  const ScheduleDescription parsed = read_schedule(tampered);
  EXPECT_FALSE(matches(parsed, algo));
}

TEST(ScheduleIoTest, RejectsGarbage) {
  std::stringstream empty("");
  EXPECT_THROW(read_schedule(empty), std::invalid_argument);
  std::stringstream bad_header("hello world");
  EXPECT_THROW(read_schedule(bad_header), std::invalid_argument);
  std::stringstream bad_body("torex-schedule v1\nshape 8x8\nconvention paper2d\nnonsense 1");
  EXPECT_THROW(read_schedule(bad_body), std::invalid_argument);
}

TEST(ScheduleIoTest, SurvivesRandomGarbage) {
  // Fuzz-ish robustness: arbitrary byte soup must either parse or throw
  // std::invalid_argument / std::exception — never crash or hang.
  SplitMix64 rng(0xF00D);
  const std::string alphabet = "torex-schedule v1\nshape 8x\n dirs phase +- 0123456789 kind";
  for (int round = 0; round < 200; ++round) {
    std::string soup;
    const std::size_t len = rng.next_below(200);
    for (std::size_t i = 0; i < len; ++i) {
      soup.push_back(alphabet[static_cast<std::size_t>(rng.next_below(alphabet.size()))]);
    }
    std::stringstream stream(soup);
    try {
      (void)read_schedule(stream);
    } catch (const std::exception&) {
      // expected for malformed input
    }
  }
}

TEST(ScheduleIoTest, CommentsAndBlankLinesIgnored) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  std::stringstream stream;
  write_schedule(stream, algo);
  const std::string text = "# exported schedule\n\n" + stream.str();
  std::stringstream annotated(text);
  EXPECT_TRUE(matches(read_schedule(annotated), algo));
}

}  // namespace
}  // namespace torex
