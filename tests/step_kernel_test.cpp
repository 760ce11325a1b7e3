// The step kernel as the one parallel runtime, and the compiled
// program's per-node view as the port pattern:
//  * at every participant count the kernel delivers the transpose slot
//    for slot with the sequential engine's traffic, message for message;
//  * one pool and one arena replay exchange after exchange;
//  * the per-rank loop of docs/usage.md's port section, run for every
//    rank in lockstep over StepProgram's per-node view, delivers the
//    transpose with the engine's traffic step for step, and each node's
//    step names the engine's partner and message size.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/exchange_engine.hpp"
#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "tagged.hpp"
#include "util/step_pool.hpp"

namespace torex {
namespace {

using testing::Tagged;
using testing::tagged_rows;
using testing::transpose_mismatch;

/// The salt every Tagged run of this suite seeds with.
constexpr std::uint64_t kSalt = 0x5CA1AB1E;

std::string extents_label(const std::vector<std::int32_t>& extents) {
  return TorusShape(extents).to_string();
}

/// Messages and blocks the engine's trace moved, over every step.
struct EngineTraffic {
  std::int64_t messages = 0;
  std::int64_t blocks = 0;
};

EngineTraffic engine_traffic(const ExchangeTrace& trace) {
  EngineTraffic traffic;
  for (const StepRecord& step : trace.steps) {
    traffic.messages += static_cast<std::int64_t>(step.transfers.size());
    traffic.blocks += step.total_blocks;
  }
  return traffic;
}

// --- The kernel at every participant count -------------------------------

struct KernelCase {
  std::vector<std::int32_t> extents;
  int participants;
};

class StepKernelTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(StepKernelTest, MatchesSequentialEngine) {
  const SuhShinAape algo{TorusShape(GetParam().extents)};
  const Rank N = algo.shape().num_nodes();
  const EngineTraffic engine = engine_traffic(ExchangeEngine(algo).run_verified());
  const StepProgram program(algo);

  WireArena inline_arena;
  WireExchangeOptions inline_options;
  inline_options.arena = &inline_arena;
  exchange_payloads_pooled(algo, program, tagged_rows(N, kSalt), inline_options);

  StepPool pool(GetParam().participants);
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  options.pool = &pool;
  const auto recv = exchange_payloads_pooled(algo, program, tagged_rows(N, kSalt), options);
  EXPECT_EQ(transpose_mismatch(N, recv, kSalt), "");

  // One frame per engine message, one parcel per block it moved, and
  // the pool changes nothing the wire carries.
  const WirePoolStats wire = arena.stats();
  EXPECT_EQ(wire.messages, engine.messages);
  EXPECT_EQ(wire.parcels, engine.blocks);
  EXPECT_EQ(wire.bytes_encoded, inline_arena.stats().bytes_encoded);
  EXPECT_EQ(wire.runs_encoded, inline_arena.stats().runs_encoded);
  EXPECT_EQ(wire.outstanding_frames(), 0);
}

std::string kernel_case_label(const KernelCase& c) {
  return extents_label(c.extents) + "_pool" + std::to_string(c.participants);
}

void PrintTo(const KernelCase& c, std::ostream* os) { *os << kernel_case_label(c); }

std::string kernel_case_name(const ::testing::TestParamInfo<KernelCase>& info) {
  return kernel_case_label(info.param);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, StepKernelTest,
    ::testing::Values(KernelCase{{8, 8}, 1}, KernelCase{{8, 8}, 2}, KernelCase{{8, 8}, 4},
                      KernelCase{{12, 8}, 3}, KernelCase{{12, 12}, 4},
                      KernelCase{{8, 8, 4}, 4}, KernelCase{{8, 8, 4}, 7},
                      KernelCase{{4, 4}, 16},  // more participants than busy nodes
                      KernelCase{{8, 4, 4, 4}, 5}),
    kernel_case_name);

TEST(StepKernelTest, OnePoolAndArenaReplayExchangeAfterExchange) {
  // Nothing of one exchange may leak into the next: every run, under
  // its own salt, lands every payload and carries the first run's
  // traffic, and returns every frame.
  const SuhShinAape algo(TorusShape({8, 8}));
  const Rank N = algo.shape().num_nodes();
  const StepProgram program(algo);
  StepPool pool(3);
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  options.pool = &pool;
  WirePoolStats first;
  for (std::uint64_t run = 0; run < 3; ++run) {
    const WirePoolStats before = arena.stats();
    const std::uint64_t salt = kSalt + run;
    const auto recv = exchange_payloads_pooled(algo, program, tagged_rows(N, salt), options);
    EXPECT_EQ(transpose_mismatch(N, recv, salt), "") << "run " << run;
    const WirePoolStats delta = wire_stats_delta(arena.stats(), before);
    if (run == 0) first = delta;
    EXPECT_EQ(delta.messages, first.messages) << "run " << run;
    EXPECT_EQ(delta.parcels, first.parcels) << "run " << run;
    EXPECT_EQ(delta.bytes_encoded, first.bytes_encoded) << "run " << run;
    EXPECT_EQ(arena.stats().outstanding_frames(), 0) << "run " << run;
  }
  EXPECT_EQ(pool.participants(), 3);
}

/// Runs the kernel over payload(p, q) rows of a payload type that is
/// not trivially copyable at 1, 3 and 4 participants: they cross the
/// local transport, their moves on the pool's workers, and must arrive
/// as the transpose.
template <typename Payload>
void expect_moved_payloads_agree(const std::vector<std::int32_t>& extents, Payload payload) {
  const SuhShinAape algo{TorusShape(extents)};
  const Rank N = algo.shape().num_nodes();
  const StepProgram program(algo);
  for (const int participants : {1, 3, 4}) {
    std::vector<std::vector<decltype(payload(0, 0))>> rows(static_cast<std::size_t>(N));
    for (Rank p = 0; p < N; ++p) {
      for (Rank q = 0; q < N; ++q) rows[static_cast<std::size_t>(p)].push_back(payload(p, q));
    }
    StepPool pool(participants);
    WireArena arena;
    WireExchangeOptions options;
    options.arena = &arena;
    options.pool = &pool;
    const auto recv = exchange_payloads_pooled(algo, program, std::move(rows), options);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(N));
    for (Rank q = 0; q < N; ++q) {
      ASSERT_EQ(recv[static_cast<std::size_t>(q)].size(), static_cast<std::size_t>(N));
      for (Rank p = 0; p < N; ++p) {
        ASSERT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)], payload(p, q))
            << "recv[" << q << "][" << p << "] on " << algo.shape().to_string() << " at "
            << participants << " participant(s)";
      }
    }
    EXPECT_EQ(arena.stats().messages, 0) << "these payloads never cross the framed wire";
  }
}

/// Heap-sized strings, so a move that lost or shared a buffer shows.
std::string string_payload(Rank p, Rank q) {
  return "payload from " + std::to_string(p) + " to " + std::to_string(q) +
         std::string(24, '.');
}

/// A vector that names its pair, sized by it (never empty).
std::vector<int> vector_payload(Rank p, Rank q) {
  return std::vector<int>(static_cast<std::size_t>(1 + (p + q) % 5), p * 1000 + q);
}

TEST(StepKernelTest, StringPayloadsAgreeAtEveryParticipantCount) {
  expect_moved_payloads_agree({8, 8}, string_payload);
}

// Beyond two dimensions some sends take several runs, so closing their
// gaps moves the slots after the last run too: a move of a slot onto
// itself empties a std::string or std::vector.
TEST(StepKernelTest, StringPayloadsSurviveMultiRunSends) {
  expect_moved_payloads_agree({8, 4, 4}, string_payload);
  expect_moved_payloads_agree({4, 4, 4, 4}, string_payload);
}

TEST(StepKernelTest, VectorPayloadsSurviveMultiRunSends) {
  expect_moved_payloads_agree({8, 4, 4}, vector_payload);
  expect_moved_payloads_agree({4, 4, 4, 4}, vector_payload);
}

// --- The per-rank loop of a port -----------------------------------------

struct PortCase {
  std::vector<std::int32_t> extents;
  LayoutPolicy layout;
};

/// One step of the lockstep run: its largest message and the slots sent.
struct StepTraffic {
  int phase = 0;
  int step = 0;
  std::int64_t max_blocks = 0;
  std::int64_t total_blocks = 0;
};

/// The loop docs/usage.md gives a rank, run for every rank in lockstep
/// over `program`'s per-node view alone: each step every rank gathers
/// its runs into one message for its partner, then every rank lands the
/// message addressed to it. Returns recv[q][o], what o sent to q, and
/// appends each step's traffic to `traffic`.
std::vector<std::vector<Tagged>> run_rank_loops(const StepProgram& program,
                                                std::vector<std::vector<Tagged>> rows,
                                                std::vector<StepTraffic>& traffic) {
  const Rank N = program.num_nodes();
  const auto n = static_cast<std::size_t>(N);
  std::vector<Tagged> scratch(n);
  std::vector<std::vector<Tagged>> inbox(n);
  for (int phase = 1; phase <= program.num_phases(); ++phase) {
    for (Rank rank = 0; rank < N; ++rank) {
      auto& row = rows[static_cast<std::size_t>(rank)];
      if (const auto perm = program.permutation(phase, rank); !perm.empty()) {
        for (std::size_t i = 0; i < n; ++i) scratch[i] = row[perm[i]];
        row.swap(scratch);
      }
    }
    for (int step = 1; step <= program.steps_in_phase(phase); ++step) {
      StepTraffic& sent = traffic.emplace_back(StepTraffic{phase, step, 0, 0});
      for (Rank rank = 0; rank < N; ++rank) {
        const auto& s = program.step(phase, step, rank);
        if (s.count == 0) continue;
        auto& message = inbox[static_cast<std::size_t>(s.partner)];
        EXPECT_TRUE(message.empty())
            << "one-port: node " << s.partner << " receives twice in " << phase << "." << step;
        const auto& row = rows[static_cast<std::size_t>(rank)];
        for (const SendRun& run : program.runs(s)) {
          const auto first = row.begin() + static_cast<std::ptrdiff_t>(run.offset);
          message.insert(message.end(), first, first + static_cast<std::ptrdiff_t>(run.count));
        }
        sent.max_blocks = std::max<std::int64_t>(sent.max_blocks, s.count);
        sent.total_blocks += s.count;
      }
      for (Rank rank = 0; rank < N; ++rank) {
        const auto& s = program.step(phase, step, rank);
        auto& incoming = inbox[static_cast<std::size_t>(rank)];
        if (incoming.size() != s.count) {
          ADD_FAILURE() << "node " << rank << " sends " << s.count << " but receives "
                        << incoming.size() << " in phase " << phase << " step " << step;
          return {};
        }
        if (s.count == 0) continue;
        auto& row = rows[static_cast<std::size_t>(rank)];
        const auto runs = program.runs(s);
        if (!s.in_place) close_send_gaps(row.data(), row.size(), runs);
        std::copy(incoming.begin(), incoming.end(),
                  row.begin() + static_cast<std::ptrdiff_t>(runs.front().offset));
        incoming.clear();
      }
    }
  }
  std::vector<std::vector<Tagged>> recv(n, std::vector<Tagged>(n));
  for (Rank rank = 0; rank < N; ++rank) {
    program.for_each_origin(rank, [&](Rank origin, std::uint32_t slot) {
      recv[static_cast<std::size_t>(rank)][static_cast<std::size_t>(origin)] =
          rows[static_cast<std::size_t>(rank)][slot];
    });
  }
  return recv;
}

class RankLoopTest : public ::testing::TestWithParam<PortCase> {};

TEST_P(RankLoopTest, DocumentedLoopDeliversTheTransposeWithEngineTraffic) {
  const SuhShinAape algo{TorusShape(GetParam().extents)};
  const Rank N = algo.shape().num_nodes();
  const StepProgram program(algo, GetParam().layout);
  std::vector<StepTraffic> traffic;
  const auto recv = run_rank_loops(program, tagged_rows(N, kSalt), traffic);
  EXPECT_EQ(transpose_mismatch(N, recv, kSalt), "");

  EngineOptions options;
  options.record_transfers = false;
  const ExchangeTrace reference = ExchangeEngine(algo, options).run_verified();
  ASSERT_EQ(traffic.size(), reference.steps.size());
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    EXPECT_EQ(traffic[i].phase, reference.steps[i].phase) << "step " << i;
    EXPECT_EQ(traffic[i].step, reference.steps[i].step) << "step " << i;
    EXPECT_EQ(traffic[i].max_blocks, reference.steps[i].max_blocks_per_node) << "step " << i;
    EXPECT_EQ(traffic[i].total_blocks, reference.steps[i].total_blocks) << "step " << i;
  }
}

TEST_P(RankLoopTest, NodeStepsNameTheEnginePartnerAndMessageSize) {
  // What a rank reads of the program is what the oracle decides: the
  // partner and size of every message, whatever the layout.
  const SuhShinAape algo{TorusShape(GetParam().extents)};
  const Rank N = algo.shape().num_nodes();
  const StepProgram program(algo, GetParam().layout);
  const ExchangeTrace reference = ExchangeEngine(algo).run_verified();
  ASSERT_EQ(program.num_phases(), algo.num_phases());
  std::size_t flat = 0;
  for (int phase = 1; phase <= program.num_phases(); ++phase) {
    ASSERT_EQ(program.steps_in_phase(phase), algo.steps_in_phase(phase)) << "phase " << phase;
    for (int step = 1; step <= program.steps_in_phase(phase); ++step, ++flat) {
      ASSERT_LT(flat, reference.steps.size());
      std::vector<std::int64_t> blocks(static_cast<std::size_t>(N), 0);
      std::vector<Rank> dst(static_cast<std::size_t>(N), -1);
      for (const TransferRecord& t : reference.steps[flat].transfers) {
        blocks[static_cast<std::size_t>(t.src)] = t.blocks;
        dst[static_cast<std::size_t>(t.src)] = t.dst;
      }
      for (Rank node = 0; node < N; ++node) {
        const auto& s = program.step(phase, step, node);
        const auto at = static_cast<std::size_t>(node);
        EXPECT_EQ(static_cast<std::int64_t>(s.count), blocks[at])
            << "node " << node << " phase " << phase << " step " << step;
        if (s.count == 0) continue;
        EXPECT_EQ(s.partner, dst[at])
            << "node " << node << " phase " << phase << " step " << step;
        EXPECT_EQ(s.partner, algo.partner(node, phase, step)) << "node " << node;
      }
    }
  }
  EXPECT_EQ(flat, reference.steps.size());
}

std::vector<PortCase> port_cases() {
  std::vector<PortCase> cases;
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{
           {4, 4}, {8, 8}, {12, 8}, {8, 8, 4}, {8, 4, 4, 4}}) {
    for (const LayoutPolicy layout :
         {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
      cases.push_back({extents, layout});
    }
  }
  return cases;
}

std::string port_case_label(const PortCase& c) {
  return extents_label(c.extents) + (c.layout == LayoutPolicy::kPaper ? "_paper" : "_naive");
}

void PrintTo(const PortCase& c, std::ostream* os) { *os << port_case_label(c); }

std::string port_case_name(const ::testing::TestParamInfo<PortCase>& info) {
  return port_case_label(info.param);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RankLoopTest, ::testing::ValuesIn(port_cases()),
                         port_case_name);

}  // namespace
}  // namespace torex
