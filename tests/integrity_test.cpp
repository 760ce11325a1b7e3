// End-to-end data integrity: CRC-32 and wire primitives, corruption
// faults, the detect-and-retransmit protocol (the same run at one and
// at four StepPool participants), the checked communicator
// entry point with escalation into the recovery chain, and a miniature
// chaos differential sweep. The TOX4 frame codec itself is covered by
// wire_test.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "core/payload_exchange.hpp"
#include "runtime/communicator.hpp"
#include "sim/fault_model.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "util/step_pool.hpp"
#include "tagged.hpp"

namespace torex {
namespace {

// --- CRC-32 ------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // The IEEE 802.3 check value: CRC-32 of the ASCII digits "123456789".
  const char* digits = "123456789";
  EXPECT_EQ(crc32(digits, 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyInputIsZero) { EXPECT_EQ(crc32(nullptr, 0), 0x00000000u); }

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  Crc32 crc;
  crc.update(data.data(), 10);
  crc.update(data.data() + 10, data.size() - 10);
  EXPECT_EQ(crc.value(), crc32(data.data(), data.size()));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<std::byte> data(64);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i * 7);
  const std::uint32_t clean = crc32(data.data(), data.size());
  for (std::size_t bit = 0; bit < data.size() * 8; ++bit) {
    data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
    EXPECT_NE(crc32(data.data(), data.size()), clean) << "bit " << bit << " undetected";
    data[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
}

// --- Wire primitives ---------------------------------------------------

TEST(WireTest, RoundTrip) {
  std::vector<std::byte> wire;
  wire_put_u32(wire, 0xDEADBEEFu);
  wire_put_u64(wire, 0x0123456789ABCDEFull);
  std::size_t offset = 0;
  std::uint32_t a = 0;
  std::uint64_t b = 0;
  ASSERT_TRUE(wire_get_u32(wire, offset, a));
  ASSERT_TRUE(wire_get_u64(wire, offset, b));
  EXPECT_EQ(a, 0xDEADBEEFu);
  EXPECT_EQ(b, 0x0123456789ABCDEFull);
  EXPECT_EQ(offset, wire.size());
  // Reads past the end must fail without advancing.
  EXPECT_FALSE(wire_get_u32(wire, offset, a));
  EXPECT_EQ(offset, wire.size());
}

// --- Corruption model --------------------------------------------------

TEST(CorruptionModelTest, ActivationWindows) {
  const Torus torus(TorusShape({4, 4}));
  CorruptionModel model;
  model.corrupt_channel(0, Direction{0, Sign::kPositive}, CorruptionKind::kBitFlip, 5, 10);
  const ChannelId id = torus.channel_id(0, Direction{0, Sign::kPositive});
  EXPECT_FALSE(model.find(torus, id, 4).has_value());
  EXPECT_TRUE(model.find(torus, id, 5).has_value());
  EXPECT_TRUE(model.find(torus, id, 9).has_value());
  EXPECT_FALSE(model.find(torus, id, 10).has_value());
  EXPECT_FALSE(model.any_permanent());
  model.corrupt_channel(1, Direction{1, Sign::kNegative}, CorruptionKind::kTruncate);
  EXPECT_TRUE(model.any_permanent());
  EXPECT_EQ(model.size(), 2u);
}

TEST(CorruptionModelTest, SeededInjectionIsDeterministicAndDistinct) {
  const Torus torus(TorusShape({4, 4}));
  CorruptionModel a, b;
  a.inject_random_corruptions(torus, 42, 6);
  b.inject_random_corruptions(torus, 42, 6);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(torus.channel_id(a.specs()[i].channel.from, a.specs()[i].channel.direction),
              torus.channel_id(b.specs()[i].channel.from, b.specs()[i].channel.direction));
    EXPECT_EQ(a.specs()[i].kind, b.specs()[i].kind);
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      EXPECT_NE(torus.channel_id(a.specs()[i].channel.from, a.specs()[i].channel.direction),
                torus.channel_id(a.specs()[j].channel.from, a.specs()[j].channel.direction));
    }
  }
}

TEST(CorruptionModelTest, ApplyDamagesWire) {
  CorruptionSpec spec;
  spec.kind = CorruptionKind::kBitFlip;
  spec.seed = 7;
  TransferContext ctx;
  ctx.tick = 3;
  std::vector<std::byte> wire(32, std::byte{0});
  CorruptionModel::apply(spec, ctx, wire);
  int flipped = 0;
  for (std::byte b : wire) {
    flipped += (b != std::byte{0}) ? 1 : 0;
  }
  EXPECT_EQ(flipped, 1);

  spec.kind = CorruptionKind::kTruncate;
  std::vector<std::byte> wire2(32, std::byte{0});
  CorruptionModel::apply(spec, ctx, wire2);
  EXPECT_LT(wire2.size(), 32u);
  EXPECT_GE(wire2.size(), 16u);  // drops at most half
}

// --- Sealed exchange protocol ------------------------------------------

std::vector<std::vector<std::int64_t>> canonical_rows(Rank N) {
  std::vector<std::vector<std::int64_t>> rows(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    for (Rank q = 0; q < N; ++q) rows[static_cast<std::size_t>(p)].push_back(p * 10000 + q);
  }
  return rows;
}

void expect_delivered(Rank N, const std::vector<std::vector<std::int64_t>>& out) {
  ASSERT_EQ(out.size(), static_cast<std::size_t>(N));
  for (Rank q = 0; q < N; ++q) {
    ASSERT_EQ(out[static_cast<std::size_t>(q)].size(), static_cast<std::size_t>(N));
    for (Rank p = 0; p < N; ++p) {
      EXPECT_EQ(out[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)], p * 10000 + q);
    }
  }
}

/// The salt the Tagged runs of this suite seed with.
constexpr std::uint64_t kSalt = 0x1D7E6;

TEST(SealedExchangeTest, CleanWireMatchesUnsealed) {
  const SuhShinAape algo(TorusShape({4, 4}));
  const Rank N = 16;
  IntegrityReport report;
  const auto out =
      exchange_payloads_sealed(algo, StepProgram(algo), canonical_rows(N), {}, {}, &report);
  expect_delivered(N, out);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.retransmits, 0);
  EXPECT_GT(report.messages, 0);
  EXPECT_GT(report.parcels, 0);
  // One tick per step on a clean wire.
  EXPECT_EQ(report.final_tick, algo.total_steps());
}

TEST(SealedExchangeTest, TransientCorruptionHealsUnderRetransmit) {
  const SuhShinAape algo(TorusShape({4, 4}));
  const Rank N = 16;
  // Corrupt every transmission at tick 0 only: the first attempt of the
  // first step is damaged everywhere it crosses the wire; retransmits
  // at tick >= 1 go through.
  CorruptionModel model;
  const Torus& torus = algo.torus();
  for (Rank node = 0; node < N; ++node) {
    for (int dim = 0; dim < 2; ++dim) {
      for (Sign sign : {Sign::kPositive, Sign::kNegative}) {
        model.corrupt_channel(node, Direction{dim, sign}, CorruptionKind::kBitFlip, 0, 1,
                              static_cast<std::uint64_t>(node));
      }
    }
  }
  IntegrityReport report;
  const auto out = exchange_payloads_sealed(algo, StepProgram(algo), canonical_rows(N),
                                            model.tamperer(torus), {}, &report);
  expect_delivered(N, out);
  EXPECT_GT(report.corrupted, 0);
  EXPECT_GT(report.retransmits, 0);
  EXPECT_FALSE(report.fatal.has_value());
}

TEST(SealedExchangeTest, PermanentCorruptionExhaustsBudgetAndThrows) {
  const SuhShinAape algo(TorusShape({4, 4}));
  const Rank N = 16;
  CorruptionModel model;
  model.corrupt_channel(0, Direction{0, Sign::kPositive}, CorruptionKind::kTruncate);
  IntegrityOptions options;
  options.max_retransmits = 2;
  IntegrityReport report;
  try {
    exchange_payloads_sealed(algo, StepProgram(algo), canonical_rows(N),
                             model.tamperer(algo.torus()), options, &report);
    FAIL() << "permanent corruption must raise IntegrityError";
  } catch (const IntegrityError& e) {
    ASSERT_TRUE(e.report().fatal.has_value());
    EXPECT_EQ(e.report().fatal->attempt, 2);
    EXPECT_NE(std::string(e.what()).find("retransmit budget exhausted"), std::string::npos);
    // report_out must match the thrown report even on failure.
    ASSERT_TRUE(report.fatal.has_value());
    EXPECT_EQ(report.fatal->tick, e.report().fatal->tick);
    EXPECT_EQ(report.corrupted, e.report().corrupted);
  }
}

TEST(SealedExchangeTest, ViolationDescribeNamesTheStep) {
  IntegrityViolation v;
  v.phase = 2;
  v.step = 3;
  v.src = 4;
  v.dst = 8;
  v.tick = 11;
  v.attempt = 1;
  v.reason = "parcel seal mismatch";
  const std::string text = v.describe();
  EXPECT_NE(text.find("phase 2"), std::string::npos);
  EXPECT_NE(text.find("step 3"), std::string::npos);
  EXPECT_NE(text.find("4 -> 8"), std::string::npos);
  EXPECT_NE(text.find("parcel seal mismatch"), std::string::npos);
}

// --- The same run at any pool size ------------------------------------

/// What one sealed run of Tagged payloads produced: the delivered rows,
/// the report (through report_out, so also on throw) and the arena's
/// statistics.
struct SealedRun {
  std::vector<std::vector<testing::Tagged>> out;
  IntegrityReport report;
  WirePoolStats stats;
  bool threw = false;
};

SealedRun run_sealed_on(const SuhShinAape& algo, const StepProgram& program,
                        const ParcelTamperer& tamperer, int participants) {
  StepPool pool(participants);
  WireArena arena;
  IntegrityOptions options;
  options.arena = &arena;
  options.pool = &pool;
  SealedRun run;
  try {
    run.out = exchange_payloads_sealed(algo, program,
                                       testing::tagged_rows(algo.shape().num_nodes(), kSalt),
                                       tamperer, options, &run.report);
  } catch (const IntegrityError&) {
    run.threw = true;
  }
  run.stats = arena.stats();
  return run;
}

void expect_same_violation(const IntegrityViolation& a, const IntegrityViolation& b,
                           const std::string& what) {
  EXPECT_EQ(a.phase, b.phase) << what;
  EXPECT_EQ(a.step, b.step) << what;
  EXPECT_EQ(a.src, b.src) << what;
  EXPECT_EQ(a.dst, b.dst) << what;
  EXPECT_EQ(a.direction, b.direction) << what;
  EXPECT_EQ(a.hops, b.hops) << what;
  EXPECT_EQ(a.tick, b.tick) << what;
  EXPECT_EQ(a.attempt, b.attempt) << what;
  EXPECT_EQ(a.reason, b.reason) << what;
}

void expect_same_report(const IntegrityReport& a, const IntegrityReport& b,
                        const std::string& what) {
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.parcels, b.parcels) << what;
  EXPECT_EQ(a.corrupted, b.corrupted) << what;
  EXPECT_EQ(a.retransmits, b.retransmits) << what;
  EXPECT_EQ(a.final_tick, b.final_tick) << what;
  ASSERT_EQ(a.violations.size(), b.violations.size()) << what;
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    expect_same_violation(a.violations[i], b.violations[i],
                          what + ", violation " + std::to_string(i));
  }
  ASSERT_EQ(a.fatal.has_value(), b.fatal.has_value()) << what;
  if (a.fatal) expect_same_violation(*a.fatal, *b.fatal, what + ", fatal");
}

void expect_same_stats(const WirePoolStats& a, const WirePoolStats& b, const std::string& what) {
  EXPECT_EQ(a.acquires, b.acquires) << what;
  EXPECT_EQ(a.releases, b.releases) << what;
  EXPECT_EQ(a.pool_hits, b.pool_hits) << what;
  EXPECT_EQ(a.pool_misses, b.pool_misses) << what;
  EXPECT_EQ(a.undersized_hits, b.undersized_hits) << what;
  EXPECT_EQ(a.peak_in_use, b.peak_in_use) << what;
  EXPECT_EQ(a.messages, b.messages) << what;
  EXPECT_EQ(a.parcels, b.parcels) << what;
  EXPECT_EQ(a.bytes_encoded, b.bytes_encoded) << what;
  EXPECT_EQ(a.bytes_copied, b.bytes_copied) << what;
  EXPECT_EQ(a.total_sends, b.total_sends) << what;
  EXPECT_EQ(a.contiguous_sends, b.contiguous_sends) << what;
  EXPECT_EQ(a.gathered_parcels, b.gathered_parcels) << what;
  EXPECT_EQ(a.runs_encoded, b.runs_encoded) << what;
  EXPECT_EQ(a.max_runs_per_send, b.max_runs_per_send) << what;
  EXPECT_EQ(a.rearrangement_passes, b.rearrangement_passes) << what;
  EXPECT_EQ(a.parcels_rearranged, b.parcels_rearranged) << what;
}

TEST(SealedExchangeTest, SameRunAtOneAndFourParticipants) {
  // CorruptionModel's tamperer depends only on its TransferContext and
  // the frame bytes, so the kernel's pool size must not show anywhere:
  // not in the rows, not in the report (violations in the same
  // order, the same final tick), not in the wire statistics. Odd seeds
  // corrupt transiently (corrected by retransmission), even seeds
  // permanently (the budget runs out and the run throws).
  int corrected = 0;
  int thrown = 0;
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{{8, 8}, {8, 4, 4}}) {
    const SuhShinAape algo{TorusShape(extents)};
    const StepProgram program(algo);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull);
      const std::int64_t until =
          seed % 2 == 1 ? static_cast<std::int64_t>(1 + rng.next_below(3)) : kFaultForever;
      CorruptionModel corruption;
      corruption.inject_random_corruptions(algo.torus(), rng.next(), 2, 0, until);
      const ParcelTamperer tamperer = corruption.tamperer(algo.torus());
      const std::string what = algo.shape().to_string() + " seed " + std::to_string(seed);
      const SealedRun one = run_sealed_on(algo, program, tamperer, 1);
      const SealedRun four = run_sealed_on(algo, program, tamperer, 4);
      ASSERT_EQ(one.threw, four.threw) << what;
      expect_same_report(one.report, four.report, what);
      expect_same_stats(one.stats, four.stats, what);
      EXPECT_EQ(four.stats.outstanding_frames(), 0) << what;
      ASSERT_EQ(one.out, four.out) << what;
      if (one.threw) {
        ++thrown;
      } else {
        // Slot for slot: every payload names its origin and destination.
        EXPECT_EQ(testing::transpose_mismatch(algo.shape().num_nodes(), four.out, kSalt), "")
            << what;
        if (!one.report.clean()) ++corrected;
      }
    }
  }
  // Both repair outcomes must be covered.
  EXPECT_GT(corrected, 0);
  EXPECT_GT(thrown, 0);
}

// --- Sealed exchange preconditions --------------------------------------

TEST(PayloadPreconditionTest, SealedVariantChecksTheSamePreconditions) {
  // The sealed driver's rows carry no identity to forge: a row per node,
  // a payload per destination, checked before anything moves.
  const SuhShinAape algo(TorusShape({4, 4}));
  auto rows = canonical_rows(16);
  rows[5].pop_back();
  EXPECT_THROW(exchange_payloads_sealed(algo, StepProgram(algo), std::move(rows)),
               std::invalid_argument);
  rows = canonical_rows(16);
  rows.pop_back();
  EXPECT_THROW(exchange_payloads_sealed(algo, StepProgram(algo), std::move(rows)),
               std::invalid_argument);
}

// --- Checked communicator ----------------------------------------------

std::vector<std::vector<std::int64_t>> make_send(Rank n) {
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      send[static_cast<std::size_t>(p)].push_back(p * 10000 + q);
    }
  }
  return send;
}

void expect_aape_permutation(const std::vector<std::vector<std::int64_t>>& send,
                             const std::vector<std::vector<std::int64_t>>& recv) {
  ASSERT_EQ(recv.size(), send.size());
  for (std::size_t q = 0; q < send.size(); ++q) {
    ASSERT_EQ(recv[q].size(), send.size());
    for (std::size_t p = 0; p < send.size(); ++p) {
      EXPECT_EQ(recv[q][p], send[p][q]) << "recv[" << q << "][" << p << "]";
    }
  }
}

TEST(CheckedExchangeTest, CleanRunReportsClean) {
  const TorusCommunicator comm(TorusShape({4, 4}), CostParams{});
  const auto send = make_send(16);
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.alltoall_checked(send, FaultModel{}, CorruptionModel{}, outcome, options);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.integrity, IntegrityStatus::kClean);
  EXPECT_EQ(outcome.corrupted_messages, 0);
  EXPECT_EQ(outcome.escalations, 0);
  EXPECT_FALSE(outcome.integrity_failure.has_value());
}

TEST(CheckedExchangeTest, TransientCorruptionIsCorrected) {
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const auto send = make_send(16);
  CorruptionModel corruption;
  // Node 0 transmits along {1, +} in the first active step (quarter
  // exchange, tick 0). Active for that tick only: detected, then healed
  // by a retransmission one tick later.
  corruption.corrupt_channel(0, Direction{1, Sign::kPositive}, CorruptionKind::kBitFlip, 0, 1);
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.alltoall_checked(send, FaultModel{}, corruption, outcome, options);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.integrity, IntegrityStatus::kCorrected);
  EXPECT_GT(outcome.corrupted_messages, 0);
  EXPECT_GT(outcome.retransmits, 0);
  EXPECT_EQ(outcome.escalations, 0);
  EXPECT_NE(outcome.summary().find("integrity=corrected"), std::string::npos);
}

TEST(CheckedExchangeTest, PermanentCorruptionEscalatesIntoRecovery) {
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const auto send = make_send(16);
  CorruptionModel corruption;
  corruption.corrupt_channel(5, Direction{1, Sign::kPositive}, CorruptionKind::kTruncate);
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.alltoall_checked(send, FaultModel{}, corruption, outcome, options);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.integrity, IntegrityStatus::kEscalated);
  EXPECT_GE(outcome.escalations, 1);
  EXPECT_GT(outcome.corrupted_messages, 0);
  ASSERT_TRUE(outcome.integrity_failure.has_value());
  EXPECT_EQ(outcome.integrity_failure->src, 5);
  // The realized plan routed around the poisoned channel.
  EXPECT_TRUE(outcome.degraded || outcome.algorithm != AlltoallAlgorithm::kSuhShin);
  EXPECT_NE(outcome.summary().find("integrity=escalated"), std::string::npos);
}

TEST(CheckedExchangeTest, EscalationComposesWithChannelFaults) {
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const auto send = make_send(16);
  // A transient channel fault: retry/backoff waits it out and the
  // pristine schedule runs — straight into permanent corruption on node
  // 9's quarter-exchange channel, which must then escalate. Both
  // recovery mechanisms fire in one exchange.
  FaultModel faults;
  faults.fail_channel(3, Direction{0, Sign::kPositive}, 0, 2);
  CorruptionModel corruption;
  corruption.corrupt_channel(9, Direction{0, Sign::kNegative}, CorruptionKind::kBitFlip);
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.alltoall_checked(send, faults, corruption, outcome, options);
  expect_aape_permutation(send, recv);
  EXPECT_EQ(outcome.integrity, IntegrityStatus::kEscalated);
  EXPECT_GE(outcome.escalations, 1);
  EXPECT_GT(outcome.waited_ticks, 0);
}

TEST(CheckedExchangeTest, RecoveryDisabledTurnsEscalationIntoThrow) {
  const TorusCommunicator comm(TorusShape({4, 4}), CostParams{});
  const auto send = make_send(16);
  CorruptionModel corruption;
  corruption.corrupt_channel(0, Direction{0, Sign::kPositive}, CorruptionKind::kTruncate);
  ExchangeOutcome outcome;
  ResilienceOptions options;
  options.algorithm = AlltoallAlgorithm::kSuhShin;
  options.policy = RecoveryPolicy::kNone;
  EXPECT_THROW(comm.alltoall_checked(send, FaultModel{}, corruption, outcome, options),
               FaultedExchangeError);
}

// --- Miniature chaos sweep ---------------------------------------------

TEST(ChaosTest, NoSilentCorruptionAcrossSeeds) {
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const Torus torus(shape);
  const auto send = make_send(16);
  int escalated = 0, corrected = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull);
    CorruptionModel corruption;
    const std::int64_t until =
        (rng.next() & 1u) != 0 ? static_cast<std::int64_t>(1 + rng.next_below(3)) : kFaultForever;
    corruption.inject_random_corruptions(torus, rng.next(), 1 + static_cast<int>(seed % 2), 0,
                                         until);
    FaultModel faults;
    if (seed % 3 == 0) faults.inject_random_channel_faults(torus, rng.next(), 1);
    ExchangeOutcome outcome;
    ResilienceOptions options;
    options.algorithm = AlltoallAlgorithm::kSuhShin;
    std::vector<std::vector<std::int64_t>> recv;
    try {
      recv = comm.alltoall_checked(send, faults, corruption, outcome, options);
    } catch (const std::exception&) {
      continue;  // loud, attributed refusal — not silent corruption
    }
    expect_aape_permutation(send, recv);
    if (outcome.integrity == IntegrityStatus::kEscalated) ++escalated;
    if (outcome.integrity == IntegrityStatus::kCorrected) ++corrected;
  }
  // The sweep must actually exercise both repair paths.
  EXPECT_GT(escalated + corrected, 0);
}

}  // namespace
}  // namespace torex
