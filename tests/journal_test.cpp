// Crash durability: the write-ahead exchange journal, delta resume, and
// the heartbeat failure detector. The invariants under test are the
// exactly-once guarantees — a resumed exchange delivers the same
// permutation as an uninterrupted one with zero lost and zero duplicated
// parcels, re-sending strictly less than a full restart whenever any
// step committed — and the wire format's damage semantics: a torn final
// record loads (and is dropped), any earlier damage refuses to.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aape.hpp"
#include "core/payload_exchange.hpp"
#include "obs/recorder.hpp"
#include "runtime/communicator.hpp"
#include "runtime/failure_detector.hpp"
#include "runtime/journal.hpp"
#include "runtime/recovery.hpp"
#include "sim/fault_model.hpp"
#include "tagged.hpp"
#include "topology/torus.hpp"
#include "util/crc32.hpp"
#include "util/step_pool.hpp"

namespace torex {
namespace {

std::vector<std::vector<std::int64_t>> make_send(Rank n) {
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    auto& row = send[static_cast<std::size_t>(p)];
    for (Rank q = 0; q < n; ++q) row.push_back(static_cast<std::int64_t>(p) * n + q);
  }
  return send;
}

// The all-to-all oracle: recv[p][q] == send[q][p].
void expect_transposed(const std::vector<std::vector<std::int64_t>>& recv, Rank n) {
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      ASSERT_EQ(recv[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)],
                static_cast<std::int64_t>(q) * n + p)
          << "parcel " << q << " -> " << p << " lost or mangled";
    }
  }
}

// Every active (1-based) (phase, step) pair of a schedule, in order.
std::vector<std::pair<int, int>> active_steps(const SuhShinAape& algo) {
  std::vector<std::pair<int, int>> out;
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) out.emplace_back(phase, step);
  }
  return out;
}

/// The 4x4 schedule's program: 4 phases, 4 steps, each step with
/// arrivals.
const StepProgram& program_4x4() {
  static const StepProgram program(SuhShinAape(TorusShape({4, 4})));
  return program;
}

/// Bytes of a 2-D journal's header: magic, version, dimension count, two
/// extents, phases, steps, the 8-byte fingerprint and the header CRC.
constexpr std::size_t kHeader2d = (3 + 2 + 2 + 1) * 4 + 8;

/// Appends one sealed record (kind, length 4, `value`, CRC) to `bytes`.
void append_sealed_record(std::vector<std::byte>& bytes, std::uint32_t kind,
                          std::uint32_t value) {
  const std::size_t begin = bytes.size();
  wire_put_u32(bytes, kind);
  wire_put_u32(bytes, 4);
  wire_put_u32(bytes, value);
  Crc32 crc;
  crc.update(bytes.data() + begin, bytes.size() - begin);
  wire_put_u32(bytes, crc.value());
}

// --- Journal write path ------------------------------------------------

TEST(JournalTest, FreshJournalCarriesItsProgram) {
  const StepProgram& program = program_4x4();
  const ExchangeJournal journal(program);
  EXPECT_TRUE(journal.bound());
  EXPECT_TRUE(journal.fresh());
  EXPECT_EQ(journal.extents(), (std::vector<std::int32_t>{4, 4}));
  EXPECT_EQ(journal.num_phases(), 4);
  EXPECT_EQ(journal.total_steps(), 4);
  EXPECT_EQ(journal.fingerprint(), program.fingerprint());
  EXPECT_EQ(journal.committed_steps(), 0);
  EXPECT_EQ(journal.delivered_steps(), 0);
  EXPECT_FALSE(journal.exchange_complete());
  EXPECT_EQ(journal.encode().size(), kHeader2d);
}

TEST(JournalTest, UnboundJournalRefusesMutation) {
  ExchangeJournal journal;
  EXPECT_FALSE(journal.bound());
  EXPECT_FALSE(journal.exchange_complete());
  EXPECT_THROW(journal.deliver_step(0), std::invalid_argument);
  EXPECT_THROW(journal.commit_step(0), std::invalid_argument);
  EXPECT_THROW(journal.commit_phase(1), std::invalid_argument);
}

TEST(JournalTest, WriterInvariantsAreEnforced) {
  ExchangeJournal journal(program_4x4());
  const std::vector<std::byte> header = journal.encode();
  EXPECT_THROW(journal.deliver_step(-1), std::invalid_argument);
  EXPECT_THROW(journal.deliver_step(1), std::invalid_argument);  // not the next step
  EXPECT_THROW(journal.deliver_step(4), std::invalid_argument);  // past the schedule
  EXPECT_EQ(journal.encode(), header);  // a refused record leaves no bytes
  journal.deliver_step(0);
  EXPECT_EQ(journal.delivered_steps(), 1);
  EXPECT_THROW(journal.deliver_step(0), std::logic_error);  // exactly-once
  EXPECT_THROW(journal.commit_step(1), std::invalid_argument);  // out of order
  journal.commit_step(0);
  EXPECT_EQ(journal.committed_steps(), 1);
  EXPECT_EQ(journal.delivered_steps(), 1);
  EXPECT_THROW(journal.deliver_step(0), std::invalid_argument);  // committed already
  journal.commit_step(1);  // a step without arrivals commits without a record
  EXPECT_EQ(journal.delivered_steps(), 2);
  EXPECT_THROW(journal.commit_phase(2), std::invalid_argument);  // skips phase 1
  journal.commit_phase(1);
  EXPECT_EQ(journal.committed_phase(), 1);
  EXPECT_EQ(journal.records(), 4);
  EXPECT_EQ(journal.encode().size(), kHeader2d + 4 * 16);
}

TEST(JournalTest, DeliveredStepIsTheFlushedSuffix) {
  ExchangeJournal journal(program_4x4());
  journal.deliver_step(0);
  journal.commit_step(0);
  journal.deliver_step(1);
  EXPECT_EQ(journal.committed_steps(), 1);
  EXPECT_EQ(journal.delivered_steps(), 2);
  const ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
  EXPECT_EQ(loaded.committed_steps(), 1);
  EXPECT_EQ(loaded.delivered_steps(), 2);
  EXPECT_NE(loaded.summary().find("step 1 delivered but not committed"), std::string::npos)
      << loaded.summary();
}

/// Parcels that reach their destinations in (phase, step), counted from
/// the program's per-node arrival lists.
std::int64_t step_arrivals(const StepProgram& program, int phase, int step) {
  std::int64_t count = 0;
  for (Rank node = 0; node < program.num_nodes(); ++node) {
    program.for_each_arrival(phase, step, node, [&](std::uint32_t, Rank) { ++count; });
  }
  return count;
}

TEST(JournalTest, DeliveredStepsAreReadBackFromTheStream) {
  // A kill after a step's flush leaves that step delivered but not
  // committed, exactly when the step has arrivals; a resume then starts
  // from the self parcels plus every arrival of the delivered steps.
  // Each case has its expectation from an oracle that does not read the
  // stream: the program's per-node arrival lists.
  const TorusShape shape({8, 8});
  const SuhShinAape algo(shape);
  const StepProgram program(algo);
  const Rank n = shape.num_nodes();
  std::int64_t durable = n;  // the self parcels, then every committed step's arrivals
  std::int64_t flat = 0;
  std::int64_t previous_arrivals = 0;
  for (const auto& [phase, step] : active_steps(algo)) {
    const std::int64_t arrivals = step_arrivals(program, phase, step);
    EXPECT_EQ(static_cast<std::int64_t>(program.totals(phase, step).arrivals), arrivals)
        << phase << "/" << step;
    // Killed after its flush: the killed step is delivered when it has
    // arrivals, and the same holds once the bytes are decoded.
    ExchangeJournal killed;
    JournalRunOptions crash;
    crash.crash = CrashPoint{phase, step, true};
    ResumeReport report;
    EXPECT_THROW(
        exchange_payloads_journaled(algo, program, make_send(n), killed, crash, report),
        ExchangeCrashError);
    const std::int64_t delivered = flat + (arrivals > 0 ? 1 : 0);
    ASSERT_EQ(killed.committed_steps(), flat);
    EXPECT_EQ(killed.delivered_steps(), delivered) << phase << "/" << step;
    ExchangeJournal loaded = ExchangeJournal::decode(killed.encode());
    EXPECT_EQ(loaded.delivered_steps(), delivered) << phase << "/" << step;
    expect_transposed(
        exchange_payloads_journaled(algo, program, make_send(n), loaded, JournalRunOptions{},
                                    report),
        n);
    EXPECT_EQ(report.delivered_at_start, durable + arrivals) << phase << "/" << step;
    EXPECT_EQ(report.materialized, arrivals) << phase << "/" << step;
    EXPECT_EQ(report.duplicates_dropped, arrivals) << phase << "/" << step;

    // Killed before its flush, with the previous step's commit marker
    // torn: decode drops the marker, and the previous step is delivered
    // but not committed again.
    if (step >= 2) {
      ExchangeJournal unflushed;
      crash.crash = CrashPoint{phase, step, false};
      EXPECT_THROW(
          exchange_payloads_journaled(algo, program, make_send(n), unflushed, crash, report),
          ExchangeCrashError);
      std::vector<std::byte> torn = unflushed.encode();
      torn.resize(torn.size() - 2);
      const ExchangeJournal cut = ExchangeJournal::decode(torn);
      EXPECT_TRUE(cut.torn_tail());
      EXPECT_EQ(cut.committed_steps(), flat - 1);
      EXPECT_EQ(cut.delivered_steps(), flat - (previous_arrivals > 0 ? 0 : 1))
          << phase << "/" << step;
    }
    durable += arrivals;
    previous_arrivals = arrivals;
    ++flat;
  }
  EXPECT_EQ(durable, static_cast<std::int64_t>(n) * n);
}

// --- Wire format -------------------------------------------------------

TEST(JournalWireTest, RoundTripPreservesEverything) {
  ExchangeJournal journal(program_4x4());
  journal.deliver_step(0);
  journal.commit_step(0);
  journal.commit_phase(1);
  journal.commit_phase(2);

  const ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
  EXPECT_EQ(loaded.extents(), journal.extents());
  EXPECT_EQ(loaded.num_phases(), 4);
  EXPECT_EQ(loaded.total_steps(), 4);
  EXPECT_EQ(loaded.fingerprint(), program_4x4().fingerprint());
  EXPECT_EQ(loaded.records(), journal.records());
  EXPECT_EQ(loaded.committed_steps(), 1);
  EXPECT_EQ(loaded.delivered_steps(), 1);
  EXPECT_EQ(loaded.committed_phase(), 2);
  EXPECT_FALSE(loaded.torn_tail());
  EXPECT_EQ(loaded.encode(), journal.encode());  // byte-identical re-encode
}

TEST(JournalWireTest, TornFinalRecordIsDroppedNotFatal) {
  ExchangeJournal journal(program_4x4());
  journal.deliver_step(0);
  journal.commit_step(0);
  journal.deliver_step(1);  // this record will be torn

  for (std::size_t cut = 1; cut <= 7; ++cut) {
    std::vector<std::byte> bytes = journal.encode();
    bytes.resize(bytes.size() - cut);
    const ExchangeJournal loaded = ExchangeJournal::decode(bytes);
    EXPECT_TRUE(loaded.torn_tail());
    EXPECT_EQ(loaded.committed_steps(), 1);
    EXPECT_EQ(loaded.delivered_steps(), 1) << "torn record must not count";
  }
}

TEST(JournalWireTest, MidStreamDamageIsFatal) {
  ExchangeJournal journal(program_4x4());
  journal.deliver_step(0);
  journal.commit_step(0);
  journal.deliver_step(1);

  // Flip one byte inside the *first* record's payload: damage with
  // intact records after it cannot be a torn tail.
  std::vector<std::byte> bytes = journal.encode();
  bytes[kHeader2d + 9] ^= std::byte{0x40};
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);
}

TEST(JournalWireTest, HeaderDamageIsFatal) {
  const ExchangeJournal journal(program_4x4());
  std::vector<std::byte> bytes = journal.encode();
  bytes[0] ^= std::byte{0x01};  // magic
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);

  bytes = journal.encode();
  bytes[4] ^= std::byte{0x02};  // version
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);

  bytes = journal.encode();
  bytes[kHeader2d - 5] ^= std::byte{0x10};  // the fingerprint
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);

  bytes = journal.encode();
  bytes[bytes.size() - 1] ^= std::byte{0x04};  // header CRC itself
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);
}

TEST(JournalWireTest, VersionOneBytesAreRefusedByName) {
  // A version-1 stream (pairs, no fingerprint), built by hand: its
  // header is intact, and decode names the version it refuses.
  std::vector<std::byte> bytes;
  for (const std::uint32_t word : {ExchangeJournal::kMagic, 1u, 2u, 4u, 4u, 4u, 4u}) {
    wire_put_u32(bytes, word);
  }
  Crc32 crc;
  crc.update(bytes.data(), bytes.size());
  wire_put_u32(bytes, crc.value());
  try {
    ExchangeJournal::decode(bytes);
    ADD_FAILURE() << "version-1 bytes must not decode";
  } catch (const JournalError& error) {
    EXPECT_NE(std::string(error.what()).find("unsupported version 1"), std::string::npos)
        << error.what();
  }
}

TEST(JournalWireTest, ForgedDuplicateDeliveryIsRejected) {
  // Two records delivering the same step cannot both be real; decode
  // must refuse rather than double-count.
  ExchangeJournal honest(program_4x4());
  honest.deliver_step(0);
  std::vector<std::byte> bytes = honest.encode();
  // Append a byte-identical copy of the first record.
  const std::vector<std::byte> record(bytes.begin() + static_cast<std::ptrdiff_t>(kHeader2d),
                                      bytes.end());
  bytes.insert(bytes.end(), record.begin(), record.end());
  try {
    ExchangeJournal::decode(bytes);
    ADD_FAILURE() << "a second deliveries record for one step must not decode";
  } catch (const JournalError& error) {
    EXPECT_NE(std::string(error.what()).find("second deliveries record for step 0"),
              std::string::npos)
        << error.what();
  }
}

TEST(JournalWireTest, DeliveriesForAnyStepButTheNextAreRefused) {
  // A deliveries record names the step after the last commit. Forged
  // records with valid CRCs for a later step, for a committed step, or
  // past the schedule are refused, wherever they sit in the stream.
  ExchangeJournal journal(program_4x4());
  journal.deliver_step(0);
  journal.commit_step(0);
  for (const std::uint32_t forged : {0u, 2u, 3u, 4u}) {
    std::vector<std::byte> bytes = journal.encode();
    append_sealed_record(bytes, ExchangeJournal::kDeliveries, forged);
    EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError) << "step " << forged;
    append_sealed_record(bytes, ExchangeJournal::kStepCommit, 1);
    EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError) << "step " << forged;
  }
  // The next step decodes.
  std::vector<std::byte> bytes = journal.encode();
  append_sealed_record(bytes, ExchangeJournal::kDeliveries, 1);
  EXPECT_EQ(ExchangeJournal::decode(bytes).delivered_steps(), 2);
}

TEST(JournalWireTest, FileRoundTrip) {
  ExchangeJournal journal(program_4x4());
  journal.deliver_step(0);
  journal.commit_step(0);

  const std::string path = ::testing::TempDir() + "journal_roundtrip.toxj";
  journal.save_file(path);
  const ExchangeJournal loaded = ExchangeJournal::load_file(path);
  EXPECT_EQ(loaded.encode(), journal.encode());
  std::remove(path.c_str());
}

TEST(JournalFileSinkTest, IncrementalSyncMatchesFullSave) {
  // The sink appends only the bytes recorded since its last sync (the
  // journal's encoding is append-only), so a long run pays O(new
  // records) per flush instead of rewriting the whole file — and the
  // final file must still be byte-identical to a full save.
  ExchangeJournal journal(program_4x4());
  const std::string path = ::testing::TempDir() + "journal_sink.toxj";
  JournalFileSink sink(path);
  sink.sync(journal);  // first sync rewrites (header only)
  journal.deliver_step(0);
  journal.commit_step(0);
  sink.sync(journal);  // appends the new records
  journal.deliver_step(1);
  journal.commit_step(1);
  sink.sync(journal);
  sink.sync(journal);  // no new bytes: a no-op
  EXPECT_EQ(sink.rewrites(), 1);
  EXPECT_EQ(sink.appends(), 2);
  EXPECT_EQ(sink.bytes_written(), static_cast<std::int64_t>(journal.encode().size()));
  const ExchangeJournal loaded = ExchangeJournal::load_file(path);
  EXPECT_EQ(loaded.encode(), journal.encode());
  std::remove(path.c_str());
}

TEST(JournalFileSinkTest, ShorterJournalForcesRewrite) {
  // A sink re-pointed at a fresh (shorter) journal — the restart case —
  // must rewrite from scratch, never append onto stale bytes.
  const std::string path = ::testing::TempDir() + "journal_sink_rewrite.toxj";
  JournalFileSink sink(path);
  ExchangeJournal big(program_4x4());
  big.deliver_step(0);
  big.commit_step(0);
  sink.sync(big);
  const ExchangeJournal fresh(program_4x4());
  sink.sync(fresh);
  EXPECT_EQ(sink.rewrites(), 2);
  const ExchangeJournal loaded = ExchangeJournal::load_file(path);
  EXPECT_EQ(loaded.encode(), fresh.encode());
  std::remove(path.c_str());
}

// --- Crash and resume, scheduled path ----------------------------------

TEST(ResumeTest, KillAtEveryStepThenResumeIsExactlyOnce) {
  // The heart of the PR: die at every active step of the 4x4 schedule
  // (before and after the flush), resume from the journal, and demand
  // the exact permutation plus strictly fewer parcels re-sent than a
  // full restart whenever at least one step had committed.
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const SuhShinAape algo(shape);
  const Rank n = shape.num_nodes();
  const auto send = make_send(n);

  std::int64_t full_sent = 0;
  {
    ExchangeJournal journal;
    ExchangeOutcome outcome;
    const auto recv = comm.alltoall_resumable(send, FaultModel{}, journal, outcome);
    expect_transposed(recv, n);
    ASSERT_TRUE(outcome.resume.has_value());
    full_sent = outcome.resume->sent_parcels;
    EXPECT_TRUE(journal.exchange_complete());
  }

  for (const auto& [phase, step] : active_steps(algo)) {
    for (const bool after_flush : {false, true}) {
      ExchangeJournal journal;
      ExchangeOutcome outcome;
      ResumeOptions options;
      options.crash = CrashPoint{phase, step, after_flush};
      EXPECT_THROW(comm.alltoall_resumable(send, FaultModel{}, journal, outcome, options),
                   ExchangeCrashError)
          << "crash point (" << phase << ", " << step << ") never fired";

      // Durability round-trip, as a real restart would see it.
      ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
      const std::int64_t committed = loaded.committed_steps();

      ExchangeOutcome resumed;
      const auto recv = comm.alltoall_resumable(send, FaultModel{}, loaded, resumed);
      expect_transposed(recv, n);
      ASSERT_TRUE(resumed.resume.has_value());
      const ResumeReport& report = *resumed.resume;
      EXPECT_TRUE(loaded.exchange_complete());
      if (committed > 0) {
        EXPECT_LT(report.sent_parcels, full_sent)
            << "resume after (" << phase << ", " << step << ") must beat a full restart";
        EXPECT_TRUE(report.resumed);
      } else {
        EXPECT_EQ(report.sent_parcels, full_sent);
      }
      if (after_flush && committed < algo.total_steps()) {
        // The killed step flushed its deliveries but never committed:
        // those parcels are materialized and their seed copies arrive
        // again as counted, dropped duplicates.
        EXPECT_GT(report.materialized, 0);
        EXPECT_EQ(report.duplicates_dropped, report.materialized);
      }
    }
  }
}

TEST(ResumeTest, StringPayloadsKilledAtEveryStepResumeExactlyOnce) {
  // Payloads that are not trivially copyable never cross the framed
  // wire: every step moves them locally, live or replayed. Die at every
  // active step of the 8x8 schedule (before and after the flush) and
  // resume: the transpose must arrive, and every materialized delivery
  // must meet exactly one dropped duplicate.
  const TorusShape shape({8, 8});
  const TorusCommunicator comm(shape, CostParams{});
  const SuhShinAape algo(shape);
  const Rank n = shape.num_nodes();
  const auto payload = [](Rank from, Rank to) {
    return "parcel " + std::to_string(from) + " -> " + std::to_string(to) +
           ", longer than any small-string buffer";
  };
  std::vector<std::vector<std::string>> send(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) send[static_cast<std::size_t>(p)].push_back(payload(p, q));
  }
  ResumeOptions scheduled;
  scheduled.resilience.algorithm = AlltoallAlgorithm::kSuhShin;

  std::int64_t materialized = 0;
  for (const auto& [phase, step] : active_steps(algo)) {
    for (const bool after_flush : {false, true}) {
      ExchangeJournal journal;
      ExchangeOutcome outcome;
      ResumeOptions options = scheduled;
      options.crash = CrashPoint{phase, step, after_flush};
      EXPECT_THROW(comm.alltoall_resumable(send, FaultModel{}, journal, outcome, options),
                   ExchangeCrashError)
          << "crash point (" << phase << ", " << step << ") never fired";

      ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
      ExchangeOutcome resumed;
      const auto recv = comm.alltoall_resumable(send, FaultModel{}, loaded, resumed, scheduled);
      for (Rank p = 0; p < n; ++p) {
        for (Rank q = 0; q < n; ++q) {
          ASSERT_EQ(recv[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)], payload(q, p))
              << "after a kill at (" << phase << ", " << step << ")";
        }
      }
      EXPECT_TRUE(loaded.exchange_complete());
      ASSERT_TRUE(resumed.resume.has_value());
      EXPECT_EQ(resumed.resume->duplicates_dropped, resumed.resume->materialized);
      materialized += resumed.resume->materialized;
    }
  }
  EXPECT_GT(materialized, 0);
  EXPECT_EQ(comm.wire_stats().messages, 0);  // the local transport only

  // The same sweep straight through the journaled driver on a
  // four-participant pool: the local transport's moves then run on
  // worker threads.
  const StepProgram program(algo);
  StepPool pool(4);
  WireArena arena;
  JournalRunOptions pooled;
  pooled.pool = &pool;
  pooled.wire = &arena;
  const auto seed = [&] { return send; };
  std::int64_t pooled_materialized = 0;
  for (const auto& [phase, step] : active_steps(algo)) {
    for (const bool after_flush : {false, true}) {
      ExchangeJournal journal;
      ResumeReport report;
      JournalRunOptions options = pooled;
      options.crash = CrashPoint{phase, step, after_flush};
      EXPECT_THROW(exchange_payloads_journaled(algo, program, seed(), journal, options, report),
                   ExchangeCrashError);
      ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
      const auto out = exchange_payloads_journaled(algo, program, seed(), loaded, pooled, report);
      for (Rank p = 0; p < n; ++p) {
        for (Rank q = 0; q < n; ++q) {
          ASSERT_EQ(out[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)], payload(q, p))
              << "after a kill at (" << phase << ", " << step << ") on the pool";
        }
      }
      EXPECT_TRUE(loaded.exchange_complete());
      EXPECT_EQ(report.duplicates_dropped, report.materialized);
      pooled_materialized += report.materialized;
    }
  }
  EXPECT_EQ(pooled_materialized, materialized);
  EXPECT_EQ(arena.stats().messages, 0);
}

/// The salt the Tagged runs of this suite seed with.
constexpr std::uint64_t kSalt = 0x70A5;

/// One journaled exchange of Tagged rows on `participants`: killed at
/// `crash` (when armed), then resumed from the decoded bytes.
struct JournaledRun {
  std::vector<std::byte> killed_bytes;  ///< the journal as the kill left it
  std::vector<std::byte> final_bytes;
  ResumeReport report;
  std::vector<std::vector<testing::Tagged>> out;
};

JournaledRun run_journaled_on(const SuhShinAape& algo, const StepProgram& program,
                              const CrashPoint& crash, int participants) {
  const Rank n = algo.shape().num_nodes();
  const auto seed = [&] { return testing::tagged_rows(n, kSalt); };
  StepPool pool(participants);
  JournalRunOptions options;
  options.pool = &pool;
  ExchangeJournal journal;
  JournaledRun run;
  if (crash.armed()) {
    JournalRunOptions killed = options;
    killed.crash = crash;
    EXPECT_THROW(
        exchange_payloads_journaled(algo, program, seed(), journal, killed, run.report),
        ExchangeCrashError);
    run.killed_bytes = journal.encode();
    journal = ExchangeJournal::decode(run.killed_bytes);
  }
  run.out = exchange_payloads_journaled(algo, program, seed(), journal, options, run.report);
  run.final_bytes = journal.encode();
  return run;
}

TEST(ResumeTest, StringPayloadsSurviveMultiRunSends) {
  // On 8x4x4 some sends take two runs, and closing their gaps moves the
  // slots after the last run as well: none may come back empty, from a
  // fresh run or from one killed at phase 2 step 1 and resumed.
  const TorusShape shape({8, 4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const Rank n = shape.num_nodes();
  const auto payload = [](Rank from, Rank to) {
    return "parcel " + std::to_string(from) + " -> " + std::to_string(to) +
           ", longer than any small-string buffer";
  };
  std::vector<std::vector<std::string>> send(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) send[static_cast<std::size_t>(p)].push_back(payload(p, q));
  }
  const auto wrong_payloads = [&](const std::vector<std::vector<std::string>>& recv) {
    std::int64_t wrong = 0;
    for (Rank q = 0; q < n; ++q) {
      for (Rank p = 0; p < n; ++p) {
        wrong += recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)] != payload(p, q);
      }
    }
    return wrong;
  };
  ResumeOptions scheduled;
  scheduled.resilience.algorithm = AlltoallAlgorithm::kSuhShin;
  ExchangeJournal fresh;
  ExchangeOutcome outcome;
  EXPECT_EQ(wrong_payloads(comm.alltoall_resumable(send, FaultModel{}, fresh, outcome, scheduled)),
            0);

  ExchangeJournal killed;
  ResumeOptions options = scheduled;
  options.crash = CrashPoint{2, 1, true};
  EXPECT_THROW(comm.alltoall_resumable(send, FaultModel{}, killed, outcome, options),
               ExchangeCrashError);
  ExchangeJournal loaded = ExchangeJournal::decode(killed.encode());
  EXPECT_EQ(wrong_payloads(comm.alltoall_resumable(send, FaultModel{}, loaded, outcome, scheduled)),
            0);
  EXPECT_TRUE(loaded.exchange_complete());
}

/// Expects two resume reports to agree field for field.
void expect_same_report(const ResumeReport& a, const ResumeReport& b, const std::string& what) {
  EXPECT_EQ(a.resumed, b.resumed) << what;
  EXPECT_EQ(a.committed_steps_at_start, b.committed_steps_at_start) << what;
  EXPECT_EQ(a.committed_phase_at_start, b.committed_phase_at_start) << what;
  EXPECT_EQ(a.delivered_at_start, b.delivered_at_start) << what;
  EXPECT_EQ(a.materialized, b.materialized) << what;
  EXPECT_EQ(a.replayed_parcels, b.replayed_parcels) << what;
  EXPECT_EQ(a.sent_parcels, b.sent_parcels) << what;
  EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped) << what;
  EXPECT_EQ(a.journal_flushes, b.journal_flushes) << what;
}

TEST(ResumeTest, JournalBytesAreIdenticalAtOneAndFourParticipants) {
  // The journal is written by hooks on the calling thread in node
  // order, so the kernel's pool size must not show in a single byte:
  // not on a fresh run, not where a kill cut it, not after the resume
  // (with its materialized parcels and dropped duplicates).
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{{8, 8}, {8, 4, 4}}) {
    const SuhShinAape algo{TorusShape(extents)};
    const StepProgram program(algo);
    std::vector<CrashPoint> crashes{CrashPoint{}};
    for (const auto& [phase, step] : active_steps(algo)) {
      crashes.push_back(CrashPoint{phase, step, true});
    }
    crashes.push_back(CrashPoint{algo.num_phases(), 1, false});
    for (const CrashPoint& crash : crashes) {
      const std::string what = algo.shape().to_string() + " kill at (" +
                               std::to_string(crash.phase) + ", " + std::to_string(crash.step) +
                               ")";
      const JournaledRun one = run_journaled_on(algo, program, crash, 1);
      const JournaledRun four = run_journaled_on(algo, program, crash, 4);
      EXPECT_EQ(one.killed_bytes, four.killed_bytes) << what;
      EXPECT_EQ(one.final_bytes, four.final_bytes) << what;
      expect_same_report(one.report, four.report, what);
      // Slot for slot, materialized copies included.
      EXPECT_EQ(testing::transpose_mismatch(algo.shape().num_nodes(), one.out, kSalt), "")
          << what;
      EXPECT_EQ(one.out, four.out) << what;
    }
  }
}

/// Length and 64-bit FNV-1a of a journal's bytes. Not a CRC-32: the
/// header and every record end in the CRC-32 of their own bytes, and a
/// CRC-32 over such sealed pieces depends only on their lengths, so it
/// would pin no header field and no record value.
std::pair<std::size_t, std::uint64_t> digest(const std::vector<std::byte>& bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const std::byte b : bytes) {
    hash = (hash ^ std::to_integer<std::uint64_t>(b)) * 0x100000001B3ull;
  }
  return {bytes.size(), hash};
}

TEST(ResumeTest, JournalBytesMatchTheGoldenRecords) {
  // The journal's bytes, pinned: these lengths and digests were
  // recorded from the version-2 journal, whose deliveries records name
  // their step and nothing else, so a change that moves, adds or drops a
  // record or changes a header field (the program's fingerprint
  // included) fails here: fresh runs on five shapes, none over 1 KB, and
  // a kill at (phase 2, step 1) then a resume on 8x4x4, at 1 and 4
  // participants.
  using Golden = std::pair<std::size_t, std::uint64_t>;
  const std::vector<std::pair<std::vector<std::int32_t>, Golden>> fresh{
      {{4, 4}, {232, 0x0FA6E8F62E57D16Dull}},
      {{8, 8}, {296, 0xFC23551F25D9D6A9ull}},
      {{8, 4, 4}, {412, 0x0245D00C4CC5C1F6ull}},
      {{16, 16}, {424, 0x2B6CAF97F1D87AE8ull}},
      {{8, 8, 8}, {412, 0xE31246AB54083B22ull}},
  };
  for (const int participants : {1, 4}) {
    for (const auto& [extents, golden] : fresh) {
      const SuhShinAape algo{TorusShape(extents)};
      const JournaledRun run =
          run_journaled_on(algo, StepProgram(algo), CrashPoint{}, participants);
      EXPECT_EQ(digest(run.final_bytes), golden)
          << algo.shape().to_string() << " at " << participants << " participants";
    }
    const SuhShinAape algo{TorusShape({8, 4, 4})};
    const JournaledRun run =
        run_journaled_on(algo, StepProgram(algo), CrashPoint{2, 1, true}, participants);
    EXPECT_EQ(digest(run.killed_bytes), (Golden{108, 0xE15C1CBFCFC55622ull})) << participants;
    EXPECT_EQ(digest(run.final_bytes), (Golden{412, 0x0245D00C4CC5C1F6ull})) << participants;
    EXPECT_EQ(run.report.materialized, 64) << participants;
    EXPECT_EQ(run.report.duplicates_dropped, 64) << participants;
    EXPECT_EQ(run.report.sent_parcels, 55296) << participants;
    EXPECT_EQ(run.report.replayed_parcels, 2048) << participants;
    EXPECT_EQ(run.report.journal_flushes, 19) << participants;
  }
}

TEST(ResumeTest, ResumingACompleteJournalSendsNothing) {
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const Rank n = shape.num_nodes();
  const auto send = make_send(n);

  ExchangeJournal journal;
  ExchangeOutcome outcome;
  expect_transposed(comm.alltoall_resumable(send, FaultModel{}, journal, outcome), n);

  ExchangeOutcome again;
  const auto recv = comm.resume(send, FaultModel{}, journal, again);
  expect_transposed(recv, n);
  ASSERT_TRUE(again.resume.has_value());
  EXPECT_EQ(again.resume->sent_parcels, 0);
  EXPECT_EQ(again.resume->replayed_parcels, 0);
  EXPECT_EQ(again.resume->journal_flushes, 0);
}

TEST(ResumeTest, ResumeRefusesFreshJournalsAndForeignShapes) {
  const TorusCommunicator comm(TorusShape({4, 4}), CostParams{});
  const auto send = make_send(16);
  ExchangeOutcome outcome;

  ExchangeJournal unbound;
  EXPECT_THROW(comm.resume(send, FaultModel{}, unbound, outcome), std::invalid_argument);

  ExchangeJournal fresh(program_4x4());
  EXPECT_THROW(comm.resume(send, FaultModel{}, fresh, outcome), std::invalid_argument);

  // Bound to a different torus: the delta is meaningless there.
  ExchangeJournal foreign{StepProgram(SuhShinAape(TorusShape({8, 4})))};
  foreign.deliver_step(0);
  EXPECT_THROW(comm.resume(send, FaultModel{}, foreign, outcome), std::invalid_argument);
}

TEST(ResumeTest, ResumeRefusesAnotherProgramsJournal) {
  // The same torus, phases and steps, written by the naive layout's
  // program: its arrivals sit elsewhere, so its fingerprint refuses it.
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  const StepProgram naive(algo, LayoutPolicy::kNaiveDestinationOrder);
  ASSERT_NE(naive.fingerprint(), program_4x4().fingerprint());
  ExchangeJournal journal;
  JournalRunOptions crash;
  const auto [phase, step] = active_steps(algo)[1];
  crash.crash = CrashPoint{phase, step, true};
  ResumeReport report;
  EXPECT_THROW(exchange_payloads_journaled(algo, naive, make_send(16), journal, crash, report),
               ExchangeCrashError);
  ASSERT_EQ(journal.fingerprint(), naive.fingerprint());

  const TorusCommunicator comm(shape, CostParams{});
  ExchangeOutcome outcome;
  ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
  EXPECT_THROW(comm.resume(make_send(16), FaultModel{}, loaded, outcome), std::invalid_argument);
  EXPECT_EQ(loaded.encode(), journal.encode());  // refused before anything was written
}

TEST(ResumeTest, DefaultOptionsRunTheScheduleAndOtherPlansAreRefused) {
  // kAuto resolves to the schedule, which the journal's steps name:
  // whatever select() would price cheapest, a resumable exchange runs
  // and reports Suh-Shin and sends the schedule's parcels.
  const std::vector<std::pair<std::vector<std::int32_t>, std::int64_t>> cases{
      {{4, 4}, 512}, {{8, 4, 4}, 57344}};
  for (const auto& [extents, parcels] : cases) {
    const TorusShape shape(extents);
    const TorusCommunicator comm(shape, CostParams{});
    const Rank n = shape.num_nodes();
    ExchangeJournal journal;
    ExchangeOutcome outcome;
    expect_transposed(comm.alltoall_resumable(make_send(n), FaultModel{}, journal, outcome), n);
    EXPECT_EQ(outcome.requested, AlltoallAlgorithm::kAuto) << shape.to_string();
    EXPECT_EQ(to_string(outcome.algorithm), "suh-shin") << shape.to_string();
    ASSERT_TRUE(outcome.resume.has_value());
    EXPECT_EQ(outcome.resume->sent_parcels, parcels) << shape.to_string();
    EXPECT_TRUE(journal.exchange_complete()) << shape.to_string();
  }

  // Plans that do not run the schedule are refused before any data
  // moves: the journal stays unbound.
  const TorusCommunicator comm(TorusShape({4, 4}), CostParams{});
  FaultModel crashed;
  crashed.crash_node(5, /*crash_tick=*/0);
  for (const AlltoallAlgorithm algorithm :
       {AlltoallAlgorithm::kRing, AlltoallAlgorithm::kDirect, AlltoallAlgorithm::kBruck,
        AlltoallAlgorithm::kSuhShinPadded}) {
    ResumeOptions options;
    options.resilience.algorithm = algorithm;
    ExchangeJournal journal;
    ExchangeOutcome outcome;
    EXPECT_THROW(comm.alltoall_resumable(make_send(16), FaultModel{}, journal, outcome, options),
                 std::invalid_argument)
        << to_string(algorithm);
    EXPECT_FALSE(journal.bound()) << to_string(algorithm);
  }
  ResumeOptions direct;
  direct.resilience.policy = RecoveryPolicy::kFallbackDirect;
  ExchangeJournal journal;
  ExchangeOutcome outcome;
  EXPECT_THROW(comm.alltoall_resumable(make_send(16), crashed, journal, outcome, direct),
               std::invalid_argument);
  EXPECT_FALSE(journal.bound());
}

TEST(ResumeTest, RemappedPlanJournalsTheSchedule) {
  // A remapped plan hosts a crashed node on a neighbour and detours its
  // routes, but moves the same slots at the same steps: it runs the
  // schedule on the journaled kernel. Its journal is the healthy run's
  // byte for byte, and a kill at any step, before or after the flush,
  // resumes to the transpose exactly as the healthy run's does.
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{{4, 4}, {8, 8}, {8, 4, 4}}) {
    const TorusShape shape(extents);
    const TorusCommunicator comm(shape, CostParams{});
    const SuhShinAape algo(shape);
    const Rank n = shape.num_nodes();
    const auto send = make_send(n);
    FaultModel crashed;
    crashed.crash_node(n / 3, /*crash_tick=*/0);
    const std::string where = shape.to_string();

    ExchangeJournal healthy;
    ExchangeOutcome healthy_outcome;
    expect_transposed(comm.alltoall_resumable(send, FaultModel{}, healthy, healthy_outcome), n);
    ExchangeJournal remapped;
    ExchangeOutcome outcome;
    expect_transposed(comm.alltoall_resumable(send, crashed, remapped, outcome), n);
    EXPECT_TRUE(outcome.degraded) << where;
    EXPECT_EQ(outcome.policy, RecoveryPolicy::kRemap) << where;
    EXPECT_EQ(outcome.algorithm, AlltoallAlgorithm::kSuhShin) << where;
    EXPECT_EQ(remapped.encode(), healthy.encode()) << where;
    ASSERT_TRUE(outcome.resume.has_value() && healthy_outcome.resume.has_value());
    expect_same_report(*outcome.resume, *healthy_outcome.resume, where);

    for (const auto& [phase, step] : active_steps(algo)) {
      for (const bool after_flush : {false, true}) {
        const std::string what = where + " kill at (" + std::to_string(phase) + ", " +
                                 std::to_string(step) + (after_flush ? ") after" : ") before") +
                                 " the flush";
        const auto kill_and_resume = [&](const FaultModel& faults) {
          ResumeOptions options;
          options.crash = CrashPoint{phase, step, after_flush};
          ExchangeJournal journal;
          ExchangeOutcome killed;
          EXPECT_THROW(comm.alltoall_resumable(send, faults, journal, killed, options),
                       ExchangeCrashError)
              << what;
          ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
          ExchangeOutcome resumed;
          expect_transposed(comm.alltoall_resumable(send, faults, loaded, resumed), n);
          EXPECT_TRUE(loaded.exchange_complete()) << what;
          EXPECT_EQ(resumed.policy, faults.empty() ? RecoveryPolicy::kNone : RecoveryPolicy::kRemap)
              << what;
          return std::pair{journal.encode(), resumed.resume.value_or(ResumeReport{})};
        };
        const auto [healthy_bytes, healthy_report] = kill_and_resume(FaultModel{});
        const auto [bytes, report] = kill_and_resume(crashed);
        EXPECT_EQ(bytes, healthy_bytes) << what;
        expect_same_report(report, healthy_report, what);
      }
    }
  }
}

// --- Cancellation and worker failures ------------------------------------

TEST(JournalCancelRaceTest, CancelBetweenFlushAndCommitLeavesResumableJournal) {
  // The worst-case race for crash durability: the cancel flag flips
  // after a step's deliveries are flushed but before its commit marker
  // is appended. The run must unwind as ExchangeCancelledError, the
  // journal must load, and a re-run must finish exactly-once — the
  // flushed-but-uncommitted parcels materialize and their re-sent seed
  // copies are dropped as duplicates.
  const TorusShape shape({4, 4});
  const Rank n = shape.num_nodes();
  const auto send = make_send(n);
  const TorusCommunicator comm(shape, CostParams{});

  std::atomic<bool> cancel{false};
  ResumeOptions options;
  options.resilience.algorithm = AlltoallAlgorithm::kSuhShin;
  options.cancel = &cancel;
  int flushes = 0;
  // The deliveries flush of step k is followed by the cancel poll and
  // only then the commit flush; tripping the flag inside an odd flush
  // lands the cancellation exactly in the window.
  options.flush = [&](const ExchangeJournal&) {
    if (++flushes == 3) cancel.store(true);
  };

  ExchangeJournal journal;
  ExchangeOutcome outcome;
  EXPECT_THROW(comm.alltoall_resumable(send, FaultModel{}, journal, outcome, options),
               ExchangeCancelledError);
  EXPECT_FALSE(journal.exchange_complete());
  EXPECT_GT(journal.delivered_steps(), journal.committed_steps())
      << "the cancel must land between a flush and its commit";

  ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
  EXPECT_FALSE(loaded.torn_tail());
  ExchangeOutcome resumed;
  ResumeOptions clean;
  clean.resilience.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.resume(send, FaultModel{}, loaded, resumed, clean);
  expect_transposed(recv, n);
  ASSERT_TRUE(resumed.resume.has_value());
  EXPECT_GT(resumed.resume->materialized, 0);
  EXPECT_EQ(resumed.resume->materialized, resumed.resume->duplicates_dropped);
  EXPECT_TRUE(loaded.exchange_complete());
}

TEST(JournalCancelRaceTest, ConcurrentRunsCancelInIsolation) {
  // Two journaled exchanges on two threads, each with its own pool and
  // cancel flag: A trips its flag from its own flush hook and unwinds
  // as cancelled; B must not observe it, and returns the transpose.
  const SuhShinAape algo(TorusShape({8, 4}));
  const StepProgram program(algo);
  const Rank n = algo.shape().num_nodes();
  std::atomic<bool> cancel_a{false};
  std::atomic<bool> cancel_b{false};
  std::exception_ptr error_a;
  std::exception_ptr error_b;
  std::vector<std::vector<testing::Tagged>> out_b;

  const auto run = [&](std::atomic<bool>& cancel, bool trips, std::exception_ptr& error,
                       std::vector<std::vector<testing::Tagged>>* out) {
    StepPool pool(2);
    JournalRunOptions options;
    options.pool = &pool;
    options.cancel = &cancel;
    int flushes = 0;
    if (trips) {
      options.flush = [&](const ExchangeJournal&) {
        if (++flushes == 3) cancel.store(true);
      };
    }
    ExchangeJournal journal;
    ResumeReport report;
    try {
      auto rows = exchange_payloads_journaled(algo, program, testing::tagged_rows(n, kSalt),
                                              journal, options, report);
      if (out != nullptr) *out = std::move(rows);
    } catch (...) {
      error = std::current_exception();
    }
  };
  std::thread run_a([&] { run(cancel_a, true, error_a, nullptr); });
  std::thread run_b([&] { run(cancel_b, false, error_b, &out_b); });
  run_a.join();
  run_b.join();

  ASSERT_TRUE(error_a != nullptr) << "run A must unwind as cancelled";
  EXPECT_THROW(std::rethrow_exception(error_a), ExchangeCancelledError);
  ASSERT_TRUE(error_b == nullptr) << "run B must not observe A's cancel";
  EXPECT_EQ(testing::transpose_mismatch(n, out_b, kSalt), "");
  EXPECT_FALSE(cancel_b.load()) << "B's flag must never flip";
}

/// A payload whose move throws when it is planted. The only code of
/// the caller's a step-kernel worker runs is a payload's move, so this
/// is how a worker fails.
struct PlantedMove {
  Rank node = -1;  ///< the node whose row it was seeded in
  bool planted = false;

  PlantedMove() = default;
  PlantedMove(Rank node_in, bool planted_in) : node(node_in), planted(planted_in) {}
  PlantedMove(const PlantedMove&) = default;
  PlantedMove& operator=(const PlantedMove&) = default;
  PlantedMove(PlantedMove&& other) : node(other.node), planted(other.planted) {
    if (planted) throw_planted();
  }
  PlantedMove& operator=(PlantedMove&& other) {
    if (other.planted) other.throw_planted();
    node = other.node;
    planted = other.planted;
    return *this;
  }
  [[noreturn]] void throw_planted() const {
    throw std::runtime_error("moved a planted payload of node " + std::to_string(node));
  }
};

TEST(JournalWorkerFailureTest, LowestNodesThrowReachesTheCallerWithNoFrameOutstanding) {
  // Every payload of the odd nodes throws when moved, so several of
  // them throw at once in the kernel's first stage: phase 1's
  // rearrangement when it permutes any row, else its first gather. The
  // caller must get the lowest such node's exception, at four
  // participants exactly as inline, and the arena every frame back.
  const SuhShinAape algo(TorusShape({8, 8}));
  const StepProgram program(algo);
  const Rank n = algo.shape().num_nodes();
  const auto planted = [](Rank p) { return p % 2 == 1; };
  const auto moves_first = [&](Rank p) {
    return program.rearranges(1) ? !program.permutation(1, p).empty()
                                 : program.step(1, 1, p).count > 0;
  };
  Rank first_thrower = -1;
  for (Rank p = n - 1; p >= 0; --p) {
    if (planted(p) && moves_first(p)) first_thrower = p;
  }
  ASSERT_GE(first_thrower, 0) << "no planted payload moves in the first stage";

  const auto failure_on = [&](int participants) {
    std::vector<std::vector<PlantedMove>> rows(static_cast<std::size_t>(n));
    for (Rank p = 0; p < n; ++p) {
      auto& row = rows[static_cast<std::size_t>(p)];
      row.reserve(static_cast<std::size_t>(n));
      for (Rank q = 0; q < n; ++q) row.emplace_back(p, planted(p));
    }
    StepPool pool(participants);
    WireArena arena;
    JournalRunOptions options;
    options.pool = &pool;
    options.wire = &arena;
    ExchangeJournal journal;
    ResumeReport report;
    std::string what;
    try {
      exchange_payloads_journaled(algo, program, std::move(rows), journal, options, report);
      ADD_FAILURE() << "a planted move must throw at " << participants << " participant(s)";
    } catch (const std::runtime_error& error) {
      what = error.what();
    }
    EXPECT_EQ(arena.stats().outstanding_frames(), 0) << participants << " participant(s)";
    return what;
  };
  const std::string inline_failure = failure_on(1);
  EXPECT_EQ(inline_failure, "moved a planted payload of node " + std::to_string(first_thrower));
  EXPECT_EQ(failure_on(4), inline_failure);
}

TEST(JournalWorkerFailureTest, ThrowingFlushHookReachesTheCallerAndTheJournalResumes) {
  // A durability hook that fails mid-run (a full disk, say) unwinds the
  // pooled run on the calling thread as the hook's own exception, with
  // every frame back in the arena; the journal it leaves resumes to the
  // transpose.
  const SuhShinAape algo(TorusShape({8, 8}));
  const StepProgram program(algo);
  const Rank n = algo.shape().num_nodes();
  StepPool pool(4);
  WireArena arena;
  JournalRunOptions options;
  options.pool = &pool;
  options.wire = &arena;
  int flushes = 0;
  options.flush = [&](const ExchangeJournal&) {
    if (++flushes == 3) throw std::runtime_error("journal sink failed");
  };
  ExchangeJournal journal;
  ResumeReport report;
  try {
    exchange_payloads_journaled(algo, program, testing::tagged_rows(n, kSalt), journal, options,
                                report);
    ADD_FAILURE() << "the failing flush must unwind the run";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "journal sink failed");
  }
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);
  EXPECT_FALSE(journal.exchange_complete());

  ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
  JournalRunOptions clean;
  clean.pool = &pool;
  clean.wire = &arena;
  ResumeReport resumed;
  const auto out = exchange_payloads_journaled(algo, program, testing::tagged_rows(n, kSalt),
                                               loaded, clean, resumed);
  EXPECT_EQ(testing::transpose_mismatch(n, out, kSalt), "");
  EXPECT_TRUE(loaded.exchange_complete());
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.duplicates_dropped, resumed.materialized);
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);
}

TEST(JournalWorkerFailureTest, FlushHookRunsOnTheCallingThreadOnly) {
  // The kernel runs its hooks between stages on the calling thread: the
  // durability hook never runs on a pool worker, is called as often at
  // four participants as inline, and a hook that does not throw leaves
  // the run to finish.
  const SuhShinAape algo(TorusShape({8, 4, 4}));
  const StepProgram program(algo);
  const Rank n = algo.shape().num_nodes();
  const auto flushes_on = [&](int participants) {
    StepPool pool(participants);
    JournalRunOptions options;
    options.pool = &pool;
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<std::int64_t> calls{0};
    std::atomic<std::int64_t> off_caller{0};
    options.flush = [&](const ExchangeJournal&) {
      calls.fetch_add(1);
      if (std::this_thread::get_id() != caller) off_caller.fetch_add(1);
    };
    ExchangeJournal journal;
    ResumeReport report;
    const auto out = exchange_payloads_journaled(algo, program, testing::tagged_rows(n, kSalt),
                                                 journal, options, report);
    EXPECT_EQ(testing::transpose_mismatch(n, out, kSalt), "") << participants;
    EXPECT_TRUE(journal.exchange_complete()) << participants;
    EXPECT_EQ(off_caller.load(), 0) << participants << " participant(s)";
    EXPECT_EQ(calls.load(), report.journal_flushes) << participants << " participant(s)";
    return calls.load();
  };
  const std::int64_t inline_calls = flushes_on(1);
  EXPECT_GT(inline_calls, 0);
  EXPECT_EQ(flushes_on(4), inline_calls);
}

TEST(JournalCancelRaceTest, CancelledPooledRunReturnsEveryFrameAndResumes) {
  // A cancel that lands mid-exchange on a four-participant pool unwinds
  // as ExchangeCancelledError with every frame back in the arena; the
  // journal then resumes on the same pool to the transpose, re-sending
  // strictly less than a fresh run.
  const SuhShinAape algo(TorusShape({8, 8}));
  const StepProgram program(algo);
  const Rank n = algo.shape().num_nodes();
  StepPool pool(4);
  WireArena arena;
  JournalRunOptions clean;
  clean.pool = &pool;
  clean.wire = &arena;

  ExchangeJournal fresh_journal;
  ResumeReport fresh;
  exchange_payloads_journaled(algo, program, testing::tagged_rows(n, kSalt), fresh_journal,
                              clean, fresh);

  std::atomic<bool> cancel{false};
  JournalRunOptions options = clean;
  options.cancel = &cancel;
  int flushes = 0;
  options.flush = [&](const ExchangeJournal&) {
    if (++flushes == 5) cancel.store(true);
  };
  ExchangeJournal journal;
  ResumeReport report;
  EXPECT_THROW(exchange_payloads_journaled(algo, program, testing::tagged_rows(n, kSalt),
                                           journal, options, report),
               ExchangeCancelledError);
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);
  EXPECT_GT(journal.committed_steps(), 0);
  EXPECT_FALSE(journal.exchange_complete());

  ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
  ResumeReport resumed;
  const auto out = exchange_payloads_journaled(algo, program, testing::tagged_rows(n, kSalt),
                                               loaded, clean, resumed);
  EXPECT_EQ(testing::transpose_mismatch(n, out, kSalt), "");
  EXPECT_TRUE(loaded.exchange_complete());
  EXPECT_EQ(resumed.committed_steps_at_start, journal.committed_steps());
  EXPECT_LT(resumed.sent_parcels, fresh.sent_parcels);
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);
}

TEST(JournalCancelRaceTest, CancelSetBeforeTheRunCommitsNoStep) {
  // A flag already set is seen at the first step's cancel window: the
  // run unwinds before any commit marker, and once the flag is cleared
  // the same journal finishes the exchange.
  const SuhShinAape algo(TorusShape({8, 8}));
  const StepProgram program(algo);
  const Rank n = algo.shape().num_nodes();
  StepPool pool(4);
  WireArena arena;
  std::atomic<bool> cancel{true};
  JournalRunOptions options;
  options.pool = &pool;
  options.wire = &arena;
  options.cancel = &cancel;
  ExchangeJournal journal;
  ResumeReport report;
  EXPECT_THROW(exchange_payloads_journaled(algo, program, testing::tagged_rows(n, kSalt),
                                           journal, options, report),
               ExchangeCancelledError);
  EXPECT_EQ(journal.committed_steps(), 0);
  EXPECT_EQ(journal.committed_phase(), 0);
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);

  cancel.store(false);
  ResumeReport resumed;
  const auto out = exchange_payloads_journaled(algo, program, testing::tagged_rows(n, kSalt),
                                               journal, options, resumed);
  EXPECT_EQ(testing::transpose_mismatch(n, out, kSalt), "");
  EXPECT_TRUE(journal.exchange_complete());
  EXPECT_EQ(resumed.duplicates_dropped, resumed.materialized);
}

// --- Option validation (construction-time rejection) -------------------

TEST(ValidationTest, BackoffConfigRejectsNonsense) {
  BackoffConfig good;
  EXPECT_NO_THROW(good.validate());

  BackoffConfig zero_attempts;
  zero_attempts.max_attempts = 0;
  EXPECT_THROW(zero_attempts.validate(), std::invalid_argument);

  BackoffConfig negative_base;
  negative_base.base_ticks = 0;
  EXPECT_THROW(negative_base.validate(), std::invalid_argument);

  BackoffConfig inverted;
  inverted.base_ticks = 16;
  inverted.max_ticks = 8;
  EXPECT_THROW(inverted.validate(), std::invalid_argument);
}

TEST(ValidationTest, FailureDetectorOptionsRejectNonsense) {
  FailureDetectorOptions good;
  EXPECT_NO_THROW(good.validate());

  FailureDetectorOptions zero_interval;
  zero_interval.heartbeat_interval = 0;
  EXPECT_THROW(zero_interval.validate(), std::invalid_argument);

  FailureDetectorOptions bad_phi;
  bad_phi.phi_threshold = 0.0;
  EXPECT_THROW(bad_phi.validate(), std::invalid_argument);

  FailureDetectorOptions empty_window;
  empty_window.window = 0;
  EXPECT_THROW(empty_window.validate(), std::invalid_argument);
}

TEST(ValidationTest, ResumeOptionsValidateTheWholeChain) {
  ResumeOptions options;
  EXPECT_NO_THROW(options.validate());

  ResumeOptions bad_backoff;
  bad_backoff.resilience.backoff.max_attempts = 0;
  EXPECT_THROW(bad_backoff.validate(), std::invalid_argument);

  ResumeOptions bad_deadline;
  bad_deadline.stall_deadline_ticks = 0;
  EXPECT_THROW(bad_deadline.validate(), std::invalid_argument);

  ResumeOptions bad_crash;
  bad_crash.crash = CrashPoint{1, 0, true};
  EXPECT_THROW(bad_crash.validate(), std::invalid_argument);
}

// --- Heartbeat failure detector ----------------------------------------

TEST(FailureDetectorTest, PhiAccruesWithSilence) {
  HeartbeatFailureDetector detector(4, FailureDetectorOptions{});
  EXPECT_EQ(detector.phi(0, 100), 0.0);  // no history: trusted
  for (std::int64_t t = 0; t <= 10; ++t) detector.heartbeat(0, t);
  EXPECT_EQ(detector.phi(0, 10), 0.0);
  const double early = detector.phi(0, 12);
  const double late = detector.phi(0, 30);
  EXPECT_GT(early, 0.0);
  EXPECT_GT(late, early);
  EXPECT_FALSE(detector.suspect(0, 12));
  EXPECT_TRUE(detector.suspect(0, 30));
}

TEST(FailureDetectorTest, NonMonotonicSamplesDropAndCount) {
  // Regression: an out-of-order or duplicate heartbeat must be dropped
  // and counted, not folded into the window. A late replay used to be
  // a hard error; worse alternatives would push a zero or negative gap
  // into the ring and collapse the mean (fabricating suspicion) or
  // advance last_arrival backwards (masking real silence).
  HeartbeatFailureDetector detector(2, FailureDetectorOptions{});
  for (std::int64_t t = 0; t <= 10; ++t) EXPECT_TRUE(detector.heartbeat(0, t));
  const double phi_before = detector.phi(0, 14);
  const std::int64_t suspicion_before = detector.suspicion_tick(0);

  EXPECT_FALSE(detector.heartbeat(0, 5));   // out of order
  EXPECT_FALSE(detector.heartbeat(0, 10));  // duplicate of the last tick
  EXPECT_EQ(detector.dropped_samples(), 2);

  // phi is untouched: the stale samples neither skewed the mean nor
  // rewound the silence measurement.
  EXPECT_EQ(detector.phi(0, 14), phi_before);
  EXPECT_EQ(detector.suspicion_tick(0), suspicion_before);

  // A fresh in-order beat is still accepted afterwards.
  EXPECT_TRUE(detector.heartbeat(0, 11));
  EXPECT_EQ(detector.dropped_samples(), 2);

  // Other nodes are unaffected by node 0's replays.
  EXPECT_TRUE(detector.heartbeat(1, 3));
  EXPECT_FALSE(detector.heartbeat(1, 3));
  EXPECT_EQ(detector.dropped_samples(), 3);
}

TEST(FailureDetectorTest, SuspicionTickMatchesThreshold) {
  // With unit heartbeats, phi = silence / ln(10): the closed-form
  // suspicion tick is the first tick where phi crosses the threshold.
  HeartbeatFailureDetector detector(2, FailureDetectorOptions{});
  for (std::int64_t t = 0; t <= 4; ++t) detector.heartbeat(1, t);
  const std::int64_t predicted = detector.suspicion_tick(1);
  EXPECT_FALSE(detector.suspect(1, predicted - 1));
  EXPECT_TRUE(detector.suspect(1, predicted));
}

TEST(FailureDetectorTest, WarmupSeedsStopEarlyGapCollapse) {
  // Regression: with an empty window, the first one or two observed
  // gaps *are* the estimate. A node whose first beats arrived
  // atypically close (a scheduling hiccup, not a fast cadence) had its
  // mean collapse to that tiny gap and was suspected a few dozen ticks
  // later despite beating on schedule. The warm-up seeds pin the early
  // mean near the configured cadence until real samples displace them.
  FailureDetectorOptions options;
  options.heartbeat_interval = 4;
  HeartbeatFailureDetector seeded(1, options);
  seeded.heartbeat(0, 0);
  seeded.heartbeat(0, 2);  // one atypically quick early gap
  // Unseeded, the mean is 2 and suspicion lands near tick 39; seeded
  // (8 samples of 4 plus the observed 2) it lands past tick 70.
  EXPECT_FALSE(seeded.suspect(0, 45));
  EXPECT_GT(seeded.suspicion_tick(0), 70);
  EXPECT_TRUE(seeded.suspect(0, 100));

  FailureDetectorOptions legacy = options;
  legacy.warmup_samples = 0;
  HeartbeatFailureDetector unseeded(1, legacy);
  unseeded.heartbeat(0, 0);
  unseeded.heartbeat(0, 2);
  EXPECT_TRUE(unseeded.suspect(0, 45)) << "warmup_samples=0 must restore the legacy estimate";

  FailureDetectorOptions bad = options;
  bad.warmup_samples = -1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(FailureDetectorTest, WarmupSeedsAgeOutOfTheWindow) {
  // The seeds are a prior, not a bias: once the ring fills with real
  // gaps and wraps, the estimate is driven by observed cadence alone.
  FailureDetectorOptions options;
  options.heartbeat_interval = 4;
  options.window = 8;
  options.warmup_samples = 8;
  HeartbeatFailureDetector detector(1, options);
  // A node that actually beats every 2 ticks: after enough beats the
  // seeds (all 4s) are overwritten and the mean settles at 2.
  for (std::int64_t t = 0; t <= 40; t += 2) detector.heartbeat(0, t);
  // suspicion_tick = last + ceil(threshold * mean * ln 10); mean 2
  // gives 40 + 37 = 77, mean 4 would give 40 + 74 = 114.
  EXPECT_LT(detector.suspicion_tick(0), 85);
  EXPECT_TRUE(detector.suspect(0, 85));
}

TEST(FailureDetectorTest, ObserveHeartbeatsSuspectsCrashedNodes) {
  const TorusShape shape({4, 4});
  const Torus torus(shape);
  FaultModel faults;
  faults.crash_node(3, /*crash_tick=*/8);
  ASSERT_EQ(faults.crashes().size(), 1u);
  EXPECT_FALSE(faults.crashes().front().rejoins());

  HeartbeatFailureDetector detector(shape.num_nodes(), FailureDetectorOptions{});
  const auto suspicions = detector.observe_heartbeats(faults, /*up_to_tick=*/64);
  ASSERT_EQ(suspicions.size(), 1u);
  EXPECT_EQ(suspicions.front().node, 3);
  EXPECT_GT(suspicions.front().suspected_at, 8);
  EXPECT_LT(suspicions.front().suspected_at, 64);
  EXPECT_GE(suspicions.front().phi, 8.0);
  // Healthy nodes stay trusted the whole horizon.
  EXPECT_EQ(detector.suspects(64), std::vector<Rank>{3});
}

TEST(FailureDetectorTest, RejoiningNodeIsUnsuspected) {
  const TorusShape shape({4, 4});
  FaultModel faults;
  faults.crash_node(5, /*crash_tick=*/4, /*rejoin_tick=*/40);
  EXPECT_TRUE(faults.crashes().front().rejoins());

  HeartbeatFailureDetector detector(shape.num_nodes(), FailureDetectorOptions{});
  const auto suspicions = detector.observe_heartbeats(faults, /*up_to_tick=*/64);
  ASSERT_EQ(suspicions.size(), 1u);  // suspected once, during the outage
  EXPECT_EQ(suspicions.front().node, 5);
  // After rejoining and beating again, the node is trusted once more.
  EXPECT_TRUE(detector.suspects(64).empty());
}

TEST(FailureDetectorTest, CrashSweepAcrossEveryNode) {
  // Determinism sweep: whichever single node crashes, the detector
  // names exactly that node within the horizon.
  const TorusShape shape({4, 4});
  for (Rank victim = 0; victim < shape.num_nodes(); ++victim) {
    FaultModel faults;
    faults.crash_node(victim, 6);
    HeartbeatFailureDetector detector(shape.num_nodes(), FailureDetectorOptions{});
    const auto suspicions = detector.observe_heartbeats(faults, 64);
    ASSERT_EQ(suspicions.size(), 1u) << "victim " << victim;
    EXPECT_EQ(suspicions.front().node, victim);
  }
}

// --- Detector-driven proactive recovery --------------------------------

TEST(ProactiveRecoveryTest, SuspicionPrecedesRecoveryInTheTrace) {
  // The acceptance criterion: in an exported event stream the
  // fd.suspect span must come strictly before the recovery.attempt
  // span it triggered.
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const Rank n = shape.num_nodes();

  FaultModel faults;
  faults.crash_node(2, /*crash_tick=*/4);

  Recorder recorder;
  ResumeOptions options;
  options.resilience.obs = &recorder;
  ExchangeJournal journal;
  ExchangeOutcome outcome;
  const auto recv = comm.alltoall_resumable(make_send(n), faults, journal, outcome, options);
  expect_transposed(recv, n);

  EXPECT_EQ(outcome.suspected_nodes, 1);
  EXPECT_GT(outcome.suspicion_tick, 0);
  EXPECT_TRUE(outcome.proactive_recovery)
      << "suspicion at tick " << outcome.suspicion_tick << " missed the deadline";

  const Telemetry telemetry = recorder.snapshot();
  std::int64_t first_suspect = -1, first_attempt = -1;
  for (const auto& event : telemetry.events) {
    if (event.kind != EventKind::kBegin) continue;
    if (first_suspect < 0 && event.name == "fd.suspect") first_suspect = event.ts_ns;
    if (first_attempt < 0 && event.name == "recovery.attempt") first_attempt = event.ts_ns;
  }
  ASSERT_GE(first_suspect, 0) << "no fd.suspect span recorded";
  ASSERT_GE(first_attempt, 0) << "no recovery.attempt span recorded";
  EXPECT_LE(first_suspect, first_attempt)
      << "the failure detector must fire before recovery planning";
}

TEST(ProactiveRecoveryTest, CrashedNodeStillGetsItsParcelsJournaled) {
  // With a node dead from tick 2 the planner degrades to a remapped
  // plan, which runs the schedule on the journaled kernel: it must still
  // complete the permutation exactly once and leave a complete journal
  // behind.
  const TorusShape shape({4, 4});
  const TorusCommunicator comm(shape, CostParams{});
  const Rank n = shape.num_nodes();

  FaultModel faults;
  faults.crash_node(7, /*crash_tick=*/2);

  ExchangeJournal journal;
  ExchangeOutcome outcome;
  const auto recv = comm.alltoall_resumable(make_send(n), faults, journal, outcome);
  expect_transposed(recv, n);
  EXPECT_TRUE(journal.exchange_complete());
  ASSERT_TRUE(outcome.resume.has_value());
  EXPECT_EQ(outcome.resume->duplicates_dropped, 0);
}

}  // namespace
}  // namespace torex
