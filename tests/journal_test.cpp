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

// --- DeliveryBitmap ----------------------------------------------------

TEST(DeliveryBitmapTest, MarksAreIdempotentAndCounted) {
  DeliveryBitmap bitmap(4);
  EXPECT_EQ(bitmap.delivered(), 0);
  EXPECT_EQ(bitmap.expected(), 16);
  EXPECT_FALSE(bitmap.test(2, 3));
  EXPECT_TRUE(bitmap.mark(2, 3));
  EXPECT_TRUE(bitmap.test(2, 3));
  EXPECT_FALSE(bitmap.mark(2, 3));  // re-mark is not a new delivery
  EXPECT_EQ(bitmap.delivered(), 1);
  EXPECT_EQ(bitmap.delivered_to(2), 1);
  EXPECT_EQ(bitmap.delivered_to(3), 0);
  EXPECT_FALSE(bitmap.complete());
}

TEST(DeliveryBitmapTest, CompleteMeansEveryPair) {
  const Rank n = 5;
  DeliveryBitmap bitmap(n);
  for (Rank d = 0; d < n; ++d) {
    for (Rank o = 0; o < n; ++o) bitmap.mark(d, o);
  }
  EXPECT_TRUE(bitmap.complete());
  EXPECT_EQ(bitmap.delivered(), bitmap.expected());
}

// --- Journal write path ------------------------------------------------

TEST(JournalTest, FreshJournalPreMarksSelfDeliveries) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  EXPECT_TRUE(journal.bound());
  EXPECT_TRUE(journal.fresh());
  EXPECT_EQ(journal.delivered_parcels(), 16);  // the p -> p diagonal
  for (Rank p = 0; p < 16; ++p) EXPECT_TRUE(journal.delivered().test(p, p));
  EXPECT_FALSE(journal.exchange_complete());
}

TEST(JournalTest, UnboundJournalRefusesMutation) {
  ExchangeJournal journal;
  EXPECT_FALSE(journal.bound());
  EXPECT_THROW(journal.record_deliveries(0, {{0, 1}}), std::invalid_argument);
  EXPECT_THROW(journal.commit_step(0), std::invalid_argument);
  EXPECT_THROW(journal.commit_phase(1), std::invalid_argument);
}

TEST(JournalTest, WriterInvariantsAreEnforced) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  EXPECT_THROW(journal.record_deliveries(0, {}), std::invalid_argument);
  EXPECT_THROW(journal.record_deliveries(0, {{1, 1}}), std::invalid_argument);  // self pair
  EXPECT_THROW(journal.record_deliveries(0, {{16, 0}}), std::invalid_argument);
  EXPECT_THROW(journal.record_deliveries(5, {{0, 1}}), std::invalid_argument);  // past sentinel
  journal.record_deliveries(0, {{0, 1}});
  EXPECT_THROW(journal.record_deliveries(0, {{0, 1}}), std::logic_error);  // exactly-once
  EXPECT_THROW(journal.commit_step(1), std::invalid_argument);  // out of order
  journal.commit_step(0);
  EXPECT_EQ(journal.committed_steps(), 1);
  EXPECT_THROW(journal.commit_phase(2), std::invalid_argument);  // skips phase 1
  journal.commit_phase(1);
  EXPECT_EQ(journal.committed_phase(), 1);
}

TEST(JournalTest, UncommittedDeliveriesAreTheFlushedSuffix) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  journal.record_deliveries(0, {{0, 1}});
  journal.commit_step(0);
  journal.record_deliveries(1, {{2, 3}, {3, 2}});
  const auto uncommitted = journal.uncommitted_deliveries();
  ASSERT_EQ(uncommitted.size(), 2u);
  EXPECT_EQ(uncommitted[0], (std::pair<Rank, Rank>{2, 3}));
  EXPECT_EQ(uncommitted[1], (std::pair<Rank, Rank>{3, 2}));
}

/// The deliveries a live step of a fresh run records, in the order the
/// journal hooks collect them: receivers in node order, each receive's
/// arrivals in receive order, from the program's arrival table.
std::vector<std::pair<Rank, Rank>> step_deliveries(const StepProgram& program, int phase,
                                                   int step) {
  std::vector<std::pair<Rank, Rank>> out;
  for (Rank node = 0; node < program.num_nodes(); ++node) {
    program.for_each_arrival(phase, step, node, [&](std::uint32_t, Rank origin) {
      out.emplace_back(node, origin);
    });
  }
  return out;
}

TEST(JournalTest, UncommittedDeliveriesAreReadBackFromTheStream) {
  // uncommitted_deliveries() walks the byte stream's deliveries records
  // past the last step commit. Each case below has its list from an
  // oracle that does not read the stream.
  const TorusShape shape({8, 8});
  const SuhShinAape algo(shape);
  const StepProgram program(algo);
  const Rank n = shape.num_nodes();
  int flat = 0;
  for (const auto& [phase, step] : active_steps(algo)) {
    // Killed after its flush: the killed step's deliveries, and the
    // same list once the bytes are decoded.
    ExchangeJournal killed;
    JournalRunOptions crash;
    crash.crash = CrashPoint{phase, step, true};
    ResumeReport report;
    EXPECT_THROW(
        exchange_payloads_journaled(algo, program, make_send(n), killed, crash, report),
        ExchangeCrashError);
    const auto expected = step_deliveries(program, phase, step);
    ASSERT_EQ(killed.committed_steps(), flat);
    EXPECT_EQ(killed.uncommitted_deliveries(), expected) << phase << "/" << step;
    EXPECT_EQ(ExchangeJournal::decode(killed.encode()).uncommitted_deliveries(), expected)
        << phase << "/" << step;

    // Killed before its flush, with the previous step's commit marker
    // torn: decode drops the marker, and the previous step's deliveries
    // are uncommitted again.
    if (step >= 2) {
      ExchangeJournal unflushed;
      crash.crash = CrashPoint{phase, step, false};
      EXPECT_THROW(
          exchange_payloads_journaled(algo, program, make_send(n), unflushed, crash, report),
          ExchangeCrashError);
      std::vector<std::byte> torn = unflushed.encode();
      torn.resize(torn.size() - 2);
      const ExchangeJournal loaded = ExchangeJournal::decode(torn);
      EXPECT_TRUE(loaded.torn_tail());
      EXPECT_EQ(loaded.committed_steps(), flat - 1);
      EXPECT_EQ(loaded.uncommitted_deliveries(), step_deliveries(program, phase, step - 1))
          << phase << "/" << step;
    }
    ++flat;
  }

  // The direct path records on the sentinel step total_steps(): one
  // record per origin, every pair uncommitted until its final commits —
  // and after them too, since the sentinel is past every step.
  ExchangeJournal direct(shape, algo.num_phases(), algo.total_steps());
  std::atomic<bool> cancel{false};
  JournalRunOptions options;
  options.cancel = &cancel;
  int origins = 0;
  options.flush = [&](const ExchangeJournal&) {
    if (++origins == 5) cancel.store(true);
  };
  ResumeReport report;
  EXPECT_THROW(exchange_payloads_direct_journaled(algo, make_send(n), direct, options, report),
               ExchangeCancelledError);
  std::vector<std::pair<Rank, Rank>> expected;
  for (Rank origin = 0; origin < origins; ++origin) {
    for (Rank dest = 0; dest < n; ++dest) {
      if (dest != origin) expected.emplace_back(dest, origin);
    }
  }
  EXPECT_EQ(direct.uncommitted_deliveries(), expected);
  EXPECT_EQ(ExchangeJournal::decode(direct.encode()).uncommitted_deliveries(), expected);
  cancel.store(false);
  options.flush = nullptr;
  exchange_payloads_direct_journaled(algo, make_send(n), direct, options, report);
  EXPECT_TRUE(direct.exchange_complete());
  EXPECT_EQ(direct.uncommitted_deliveries().size(), static_cast<std::size_t>(n * (n - 1)));
}

// --- Wire format -------------------------------------------------------

TEST(JournalWireTest, RoundTripPreservesEverything) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  journal.record_deliveries(0, {{0, 1}, {1, 0}});
  journal.commit_step(0);
  journal.commit_phase(1);
  journal.commit_phase(2);

  const ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
  EXPECT_EQ(loaded.extents(), journal.extents());
  EXPECT_EQ(loaded.num_phases(), 4);
  EXPECT_EQ(loaded.total_steps(), 4);
  EXPECT_EQ(loaded.records(), journal.records());
  EXPECT_EQ(loaded.committed_steps(), 1);
  EXPECT_EQ(loaded.committed_phase(), 2);
  EXPECT_EQ(loaded.delivered_parcels(), journal.delivered_parcels());
  EXPECT_TRUE(loaded.delivered().test(0, 1));
  EXPECT_TRUE(loaded.delivered().test(1, 0));
  EXPECT_FALSE(loaded.torn_tail());
  EXPECT_EQ(loaded.encode(), journal.encode());  // byte-identical re-encode
}

TEST(JournalWireTest, TornFinalRecordIsDroppedNotFatal) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  journal.record_deliveries(0, {{0, 1}});
  journal.commit_step(0);
  journal.record_deliveries(1, {{2, 3}});  // this record will be torn

  for (std::size_t cut = 1; cut <= 7; ++cut) {
    std::vector<std::byte> bytes = journal.encode();
    bytes.resize(bytes.size() - cut);
    const ExchangeJournal loaded = ExchangeJournal::decode(bytes);
    EXPECT_TRUE(loaded.torn_tail());
    EXPECT_EQ(loaded.committed_steps(), 1);
    EXPECT_TRUE(loaded.delivered().test(0, 1));
    EXPECT_FALSE(loaded.delivered().test(2, 3)) << "torn record must not count";
  }
}

TEST(JournalWireTest, MidStreamDamageIsFatal) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  journal.record_deliveries(0, {{0, 1}});
  journal.commit_step(0);
  journal.record_deliveries(1, {{2, 3}});

  // Flip one byte inside the *first* record's payload: damage with
  // intact records after it cannot be a torn tail.
  std::vector<std::byte> bytes = journal.encode();
  const std::size_t header_size = (3 + 2 + 2 + 1) * 4;  // magic..crc with 2 extents
  bytes[header_size + 9] ^= std::byte{0x40};
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);
}

TEST(JournalWireTest, HeaderDamageIsFatal) {
  const TorusShape shape({4, 4});
  const ExchangeJournal journal(shape, 4, 4);
  std::vector<std::byte> bytes = journal.encode();
  bytes[0] ^= std::byte{0x01};  // magic
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);

  bytes = journal.encode();
  bytes[4] ^= std::byte{0x02};  // version
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);

  bytes = journal.encode();
  bytes[bytes.size() - 1] ^= std::byte{0x04};  // header CRC itself
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);
}

TEST(JournalWireTest, ForgedDuplicateDeliveryIsRejected) {
  // Two records claiming the same (dest, origin) cannot both be real;
  // decode must refuse rather than double-count.
  const TorusShape shape({4, 4});
  ExchangeJournal honest(shape, 4, 4);
  honest.record_deliveries(0, {{0, 1}});
  std::vector<std::byte> bytes = honest.encode();
  // Append a byte-identical copy of the first record.
  const std::size_t header_size = (3 + 2 + 2 + 1) * 4;
  const std::vector<std::byte> record(bytes.begin() + static_cast<std::ptrdiff_t>(header_size),
                                      bytes.end());
  bytes.insert(bytes.end(), record.begin(), record.end());
  EXPECT_THROW(ExchangeJournal::decode(bytes), JournalError);
}

TEST(JournalWireTest, FileRoundTrip) {
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  journal.record_deliveries(0, {{0, 1}});
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
  const TorusShape shape({4, 4});
  ExchangeJournal journal(shape, 4, 4);
  const std::string path = ::testing::TempDir() + "journal_sink.toxj";
  JournalFileSink sink(path);
  sink.sync(journal);  // first sync rewrites (header only)
  journal.record_deliveries(0, {{0, 1}});
  journal.commit_step(0);
  sink.sync(journal);  // appends the new records
  journal.record_deliveries(1, {{1, 2}});
  journal.commit_step(1);
  sink.sync(journal);
  sink.sync(journal);  // no new bytes: a no-op
  EXPECT_EQ(sink.rewrites(), 1);
  EXPECT_EQ(sink.appends(), 2);
  EXPECT_GT(sink.bytes_written(), 0);
  const ExchangeJournal loaded = ExchangeJournal::load_file(path);
  EXPECT_EQ(loaded.encode(), journal.encode());
  std::remove(path.c_str());
}

TEST(JournalFileSinkTest, ShorterJournalForcesRewrite) {
  // A sink re-pointed at a fresh (shorter) journal — the restart case —
  // must rewrite from scratch, never append onto stale bytes.
  const TorusShape shape({4, 4});
  const std::string path = ::testing::TempDir() + "journal_sink_rewrite.toxj";
  JournalFileSink sink(path);
  ExchangeJournal big(shape, 4, 4);
  big.record_deliveries(0, {{0, 1}});
  big.commit_step(0);
  sink.sync(big);
  const ExchangeJournal fresh(shape, 4, 4);
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

  // Pin the scheduled algorithm: kAuto may plan the direct journaled
  // path, which has no schedule steps for the crash point to hit.
  ResumeOptions scheduled;
  scheduled.resilience.algorithm = AlltoallAlgorithm::kSuhShin;

  std::int64_t full_sent = 0;
  {
    ExchangeJournal journal;
    ExchangeOutcome outcome;
    const auto recv = comm.alltoall_resumable(send, FaultModel{}, journal, outcome, scheduled);
    expect_transposed(recv, n);
    ASSERT_TRUE(outcome.resume.has_value());
    full_sent = outcome.resume->sent_parcels;
    EXPECT_TRUE(journal.exchange_complete());
  }

  for (const auto& [phase, step] : active_steps(algo)) {
    for (const bool after_flush : {false, true}) {
      ExchangeJournal journal;
      ExchangeOutcome outcome;
      ResumeOptions options = scheduled;
      options.crash = CrashPoint{phase, step, after_flush};
      EXPECT_THROW(comm.alltoall_resumable(send, FaultModel{}, journal, outcome, options),
                   ExchangeCrashError)
          << "crash point (" << phase << ", " << step << ") never fired";

      // Durability round-trip, as a real restart would see it.
      ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
      const std::int64_t committed = loaded.committed_steps();

      ExchangeOutcome resumed;
      const auto recv = comm.alltoall_resumable(send, FaultModel{}, loaded, resumed, scheduled);
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
      const ResumeReport& a = one.report;
      const ResumeReport& b = four.report;
      EXPECT_EQ(a.resumed, b.resumed) << what;
      EXPECT_EQ(a.committed_steps_at_start, b.committed_steps_at_start) << what;
      EXPECT_EQ(a.committed_phase_at_start, b.committed_phase_at_start) << what;
      EXPECT_EQ(a.delivered_at_start, b.delivered_at_start) << what;
      EXPECT_EQ(a.materialized, b.materialized) << what;
      EXPECT_EQ(a.replayed_parcels, b.replayed_parcels) << what;
      EXPECT_EQ(a.sent_parcels, b.sent_parcels) << what;
      EXPECT_EQ(a.duplicates_dropped, b.duplicates_dropped) << what;
      EXPECT_EQ(a.journal_flushes, b.journal_flushes) << what;
      // Slot for slot, materialized copies included.
      EXPECT_EQ(testing::transpose_mismatch(algo.shape().num_nodes(), one.out, kSalt), "")
          << what;
      EXPECT_EQ(one.out, four.out) << what;
    }
  }
}

/// Length and CRC-32 of a journal's bytes.
std::pair<std::size_t, std::uint32_t> digest(const std::vector<std::byte>& bytes) {
  Crc32 crc;
  crc.update(bytes.data(), bytes.size());
  return {bytes.size(), crc.value()};
}

TEST(ResumeTest, JournalBytesMatchTheGoldenRecords) {
  // The journal's bytes, pinned: these lengths and CRC-32s were recorded
  // from the step kernel that carried each parcel's block identity and
  // read its arrivals off the parcels. The kernel now reads them from
  // the program's arrival tables, and must write the same records in
  // the same order: fresh runs on three shapes, and a kill at
  // (phase 2, step 1) then a resume on 8x4x4, at 1 and 4 participants.
  using Golden = std::pair<std::size_t, std::uint32_t>;
  const std::vector<std::pair<std::vector<std::int32_t>, Golden>> fresh{
      {{4, 4}, {2160, 0x62CE9AB4u}},
      {{8, 8}, {32568, 0x745C9E84u}},
      {{8, 4, 4}, {130488, 0xE82084F7u}},
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
    EXPECT_EQ(digest(run.killed_bytes), (Golden{876, 0xDA5091E2u})) << participants;
    EXPECT_EQ(digest(run.final_bytes), (Golden{130488, 0xE82084F7u})) << participants;
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

  ExchangeJournal fresh(TorusShape({4, 4}), 4, 4);
  EXPECT_THROW(comm.resume(send, FaultModel{}, fresh, outcome), std::invalid_argument);

  // Bound to a different torus: the delta is meaningless there.
  ExchangeJournal foreign(TorusShape({8, 4}), 4, 6);
  foreign.record_deliveries(0, {{0, 1}});
  EXPECT_THROW(comm.resume(send, FaultModel{}, foreign, outcome), std::invalid_argument);
}

TEST(ResumeTest, DirectDeltaJournalResumesOnTheSchedule) {
  // A degraded (direct) delta journals against the same geometry with
  // only final commits; a later *scheduled* resume must still honor its
  // bitmap. Kill the direct delta mid-way via cooperative cancel, then
  // finish on the scheduled path.
  const TorusShape shape({4, 4});
  const SuhShinAape algo(shape);
  const Rank n = shape.num_nodes();

  ExchangeJournal journal(shape, algo.num_phases(), algo.total_steps());
  std::atomic<bool> cancel{false};
  JournalRunOptions options;
  options.cancel = &cancel;
  int flushes = 0;
  options.flush = [&](const ExchangeJournal&) {
    if (++flushes == 8) cancel.store(true);  // half the origins delivered
  };
  ResumeReport report;
  EXPECT_THROW(exchange_payloads_direct_journaled(algo, make_send(n), journal, options, report),
               ExchangeCancelledError);
  EXPECT_GT(journal.delivered_parcels(), 16);  // more than the self diagonal
  EXPECT_FALSE(journal.exchange_complete());
  EXPECT_EQ(journal.committed_steps(), 0);  // direct mode commits only at the end

  ExchangeJournal loaded = ExchangeJournal::decode(journal.encode());
  const TorusCommunicator comm(shape, CostParams{});
  ExchangeOutcome outcome;
  ResumeOptions resume_options;
  resume_options.resilience.algorithm = AlltoallAlgorithm::kSuhShin;
  const auto recv = comm.resume(make_send(n), FaultModel{}, loaded, outcome, resume_options);
  expect_transposed(recv, n);
  ASSERT_TRUE(outcome.resume.has_value());
  EXPECT_GT(outcome.resume->materialized, 0);
  EXPECT_EQ(outcome.resume->materialized, outcome.resume->duplicates_dropped);
  EXPECT_TRUE(loaded.exchange_complete());
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
  EXPECT_GT(journal.uncommitted_deliveries().size(), 0u)
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
  // With a node dead from tick 0 the planner degrades; the journaled
  // direct delta must still complete the permutation exactly once and
  // leave a complete journal behind.
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
