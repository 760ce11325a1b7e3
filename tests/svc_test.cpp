// torexd service tests: admission control, quotas, deadlines, the
// weighted-fair phase scheduler, failure isolation, the svc.*
// telemetry surface, and the session driver on the step kernel
// (journal bytes equal to the journaled executor's, mid-phase deferral
// that changes nothing, one compiled program per shape per process).
// Everything runs on the virtual clock, so every assertion here is
// exact — no sleeps, no tolerances.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/aape.hpp"
#include "core/step_program.hpp"
#include "core/step_program_cache.hpp"
#include "core/wire_buffer.hpp"
#include "costmodel/params.hpp"
#include "obs/recorder.hpp"
#include "runtime/communicator.hpp"
#include "runtime/journal.hpp"
#include "sim/fault_model.hpp"
#include "svc/health_registry.hpp"
#include "svc/session_manager.hpp"

namespace torex {
namespace {

const TorusShape kShape({4, 4});
constexpr Rank kN = 16;

/// The oracle payload node p sends node q in session `id`.
std::int64_t payload(SessionId id, Rank p, Rank q) {
  return (id << 20) ^ (static_cast<std::int64_t>(p) << 10) ^ static_cast<std::int64_t>(q);
}

SessionRequest make_request(SessionId id, double arrival = 0.0) {
  SessionRequest req;
  req.arrival = arrival;
  req.send.resize(static_cast<std::size_t>(kN));
  for (Rank p = 0; p < kN; ++p) {
    auto& row = req.send[static_cast<std::size_t>(p)];
    row.resize(static_cast<std::size_t>(kN));
    for (Rank q = 0; q < kN; ++q) row[static_cast<std::size_t>(q)] = payload(id, p, q);
  }
  return req;
}

void expect_oracle(SessionId id, const std::vector<std::vector<std::int64_t>>& recv) {
  ASSERT_EQ(static_cast<Rank>(recv.size()), kN);
  for (Rank q = 0; q < kN; ++q) {
    for (Rank p = 0; p < kN; ++p) {
      ASSERT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)],
                payload(id, p, q))
          << "session " << id << " recv[" << q << "][" << p << "]";
    }
  }
}

/// First Suh-Shin phase with steps (early phases are empty at extent 4).
int first_active_phase(const TorusShape& shape) {
  const SuhShinAape algo(shape);
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    if (algo.steps_in_phase(phase) > 0) return phase;
  }
  return 0;
}

// --- Options and request validation ------------------------------------

TEST(SvcOptionsTest, InvalidBoundsAreRejected) {
  SessionManagerOptions no_active;
  no_active.max_active = 0;
  EXPECT_THROW(no_active.validate(), std::invalid_argument);

  SessionManagerOptions no_queue;
  no_queue.max_queued = 0;
  EXPECT_THROW(no_queue.validate(), std::invalid_argument);

  SessionManagerOptions bad_quota;
  bad_quota.quotas["t"].max_parcel_bytes = -1;
  EXPECT_THROW(bad_quota.validate(), std::invalid_argument);

  SessionManager mgr(kShape, CostParams{}, {});
  SessionRequest bad_weight = make_request(0);
  bad_weight.weight = 0;
  EXPECT_THROW(mgr.submit(std::move(bad_weight)), std::invalid_argument);
  SessionRequest bad_arrival = make_request(0);
  bad_arrival.arrival = -1.0;
  EXPECT_THROW(mgr.submit(std::move(bad_arrival)), std::invalid_argument);
}

TEST(SvcOptionsTest, QuotaFieldsValidateWithTypedErrors) {
  // Each negative field is rejected with a TenantQuotaError that names
  // the tenant, and an entry with every field unlimited is rejected
  // too — it would silently limit nothing.
  TenantQuota negative_bytes;
  negative_bytes.max_parcel_bytes = -1;
  TenantQuota negative_frames;
  negative_frames.max_arena_frames = -2;
  TenantQuota negative_in_flight;
  negative_in_flight.max_sessions_in_flight = -3;
  for (const TenantQuota& quota : {negative_bytes, negative_frames, negative_in_flight}) {
    try {
      quota.validate("acme");
      FAIL() << "negative quota field passed validation";
    } catch (const TenantQuotaError& error) {
      EXPECT_EQ(error.tenant(), "acme");
      EXPECT_NE(std::string(error.what()).find("acme"), std::string::npos);
    }
  }
  const TenantQuota limits_nothing;  // all fields kQuotaUnlimited
  EXPECT_THROW(limits_nothing.validate("idle"), TenantQuotaError);
  TenantQuota useful;
  useful.max_arena_frames = 4;
  EXPECT_NO_THROW(useful.validate("ok"));

  // Manager options surface the same error from their quota map, and
  // submit() raises SessionConfigError for malformed scheduling
  // parameters before the request enters any queue.
  SessionManagerOptions options;
  options.quotas["acme"].max_parcel_bytes = -1;
  EXPECT_THROW(options.validate(), TenantQuotaError);
  SessionManager mgr(kShape, CostParams{}, {});
  SessionRequest heavy = make_request(0);
  heavy.weight = kMaxSessionWeight + 1;
  EXPECT_THROW(mgr.submit(std::move(heavy)), SessionConfigError);
  SessionRequest nan_deadline = make_request(0);
  nan_deadline.deadline = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(mgr.submit(std::move(nan_deadline)), SessionConfigError);
  EXPECT_EQ(mgr.sessions(), 0);
}

TEST(SvcOptionsTest, NonQualifyingShapeIsRejectedAtConstruction) {
  // The service prices phases with the Suh-Shin schedule, so a shape
  // the schedule rejects must fail loudly at manager construction.
  EXPECT_THROW(SessionManager(TorusShape({6, 6}), CostParams{}, {}), std::invalid_argument);
}

// --- Admission control ---------------------------------------------------

TEST(SvcAdmissionTest, OverloadShedsOldestQueuedFirst) {
  SessionManagerOptions options;
  options.max_active = 1;
  options.max_queued = 2;
  SessionManager mgr(kShape, CostParams{}, options);
  for (SessionId id = 0; id < 4; ++id) mgr.submit(make_request(id));
  mgr.run_until_idle();

  // All four arrive at t=0; the waiting room holds two, so ids 0 and 1
  // (the oldest queued) are shed when 2 and 3 arrive.
  for (SessionId id : {SessionId{0}, SessionId{1}}) {
    const SessionRecord rec = mgr.record(id);
    EXPECT_EQ(rec.state, SessionState::kRejected);
    EXPECT_EQ(rec.reject_reason, RejectReason::kQueueFull);
    EXPECT_FALSE(rec.error.empty());
  }
  for (SessionId id : {SessionId{2}, SessionId{3}}) {
    EXPECT_EQ(mgr.record(id).state, SessionState::kCompleted);
    expect_oracle(id, mgr.take_result(id));
  }
  const SvcStats stats = mgr.stats();
  EXPECT_EQ(stats.offered, 4);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.admitted, 2);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.disposed(), stats.offered);
}

TEST(SvcAdmissionTest, ByteQuotaRejectsAtTheDoor) {
  SessionManagerOptions options;
  options.quotas["small"].max_parcel_bytes =
      static_cast<std::int64_t>(kN) * kN * static_cast<std::int64_t>(sizeof(std::int64_t)) - 1;
  SessionManager mgr(kShape, CostParams{}, options);
  SessionRequest req = make_request(0);
  req.tenant = "small";
  mgr.submit(std::move(req));
  mgr.submit(make_request(1));
  mgr.run_until_idle();

  const SessionRecord rejected = mgr.record(0);
  EXPECT_EQ(rejected.state, SessionState::kRejected);
  EXPECT_EQ(rejected.reject_reason, RejectReason::kParcelBytesQuota);
  EXPECT_NE(rejected.error.find("quota"), std::string::npos);
  EXPECT_EQ(mgr.record(1).state, SessionState::kCompleted);
  expect_oracle(1, mgr.take_result(1));
}

TEST(SvcAdmissionTest, MalformedRequestIsRejectedWithReason) {
  SessionManager mgr(kShape, CostParams{}, {});
  SessionRequest req;
  req.send.assign(static_cast<std::size_t>(kN - 1),
                  std::vector<std::int64_t>(static_cast<std::size_t>(kN), 0));
  mgr.submit(std::move(req));
  mgr.run_until_idle();
  const SessionRecord rec = mgr.record(0);
  EXPECT_EQ(rec.state, SessionState::kRejected);
  EXPECT_EQ(rec.reject_reason, RejectReason::kMalformedRequest);
  EXPECT_EQ(mgr.stats().rejected, 1);
}

TEST(SvcAdmissionTest, TenantInFlightCapQueuesWithoutRejecting) {
  SessionManagerOptions options;
  options.max_active = 4;
  options.quotas["capped"].max_sessions_in_flight = 1;
  SessionManager mgr(kShape, CostParams{}, options);
  for (SessionId id = 0; id < 3; ++id) {
    SessionRequest req = make_request(id);
    req.tenant = "capped";
    mgr.submit(std::move(req));
  }
  mgr.run_until_idle();

  const SvcStats stats = mgr.stats();
  EXPECT_EQ(stats.rejected, 0) << "the in-flight cap must delay, never reject";
  EXPECT_EQ(stats.completed, 3);
  // One at a time: each session's admission must not precede the
  // previous session's finish on the virtual clock.
  for (SessionId id = 1; id < 3; ++id) {
    EXPECT_GE(mgr.record(id).admitted_at, mgr.record(id - 1).finished_at);
  }
}

// --- Deadlines -----------------------------------------------------------

TEST(SvcDeadlineTest, ExpiryInQueueRetiresUnadmitted) {
  SessionManagerOptions options;
  options.max_active = 1;
  SessionManager mgr(kShape, CostParams{}, options);
  mgr.submit(make_request(0));  // hogs the only slot for 4 phases
  SessionRequest hurried = make_request(1);
  hurried.deadline = mgr.phase_cost() * 1.5;  // expires before the hog finishes
  mgr.submit(std::move(hurried));
  mgr.run_until_idle();

  EXPECT_EQ(mgr.record(0).state, SessionState::kCompleted);
  const SessionRecord missed = mgr.record(1);
  EXPECT_EQ(missed.state, SessionState::kDeadlineMissed);
  EXPECT_EQ(missed.phases_done, 0) << "expired in the queue, never ran";
  const SvcStats stats = mgr.stats();
  EXPECT_EQ(stats.deadline_missed_queued, 1);
  EXPECT_EQ(stats.deadline_missed_running, 0);
  EXPECT_EQ(stats.disposed(), stats.offered);
}

TEST(SvcDeadlineTest, ExpiryMidRunCancelsAtTheNextDispatch) {
  SessionManager mgr(kShape, CostParams{}, {});
  SessionRequest req = make_request(0);
  req.deadline = mgr.phase_cost() * 1.5;  // enough for one phase, not two
  mgr.submit(std::move(req));
  mgr.run_until_idle();

  const SessionRecord rec = mgr.record(0);
  EXPECT_EQ(rec.state, SessionState::kDeadlineMissed);
  EXPECT_GT(rec.phases_done, 0) << "admitted and ran before expiring";
  EXPECT_NE(rec.error.find("deadline"), std::string::npos);
  EXPECT_EQ(mgr.stats().deadline_missed_running, 1);
  EXPECT_EQ(mgr.stats().deadline_missed(), 1);
}

TEST(SvcDeadlineTest, VirtualClockJumpsToFutureArrivals) {
  SessionManager mgr(kShape, CostParams{}, {});
  mgr.submit(make_request(0, /*arrival=*/7.5));
  mgr.run_until_idle();
  const SessionRecord rec = mgr.record(0);
  EXPECT_EQ(rec.state, SessionState::kCompleted);
  EXPECT_GE(rec.admitted_at, 7.5);
  EXPECT_GE(mgr.now(), 7.5);
}

// --- Weighted-fair scheduling -------------------------------------------

TEST(SvcFairnessTest, HeavierWeightFinishesFirst) {
  SessionManagerOptions options;
  options.max_active = 2;
  SessionManager mgr(kShape, CostParams{}, options);
  SessionRequest light = make_request(0);
  light.weight = 1;
  SessionRequest heavy = make_request(1);
  heavy.weight = 3;
  mgr.submit(std::move(light));
  mgr.submit(std::move(heavy));
  mgr.run_until_idle();

  const SessionRecord a = mgr.record(0);
  const SessionRecord b = mgr.record(1);
  EXPECT_EQ(a.state, SessionState::kCompleted);
  EXPECT_EQ(b.state, SessionState::kCompleted);
  // A weight-3 session is charged a third of the virtual time per
  // phase, so it takes ~3 turns for every 1 of the weight-1 session
  // and must retire strictly earlier.
  EXPECT_LT(b.finished_at, a.finished_at);
  expect_oracle(0, mgr.take_result(0));
  expect_oracle(1, mgr.take_result(1));
}

TEST(SvcFairnessTest, EqualWeightsInterleaveByVirtualFinish) {
  SessionManagerOptions options;
  options.max_active = 2;
  SessionManager mgr(kShape, CostParams{}, options);
  mgr.submit(make_request(0));
  mgr.submit(make_request(1));
  mgr.run_until_idle();
  // Same weight, same arrival: both finish, one dispatch apart (the
  // tie-break is by id, so session 0 retires first).
  const SessionRecord a = mgr.record(0);
  const SessionRecord b = mgr.record(1);
  EXPECT_EQ(a.state, SessionState::kCompleted);
  EXPECT_EQ(b.state, SessionState::kCompleted);
  EXPECT_LT(a.finished_at, b.finished_at);
}

// --- Failure isolation ---------------------------------------------------

TEST(SvcIsolationTest, CrashedVictimHasZeroBlastRadius) {
  SessionManagerOptions options;
  options.max_active = 3;
  SessionManager mgr(kShape, CostParams{}, options);
  const SessionId victim = 1;
  for (SessionId id = 0; id < 3; ++id) {
    SessionRequest req = make_request(id);
    if (id == victim) req.inject.crash_phase = first_active_phase(kShape);
    mgr.submit(std::move(req));
  }
  mgr.run_until_idle();

  const SessionRecord dead = mgr.record(victim);
  EXPECT_EQ(dead.state, SessionState::kFailed);
  EXPECT_NE(dead.error.find("crash"), std::string::npos);
  EXPECT_FALSE(mgr.journal(victim).exchange_complete())
      << "the victim's journal stops at the crash";
  for (SessionId id : {SessionId{0}, SessionId{2}}) {
    ASSERT_EQ(mgr.record(id).state, SessionState::kCompleted);
    expect_oracle(id, mgr.take_result(id));
  }
  const SvcStats stats = mgr.stats();
  EXPECT_EQ(stats.failed, 1);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.deadline_missed(), 0);
  EXPECT_EQ(mgr.outstanding_frames(), 0) << "the crash must not leak arena frames";
}

TEST(SvcIsolationTest, CorruptedFrameFailsOnlyTheInjectingSession) {
  SessionManagerOptions options;
  options.max_active = 2;
  SessionManager mgr(kShape, CostParams{}, options);
  SessionRequest bad = make_request(0);
  bad.inject.corrupt_phase = first_active_phase(kShape);
  mgr.submit(std::move(bad));
  mgr.submit(make_request(1));
  mgr.run_until_idle();

  const SessionRecord dead = mgr.record(0);
  EXPECT_EQ(dead.state, SessionState::kFailed);
  EXPECT_NE(dead.error.find("refused"), std::string::npos);
  ASSERT_EQ(mgr.record(1).state, SessionState::kCompleted);
  expect_oracle(1, mgr.take_result(1));
  EXPECT_EQ(mgr.outstanding_frames(), 0);
}

TEST(SvcIsolationTest, FrameQuotaBreachFailsOnlyTheBreacher) {
  SessionManagerOptions options;
  options.max_active = 2;
  options.quotas["victim"].max_arena_frames = 1;
  SessionManager mgr(kShape, CostParams{}, options);
  SessionRequest starved = make_request(0);
  starved.tenant = "victim";
  mgr.submit(std::move(starved));
  mgr.submit(make_request(1));
  mgr.run_until_idle();

  const SessionRecord dead = mgr.record(0);
  EXPECT_EQ(dead.state, SessionState::kFailed);
  EXPECT_NE(dead.error.find("frame quota"), std::string::npos);
  ASSERT_EQ(mgr.record(1).state, SessionState::kCompleted);
  expect_oracle(1, mgr.take_result(1));
  EXPECT_EQ(mgr.outstanding_frames(), 0)
      << "the quota throw must release every frame the breacher held";
}

TEST(SvcIsolationTest, CancelQueuedAndCancelRunning) {
  SessionManagerOptions options;
  options.max_active = 1;
  SessionManager mgr(kShape, CostParams{}, options);
  SessionRequest running = make_request(0);
  running.inject.cancel_after_phases = 1;  // cooperative mid-run cancel
  mgr.submit(std::move(running));
  mgr.submit(make_request(1));
  mgr.cancel(1);  // cancelled while still queued
  mgr.submit(make_request(2));
  mgr.run_until_idle();

  EXPECT_EQ(mgr.record(0).state, SessionState::kCancelled);
  EXPECT_EQ(mgr.record(1).state, SessionState::kCancelled);
  EXPECT_EQ(mgr.record(1).phases_done, 0);
  ASSERT_EQ(mgr.record(2).state, SessionState::kCompleted);
  expect_oracle(2, mgr.take_result(2));
  const SvcStats stats = mgr.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.cancelled_queued, 1);
  EXPECT_EQ(stats.disposed(), stats.offered);
  EXPECT_EQ(mgr.outstanding_frames(), 0);
}

// --- Results and journals ------------------------------------------------

TEST(SvcResultTest, TakeResultIsMoveOnceAndCompletedOnly) {
  SessionManager mgr(kShape, CostParams{}, {});
  mgr.submit(make_request(0));
  SessionRequest doomed = make_request(1);
  doomed.inject.crash_phase = first_active_phase(kShape);
  mgr.submit(std::move(doomed));
  mgr.run_until_idle();

  expect_oracle(0, mgr.take_result(0));
  EXPECT_THROW(mgr.take_result(0), std::invalid_argument) << "second take must throw";
  EXPECT_THROW(mgr.take_result(1), std::invalid_argument) << "failed session has no result";
  EXPECT_THROW(mgr.record(99), std::invalid_argument) << "unknown id must throw";
}

TEST(SvcResultTest, StridedSessionExchangeRoundTripsUserBuffers) {
  // The strided seed/result API on the phase-granular executor: both
  // endpoints are columns of row-major matrices, and the session reads
  // and writes them through the views — no dense staging rows.
  const SuhShinAape algo(kShape);
  const StepProgram program(algo);
  WireArena arena;
  const auto n = static_cast<std::size_t>(kN);
  std::vector<std::int64_t> send_mat(n * n);
  std::vector<std::int64_t> recv_mat(n * n, -1);
  std::vector<StridedView<const std::int64_t>> send;
  std::vector<StridedView<std::int64_t>> recv;
  for (Rank p = 0; p < kN; ++p) {
    send.push_back({send_mat.data() + p, n, static_cast<std::ptrdiff_t>(n)});
    recv.push_back({recv_mat.data() + p, n, static_cast<std::ptrdiff_t>(n)});
    for (Rank q = 0; q < kN; ++q) {
      send_mat[static_cast<std::size_t>(q) * n + static_cast<std::size_t>(p)] =
          payload(42, p, q);
    }
  }
  SessionExchange exchange(42, algo, program, send, arena, 0);
  EXPECT_THROW(exchange.take_result_into(recv), std::invalid_argument)
      << "result before completion must throw";
  while (!exchange.complete()) {
    ASSERT_EQ(exchange.run_phase(nullptr, {}), PhaseOutcome::kComplete);
  }
  exchange.take_result_into(recv);
  for (Rank q = 0; q < kN; ++q) {
    for (Rank p = 0; p < kN; ++p) {
      EXPECT_EQ(recv[static_cast<std::size_t>(q)].at(static_cast<std::size_t>(p)),
                payload(42, p, q))
          << "recv[" << q << "][" << p << "]";
    }
  }
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);
  // The session replays the compiled paper-layout program: in 2D every
  // send set is one contiguous run, gathered with a single memcpy.
  EXPECT_GT(arena.stats().total_sends, 0);
  EXPECT_TRUE(arena.stats().fully_contiguous());
  EXPECT_EQ(arena.stats().gathered_parcels, 0);
  EXPECT_EQ(arena.stats().runs_encoded, arena.stats().total_sends);
}

// --- The session driver on the step kernel --------------------------------

/// Session `id`'s n x n send rows.
std::vector<std::vector<std::int64_t>> send_rows(Rank n, SessionId id) {
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) send[static_cast<std::size_t>(p)].push_back(payload(id, p, q));
  }
  return send;
}

/// recv[q][p] == send[p][q] for every pair.
void expect_transposed(const std::vector<std::vector<std::int64_t>>& send,
                       const std::vector<std::vector<std::int64_t>>& recv) {
  ASSERT_EQ(recv.size(), send.size());
  for (std::size_t q = 0; q < recv.size(); ++q) {
    for (std::size_t p = 0; p < send.size(); ++p) {
      ASSERT_EQ(recv[q][p], send[p][q]) << "recv[" << q << "][" << p << "]";
    }
  }
}

TEST(SvcDriverTest, SessionJournalIsTheJournaledExecutorsByteForByte) {
  // Run phase by phase, a session writes exactly the journal the
  // one-shot journaled executor writes for the same send: both drive
  // the same kernel over the same program with the same journal hooks.
  for (const TorusShape& shape : {TorusShape({8, 8}), TorusShape({8, 4, 4})}) {
    const SuhShinAape algo(shape);
    const StepProgram program(algo);
    const Rank n = shape.num_nodes();
    const auto send = send_rows(n, 5);
    WireArena arena;
    SessionExchange session(5, algo, program, send, arena, 0);
    while (!session.complete()) {
      ASSERT_EQ(session.run_phase(nullptr, {}), PhaseOutcome::kComplete);
    }

    ExchangeJournal journal;
    ResumeReport report;
    exchange_payloads_journaled(algo, program, send, journal, JournalRunOptions{}, report);
    EXPECT_EQ(session.journal().encode(), journal.encode()) << shape.to_string();
    EXPECT_EQ(session.sent_parcels(), report.sent_parcels) << shape.to_string();
    expect_transposed(send, session.take_result());
    EXPECT_EQ(arena.stats().outstanding_frames(), 0);
  }
}

/// A message that step `step` >= 2 of `phase` sends from `src` towards
/// `dir`, over a first channel that no earlier step of the phase uses.
struct MidPhaseRoute {
  int phase = 0;
  int step = 0;
  Rank src = -1;
  Direction dir{};
};

MidPhaseRoute find_mid_phase_route(const SuhShinAape& algo, const StepProgram& program) {
  const Torus& torus = algo.torus();
  std::vector<ChannelId> route;
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    std::set<ChannelId> earlier;
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
      for (Rank p = 0; p < program.num_nodes(); ++p) {
        const Direction dir = algo.direction(p, phase, step);
        if (step >= 2 && program.step(phase, step, p).count > 0 &&
            earlier.count(torus.channel_id(p, dir)) == 0) {
          return {phase, step, p, dir};
        }
      }
      for (Rank p = 0; p < program.num_nodes(); ++p) {
        if (program.step(phase, step, p).count == 0) continue;
        route.clear();
        torus.straight_path(p, algo.direction(p, phase, step), algo.hops_per_step(phase), route);
        earlier.insert(route.begin(), route.end());
      }
    }
  }
  return {};
}

TEST(SvcDriverTest, SessionDeferredMidPhaseEndsAsIfNeverDeferred) {
  // A live fault on a channel first used mid-phase, and a retry budget
  // that cannot pay its discovery: the dispatch defers at that step,
  // after the phase's earlier steps committed, and returns the phase's
  // frames. Resumed with a budget, the session ends exactly as one that
  // never deferred — the deferred step had mutated nothing, and no step
  // or rearrangement ran twice.
  const TorusShape shape({8, 8});
  const SuhShinAape algo(shape);
  const StepProgram program(algo);
  const MidPhaseRoute mid = find_mid_phase_route(algo, program);
  ASSERT_GE(mid.step, 2) << "no route is first used mid-phase";
  constexpr std::int64_t kStorm = 10;  // the fault is live from this tick on
  FaultModel faults;
  faults.fail_channel(mid.src, mid.dir, kStorm);
  const auto send = send_rows(shape.num_nodes(), 3);

  struct Outcome {
    std::vector<std::vector<std::int64_t>> recv;
    std::vector<std::byte> journal;
    std::int64_t sent = 0;
    std::int64_t resent = 0;
    WirePoolStats wire;
    int deferrals = 0;
  };
  const auto run = [&](bool tight) {
    WireArena arena;
    HealthRegistry registry(shape, BreakerOptions{});
    RetryBudget empty(RetryBudgetOptions{1, 0.0});  // one token: denies every message
    RetryBudget unlimited;
    SessionExchange session(3, algo, program, send, arena, 0);
    Outcome out;
    while (!session.complete()) {
      HealthContext health;
      health.faults = &faults;
      health.registry = &registry;
      health.budget = tight && out.deferrals == 0 ? &empty : &unlimited;
      health.tick = session.phases_done() + 1 < mid.phase ? 0 : kStorm;
      const std::int64_t committed = session.journal().committed_steps();
      const std::int64_t acquires = arena.stats().acquires;
      if (session.run_phase(nullptr, {}, health) == PhaseOutcome::kDeferred) {
        ++out.deferrals;
        EXPECT_EQ(session.phases_done() + 1, mid.phase);
        EXPECT_EQ(session.journal().committed_steps() - committed, mid.step - 1)
            << "the steps before the faulted one commit before the deferral";
        EXPECT_EQ(arena.stats().acquires - acquires, shape.num_nodes())
            << "those steps ran on the phase's frames, one per sender";
      }
      EXPECT_EQ(arena.in_use(), 0) << "a session holds no frame between dispatches";
    }
    out.journal = session.journal().encode();
    out.sent = session.sent_parcels();
    out.resent = session.resent_parcels();
    out.recv = session.take_result();
    out.wire = arena.stats();
    EXPECT_EQ(out.wire.outstanding_frames(), 0);
    return out;
  };
  const Outcome undeferred = run(false);
  const Outcome deferred = run(true);
  EXPECT_EQ(undeferred.deferrals, 0);
  EXPECT_EQ(deferred.deferrals, 1);
  expect_transposed(send, deferred.recv);
  EXPECT_EQ(deferred.recv, undeferred.recv);
  EXPECT_EQ(deferred.journal, undeferred.journal);
  EXPECT_EQ(deferred.sent, undeferred.sent);
  EXPECT_GT(deferred.resent, 0);
  EXPECT_EQ(deferred.resent, undeferred.resent);
  EXPECT_EQ(deferred.wire.messages, undeferred.wire.messages);
  // One rearrangement per phase boundary, deferred or not.
  EXPECT_EQ(deferred.wire.rearrangement_passes, algo.num_phases() - 1);
  EXPECT_EQ(undeferred.wire.rearrangement_passes, algo.num_phases() - 1);
  EXPECT_EQ(deferred.wire.parcels_rearranged, undeferred.wire.parcels_rearranged);
}

TEST(SvcDriverTest, RetirementKeepsTheJournalInEveryTerminalState) {
  // Retirement frees a session's rows and the kernel's storage; its
  // journal must read exactly as the session left it, however it ended.
  // Each session is replayed on an exchange of its own that is never
  // retired, to the point where the manager's session ended.
  const TorusShape shape({8, 8});
  const SuhShinAape algo(shape);
  const StepProgram program(algo);
  const Rank n = shape.num_nodes();
  SessionManagerOptions options;
  options.max_active = 5;
  SessionManager mgr(shape, CostParams{}, options);
  std::vector<SessionInjection> inject(5);
  inject[1].crash_phase = 2;
  inject[2].corrupt_phase = 3;
  inject[3].cancel_after_phases = 2;
  for (SessionId id = 0; id < 5; ++id) {
    SessionRequest req;
    req.send = send_rows(n, id);
    req.inject = inject[static_cast<std::size_t>(id)];
    if (id == 4) req.deadline = 6.5 * mgr.phase_cost();  // expires mid-run
    mgr.submit(std::move(req));
  }
  mgr.run_until_idle();

  const std::vector<SessionState> ended{SessionState::kCompleted, SessionState::kFailed,
                                        SessionState::kFailed, SessionState::kCancelled,
                                        SessionState::kDeadlineMissed};
  for (SessionId id = 0; id < 5; ++id) {
    const SessionRecord rec = mgr.record(id);
    const SessionInjection& injected = inject[static_cast<std::size_t>(id)];
    ASSERT_EQ(rec.state, ended[static_cast<std::size_t>(id)]) << id << ": " << rec.error;
    WireArena arena;
    SessionExchange reference(id, algo, program, send_rows(n, id), arena, 0);
    std::atomic<bool> cancel{false};
    for (int phase = 0; phase < rec.phases_done; ++phase) {
      ASSERT_EQ(reference.run_phase(&cancel, injected), PhaseOutcome::kComplete);
    }
    if (rec.state == SessionState::kFailed) {
      EXPECT_ANY_THROW(reference.run_phase(&cancel, injected));
    } else if (rec.state == SessionState::kCancelled) {
      cancel.store(true);
      EXPECT_THROW(reference.run_phase(&cancel, injected), ExchangeCancelledError);
    }
    EXPECT_EQ(mgr.journal(id).encode(), reference.journal().encode()) << to_string(rec.state);
    if (rec.state == SessionState::kCompleted) {
      // The stream was reserved at its final size at admission.
      EXPECT_EQ(reference.journal().encode().capacity(), reference.journal().encode().size());
    }
  }
  EXPECT_GT(mgr.record(4).phases_done, 0) << "the deadline must pass mid-run";
  expect_transposed(send_rows(n, 0), mgr.take_result(0));
  EXPECT_EQ(mgr.outstanding_frames(), 0);
}

TEST(SvcDriverTest, ManagersAndCommunicatorsShareOneCompiledProgram) {
  // Every service epoch builds a fresh manager; none of them, and no
  // communicator of the same shape, compiles the schedule again.
  const TorusShape shape({12, 4});
  SessionManager first(shape, CostParams{}, {});
  const std::int64_t compiled = step_program_cache().compiles();
  SessionManager second(shape, CostParams{}, {});
  SessionRequest req;
  req.send = send_rows(shape.num_nodes(), 9);
  const auto send = req.send;
  second.submit(std::move(req));
  second.run_until_idle();
  expect_transposed(send, second.take_result(0));
  const TorusCommunicator comm(shape, CostParams{});
  expect_transposed(send, comm.alltoall(send, AlltoallAlgorithm::kSuhShin));
  EXPECT_EQ(step_program_cache().compiles(), compiled);
}

// --- Telemetry -----------------------------------------------------------

TEST(SvcTelemetryTest, CountersAndGaugesMirrorStats) {
  Recorder recorder;
  SessionManagerOptions options;
  options.max_active = 1;
  options.max_queued = 1;
  options.obs = &recorder;
  SessionManager mgr(kShape, CostParams{}, options);
  mgr.submit(make_request(0));
  SessionRequest hurried = make_request(1);
  hurried.deadline = mgr.phase_cost() * 0.5;
  mgr.submit(std::move(hurried));
  mgr.submit(make_request(2));  // sheds session 1's slot successor
  mgr.submit(make_request(3));  // overflows the 1-deep queue
  mgr.run_until_idle();

  const SvcStats stats = mgr.stats();
  const Telemetry telemetry = recorder.snapshot();
  EXPECT_EQ(telemetry.metrics.counter_value("svc.offered"), stats.offered);
  EXPECT_EQ(telemetry.metrics.counter_value("svc.admitted"), stats.admitted);
  EXPECT_EQ(telemetry.metrics.counter_value("svc.rejected"), stats.rejected);
  EXPECT_EQ(telemetry.metrics.counter_value("svc.deadline_missed"), stats.deadline_missed());
  EXPECT_EQ(telemetry.metrics.counter_value("svc.completed"), stats.completed);
  EXPECT_GT(stats.rejected, 0) << "the 1-deep queue must have shed";
  EXPECT_EQ(telemetry.metrics.gauge_value("svc.active_sessions"), 0);
  EXPECT_EQ(telemetry.metrics.gauge_value("svc.queued_sessions"), 0);
  EXPECT_EQ(telemetry.metrics.gauge_value("svc.queue_depth", {{"tenant", "default"}}), 0);
  // Per-phase spans were recorded under the literal svc.phase name.
  bool saw_phase_span = false;
  for (const TelemetryEvent& event : telemetry.events) {
    if (event.name == "svc.phase" && event.kind == EventKind::kBegin) saw_phase_span = true;
  }
  EXPECT_TRUE(saw_phase_span);
}

// --- Wire arena lease accounting (satellite regression) ------------------

TEST(SvcArenaTest, OutstandingFramesBalancesAcquiresAndReleases) {
  WireArena arena;
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);
  {
    PooledFrame a;
    a.bind(arena, 128);
    EXPECT_EQ(arena.stats().outstanding_frames(), 1);
    PooledFrame b;
    b.bind(arena, 256);
    EXPECT_EQ(arena.stats().outstanding_frames(), 2);
  }
  EXPECT_EQ(arena.stats().outstanding_frames(), 0)
      << "RAII release must balance every acquire";
  EXPECT_EQ(arena.stats().releases, arena.stats().acquires);

  // The exception path must balance too.
  try {
    PooledFrame f;
    f.bind(arena, 64);
    throw std::runtime_error("unwind");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(arena.stats().outstanding_frames(), 0);
}

// --- Concurrency smoke ---------------------------------------------------

TEST(SvcConcurrencyTest, ThreadedSubmitCancelRunConserveSessions) {
  // Four submitters and a canceller race the scheduler; whatever the
  // interleaving, every session must land in exactly one terminal
  // bucket and the arena must end balanced. (The TSan CI job runs this
  // suite, so the locking itself is also under test here.)
  constexpr std::int64_t kTotal = 60;
  SessionManagerOptions options;
  options.max_active = 4;
  options.max_queued = 16;
  SessionManager mgr(kShape, CostParams{}, options);

  // Racing submitters make the assigned session id diverge from the
  // index that seeded the payloads; the oracle is keyed through this
  // map. Assigned ids are unique, so each slot is written exactly once.
  std::vector<std::int64_t> tag(static_cast<std::size_t>(kTotal), -1);
  std::atomic<std::int64_t> next{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      for (;;) {
        const std::int64_t i = next.fetch_add(1);
        if (i >= kTotal) return;
        const SessionId id = mgr.submit(make_request(i));
        tag[static_cast<std::size_t>(id)] = i;
      }
    });
  }
  std::thread canceller([&] {
    std::int64_t upto = 0;
    while (!done.load()) {
      const std::int64_t submitted = mgr.sessions();
      for (; upto < submitted; ++upto) {
        if (upto % 7 == 0) mgr.cancel(upto);
      }
      std::this_thread::yield();
    }
  });
  while (!done.load()) {
    if (!mgr.run_one() && next.load() >= kTotal) done.store(true);
  }
  for (auto& t : submitters) t.join();
  canceller.join();
  mgr.run_until_idle();

  const SvcStats stats = mgr.stats();
  EXPECT_EQ(stats.offered, kTotal);
  EXPECT_EQ(stats.disposed(), stats.offered);
  EXPECT_EQ(stats.admitted,
            stats.completed + stats.failed + stats.cancelled + stats.deadline_missed_running);
  std::int64_t verified = 0;
  for (SessionId id = 0; id < kTotal; ++id) {
    const SessionRecord rec = mgr.record(id);
    ASSERT_TRUE(rec.terminal());
    if (rec.state == SessionState::kCompleted) {
      ASSERT_GE(tag[static_cast<std::size_t>(id)], 0);
      expect_oracle(tag[static_cast<std::size_t>(id)], mgr.take_result(id));
      ++verified;
    }
  }
  EXPECT_EQ(verified, stats.completed);
  EXPECT_EQ(mgr.outstanding_frames(), 0);
}

}  // namespace
}  // namespace torex
