// Incremental per-phase execution of one session's exchange.
//
// The journaled executor (runtime/journal.hpp) runs a whole exchange in
// one call; the weighted-fair scheduler needs to interleave *phases*
// from different sessions. SessionExchange is the step kernel's fourth
// driver (core/payload_exchange.hpp): it owns the request's rows and a
// StepReplay of the manager's compiled StepProgram, and each
// run_phase() call replays exactly one Suh-Shin phase's steps over the
// session's rows — pooled sealed frames on the wire, write-ahead
// journal flush before every step commit, cooperative cancel polled at
// the step boundary and inside the flush/commit window — then returns
// control to the scheduler. State between calls lives in the object, so
// a session can sit unscheduled for arbitrarily long between phases
// while other tenants use the engine. The kernel runs inline: an 8x8
// step is too short to split over threads.
//
// The service's policies are the driver's hooks. Before each step, the
// health gate, the frame quota and the sent-parcel accounting read the
// step's partners and parcel counts from the program (and direction and
// hops from the schedule) — no row is scanned. The health gate reads a
// HealthView built once per dispatch; when nothing is down, failed or
// quarantined at the dispatch's tick it has nothing to check. The
// corrupt injection flips a payload bit of the phase's first frame, the
// settle hook turns a refused frame into SessionIntegrityError, and the
// journal records reuse the journaled executor's hooks (a deliveries
// record per step with arrivals, then its commit), with the crash
// injection and the cancel window between each step's flush and its
// commit. The result unpacks through
// the program's final table, once the journal has committed every step
// and phase.
//
// What a session owns: the rows (adopted from the request at
// admission), the kernel's outbound, staging and scratch storage, and a
// journal whose stream is reserved at its final size. retire() frees
// all of it but the journal and the counters.
//
// Isolation properties the manager relies on:
//  * every frame a phase leases from the shared arena goes back to it
//    before run_phase returns or any throw (crash, corruption, quota,
//    cancel) leaves it — a session holds no frame between dispatches,
//    even when the health gate defers it mid-phase — so a failing
//    session cannot leak frames into other tenants' budget
//    (WirePoolStats::outstanding_frames() stays balanced);
//  * the journal is per-session: a victim's partial journal decodes and
//    resumes independently of every other session's;
//  * tenant frame quotas are enforced before a phase leases anything,
//    so a quota breach costs the breaching session only.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/aape.hpp"
#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "core/wire_buffer.hpp"
#include "obs/flight_recorder.hpp"
#include "runtime/journal.hpp"
#include "sim/fault_model.hpp"
#include "svc/health_registry.hpp"
#include "svc/session.hpp"

namespace torex {

/// The service-level health view one phase executes under: ground-truth
/// service faults on the manager's fault tick axis, the shared breaker
/// registry, and the global retry token bucket. Default-constructed
/// (inactive) when the manager runs without a health layer — the data
/// path then never consults health state.
struct HealthContext {
  const FaultModel* faults = nullptr;  ///< service ground truth (may be empty)
  HealthRegistry* registry = nullptr;
  RetryBudget* budget = nullptr;
  std::int64_t tick = 0;  ///< the manager's fault tick for this dispatch

  bool active() const { return registry != nullptr; }
};

/// What a run_phase dispatch did. kDeferred means the retry budget
/// refused the retransmissions a faulted step needs: nothing was
/// mutated for that step, and the next dispatch resumes exactly there
/// (retries queue rather than fire).
enum class PhaseOutcome {
  kComplete,  ///< the phase ran to its commit marker
  kDeferred,  ///< re-queue: budget denied, state untouched at the step
};

/// One session's exchange, executable one phase at a time. The service
/// payload is fixed to one machine word.
class SessionExchange {
 public:
  /// Adopts `send` as the session's rows (must be N x N for the
  /// schedule's node count; send[p][q] is node p's word for q, which is
  /// already the program's first slot order) and binds a fresh
  /// per-session journal. `program` is `algo` compiled
  /// (StepProgramMismatchError otherwise); `algo`, `program` and `arena`
  /// must outlive the exchange. `max_leased_frames` is the tenant's
  /// arena-frame quota (0 = unlimited). `flight`, when non-null,
  /// receives per-step black-box notes (including one at the exact
  /// phase/step of any throw) under this session's id.
  SessionExchange(SessionId id, const SuhShinAape& algo, const StepProgram& program,
                  std::vector<std::vector<std::int64_t>> send, WireArena& arena,
                  std::int64_t max_leased_frames, FlightRecorder* flight = nullptr);

  /// Strided-view seed (Träff-style datatypes): the rows are read
  /// straight out of the caller's buffers through per-node
  /// StridedViews. send[p].at(q) is node p's word for destination q.
  SessionExchange(SessionId id, const SuhShinAape& algo, const StepProgram& program,
                  const std::vector<StridedView<const std::int64_t>>& send, WireArena& arena,
                  std::int64_t max_leased_frames, FlightRecorder* flight = nullptr);

  int num_phases() const { return algo_->num_phases(); }
  int phases_done() const { return replay_.phase - 1; }
  bool complete() const { return phases_done() == num_phases(); }
  std::int64_t sent_parcels() const { return sent_parcels_; }
  /// Retry-budget tokens this session's discoveries drew (per-tenant
  /// spend attribution for the SLO ledger).
  std::int64_t resent_parcels() const { return resent_parcels_; }
  /// Most arena frames this session held leased at once.
  std::int64_t peak_leased_frames() const { return peak_leased_; }
  const ExchangeJournal& journal() const { return journal_; }

  /// Executes the next phase's steps. Throws ExchangeCancelledError
  /// when `cancel` is observed at a step boundary or in the
  /// flush/commit window, ExchangeCrashError / SessionIntegrityError /
  /// SessionQuotaError per `inject` and the frame quota, and
  /// SessionFaultError when a faulted/quarantined route has no detour.
  /// After a throw the exchange is dead (the journal keeps everything
  /// flushed so far); the manager retires the session.
  ///
  /// With an active `health` context the dispatch builds its HealthView
  /// at the context's tick, and every step whose view is not empty runs
  /// a pre-flight gate before any buffer is touched: scheduled routes
  /// (the program's partners, the schedule's directions and hops) are
  /// checked against the view in sender order; discovery retries draw
  /// from the global budget (denial returns kDeferred — the step is
  /// untouched and a later dispatch resumes it); messages over bad
  /// resources are rerouted (or remap-hosted when an endpoint is
  /// failed or quarantined), with the detours accounted in the registry.
  PhaseOutcome run_phase(const std::atomic<bool>* cancel, const SessionInjection& inject,
                         const HealthContext& health = {});

  /// recv[q][p] = send[p][q]; requires complete(). Consumes the rows.
  std::vector<std::vector<std::int64_t>> take_result();

  /// Strided-view result: scatters the delivered rows straight into the
  /// caller's buffers (recv[q].at(p) = send[p].at(q)) through the
  /// program's final table; requires complete(). Consumes the rows.
  void take_result_into(const std::vector<StridedView<std::int64_t>>& recv);

  /// Frees the rows (unless the result was taken) and the kernel's
  /// storage once the session is terminal. The journal and the counters
  /// stay readable; run_phase and the result calls then refuse.
  void retire();

 private:
  struct Driver;

  /// Pre-mutation health check of one step against the dispatch's view.
  /// Returns false to defer (budget denied); throws SessionFaultError
  /// when no detour exists.
  bool health_gate(int phase, int step, const HealthContext& health, HealthView& view);

  /// Black-box note at (phase, step); no-op without a recorder.
  void flight_note(const char* name, const HealthContext& health, int phase, int step,
                   std::int64_t value = 0);

  SessionId id_;
  const SuhShinAape* algo_;
  const StepProgram* program_;
  WireArena* arena_;
  FlightRecorder* flight_ = nullptr;
  std::int64_t frame_quota_;
  std::vector<std::vector<std::int64_t>> rows_;  ///< in the program's slot order
  /// The kernel's replay: the next (phase, step), where a deferred step
  /// resumes.
  detail::StepReplay<std::int64_t> replay_;
  ExchangeJournal journal_;
  std::int64_t sent_parcels_ = 0;
  std::int64_t resent_parcels_ = 0;
  std::int64_t peak_leased_ = 0;
};

}  // namespace torex
