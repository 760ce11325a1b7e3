// torexd: the session-multiplexing service over one shared engine.
//
// One SessionManager owns one torus, one cost model, one Suh-Shin
// schedule, and one WireArena, and multiplexes many tenants' exchanges
// over them:
//
//  * Admission control — at most `max_active` sessions execute
//    concurrently and at most `max_queued` wait; overload sheds
//    deterministically, oldest-queued-first, each shed session retiring
//    as kRejected with a reason (never a silent drop). Tenant byte
//    quotas reject oversized sessions at the door.
//  * Weighted-fair phase scheduling — admitted sessions take turns one
//    *phase* at a time: each session carries a virtual finish time,
//    advanced by phase_cost / weight per executed phase (the classic
//    WFQ virtual clock, priced by the paper's cost model), and the
//    runnable session with the smallest finish time goes next. Links
//    and arena frames never idle waiting for one session to finish
//    end-to-end.
//  * Deadline scheduling — a session's deadline is an absolute point on
//    the manager's virtual clock. Expiry in the queue retires it
//    unadmitted; expiry mid-run sets its cooperative cancel flag,
//    which the session driver polls at the next dispatch.
//  * One compiled schedule — the manager draws its StepProgram from the
//    process's cache (core/step_program_cache.hpp), so a fresh manager
//    of a shape the process has seen compiles nothing, and every session
//    replays that program on the step kernel.
//  * Isolation — each session has its own journal, parcels, and cancel
//    flag; a crash, corruption storm, or quota breach unwinds through
//    RAII (frames back to the arena, exception recorded on the session)
//    and the scheduler simply moves to the next tenant. Blast radius of
//    a failing session is exactly that session.
//
// Concurrency contract: submit / cancel / cancel_handle / record /
// stats are thread-safe (one manager mutex). run_one / run_until_idle
// execute sessions under the same mutex — call them from one driver
// thread; submitters and cancellers may run concurrently against it.
// Cancel flags obtained via cancel_handle() may be flipped at any time
// without the lock; running sessions poll them at step boundaries.
//
// Time is virtual throughout (cost-model units): arrivals, deadlines,
// and latencies are all modeled, so every schedule decision is
// reproducible from the seed — wall clock never influences ordering.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/aape.hpp"
#include "core/wire_buffer.hpp"
#include "costmodel/params.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/failure_detector.hpp"
#include "sim/fault_model.hpp"
#include "svc/health_registry.hpp"
#include "svc/session.hpp"
#include "svc/session_exchange.hpp"

namespace torex {

/// The manager's health layer tuning: breaker lattice, global retry
/// bucket, and the phi-accrual detector that feeds node suspicion from
/// service crash faults. validate() delegates to each part.
struct HealthOptions {
  /// Turns the health layer on. It also activates implicitly when
  /// SessionManagerOptions::service_faults is non-empty — a fault
  /// model without the health substrate would fault sessions silently.
  bool enabled = false;
  BreakerOptions breaker;
  RetryBudgetOptions retries;
  FailureDetectorOptions detector;

  void validate() const;
};

/// Manager-wide tuning. validate() rejects non-positive bounds,
/// malformed quota entries (TenantQuotaError), and malformed health
/// tuning.
struct SessionManagerOptions {
  /// Concurrently executing sessions (the admission bound).
  int max_active = 8;
  /// Bounded waiting room; an arrival beyond it sheds the oldest
  /// queued session (kRejected / kQueueFull).
  int max_queued = 64;
  /// Block size the cost model prices phases with.
  std::int64_t block_bytes = static_cast<std::int64_t>(sizeof(std::int64_t));
  /// Per-tenant quotas; tenants absent from the map are unlimited.
  std::map<std::string, TenantQuota> quotas;
  /// Ground-truth service faults on the manager's fault tick axis (one
  /// tick per dispatched phase; see fault_tick()). Sessions never see
  /// this model directly — they discover it through the health layer.
  FaultModel service_faults;
  /// Health layer tuning; see HealthOptions.
  HealthOptions health;
  /// Optional telemetry: svc.* counters/gauges and per-phase spans.
  Recorder* obs = nullptr;
  /// Always-on per-session black box (obs/flight_recorder.hpp). The
  /// manager dumps a session's ring on failure, deadline miss, and
  /// breaker trips; `flight.enabled = false` turns the rings off (the
  /// bench_obs overhead A/B — production keeps them on).
  FlightRecorderOptions flight;
  /// One-command repro line embedded in every flight dump ("" emits
  /// an empty repro field). Harnesses set this to their own seeded
  /// invocation so a dump is actionable on its own.
  std::string repro_hint;

  void validate() const;
};

/// The torexd service core. See the file comment for semantics.
class SessionManager {
 public:
  SessionManager(TorusShape shape, CostParams params, SessionManagerOptions options = {});

  Rank size() const { return schedule_.shape().num_nodes(); }
  /// Modeled cost of one phase — the WFQ price and deadline unit.
  double phase_cost() const { return phase_cost_; }
  /// Current virtual time.
  double now() const;

  /// Registers a session (thread-safe). The request is validated and
  /// admitted (or shed) when the virtual clock reaches its arrival.
  /// Arrivals are processed in submission order.
  SessionId submit(SessionRequest request);

  /// The session's cooperative cancel flag; safe to set from any
  /// thread at any time. The session observes it at its next step
  /// boundary (running) or dispatch (queued).
  std::shared_ptr<std::atomic<bool>> cancel_handle(SessionId id);
  /// Sets the flag (thread-safe convenience).
  void cancel(SessionId id);

  /// One scheduling decision: process due arrivals, promote from the
  /// queue, then run one phase of the fairest runnable session (or
  /// advance the clock to the next arrival). Returns false when fully
  /// idle — no pending arrivals, nothing queued, nothing running.
  bool run_one();
  /// Drives run_one() until idle.
  void run_until_idle();

  /// Copy of a session's observable state (thread-safe).
  SessionRecord record(SessionId id) const;
  /// Disposition accounting (thread-safe).
  SvcStats stats() const;
  /// Number of sessions submitted so far.
  std::int64_t sessions() const;

  /// Moves a completed session's recv matrix out (recv[q][p] ==
  /// send[p][q]). Requires state kCompleted; a second take throws.
  std::vector<std::vector<std::int64_t>> take_result(SessionId id);

  /// A completed/failed session's journal (for resume and post-mortem;
  /// copies under the lock).
  ExchangeJournal journal(SessionId id) const;

  /// Shared arena statistics; outstanding_frames() must be zero
  /// whenever no phase is mid-flight (asserted by tests at teardown).
  WirePoolStats wire_stats() const;
  std::int64_t outstanding_frames() const;

  /// True when the health layer (breakers, retry budget, detector
  /// feed) is active for this manager.
  bool health_enabled() const { return health_ != nullptr; }
  /// The service fault/health tick: one per dispatched phase.
  std::int64_t fault_tick() const;
  /// Advances the fault tick without dispatching work: detector feed
  /// and probe maintenance still run, so breakers converge back to
  /// closed after fault windows pass even on an idle service. No-op
  /// without the health layer.
  void advance_health(std::int64_t ticks = 1);
  /// Registry + retry-budget snapshot at the current fault tick.
  /// Requires the health layer.
  HealthStats health_stats() const;
  /// Human-readable breaker table (the CI failure artifact).
  std::string health_dump() const;

  /// One emitted flight-recorder dump and what triggered it.
  struct FlightDumpEntry {
    SessionId session = -1;
    std::string trigger;  ///< "session_failed" | "deadline_miss" | "breaker_trip"
    std::string text;     ///< parseable via parse_flight_dump
  };
  /// Every dump emitted so far, in emission order (thread-safe copy).
  /// Failing sessions also carry their final dump on
  /// SessionRecord::flight_dump.
  std::vector<FlightDumpEntry> flight_dumps() const;
  /// The black box itself (for tests and external note sources).
  FlightRecorder& flight_recorder() { return flight_; }

  /// The manager's full observable surface as one labeled metrics
  /// snapshot: per-tenant SLO ledger (svc.slo.*), service disposition
  /// totals, wire/arena occupancy, breaker states and retry budget
  /// (when the health layer is on), and the virtual clock. Pure
  /// function of manager state — serialize with prometheus_text() /
  /// json_snapshot() from obs/exposition.hpp.
  MetricsSnapshot exposition_snapshot() const;

  /// The per-tenant SLO ledger alone (labeled subset of the above):
  /// queue-wait / service-time / end-to-end latency histograms in
  /// milli-phase-cost units, deadline-miss attribution
  /// (cause=shed|deferred|faulted|overload), retry-budget spend and
  /// deferral time per tenant.
  MetricsSnapshot slo_snapshot() const;

 private:
  /// One tenant's SLO ledger series, and its series in an attached
  /// recorder's registry. Both registries keep every series behind a
  /// stable pointer, so each handle is resolved on its first use and
  /// reused after: a dispatch adds to its tenant's counters without
  /// building labels or taking a registry's lock, and each registry
  /// lists exactly the series that were ever touched.
  struct TenantLedger {
    Counter* offered = nullptr;
    Counter* admitted = nullptr;
    Counter* rejected = nullptr;
    Counter* completed = nullptr;
    Counter* failed = nullptr;
    Counter* cancelled = nullptr;
    Counter* parcels = nullptr;
    Counter* retry_parcels = nullptr;
    Counter* deferrals = nullptr;
    Counter* deferred_milliphase = nullptr;
    /// svc.slo.deadline_missed, one series per cause (see the .cpp).
    std::array<Counter*, 4> deadline_missed{};
    Histogram* queue_wait = nullptr;
    Histogram* service_time = nullptr;
    Histogram* latency = nullptr;
    /// The recorder's per-tenant dispositions and queue depth.
    Counter* obs_offered = nullptr;
    Counter* obs_admitted = nullptr;
    Counter* obs_rejected = nullptr;
    Counter* obs_completed = nullptr;
    Counter* obs_failed = nullptr;
    Counter* obs_cancelled = nullptr;
    Counter* obs_deadline_missed = nullptr;
    Gauge* obs_queue_depth = nullptr;
  };

  struct Slot {
    SessionRecord record;
    SessionRequest request;  ///< send adopted by the exchange at admission
    TenantLedger* ledger = nullptr;  ///< the tenant's SLO series
    std::unique_ptr<SessionExchange> exchange;
    std::shared_ptr<std::atomic<bool>> cancel_flag;
    double vfinish = 0.0;  ///< WFQ virtual finish time of the next phase
    int deferrals = 0;     ///< consecutive budget deferrals (starvation guard)
    std::vector<std::vector<std::int64_t>> result;
    bool has_result = false;
  };

  // All of the below require mu_ held.
  Slot& slot(SessionId id);
  const Slot& slot(SessionId id) const;
  void process_arrivals();
  void promote();
  void retire_queued(Slot& s, SessionState state, RejectReason reason, const std::string& error);
  void retire_running(Slot& s, SessionState state, const std::string& error);
  void set_queue_gauges();
  Slot* pick_fairest();
  void health_maintenance();  ///< detector feed + probes at fault_tick_

  /// The tenant's `name` series of the SLO ledger (slo_ registry,
  /// {tenant} label, plus {cause} when given), resolved into `handle`
  /// on first use.
  Counter& slo_counter(Counter*& handle, const char* name, const std::string& tenant,
                       const char* cause = nullptr);
  Histogram& slo_histogram(Histogram*& handle, const char* name, const std::string& tenant);
  /// Virtual-time interval in milli-phase-cost units (the SLO
  /// histogram domain).
  std::int64_t to_milliphase(double vt) const;
  /// Renders + records one dump for the session (and, for terminal
  /// triggers, stores it on the record and releases the ring).
  void emit_flight_dump(Slot& s, const char* trigger, const std::string& reason, bool terminal);
  /// Post-dispatch breaker-trip edge detection -> "breaker_trip" dump.
  void maybe_breaker_trip_dump(Slot& s, int phase);
  /// Per-tenant disposition split mirrored into the obs registry: the
  /// tenant's `name` series ({tenant} label), resolved into `handle` on
  /// first use. No-op without a recorder.
  void obs_tenant_counter(Counter*& handle, const char* name, const std::string& tenant);

  TorusShape shape_;
  SuhShinAape schedule_;
  /// The schedule compiled under the paper layout, from the process's
  /// program cache: every session replays it, and every manager of the
  /// same shape shares it.
  std::shared_ptr<const StepProgram> program_;
  SessionManagerOptions options_;
  Recorder* obs_ = nullptr;
  Gauge* obs_active_ = nullptr;  ///< the recorder's occupancy gauges, resolved on first use
  Gauge* obs_queued_ = nullptr;
  double phase_cost_ = 0.0;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::deque<SessionId> pending_arrivals_;  ///< submitted, awaiting admission
  std::deque<SessionId> queue_;             ///< the bounded waiting room
  std::vector<SessionId> running_;
  std::map<std::string, int> tenant_running_;
  std::map<std::string, int> tenant_queued_;
  double vclock_ = 0.0;
  SvcStats stats_;
  WireArena arena_;  ///< shared frame pool, one per service

  // Observability plane.
  FlightRecorder flight_;                      ///< always-on black box
  std::vector<FlightDumpEntry> flight_dumps_;  ///< emitted dumps, in order
  MetricsRegistry slo_;                        ///< per-tenant SLO ledger (labeled)
  std::map<std::string, TenantLedger> ledgers_;  ///< handles into slo_, per tenant
  std::int64_t last_opens_ = 0;                ///< breaker-trip edge detector

  // Health layer (all null/unused when disabled).
  std::unique_ptr<HealthRegistry> health_;
  std::unique_ptr<RetryBudget> retry_budget_;
  std::unique_ptr<HeartbeatFailureDetector> detector_;
  std::int64_t fault_tick_ = 0;     ///< advances once per dispatched phase
  std::int64_t observed_tick_ = -1; ///< detector heartbeat feed high-water mark
};

}  // namespace torex
