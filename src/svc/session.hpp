// torexd session types: the vocabulary of the multi-session service.
//
// A Session is one tenant's all-to-all exchange riding a shared engine:
// it arrives (open-loop, with a modeled arrival time), waits in a
// bounded queue, is admitted or shed by the SessionManager's admission
// control, executes phase-by-phase under the weighted-fair scheduler,
// and retires with a terminal state the caller can always read back —
// completed, rejected-with-reason, deadline-missed, failed, or
// cancelled. Nothing is ever dropped silently: the manager's
// disposition buckets are mutually exclusive and sum to the offered
// load (admitted + rejected + deadline_missed == offered), which the
// loadgen and the chaos harness both assert.
//
// The service fixes the payload element to one machine word
// (std::int64_t). Sessions move N x N word matrices — enough to carry
// any application framing while keeping the service layer non-template
// compiled code.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace torex {

/// Dense per-manager session handle, assigned at submit() in arrival
/// order starting from 0.
using SessionId = std::int64_t;

/// Where a session is in its lifecycle. kQueued and kRunning are
/// transient; everything else is terminal.
enum class SessionState {
  kQueued,          ///< accepted into the waiting room, not yet admitted
  kRunning,         ///< admitted; phases execute under the fair scheduler
  kCompleted,       ///< all phases done, result available
  kRejected,        ///< shed by admission control (reject_reason says why)
  kDeadlineMissed,  ///< deadline expired (in queue or mid-run) before completion
  kFailed,          ///< isolated failure: crash, corruption, quota breach
  kCancelled,       ///< cooperative cancel honored at a step boundary
};

std::string to_string(SessionState state);

/// Why admission control refused a session. Every rejection carries a
/// reason — AdmissionRejected outcomes are reportable, never silent.
enum class RejectReason {
  kNone,
  kQueueFull,         ///< shed oldest-queued-first under queue overflow
  kParcelBytesQuota,  ///< send matrix exceeds the tenant's per-session byte quota
  kMalformedRequest,  ///< send matrix is not N x N
};

std::string to_string(RejectReason reason);

/// Unlimited marker for TenantQuota fields.
inline constexpr std::int64_t kQuotaUnlimited = 0;

/// Per-tenant resource limits, enforced at admission (bytes), at
/// promotion (sessions in flight), and during execution (arena frames).
/// kQuotaUnlimited (0) means that field is unenforced.
struct TenantQuota {
  /// Largest send matrix one session may carry, in payload bytes
  /// (N * N * sizeof(std::int64_t) for a full exchange). Checked at
  /// admission; breach rejects with kParcelBytesQuota.
  std::int64_t max_parcel_bytes = kQuotaUnlimited;
  /// WireArena frames one session may hold leased at once (its
  /// phases-in-flight bound: the phase in flight leases one frame per
  /// sending node). Breach mid-run fails the session, isolated.
  std::int64_t max_arena_frames = kQuotaUnlimited;
  /// Concurrently running sessions of this tenant; further queued
  /// sessions wait (they are not rejected) until a slot frees.
  int max_sessions_in_flight = kQuotaUnlimited;

  /// Admission-time validation: every field must be positive or
  /// kQuotaUnlimited, and at least one field must actually limit
  /// something (an all-unlimited entry is a configuration mistake, not
  /// a quota). Throws TenantQuotaError naming the tenant and field —
  /// a typed error instead of undefined scheduler behavior.
  void validate(const std::string& tenant) const;
};

/// Deterministic failure/chaos injection seams, per session. All
/// 1-based phase indices; 0 disables.
struct SessionInjection {
  /// Throw ExchangeCrashError after this phase's first step flushed its
  /// deliveries but before the commit marker — the worst-case crash
  /// window for the journal.
  int crash_phase = 0;
  /// Flip one byte of this phase's first encoded wire frame; the
  /// receiver's CRC verification refuses it loudly and the session
  /// fails, isolated.
  int corrupt_phase = 0;
  /// Set the session's cancel flag once this many of its phases have
  /// executed (a deterministic mid-run cooperative cancel). Negative
  /// disables; 0 cancels before the first phase.
  int cancel_after_phases = -1;
};

/// One tenant's exchange request.
struct SessionRequest {
  std::string tenant = "default";
  /// Weighted-fair share: a weight-3 session is charged a third of the
  /// virtual time per phase and so runs three phases for every one a
  /// weight-1 competitor runs.
  int weight = 1;
  /// Modeled (open-loop) arrival time, in cost-model time units.
  double arrival = 0.0;
  /// Completion budget from arrival, same units; 0 = none. A session
  /// still queued or running when arrival + deadline passes on the
  /// virtual clock is a deadline miss.
  double deadline = 0.0;
  /// send[p][q] is node p's word for node q; must be N x N.
  std::vector<std::vector<std::int64_t>> send;
  SessionInjection inject;
};

/// Everything observable about one session, copyable under the
/// manager's lock for callers.
struct SessionRecord {
  SessionId id = -1;
  std::string tenant;
  SessionState state = SessionState::kQueued;
  RejectReason reject_reason = RejectReason::kNone;
  int weight = 1;
  double arrival = 0.0;
  double deadline_at = 0.0;   ///< absolute virtual deadline; 0 = none
  double admitted_at = 0.0;   ///< virtual time execution began
  double finished_at = 0.0;   ///< virtual time of the terminal transition
  int phases_done = 0;
  std::int64_t sent_parcels = 0;  ///< parcels this session pushed onto the wire
  std::int64_t deferrals = 0;     ///< dispatches deferred by the retry budget, total
  std::int64_t retry_parcels = 0; ///< retry-budget tokens this session spent
  std::string error;          ///< terminal diagnostic for failed/missed/cancelled
  /// Flight-recorder black box, rendered at the terminal transition for
  /// failed and deadline-missed sessions (parseable: parse_flight_dump).
  std::string flight_dump;

  bool terminal() const {
    return state != SessionState::kQueued && state != SessionState::kRunning;
  }
  /// Queue + service latency in virtual time; meaningful when terminal.
  double latency() const { return finished_at - arrival; }
};

/// Manager-wide disposition accounting. The buckets are mutually
/// exclusive per session: admitted counts sessions that began
/// executing (whatever happened to them afterwards), rejected counts
/// sheds, deadline_missed_queued counts sessions that expired before
/// ever running. offered == admitted + rejected + deadline_missed_queued
/// + still pending, exactly.
struct SvcStats {
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t deadline_missed_queued = 0;   ///< expired while waiting
  std::int64_t deadline_missed_running = 0;  ///< admitted, expired mid-run
  std::int64_t cancelled_queued = 0;         ///< cancelled before ever running
  std::int64_t completed = 0;
  std::int64_t failed = 0;
  std::int64_t cancelled = 0;                ///< admitted, cancelled mid-run
  std::int64_t phases_executed = 0;
  std::int64_t parcels_delivered = 0;

  /// Total deadline misses, queued + mid-run.
  std::int64_t deadline_missed() const {
    return deadline_missed_queued + deadline_missed_running;
  }
  /// Sessions with a decided admission outcome. Equals offered once
  /// the manager is idle (nothing pending, queued, or running).
  std::int64_t disposed() const {
    return admitted + rejected + deadline_missed_queued + cancelled_queued;
  }
};

/// A tenant's quota table entry is malformed (negative field, or an
/// entry that limits nothing). Raised by TenantQuota::validate at
/// manager construction — before any scheduler state depends on it.
/// Subclasses std::invalid_argument: quota shape is an argument
/// contract, like every other option validation.
class TenantQuotaError : public std::invalid_argument {
 public:
  TenantQuotaError(const std::string& tenant, const std::string& why)
      : std::invalid_argument("tenant \"" + tenant + "\" quota invalid: " + why),
        tenant_(tenant) {}
  const std::string& tenant() const { return tenant_; }

 private:
  std::string tenant_;
};

/// A session request carries a malformed scheduling parameter (weight
/// outside [1, kMaxSessionWeight], non-finite or negative arrival /
/// deadline). Raised by submit() before the request enters any queue.
class SessionConfigError : public std::invalid_argument {
 public:
  explicit SessionConfigError(const std::string& why)
      : std::invalid_argument("session request invalid: " + why) {}
};

/// Largest admissible WFQ weight; beyond this the virtual-time
/// arithmetic loses the resolution the tie-break relies on.
inline constexpr int kMaxSessionWeight = 1'000'000;

/// A session's scheduled route crossed a faulted or quarantined
/// resource and no detour exists (the surviving topology disconnects
/// the pair). The session fails, isolated, with the resource named.
class SessionFaultError : public std::runtime_error {
 public:
  SessionFaultError(SessionId id, int phase, int step, const std::string& why)
      : std::runtime_error("session " + std::to_string(id) + " unroutable at phase " +
                           std::to_string(phase) + " step " + std::to_string(step) + ": " + why),
        id_(id) {}
  SessionId id() const { return id_; }

 private:
  SessionId id_;
};

/// A session exceeded its tenant's arena-frame quota mid-step. The
/// session fails, isolated; the frames it held are released by RAII.
class SessionQuotaError : public std::runtime_error {
 public:
  SessionQuotaError(SessionId id, std::int64_t held, std::int64_t quota)
      : std::runtime_error("session " + std::to_string(id) + " exceeded its arena frame quota (" +
                           std::to_string(held + 1) + " leases, quota " + std::to_string(quota) +
                           ")"),
        id_(id) {}
  SessionId id() const { return id_; }

 private:
  SessionId id_;
};

/// A session's wire frame failed CRC verification (corruption storm).
/// The internal wire is only ever damaged by injection, so this is
/// always attributable to the injecting tenant — and stays inside it.
class SessionIntegrityError : public std::runtime_error {
 public:
  SessionIntegrityError(SessionId id, int phase, int step, const std::string& why)
      : std::runtime_error("session " + std::to_string(id) + " wire frame refused at phase " +
                           std::to_string(phase) + " step " + std::to_string(step) + ": " + why),
        id_(id) {}
  SessionId id() const { return id_; }

 private:
  SessionId id_;
};

}  // namespace torex
