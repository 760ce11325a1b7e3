#include "svc/session_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/step_program_cache.hpp"
#include "costmodel/models.hpp"
#include "util/assert.hpp"

namespace torex {

namespace {

/// Consecutive budget deferrals after which a session fails instead of
/// spinning: with a refilling bucket a phase always un-defers long
/// before this, so hitting the cap means the budget is misconfigured
/// relative to the fault load (a starvation diagnosis, not a hang).
constexpr int kMaxDeferralsPerSession = 256;

/// SLO histogram bucket edges, in milli-phase-cost units (1000 = one
/// phase cost of virtual time). Octaves from a quarter phase to ~512
/// phases cover queue waits and end-to-end latencies of any plausible
/// schedule depth; beyond that the overflow bucket plus min/max carry
/// the tail. Built once per process.
const std::vector<std::int64_t>& slo_bounds_milliphase() {
  static const std::vector<std::int64_t> bounds = [] {
    std::vector<std::int64_t> edges;
    for (std::int64_t b = 250; b <= 512'000; b *= 2) edges.push_back(b);
    return edges;
  }();
  return bounds;
}

/// The causes of svc.slo.deadline_missed, indexed like
/// TenantLedger::deadline_missed: a shed miss expired in the queue; a
/// mid-run miss deferred on the retry budget, paid discovery retries,
/// or neither (plain overload).
enum MissCause { kMissShed, kMissDeferred, kMissFaulted, kMissOverload };
constexpr const char* kMissCauseNames[] = {"shed", "deferred", "faulted", "overload"};

/// Short resource label for breaker gauges: "channel:12" / "node:3".
std::string resource_label(const ResourceHealth& r) {
  return (r.kind == FaultKind::kChannel ? "channel:" : "node:") + std::to_string(r.id);
}

}  // namespace

void HealthOptions::validate() const {
  breaker.validate();
  retries.validate();
  detector.validate();
}

void SessionManagerOptions::validate() const {
  TOREX_REQUIRE(max_active >= 1, "session manager needs at least one active slot");
  TOREX_REQUIRE(max_queued >= 1, "session manager needs at least one queue slot");
  TOREX_REQUIRE(block_bytes >= 1, "block size must be positive");
  for (const auto& [tenant, quota] : quotas) {
    quota.validate(tenant);  // typed TenantQuotaError on malformed entries
  }
  health.validate();
  flight.validate();
}

SessionManager::SessionManager(TorusShape shape, CostParams params, SessionManagerOptions options)
    : shape_(shape),
      schedule_(shape),
      program_(step_program_cache().get(schedule_, LayoutPolicy::kPaper)),
      options_(std::move(options)),
      flight_(options_.flight) {
  options_.validate();
  obs_ = options_.obs != nullptr && options_.obs->enabled() ? options_.obs : nullptr;
  params.m = options_.block_bytes;
  phase_cost_ = proposed_phase_cost(shape_, params);
  if (options_.health.enabled || !options_.service_faults.empty()) {
    health_ = std::make_unique<HealthRegistry>(shape_, options_.health.breaker, obs_);
    retry_budget_ = std::make_unique<RetryBudget>(options_.health.retries);
    if (!options_.service_faults.crashes().empty()) {
      detector_ = std::make_unique<HeartbeatFailureDetector>(schedule_.shape().num_nodes(),
                                                             options_.health.detector, obs_);
    }
  }
}

double SessionManager::now() const {
  std::lock_guard<std::mutex> lk(mu_);
  return vclock_;
}

std::int64_t SessionManager::sessions() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<std::int64_t>(slots_.size());
}

SessionId SessionManager::submit(SessionRequest request) {
  // Typed rejection of malformed scheduling parameters before the
  // request touches any queue: a non-finite arrival would wedge the
  // virtual clock, an absurd weight would defeat the WFQ tie-break.
  if (request.weight < 1 || request.weight > kMaxSessionWeight) {
    throw SessionConfigError("weight must be in [1, " + std::to_string(kMaxSessionWeight) +
                             "] (got " + std::to_string(request.weight) + ")");
  }
  if (!std::isfinite(request.arrival) || request.arrival < 0.0) {
    throw SessionConfigError("arrival must be finite and non-negative");
  }
  if (!std::isfinite(request.deadline) || request.deadline < 0.0) {
    throw SessionConfigError("deadline must be finite and non-negative");
  }
  std::lock_guard<std::mutex> lk(mu_);
  const SessionId id = static_cast<SessionId>(slots_.size());
  auto s = std::make_unique<Slot>();
  s->record.id = id;
  s->record.tenant = request.tenant;
  s->record.weight = request.weight;
  s->record.arrival = request.arrival;
  s->record.deadline_at = request.deadline > 0.0 ? request.arrival + request.deadline : 0.0;
  s->record.state = SessionState::kQueued;
  s->cancel_flag = std::make_shared<std::atomic<bool>>(false);
  s->request = std::move(request);
  s->ledger = &ledgers_[s->record.tenant];
  slots_.push_back(std::move(s));
  pending_arrivals_.push_back(id);
  ++stats_.offered;
  const Slot& added = *slots_.back();
  slo_counter(added.ledger->offered, "svc.slo.offered", added.record.tenant).add();
  flight_.note(id, "svc.submit", fault_tick_, 0, 0, added.record.weight);
  if (obs_ != nullptr) {
    obs_->metrics().counter("svc.offered").add();
    obs_tenant_counter(added.ledger->obs_offered, "svc.offered", added.record.tenant);
  }
  return id;
}

Counter& SessionManager::slo_counter(Counter*& handle, const char* name,
                                     const std::string& tenant, const char* cause) {
  if (handle == nullptr) {
    MetricLabels labels{{"tenant", tenant}};
    if (cause != nullptr) labels.emplace_back("cause", cause);
    handle = &slo_.counter(name, std::move(labels));
  }
  return *handle;
}

Histogram& SessionManager::slo_histogram(Histogram*& handle, const char* name,
                                         const std::string& tenant) {
  if (handle == nullptr) {
    handle = &slo_.histogram(name, slo_bounds_milliphase(), {{"tenant", tenant}});
  }
  return *handle;
}

std::int64_t SessionManager::to_milliphase(double vt) const {
  return std::llround(1000.0 * vt / phase_cost_);
}

void SessionManager::obs_tenant_counter(Counter*& handle, const char* name,
                                        const std::string& tenant) {
  if (obs_ == nullptr) return;
  if (handle == nullptr) handle = &obs_->metrics().counter(name, {{"tenant", tenant}});
  handle->add();
}

void SessionManager::emit_flight_dump(Slot& s, const char* trigger, const std::string& reason,
                                      bool terminal) {
  if (!flight_.enabled()) return;
  const std::string health_table = health_ != nullptr ? health_->dump(fault_tick_) : "";
  std::string text = flight_.dump(s.record.id, reason, health_table, options_.repro_hint);
  if (terminal) {
    s.record.flight_dump = text;
    flight_.forget(s.record.id);
  }
  flight_dumps_.push_back({s.record.id, trigger, std::move(text)});
}

void SessionManager::maybe_breaker_trip_dump(Slot& s, int phase) {
  if (health_ == nullptr) return;
  const std::int64_t opens = health_->opens();
  if (opens <= last_opens_) return;
  // This dispatch tripped one or more breakers: snapshot the session
  // that discovered them while its ring still holds the discovery.
  emit_flight_dump(s, "breaker_trip",
                   "breaker trip during phase " + std::to_string(phase) + " (opens " +
                       std::to_string(last_opens_) + " -> " + std::to_string(opens) + ")",
                   /*terminal=*/false);
  last_opens_ = opens;
}

SessionManager::Slot& SessionManager::slot(SessionId id) {
  TOREX_REQUIRE(id >= 0 && id < static_cast<SessionId>(slots_.size()), "unknown session id");
  return *slots_[static_cast<std::size_t>(id)];
}

const SessionManager::Slot& SessionManager::slot(SessionId id) const {
  TOREX_REQUIRE(id >= 0 && id < static_cast<SessionId>(slots_.size()), "unknown session id");
  return *slots_[static_cast<std::size_t>(id)];
}

std::shared_ptr<std::atomic<bool>> SessionManager::cancel_handle(SessionId id) {
  std::lock_guard<std::mutex> lk(mu_);
  return slot(id).cancel_flag;
}

void SessionManager::cancel(SessionId id) {
  cancel_handle(id)->store(true, std::memory_order_relaxed);
}

void SessionManager::set_queue_gauges() {
  if (obs_ == nullptr) return;
  MetricsRegistry& m = obs_->metrics();
  if (obs_active_ == nullptr) {
    obs_active_ = &m.gauge("svc.active_sessions");
    obs_queued_ = &m.gauge("svc.queued_sessions");
  }
  obs_active_->set(static_cast<std::int64_t>(running_.size()));
  obs_queued_->set(static_cast<std::int64_t>(queue_.size()));
  for (const auto& [tenant, depth] : tenant_queued_) {
    // Every queued tenant submitted first, so its ledger exists.
    Gauge*& gauge = ledgers_.find(tenant)->second.obs_queue_depth;
    if (gauge == nullptr) gauge = &m.gauge("svc.queue_depth", {{"tenant", tenant}});
    gauge->set(depth);
  }
}

void SessionManager::retire_queued(Slot& s, SessionState state, RejectReason reason,
                                   const std::string& error) {
  s.record.state = state;
  s.record.reject_reason = reason;
  s.record.finished_at = vclock_;
  s.record.error = error;
  s.request.send.clear();
  s.request.send.shrink_to_fit();
  const std::string& tenant = s.record.tenant;
  TenantLedger& ledger = *s.ledger;
  switch (state) {
    case SessionState::kRejected:
      ++stats_.rejected;
      slo_counter(ledger.rejected, "svc.slo.rejected", tenant).add();
      flight_.note(s.record.id, "svc.reject", fault_tick_);
      flight_.forget(s.record.id);
      if (obs_ != nullptr) {
        obs_->instant("svc.reject", static_cast<std::int32_t>(s.record.id));
        obs_->metrics().counter("svc.rejected").add();
        obs_tenant_counter(ledger.obs_rejected, "svc.rejected", tenant);
      }
      break;
    case SessionState::kDeadlineMissed:
      ++stats_.deadline_missed_queued;
      // A shed miss: the session expired before ever running.
      slo_counter(ledger.deadline_missed[kMissShed], "svc.slo.deadline_missed", tenant,
                  kMissCauseNames[kMissShed])
          .add();
      flight_.note(s.record.id, "svc.deadline_miss", fault_tick_);
      emit_flight_dump(s, "deadline_miss", error, /*terminal=*/true);
      if (obs_ != nullptr) {
        obs_->instant("svc.deadline_miss", static_cast<std::int32_t>(s.record.id));
        obs_->metrics().counter("svc.deadline_missed").add();
        obs_tenant_counter(ledger.obs_deadline_missed, "svc.deadline_missed", tenant);
      }
      break;
    case SessionState::kCancelled:
      ++stats_.cancelled_queued;
      slo_counter(ledger.cancelled, "svc.slo.cancelled", tenant).add();
      flight_.forget(s.record.id);
      if (obs_ != nullptr) {
        obs_->metrics().counter("svc.cancelled").add();
        obs_tenant_counter(ledger.obs_cancelled, "svc.cancelled", tenant);
      }
      break;
    default:
      TOREX_UNREACHABLE();
  }
}

void SessionManager::retire_running(Slot& s, SessionState state, const std::string& error) {
  const auto it = std::find(running_.begin(), running_.end(), s.record.id);
  TOREX_CHECK(it != running_.end(), "retiring a session that is not running");
  running_.erase(it);
  --tenant_running_[s.record.tenant];
  s.record.state = state;
  s.record.finished_at = vclock_;
  s.record.error = error;
  const std::string& tenant = s.record.tenant;
  TenantLedger& ledger = *s.ledger;
  if (s.exchange) {
    const std::int64_t sent_now = s.exchange->sent_parcels();
    if (sent_now > s.record.sent_parcels) {
      slo_counter(ledger.parcels, "svc.slo.parcels", tenant)
          .add(sent_now - s.record.sent_parcels);
    }
    s.record.sent_parcels = sent_now;
  }
  // SLO decomposition: every admitted session settles its service-time
  // observation at retirement (queue wait was observed at promotion);
  // only completions count toward the end-to-end latency objective.
  slo_histogram(ledger.service_time, "svc.slo.service_time", tenant)
      .observe(to_milliphase(s.record.finished_at - s.record.admitted_at));
  switch (state) {
    case SessionState::kCompleted: {
      s.result = s.exchange->take_result();
      s.has_result = true;
      ++stats_.completed;
      const auto n = static_cast<std::int64_t>(size());
      stats_.parcels_delivered += n * n;
      slo_counter(ledger.completed, "svc.slo.completed", tenant).add();
      slo_histogram(ledger.latency, "svc.slo.latency", tenant)
          .observe(to_milliphase(s.record.finished_at - s.record.arrival));
      flight_.forget(s.record.id);
      if (obs_ != nullptr) {
        obs_->metrics().counter("svc.completed").add();
        obs_tenant_counter(ledger.obs_completed, "svc.completed", tenant);
      }
      break;
    }
    case SessionState::kDeadlineMissed: {
      ++stats_.deadline_missed_running;
      // Mid-run miss attribution: a session the retry budget stalled
      // missed because it deferred; one that paid discovery retries
      // missed because of faults; anything else is plain overload.
      const MissCause cause = s.record.deferrals > 0      ? kMissDeferred
                              : s.record.retry_parcels > 0 ? kMissFaulted
                                                           : kMissOverload;
      slo_counter(ledger.deadline_missed[cause], "svc.slo.deadline_missed", tenant,
                  kMissCauseNames[cause])
          .add();
      flight_.note(s.record.id, "svc.deadline_miss", fault_tick_,
                   s.exchange != nullptr ? s.exchange->phases_done() + 1 : 0);
      emit_flight_dump(s, "deadline_miss", error, /*terminal=*/true);
      if (obs_ != nullptr) {
        obs_->instant("svc.deadline_miss", static_cast<std::int32_t>(s.record.id));
        obs_->metrics().counter("svc.deadline_missed").add();
        obs_tenant_counter(ledger.obs_deadline_missed, "svc.deadline_missed", tenant);
      }
      break;
    }
    case SessionState::kFailed:
      ++stats_.failed;
      slo_counter(ledger.failed, "svc.slo.failed", tenant).add();
      emit_flight_dump(s, "session_failed", error, /*terminal=*/true);
      if (obs_ != nullptr) {
        obs_->instant("svc.session_failed", static_cast<std::int32_t>(s.record.id));
        obs_->metrics().counter("svc.failed").add();
        obs_tenant_counter(ledger.obs_failed, "svc.failed", tenant);
      }
      break;
    case SessionState::kCancelled:
      ++stats_.cancelled;
      slo_counter(ledger.cancelled, "svc.slo.cancelled", tenant).add();
      flight_.forget(s.record.id);
      if (obs_ != nullptr) {
        obs_->metrics().counter("svc.cancelled").add();
        obs_tenant_counter(ledger.obs_cancelled, "svc.cancelled", tenant);
      }
      break;
    default:
      TOREX_UNREACHABLE();
  }
  // The journal and the counters are all a retired session keeps.
  if (s.exchange) s.exchange->retire();
  set_queue_gauges();
}

void SessionManager::process_arrivals() {
  while (!pending_arrivals_.empty()) {
    const SessionId id = pending_arrivals_.front();
    Slot& s = slot(id);
    if (s.record.arrival > vclock_) break;
    pending_arrivals_.pop_front();

    const Rank N = size();
    bool well_formed = static_cast<Rank>(s.request.send.size()) == N;
    for (const auto& row : s.request.send) {
      well_formed = well_formed && static_cast<Rank>(row.size()) == N;
    }
    if (!well_formed) {
      retire_queued(s, SessionState::kRejected, RejectReason::kMalformedRequest,
                    "send matrix is not N x N");
      continue;
    }
    const auto quota_it = options_.quotas.find(s.record.tenant);
    if (quota_it != options_.quotas.end() && quota_it->second.max_parcel_bytes > 0) {
      const std::int64_t bytes = static_cast<std::int64_t>(N) * N *
                                 static_cast<std::int64_t>(sizeof(std::int64_t));
      if (bytes > quota_it->second.max_parcel_bytes) {
        retire_queued(s, SessionState::kRejected, RejectReason::kParcelBytesQuota,
                      "session payload of " + std::to_string(bytes) +
                          " bytes exceeds the tenant quota of " +
                          std::to_string(quota_it->second.max_parcel_bytes));
        continue;
      }
    }
    if (static_cast<int>(queue_.size()) >= options_.max_queued) {
      // Overload: shed the oldest queued session, loudly, and keep the
      // newcomer — deterministic oldest-queued-first degradation.
      Slot& oldest = slot(queue_.front());
      queue_.pop_front();
      --tenant_queued_[oldest.record.tenant];
      retire_queued(oldest, SessionState::kRejected, RejectReason::kQueueFull,
                    "shed oldest-queued under overload");
      if (obs_ != nullptr) obs_->instant("svc.shed", static_cast<std::int32_t>(oldest.record.id));
    }
    queue_.push_back(id);
    ++tenant_queued_[s.record.tenant];
  }
  set_queue_gauges();
}

void SessionManager::promote() {
  while (static_cast<int>(running_.size()) < options_.max_active && !queue_.empty()) {
    // First queued session whose tenant is under its in-flight cap;
    // expired or cancelled ones retire on the way.
    bool promoted = false;
    for (auto it = queue_.begin(); it != queue_.end();) {
      Slot& s = slot(*it);
      if (s.cancel_flag->load(std::memory_order_relaxed)) {
        --tenant_queued_[s.record.tenant];
        it = queue_.erase(it);
        retire_queued(s, SessionState::kCancelled, RejectReason::kNone,
                      "cancelled while queued");
        continue;
      }
      if (s.record.deadline_at > 0.0 && s.record.deadline_at <= vclock_) {
        --tenant_queued_[s.record.tenant];
        it = queue_.erase(it);
        retire_queued(s, SessionState::kDeadlineMissed, RejectReason::kNone,
                      "deadline expired in queue at t=" + std::to_string(vclock_));
        continue;
      }
      const auto quota_it = options_.quotas.find(s.record.tenant);
      const int cap =
          quota_it != options_.quotas.end() ? quota_it->second.max_sessions_in_flight : 0;
      if (cap > 0 && tenant_running_[s.record.tenant] >= cap) {
        ++it;  // this tenant waits; later tenants may still promote
        continue;
      }
      const std::int64_t frame_quota =
          quota_it != options_.quotas.end() ? quota_it->second.max_arena_frames : 0;
      // The request's rows become the session's: they are already in
      // the program's first slot order.
      s.exchange = std::make_unique<SessionExchange>(s.record.id, schedule_, *program_,
                                                     std::move(s.request.send), arena_,
                                                     frame_quota,
                                                     flight_.enabled() ? &flight_ : nullptr);
      s.record.state = SessionState::kRunning;
      s.record.admitted_at = vclock_;
      s.vfinish = vclock_ + phase_cost_ / static_cast<double>(s.record.weight);
      --tenant_queued_[s.record.tenant];
      it = queue_.erase(it);
      running_.push_back(s.record.id);
      ++tenant_running_[s.record.tenant];
      ++stats_.admitted;
      slo_counter(s.ledger->admitted, "svc.slo.admitted", s.record.tenant).add();
      slo_histogram(s.ledger->queue_wait, "svc.slo.queue_wait", s.record.tenant)
          .observe(to_milliphase(s.record.admitted_at - s.record.arrival));
      flight_.note(s.record.id, "svc.admit", fault_tick_, 0, 0,
                   static_cast<std::int64_t>(queue_.size()));
      if (health_ != nullptr && health_->any_quarantined(fault_tick_)) {
        // Newly admitted with quarantine in force: this session is
        // planned around the bad resources from its first phase (the
        // per-step gate reroutes on sight, spending zero retries).
        health_->note_planned_around();
      }
      if (obs_ != nullptr) {
        obs_->instant("svc.admit", static_cast<std::int32_t>(s.record.id));
        obs_->metrics().counter("svc.admitted").add();
        obs_tenant_counter(s.ledger->obs_admitted, "svc.admitted", s.record.tenant);
      }
      promoted = true;
      break;
    }
    if (!promoted) break;
  }
  set_queue_gauges();
}

SessionManager::Slot* SessionManager::pick_fairest() {
  Slot* best = nullptr;
  for (const SessionId id : running_) {
    Slot& s = slot(id);
    if (best == nullptr || s.vfinish < best->vfinish ||
        (s.vfinish == best->vfinish && s.record.id < best->record.id)) {
      best = &s;
    }
  }
  return best;
}

bool SessionManager::run_one() {
  std::lock_guard<std::mutex> lk(mu_);
  process_arrivals();
  promote();

  if (running_.empty()) {
    if (pending_arrivals_.empty()) {
      TOREX_CHECK(queue_.empty(), "scheduler wedged: queued sessions with an idle engine");
      return false;
    }
    // Idle until the next arrival: jump the virtual clock to it.
    vclock_ = std::max(vclock_, slot(pending_arrivals_.front()).record.arrival);
    return true;
  }

  Slot* s = pick_fairest();
  TOREX_CHECK(s != nullptr, "runnable set empty after promote");

  if (s->record.deadline_at > 0.0 && s->record.deadline_at <= vclock_) {
    // Mid-run expiry: enforce through the cancel machinery and retire.
    s->cancel_flag->store(true, std::memory_order_relaxed);
    retire_running(*s, SessionState::kDeadlineMissed,
                   "deadline expired mid-run after " +
                       std::to_string(s->exchange->phases_done()) + " phase(s)");
    return true;
  }
  if (s->request.inject.cancel_after_phases >= 0 &&
      s->exchange->phases_done() >= s->request.inject.cancel_after_phases) {
    s->cancel_flag->store(true, std::memory_order_relaxed);
  }

  health_maintenance();
  HealthContext health;
  // The tick rides along even without the health layer: flight-recorder
  // notes stamp it so dump lines align with the dispatch axis.
  health.tick = fault_tick_;
  if (health_ != nullptr) {
    health.faults = &options_.service_faults;
    health.registry = health_.get();
    health.budget = retry_budget_.get();
  }

  const int phase = s->exchange->phases_done() + 1;
  flight_.note(s->record.id, "svc.dispatch", fault_tick_, phase, 0,
               static_cast<std::int64_t>(running_.size()));
  // Post-dispatch bookkeeping shared by every outcome: per-tenant
  // retry-budget spend attribution, then breaker-trip edge detection
  // (the discoverer's ring still holds the discovery events).
  const auto settle = [&](Slot& sess) {
    const std::int64_t resent = sess.exchange->resent_parcels();
    if (resent > sess.record.retry_parcels) {
      slo_counter(sess.ledger->retry_parcels, "svc.slo.retry_parcels", sess.record.tenant)
          .add(resent - sess.record.retry_parcels);
      sess.record.retry_parcels = resent;
    }
    maybe_breaker_trip_dump(sess, phase);
  };
  try {
    SpanGuard phase_span(obs_, "svc.phase", static_cast<std::int32_t>(s->record.id), phase);
    const PhaseOutcome outcome =
        s->exchange->run_phase(s->cancel_flag.get(), s->request.inject, health);
    // Time always advances by one phase cost per dispatch — a deferred
    // phase burned its turn too, and the budget refills on this clock.
    vclock_ += phase_cost_;
    s->vfinish += phase_cost_ / static_cast<double>(s->record.weight);
    ++fault_tick_;
    settle(*s);
    if (outcome == PhaseOutcome::kDeferred) {
      // Retries beyond the global budget queue rather than fire: the
      // session keeps its slot and the fair scheduler will re-dispatch
      // it once cheaper sessions have run (and the bucket refilled).
      ++s->deferrals;
      ++s->record.deferrals;
      slo_counter(s->ledger->deferrals, "svc.slo.deferrals", s->record.tenant).add();
      // Deferred-budget time: each deferral burns one phase cost of
      // virtual time on the clock without advancing the session.
      slo_counter(s->ledger->deferred_milliphase, "svc.slo.deferred_milliphase",
                  s->record.tenant)
          .add(1000);
      const bool can_refill = options_.health.retries.capacity == 0 ||
                              options_.health.retries.refill_per_time > 0.0;
      if (!can_refill || s->deferrals >= kMaxDeferralsPerSession) {
        retire_running(*s, SessionState::kFailed,
                       "retry budget starved after " + std::to_string(s->deferrals) +
                           " deferral(s) at phase " + std::to_string(phase));
      }
      return true;
    }
    s->deferrals = 0;
    ++stats_.phases_executed;
    if (obs_ != nullptr) obs_->metrics().counter("svc.phases").add();
    const std::int64_t sent_now = s->exchange->sent_parcels();
    if (sent_now > s->record.sent_parcels) {
      slo_counter(s->ledger->parcels, "svc.slo.parcels", s->record.tenant)
          .add(sent_now - s->record.sent_parcels);
    }
    s->record.phases_done = s->exchange->phases_done();
    s->record.sent_parcels = sent_now;
    if (s->exchange->complete()) {
      retire_running(*s, SessionState::kCompleted, "");
    }
  } catch (const ExchangeCancelledError& error) {
    // Charge the attempted phase either way: the engine burned time on
    // it, and determinism wants the clock independent of how far the
    // phase got before the flag was seen.
    vclock_ += phase_cost_;
    ++fault_tick_;
    settle(*s);
    retire_running(*s, SessionState::kCancelled, error.what());
  } catch (const std::exception& error) {
    // Crash injection, corruption refusal, quota breach, unroutable
    // fault, or any other session-local defect: the session dies, the
    // engine moves on.
    vclock_ += phase_cost_;
    ++fault_tick_;
    settle(*s);
    retire_running(*s, SessionState::kFailed, error.what());
  }
  return true;
}

void SessionManager::run_until_idle() {
  while (run_one()) {
  }
}

SessionRecord SessionManager::record(SessionId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return slot(id).record;
}

SvcStats SessionManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

std::vector<std::vector<std::int64_t>> SessionManager::take_result(SessionId id) {
  std::lock_guard<std::mutex> lk(mu_);
  Slot& s = slot(id);
  TOREX_REQUIRE(s.record.state == SessionState::kCompleted, "session has no result to take");
  TOREX_REQUIRE(s.has_result, "session result already taken");
  s.has_result = false;
  return std::move(s.result);
}

ExchangeJournal SessionManager::journal(SessionId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const Slot& s = slot(id);
  TOREX_REQUIRE(s.exchange != nullptr, "session was never admitted; no journal exists");
  return s.exchange->journal();
}

WirePoolStats SessionManager::wire_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return arena_.stats();
}

std::int64_t SessionManager::outstanding_frames() const {
  std::lock_guard<std::mutex> lk(mu_);
  return arena_.stats().outstanding_frames();
}

void SessionManager::health_maintenance() {
  if (health_ == nullptr) return;
  retry_budget_->advance(vclock_);
  if (detector_ != nullptr && fault_tick_ > observed_tick_) {
    // Feed the detector only the ticks that elapsed since the last
    // dispatch; crashed nodes (service crash faults) go silent and the
    // resulting phi transitions open their node breakers.
    const auto suspicions =
        detector_->observe_heartbeats(options_.service_faults, observed_tick_ + 1, fault_tick_);
    observed_tick_ = fault_tick_;
    for (const Suspicion& suspicion : suspicions) {
      health_->report_suspicion(suspicion.node, fault_tick_, suspicion.phi);
    }
  }
  health_->run_probes(options_.service_faults, fault_tick_);
}

std::int64_t SessionManager::fault_tick() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fault_tick_;
}

void SessionManager::advance_health(std::int64_t ticks) {
  TOREX_REQUIRE(ticks >= 1, "advance_health needs a positive tick count");
  std::lock_guard<std::mutex> lk(mu_);
  if (health_ == nullptr) return;
  for (std::int64_t i = 0; i < ticks; ++i) {
    ++fault_tick_;
    health_maintenance();
  }
}

HealthStats SessionManager::health_stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  TOREX_REQUIRE(health_ != nullptr, "health stats requested from a manager without the layer");
  HealthStats out = health_->stats(fault_tick_);
  out.retry_granted = retry_budget_->granted();
  out.retry_denied = retry_budget_->denied();
  out.retry_refilled = retry_budget_->refilled();
  out.retry_capacity = options_.health.retries.capacity;
  return out;
}

std::string SessionManager::health_dump() const {
  std::lock_guard<std::mutex> lk(mu_);
  TOREX_REQUIRE(health_ != nullptr, "health dump requested from a manager without the layer");
  return health_->dump(fault_tick_);
}

std::vector<SessionManager::FlightDumpEntry> SessionManager::flight_dumps() const {
  std::lock_guard<std::mutex> lk(mu_);
  return flight_dumps_;
}

MetricsSnapshot SessionManager::slo_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return slo_.snapshot();
}

MetricsSnapshot SessionManager::exposition_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  MetricsSnapshot out = slo_.snapshot();
  const auto counter = [&out](const char* name, std::int64_t value, MetricLabels labels = {}) {
    out.counters.push_back({name, canonical_labels(std::move(labels)), value});
  };
  const auto gauge = [&out](const char* name, std::int64_t value, MetricLabels labels = {}) {
    out.gauges.push_back({name, canonical_labels(std::move(labels)), value});
  };

  // Service disposition totals (the same numbers stats() reports).
  counter("svc.offered", stats_.offered);
  counter("svc.admitted", stats_.admitted);
  counter("svc.rejected", stats_.rejected);
  counter("svc.completed", stats_.completed);
  counter("svc.failed", stats_.failed);
  counter("svc.cancelled", stats_.cancelled + stats_.cancelled_queued);
  counter("svc.deadline_missed", stats_.deadline_missed());
  counter("svc.phases", stats_.phases_executed);
  counter("svc.parcels_delivered", stats_.parcels_delivered);

  // Scheduler occupancy and the virtual clock.
  gauge("svc.active_sessions", static_cast<std::int64_t>(running_.size()));
  gauge("svc.queued_sessions", static_cast<std::int64_t>(queue_.size()));
  gauge("svc.pending_arrivals", static_cast<std::int64_t>(pending_arrivals_.size()));
  for (const auto& [tenant, depth] : tenant_queued_) {
    gauge("svc.queue_depth", depth, {{"tenant", tenant}});
  }
  gauge("svc.virtual_time_milliphase", to_milliphase(vclock_));
  gauge("svc.fault_tick", fault_tick_);

  // Flight recorder occupancy.
  gauge("svc.flight.tracked_sessions", static_cast<std::int64_t>(flight_.tracked_sessions()));
  counter("svc.flight.dumps", static_cast<std::int64_t>(flight_dumps_.size()));

  // Shared arena / wire path.
  const WirePoolStats& w = arena_.stats();
  counter("wire.messages", w.messages);
  counter("wire.parcels", w.parcels);
  counter("wire.bytes_encoded", w.bytes_encoded);
  counter("wire.bytes_copied", w.bytes_copied);
  counter("wire.acquires", w.acquires);
  counter("wire.pool_hits", w.pool_hits);
  counter("wire.pool_misses", w.pool_misses);
  gauge("wire.outstanding_frames", w.outstanding_frames());
  gauge("wire.peak_in_use", w.peak_in_use);

  // Health layer: aggregate counters, retry budget, and a per-resource
  // breaker gauge (0 = closed, 1 = open, 2 = half-open).
  if (health_ != nullptr) {
    const HealthStats h = health_->stats(fault_tick_);
    counter("svc.health.errors", h.errors);
    counter("svc.health.opens", h.opens);
    counter("svc.health.closes", h.closes);
    counter("svc.health.flaps", h.flaps);
    counter("svc.health.probes", h.probes);
    counter("svc.health.probe_failures", h.probe_failures);
    counter("svc.health.chain_walks", h.chain_walks);
    counter("svc.health.suspicions", h.suspicions);
    counter("svc.health.integrity_reports", h.integrity_reports);
    counter("svc.health.quarantine_hits", h.quarantine_hits);
    counter("svc.health.rerouted_messages", h.rerouted_messages);
    counter("svc.health.reroute_extra_hops", h.reroute_extra_hops);
    counter("svc.health.remap_hosted", h.remap_hosted);
    counter("svc.health.resent_parcels", h.resent_parcels);
    counter("svc.health.deferrals", h.deferrals);
    counter("svc.health.planned_around", h.planned_around);
    counter("svc.health.permanent_quarantines", h.permanent_quarantines);
    gauge("svc.health.open_breakers", h.open_breakers);
    gauge("svc.health.half_open_breakers", h.half_open_breakers);
    for (const ResourceHealth& r : h.resources) {
      gauge("svc.health.breaker", static_cast<std::int64_t>(r.state),
            {{"resource", resource_label(r)}, {"permanent", r.permanent ? "yes" : "no"}});
    }
    gauge("svc.retry.capacity", options_.health.retries.capacity);
    gauge("svc.retry.available", retry_budget_->available());
    counter("svc.retry.granted", retry_budget_->granted());
    counter("svc.retry.denied", retry_budget_->denied());
    counter("svc.retry.refilled", retry_budget_->refilled());
  }

  const auto by_key = [](const auto& a, const auto& b) {
    return a.name != b.name ? a.name < b.name : a.labels < b.labels;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_key);
  std::sort(out.gauges.begin(), out.gauges.end(), by_key);
  std::sort(out.histograms.begin(), out.histograms.end(), by_key);
  return out;
}

}  // namespace torex
