#include "svc/session_exchange.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace torex {

namespace {

using Word = std::int64_t;

/// Empties `v` and gives its capacity back.
template <typename T>
void free_storage(std::vector<T>& v) {
  std::vector<T>().swap(v);
}

}  // namespace

SessionExchange::SessionExchange(SessionId id, const SuhShinAape& algo, const StepProgram& program,
                                 std::vector<std::vector<Word>> send, WireArena& arena,
                                 std::int64_t max_leased_frames, FlightRecorder* flight)
    : id_(id), algo_(&algo), program_(&program), arena_(&arena), flight_(flight),
      frame_quota_(max_leased_frames), rows_(std::move(send)), journal_(program) {
  program.require_compiled_for(algo);
  const Rank N = algo.shape().num_nodes();
  detail::require_rows(N, rows_);
  detail::begin_replay(program, nullptr, replay_);
}

SessionExchange::SessionExchange(SessionId id, const SuhShinAape& algo, const StepProgram& program,
                                 const std::vector<StridedView<const Word>>& send,
                                 WireArena& arena, std::int64_t max_leased_frames,
                                 FlightRecorder* flight)
    : SessionExchange(id, algo, program, seed_rows_strided(algo.shape().num_nodes(), send),
                      arena, max_leased_frames, flight) {}

void SessionExchange::flight_note(const char* name, const HealthContext& health, int phase,
                                  int step, std::int64_t value) {
  if (flight_ != nullptr) flight_->note(id_, name, health.tick, phase, step, value);
}

bool SessionExchange::health_gate(int phase, int step, const HealthContext& health,
                                  HealthView& view) {
  const Rank N = algo_->shape().num_nodes();
  const Torus& torus = algo_->torus();
  HealthRegistry& registry = *health.registry;
  const std::int64_t tick = health.tick;

  const int hops = algo_->hops_per_step(phase);
  std::vector<ChannelId> route;
  for (Rank p = 0; p < N; ++p) {
    const StepProgram::NodeStep& send = program_->step(phase, step, p);
    const auto parcels = static_cast<std::int64_t>(send.count);
    if (parcels == 0) continue;
    const Rank q = send.partner;

    // §6 remap hosting: a message whose endpoint is dead or
    // quarantined is hosted by the surviving neighbor the remap
    // assigns — the exchange proceeds, the registry accounts it.
    if (view.node_failed(p) || view.node_failed(q)) {
      registry.note_remap_hosted();
      flight_note("health.remap_hosted", health, phase, step, q);
      continue;
    }

    const Direction direction = algo_->direction(p, phase, step);
    if (!view.crosses(p, direction, hops)) continue;
    route.clear();
    torus.straight_path(p, direction, hops, route);
    bool needs_detour = false;
    for (const ChannelId id : route) {
      if (view.channel_quarantined(id)) {
        // Someone already paid the discovery: reroute immediately, no
        // retries, no chain walk — first-discoverer-heals-all.
        registry.note_quarantine_hit();
        flight_note("health.quarantine_hit", health, phase, step, id);
        needs_detour = true;
        continue;
      }
      if (!view.channel_down(id)) continue;
      // A live, undiscovered fault: this session is the discoverer.
      // Each retransmission attempt draws the message's parcel count
      // from the global budget; denial defers the whole step (nothing
      // mutated yet) so the retries queue instead of firing.
      while (!registry.channel_quarantined(id, tick)) {
        if (health.budget != nullptr && !health.budget->try_acquire(parcels)) {
          registry.note_deferral();
          flight_note("health.deferred", health, phase, step, parcels);
          return false;
        }
        registry.note_resent(parcels);
        resent_parcels_ += parcels;
        flight_note("health.resent", health, phase, step, parcels);
        const auto fault = health.faults->find_channel_fault(torus, id, tick);
        const std::string why =
            fault.has_value() ? fault->describe(torus) : "unattributed send failure";
        if (registry.record_channel_error(id, tick, why)) {
          // The breaker tripped on our error: we are the first
          // discoverer and walk the degradation chain (retry ->
          // reroute/remap) exactly once, publishing the verdict.
          registry.note_chain_walk(id);
          flight_note("health.breaker_trip", health, phase, step, id);
        }
      }
      view.quarantine(id);
      needs_detour = true;
    }
    if (!needs_detour) continue;

    // The quarantined channels are failed in the planning model (a
    // service fault, or the registry's quarantine), so BFS plans past
    // them.
    auto path = route_around_faults(torus, view.planning(), p, q, tick);
    if (!path.has_value()) {
      flight_note("health.unroutable", health, phase, step, q);
      throw SessionFaultError(id_, phase, step,
                              "no detour from node " + std::to_string(p) + " to node " +
                                  std::to_string(q) + " around quarantined resources");
    }
    registry.note_reroute(static_cast<std::int64_t>(path->size()) - hops);
    flight_note("health.reroute", health, phase, step,
                static_cast<std::int64_t>(path->size()) - hops);
  }
  return true;
}

// The service's policies as step-kernel hooks, for one dispatch. The
// journal side (the step's deliveries record, the commit marker) is the
// journaled executor's; a session's journal starts fresh and never
// resumes, so every step is live, and the next step's flat index is the
// journal's count of committed steps.
struct SessionExchange::Driver : detail::JournalHooks {
  Driver(SessionExchange& session, const std::atomic<bool>* cancel_flag,
         const SessionInjection& injection, const HealthContext& health_context,
         HealthView& health_view)
      : detail::JournalHooks(*session.program_, session.journal_,
                             session.journal_.committed_steps()),
        self(session),
        cancel(cancel_flag),
        inject(injection),
        health(health_context),
        view(health_view),
        corrupt_pending(injection.corrupt_phase == session.replay_.phase) {}

  SessionExchange& self;
  const std::atomic<bool>* cancel;
  const SessionInjection& inject;
  const HealthContext& health;
  HealthView& view;
  bool corrupt_pending;  ///< the phase's first frame is still to be damaged

  void throw_if_cancelled(int phase, int step) {
    if (cancel == nullptr || !cancel->load(std::memory_order_relaxed)) return;
    self.flight_note("svc.cancelled", health, phase, step);
    detail::throw_journal_cancelled(phase, step);
  }

  // Before the kernel touches anything of the step: cancel, the health
  // gate (nothing to check while the view is empty), then the frame
  // quota — the step's senders each lease a frame — and the sent-parcel
  // accounting, both from the program's totals. A refused step leases
  // and sends nothing, so it is refused before anything is counted.
  bool begin_step(int phase, int step) {
    throw_if_cancelled(phase, step);
    if (health.active() && !view.empty() && !self.health_gate(phase, step, health, view)) {
      return false;
    }
    const StepProgram::StepTotals& totals = program.totals(phase, step);
    const std::int64_t frames = totals.messages;
    if (self.frame_quota_ > 0 && frames > self.frame_quota_) {
      self.flight_note("svc.quota_breach", health, phase, step, self.frame_quota_ + 1);
      throw SessionQuotaError(self.id_, self.frame_quota_, self.frame_quota_);
    }
    self.sent_parcels_ += totals.parcels;
    self.peak_leased_ = std::max(self.peak_leased_, frames);
    return true;
  }

  bool tampers() const { return corrupt_pending; }

  // One flipped payload bit: the frame CRC refuses it.
  void tamper(const detail::StepMessage& /*m*/, std::vector<std::byte>& frame) {
    if (!corrupt_pending) return;
    frame[detail::kFrameHeaderBytes] ^= std::byte{0x01};
    corrupt_pending = false;
  }

  // A refused frame kills this session only; the kernel returns the
  // phase's frames to the arena as the error unwinds.
  bool settle(const detail::StepMessage& m, const char* refused) {
    if (refused == nullptr) return true;
    self.flight_note("svc.integrity_refused", health, m.phase, m.step, m.src);
    throw SessionIntegrityError(self.id_, m.phase, m.step, refused);
  }

  // Write-ahead order, exactly as the journaled executor: deliveries
  // flush before the commit marker; the crash injection and the cancel
  // window both sit between them.
  void step_done(int phase, int step) {
    record_arrivals(phase, step);
    if (inject.crash_phase == phase && step == 1) {
      self.flight_note("svc.crash", health, phase, step);
      throw ExchangeCrashError(phase, step,
                               "injected session crash after journal flush (phase " +
                                   std::to_string(phase) + ", step " + std::to_string(step) +
                                   ")");
    }
    throw_if_cancelled(phase, step);
    commit_step();
    self.flight_note("wire.step", health, phase, step, program.totals(phase, step).parcels);
  }

  void phase_done(int phase) { journal.commit_phase(phase); }
};

PhaseOutcome SessionExchange::run_phase(const std::atomic<bool>* cancel,
                                        const SessionInjection& inject,
                                        const HealthContext& health) {
  TOREX_REQUIRE(!complete(), "session exchange already complete");
  TOREX_REQUIRE(!rows_.empty(), "session exchange retired");
  HealthView view = health.active() ? HealthView(algo_->torus(), health.faults,
                                                 *health.registry, health.tick)
                                      : HealthView();
  Driver driver(*this, cancel, inject, health, view);
  return detail::replay_phase(*program_, rows_, *arena_, nullptr, nullptr, driver, replay_)
             ? PhaseOutcome::kComplete
             : PhaseOutcome::kDeferred;
}

std::vector<std::vector<Word>> SessionExchange::take_result() {
  const Rank N = algo_->shape().num_nodes();
  std::vector<std::vector<Word>> recv(static_cast<std::size_t>(N));
  std::vector<StridedView<Word>> views;
  views.reserve(recv.size());
  for (auto& row : recv) {
    row.resize(static_cast<std::size_t>(N));
    views.push_back({row.data(), row.size(), 1});
  }
  take_result_into(views);
  return recv;
}

void SessionExchange::take_result_into(const std::vector<StridedView<Word>>& recv) {
  TOREX_REQUIRE(complete(), "session result requested before the exchange finished");
  TOREX_REQUIRE(!rows_.empty(), "session result already taken");
  TOREX_CHECK(journal_.exchange_complete(), "session journal incomplete after a finished exchange");
  scatter_rows_strided(*program_, rows_, recv);
  free_storage(rows_);
}

void SessionExchange::retire() {
  free_storage(rows_);
  free_storage(replay_.outbound);
  free_storage(replay_.staged);
  free_storage(replay_.scratch);
}

}  // namespace torex
