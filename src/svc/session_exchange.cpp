#include "svc/session_exchange.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace torex {

namespace {

using Word = std::int64_t;

}  // namespace

SessionExchange::SessionExchange(SessionId id, const SuhShinAape& algo, const StepProgram& program,
                                 const std::vector<std::vector<Word>>& send, WireArena& arena,
                                 std::int64_t max_leased_frames, FlightRecorder* flight)
    : SessionExchange(id, algo, program,
                      [&] {
                        // Dense rows are just stride-1 views.
                        std::vector<StridedView<const Word>> views;
                        views.reserve(send.size());
                        for (const auto& row : send) {
                          views.push_back({row.data(), row.size(), 1});
                        }
                        return views;
                      }(),
                      arena, max_leased_frames, flight) {}

SessionExchange::SessionExchange(SessionId id, const SuhShinAape& algo, const StepProgram& program,
                                 const std::vector<StridedView<const Word>>& send,
                                 WireArena& arena, std::int64_t max_leased_frames,
                                 FlightRecorder* flight)
    : id_(id), algo_(&algo), program_(&program), arena_(&arena), flight_(flight),
      frame_quota_(max_leased_frames) {
  program.require_compiled_for(algo);
  const Rank N = algo.shape().num_nodes();
  TOREX_REQUIRE(static_cast<Rank>(send.size()) == N, "session send buffer must have N rows");
  rows_ = seed_rows_strided(N, send);
  detail::begin_replay(program, nullptr, replay_);
  journal_ = ExchangeJournal(algo.shape(), algo.num_phases(), algo.total_steps());
}

void SessionExchange::flight_note(const char* name, const HealthContext& health, int phase,
                                  int step, std::int64_t value) {
  if (flight_ != nullptr) flight_->note(id_, name, health.tick, phase, step, value);
}

bool SessionExchange::health_gate(int phase, int step, const HealthContext& health) {
  const Rank N = algo_->shape().num_nodes();
  const Torus& torus = algo_->torus();
  HealthRegistry& registry = *health.registry;
  const std::int64_t tick = health.tick;

  // Planning view: ground-truth service faults plus everything the
  // registry has quarantined. Detours route against this model, so a
  // reroute never lands on another known-bad resource.
  FaultModel avoid = health.faults != nullptr ? *health.faults : FaultModel{};
  registry.add_quarantine(avoid, tick);

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
    if (avoid.node_relevant_failed(p, tick) || avoid.node_relevant_failed(q, tick)) {
      registry.note_remap_hosted();
      flight_note("health.remap_hosted", health, phase, step, q);
      continue;
    }

    route.clear();
    torus.straight_path(p, algo_->direction(p, phase, step), hops, route);
    bool needs_detour = false;
    for (const ChannelId id : route) {
      if (registry.channel_quarantined(id, tick)) {
        // Someone already paid the discovery: reroute immediately, no
        // retries, no chain walk — first-discoverer-heals-all.
        registry.note_quarantine_hit();
        flight_note("health.quarantine_hit", health, phase, step, id);
        needs_detour = true;
        continue;
      }
      if (health.faults == nullptr || !health.faults->channel_failed(torus, id, tick)) {
        continue;
      }
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
      needs_detour = true;
    }
    if (!needs_detour) continue;

    // The quarantined channels are already failed in `avoid` (either a
    // service fault or add_quarantine above), so BFS plans past them.
    auto path = route_around_faults(torus, avoid, p, q, tick);
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
// journal side (deliveries collected per receive, the record, the
// commit marker) is the journaled executor's; a session's journal
// starts fresh and never resumes, so every step is live, and the next
// step's flat index is the journal's count of committed steps.
struct SessionExchange::Driver : detail::JournalHooks<Word> {
  Driver(SessionExchange& session, ResumeReport& journal_report,
         const std::atomic<bool>* cancel_flag, const SessionInjection& injection,
         const HealthContext& health_context)
      : detail::JournalHooks<Word>(*session.program_, session.journal_, journal_report, nullptr,
                                   nullptr),
        self(session),
        cancel(cancel_flag),
        inject(injection),
        health(health_context),
        corrupt_pending(injection.corrupt_phase == session.replay_.phase) {
    flat_step = journal.committed_steps();
  }

  SessionExchange& self;
  const std::atomic<bool>* cancel;
  const SessionInjection& inject;
  const HealthContext& health;
  bool corrupt_pending;       ///< the phase's first frame is still to be damaged
  std::int64_t step_sent = 0;  ///< parcels the step in flight sends

  void throw_if_cancelled(int phase, int step) {
    if (cancel == nullptr || !cancel->load(std::memory_order_relaxed)) return;
    self.flight_note("svc.cancelled", health, phase, step);
    detail::throw_journal_cancelled(phase, step);
  }

  // Before the kernel touches anything of the step: cancel, the health
  // gate, then the frame quota — the kernel leases one frame per
  // sender, in sender order — and the sent-parcel accounting.
  bool begin_step(int phase, int step) {
    throw_if_cancelled(phase, step);
    if (health.active() && !self.health_gate(phase, step, health)) return false;
    std::int64_t frames = 0;
    step_sent = 0;
    for (Rank p = 0; p < self.program_->num_nodes(); ++p) {
      const std::uint32_t count = self.program_->step(phase, step, p).count;
      if (count == 0) continue;
      if (self.frame_quota_ > 0 && frames >= self.frame_quota_) {
        self.flight_note("svc.quota_breach", health, phase, step, frames + 1);
        throw SessionQuotaError(self.id_, frames, self.frame_quota_);
      }
      ++frames;
      step_sent += count;
      self.sent_parcels_ += count;
    }
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
  // step's frames to the arena as the error unwinds.
  bool settle(const detail::StepMessage& m, const char* refused) {
    if (refused == nullptr) return true;
    self.flight_note("svc.integrity_refused", health, m.phase, m.step, m.src);
    throw SessionIntegrityError(self.id_, m.phase, m.step, refused);
  }

  // Write-ahead order, exactly as the journaled executor: deliveries
  // flush before the commit marker; the crash injection and the cancel
  // window both sit between them.
  void step_done(int phase, int step) {
    record_arrivals();
    if (inject.crash_phase == phase && step == 1) {
      self.flight_note("svc.crash", health, phase, step);
      throw ExchangeCrashError(phase, step,
                               "injected session crash after journal flush (phase " +
                                   std::to_string(phase) + ", step " + std::to_string(step) +
                                   ")");
    }
    throw_if_cancelled(phase, step);
    commit_step();
    self.flight_note("wire.step", health, phase, step, step_sent);
  }

  void phase_done(int phase) { journal.commit_phase(phase); }
};

PhaseOutcome SessionExchange::run_phase(const std::atomic<bool>* cancel,
                                        const SessionInjection& inject,
                                        const HealthContext& health) {
  TOREX_REQUIRE(!complete(), "session exchange already complete");
  ResumeReport report;
  Driver driver(*this, report, cancel, inject, health);
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
  rows_.clear();
}

}  // namespace torex
