#include "svc/session_exchange.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/assert.hpp"

namespace torex {

namespace {

using Word = std::int64_t;

/// A step's in-flight message: the sealed frame stays leased (RAII)
/// until the integrate half has verified and spliced it.
struct PendingFrame {
  PooledFrame frame;
  Rank src = -1;
  Rank dst = -1;
  std::int64_t count = 0;
};

}  // namespace

SessionExchange::SessionExchange(SessionId id, const SuhShinAape& algo,
                                 const std::vector<std::vector<Word>>& send, WireArena& arena,
                                 std::int64_t max_leased_frames, FlightRecorder* flight)
    : SessionExchange(id, algo,
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

SessionExchange::SessionExchange(SessionId id, const SuhShinAape& algo,
                                 const std::vector<StridedView<const Word>>& send,
                                 WireArena& arena, std::int64_t max_leased_frames,
                                 FlightRecorder* flight)
    : id_(id), algo_(&algo), arena_(&arena), flight_(flight),
      frame_quota_(max_leased_frames) {
  const Rank N = algo.shape().num_nodes();
  TOREX_REQUIRE(static_cast<Rank>(send.size()) == N, "session send buffer must have N rows");
  buffers_ = seed_parcels_strided(N, send);
  inbox_.resize(static_cast<std::size_t>(N));
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
    const auto& buf = buffers_[static_cast<std::size_t>(p)];
    std::int64_t parcels = 0;
    for (const Parcel<Word>& x : buf) {
      if (algo_->should_send(p, phase, step, x.block)) ++parcels;
    }
    if (parcels == 0) continue;
    const Rank q = algo_->partner(p, phase, step);

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

PhaseOutcome SessionExchange::run_phase(const std::atomic<bool>* cancel,
                                        const SessionInjection& inject,
                                        const HealthContext& health) {
  TOREX_REQUIRE(!complete(), "session exchange already complete");
  const Rank N = algo_->shape().num_nodes();
  const int phase = phases_done_ + 1;
  bool corrupted_this_phase = false;

  std::vector<PendingFrame> pending;
  std::vector<std::pair<Rank, Rank>> arrivals;
  std::vector<SendRun> runs;  // send-set scan scratch, reused per node
  for (int step = next_step_; step <= algo_->steps_in_phase(phase); ++step) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      flight_note("svc.cancelled", health, phase, step);
      detail::throw_journal_cancelled(phase, step);
    }
    if (health.active() && !health_gate(phase, step, health)) {
      next_step_ = step;  // resume exactly here; nothing was mutated
      return PhaseOutcome::kDeferred;
    }

    // Send half: scan each node's buffer for its send runs (no
    // reordering), gather them into a leased multi-run frame, and
    // count the lease against the tenant's quota before the arena is
    // touched.
    const std::int64_t sent_before = sent_parcels_;
    pending.clear();
    arrivals.clear();
    for (Rank p = 0; p < N; ++p) {
      auto& buf = buffers_[static_cast<std::size_t>(p)];
      const std::size_t send_count = detail::collect_send_runs(
          buf,
          [&](const Parcel<Word>& x) { return algo_->should_send(p, phase, step, x.block); },
          runs);
      if (send_count == 0) continue;
      const auto moved = static_cast<std::int64_t>(send_count);
      if (frame_quota_ > 0 && static_cast<std::int64_t>(pending.size()) >= frame_quota_) {
        flight_note("svc.quota_breach", health, phase, step,
                    static_cast<std::int64_t>(pending.size()) + 1);
        throw SessionQuotaError(id_, static_cast<std::int64_t>(pending.size()), frame_quota_);
      }
      const Rank q = algo_->partner(p, phase, step);
      const std::size_t run_bytes = send_count * sizeof(Parcel<Word>);
      PendingFrame out;
      out.frame.bind(*arena_, detail::kFrameV3HeaderBytes +
                                  runs.size() * detail::kRunDescriptorBytes + run_bytes +
                                  detail::kFrameTrailerBytes);
      encode_multi_run_frame(buf, runs, send_count, phase, step, p, q, out.frame.bytes());
      arena_->stats().note_message(moved, static_cast<std::int64_t>(runs.size()));
      arena_->stats().bytes_encoded += static_cast<std::int64_t>(out.frame.bytes().size());
      arena_->stats().bytes_copied += static_cast<std::int64_t>(run_bytes);
      if (inject.corrupt_phase == phase && !corrupted_this_phase) {
        // One flipped run-table bit: the frame CRC refuses it below.
        out.frame.bytes()[detail::kFrameV3HeaderBytes] ^= std::byte{0x01};
        corrupted_this_phase = true;
      }
      out.src = p;
      out.dst = q;
      out.count = moved;
      pending.push_back(std::move(out));
      sent_parcels_ += moved;
      detail::erase_runs(buf, runs);
    }
    peak_leased_ = std::max(peak_leased_, static_cast<std::int64_t>(pending.size()));

    // Integrate half: verify each frame in place and append its run to
    // the receiver's inbox. A refused frame kills this session only —
    // the pending frames release via RAII on the throw.
    for (const PendingFrame& in : pending) {
      SealedRunFrameView<Word> view;
      std::string why;
      if (!decode_multi_run_frame<Word>(in.frame.view(), phase, step, in.src, in.dst, N, view,
                                        &why)) {
        flight_note("svc.integrity_refused", health, phase, step, in.src);
        throw SessionIntegrityError(id_, phase, step, why);
      }
      view.append_to(inbox_[static_cast<std::size_t>(in.dst)]);
      arena_->stats().bytes_copied += static_cast<std::int64_t>(view.payload_size());
    }
    pending.clear();  // return the step's frames to the arena
    for (Rank p = 0; p < N; ++p) {
      auto& in = inbox_[static_cast<std::size_t>(p)];
      if (in.empty()) continue;
      auto& buf = buffers_[static_cast<std::size_t>(p)];
      for (auto& parcel : in) {
        if (parcel.block.dest == p && parcel.block.origin != p) {
          arrivals.emplace_back(p, parcel.block.origin);
        }
        buf.push_back(std::move(parcel));
      }
      in.clear();
    }

    // Write-ahead order, exactly as the journaled executor: deliveries
    // flush before the commit marker; the crash injection and the
    // cancel window both sit between them.
    if (!arrivals.empty()) journal_.record_deliveries(flat_step_, arrivals);
    if (inject.crash_phase == phase && step == 1) {
      flight_note("svc.crash", health, phase, step);
      throw ExchangeCrashError(phase, step,
                               "injected session crash after journal flush (phase " +
                                   std::to_string(phase) + ", step " + std::to_string(step) +
                                   ")");
    }
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      flight_note("svc.cancelled", health, phase, step);
      detail::throw_journal_cancelled(phase, step);
    }
    journal_.commit_step(flat_step_);
    flight_note("wire.step", health, phase, step, sent_parcels_ - sent_before);
    ++flat_step_;
  }
  next_step_ = 1;
  journal_.commit_phase(phase);
  ++phases_done_;
  return PhaseOutcome::kComplete;
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
  const Rank N = algo_->shape().num_nodes();
  detail::check_parcel_postcondition(N, buffers_);
  TOREX_CHECK(journal_.exchange_complete(), "session journal incomplete after a finished exchange");
  scatter_parcels_strided(N, buffers_, recv);
  for (auto& buf : buffers_) buf.clear();
}

}  // namespace torex
