// Service-wide health registry: circuit breakers over torus resources.
//
// torexd (session_manager.hpp) runs many concurrent sessions over one
// physical torus. Without shared health state every session that hits
// the same dead channel rediscovers it independently: each one pays
// retries, each one walks the full degradation chain, and together they
// amplify a single fault into a retry storm. This module is the shared
// substrate that prevents that:
//
//  * HealthRegistry — deterministic per-resource state for directed
//    channels and nodes, fed by the signals the runtime already
//    produces: per-session IntegrityReport retransmissions
//    (observe_integrity), fault attributions from the data path
//    (record_error), and phi-accrual suspicion from
//    HeartbeatFailureDetector (report_suspicion). Each resource carries
//    a circuit breaker:
//
//        closed --error_threshold consecutive errors--> open
//        open   --cool-off (open_ticks + seeded jitter)--> half-open
//        half-open --probe success--> closed
//        half-open --probe failure--> open again (one flap)
//        any reopen after the first counts a flap; flap_limit flaps
//        quarantine the resource permanently (no more probes).
//
//    The seeded jitter staggers probe re-admission so correlated
//    breakers do not re-probe in lockstep, while staying reproducible
//    from the seed.
//
//  * RetryBudget — one global, cross-tenant token bucket denominated in
//    parcels. Every retransmission any session wants to fire first
//    acquires that many tokens; a denied acquire defers the phase (it
//    re-queues under the fair scheduler) instead of firing, which
//    bounds total retransmission amplification under correlated
//    faults: parcels-resent <= capacity + refilled, by construction.
//
// First-discoverer-heals-all: the first session whose errors push a
// breaker from closed to open is the only one that pays the discovery
// (retries, then the degradation-chain walk); record_error returns true
// exactly at that transition and the registry publishes the verdict.
// Every later session sees the resource quarantined via quarantined() /
// quarantine_faults() and reroutes immediately, paying zero retries.
//
// Determinism: all state advances on the service's fault tick axis (one
// tick per dispatched phase) and the virtual clock; nothing reads wall
// time. The registry is internally locked so tests may hammer it from
// threads, but torexd drives it from the single scheduler thread.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/integrity.hpp"
#include "obs/recorder.hpp"
#include "sim/fault_model.hpp"
#include "topology/torus.hpp"

namespace torex {

/// Breaker lattice. kOpen with HealthResourceState::permanent set never
/// leaves kOpen (flap limit exceeded: the resource is quarantined for
/// good).
enum class BreakerState {
  kClosed,    ///< healthy: traffic flows, errors accumulate
  kOpen,      ///< quarantined: planned around, no retries spent
  kHalfOpen,  ///< cool-off elapsed: next probe decides
};

std::string to_string(BreakerState state);

/// Breaker tuning. validate() rejects non-positive thresholds.
struct BreakerOptions {
  /// Consecutive errors on a closed breaker that trip it open. The
  /// first discoverer pays exactly this many retries per resource.
  int error_threshold = 2;
  /// Base cool-off: an open breaker becomes probe-eligible (half-open)
  /// once this many fault ticks have passed since it opened.
  std::int64_t open_ticks = 4;
  /// Seeded extra cool-off in [0, probe_jitter], mixed per resource and
  /// per flap so correlated breakers de-synchronize their probes.
  std::int64_t probe_jitter = 2;
  /// Reopens (from half-open probe failure or fresh rediscovery) after
  /// which the resource is quarantined permanently.
  int flap_limit = 16;
  /// Jitter seed.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;

  void validate() const;
};

/// Global retry token bucket tuning. capacity 0 = unlimited (every
/// acquire grants). validate() rejects negative values.
struct RetryBudgetOptions {
  /// Bucket size, in parcels.
  std::int64_t capacity = 0;
  /// Tokens replenished per unit of virtual time, up to capacity.
  double refill_per_time = 0.0;

  void validate() const;
};

/// Cross-tenant retransmission token bucket on the virtual clock.
/// Thread-safe; deterministic given the sequence of advance/acquire
/// calls (and, for uniform token sizes, the total granted is
/// independent of acquire interleaving).
class RetryBudget {
 public:
  explicit RetryBudget(RetryBudgetOptions options = {});

  const RetryBudgetOptions& options() const { return options_; }

  /// Refills tokens for virtual time advanced since the last call.
  /// Non-monotonic `now` is clamped (time never refunds tokens).
  void advance(double now);

  /// Takes `tokens` parcels from the bucket; all-or-nothing. Unlimited
  /// buckets always grant.
  bool try_acquire(std::int64_t tokens);

  std::int64_t available() const;
  std::int64_t granted() const;   ///< total tokens granted
  std::int64_t denied() const;    ///< total tokens refused
  std::int64_t refilled() const;  ///< whole tokens replenished so far

 private:
  RetryBudgetOptions options_;
  mutable std::mutex mu_;
  std::int64_t tokens_ = 0;
  double fractional_ = 0.0;  // sub-token refill carry
  double last_now_ = 0.0;
  std::int64_t granted_ = 0;
  std::int64_t denied_ = 0;
  std::int64_t refilled_ = 0;
};

/// One resource's breaker, as observed at a snapshot tick.
struct ResourceHealth {
  FaultKind kind = FaultKind::kChannel;
  std::int64_t id = -1;  ///< ChannelId (kChannel) or Rank (kNode)
  BreakerState state = BreakerState::kClosed;
  bool permanent = false;
  int errors = 0;  ///< consecutive errors while closed
  int flaps = 0;
  int chain_walks = 0;  ///< degradation-chain walks charged to this resource
  std::int64_t opened_at = 0;
  std::string verdict;  ///< first discoverer's published diagnosis
  std::string describe(const Torus& torus) const;
};

/// Aggregate registry counters plus the per-resource detail, snapshot
/// under the registry lock. The retry_* fields are filled by
/// SessionManager::health_stats() from its RetryBudget.
struct HealthStats {
  std::int64_t errors = 0;             ///< error signals recorded
  std::int64_t opens = 0;              ///< closed -> open transitions
  std::int64_t closes = 0;             ///< half-open -> closed transitions
  std::int64_t flaps = 0;              ///< reopens after the first open
  std::int64_t probes = 0;             ///< half-open probes fired
  std::int64_t probe_failures = 0;     ///< probes that re-opened the breaker
  std::int64_t chain_walks = 0;        ///< full degradation-chain walks paid
  std::int64_t suspicions = 0;         ///< phi-accrual node suspicions absorbed
  std::int64_t integrity_reports = 0;  ///< IntegrityReports absorbed
  std::int64_t quarantine_hits = 0;    ///< messages that met an open breaker
  std::int64_t rerouted_messages = 0;  ///< messages sent around bad resources
  std::int64_t reroute_extra_hops = 0; ///< detour hops minus scheduled hops
  std::int64_t remap_hosted = 0;       ///< endpoint-dead messages hosted (§6 remap)
  std::int64_t resent_parcels = 0;     ///< parcels retransmitted during discovery
  std::int64_t deferrals = 0;          ///< phases re-queued by a denied budget
  std::int64_t planned_around = 0;     ///< sessions admitted with active quarantine
  std::int64_t permanent_quarantines = 0;
  std::int64_t open_breakers = 0;      ///< at the snapshot tick
  std::int64_t half_open_breakers = 0;
  std::vector<ResourceHealth> resources;

  /// True when every breaker has converged back to closed (the storm
  /// sweep's final invariant; permanent quarantines never converge).
  bool all_closed() const { return open_breakers == 0 && half_open_breakers == 0; }

  std::int64_t retry_granted = 0;
  std::int64_t retry_denied = 0;
  std::int64_t retry_refilled = 0;
  std::int64_t retry_capacity = 0;
};

/// The service-wide breaker table. See the file comment for semantics.
class HealthRegistry {
 public:
  HealthRegistry(TorusShape shape, BreakerOptions options, Recorder* obs = nullptr);

  const Torus& torus() const { return torus_; }
  const BreakerOptions& options() const { return options_; }

  /// Effective breaker state of a channel/node at `tick` (open breakers
  /// past their cool-off read as half-open). Unknown resources are
  /// closed.
  BreakerState channel_state(ChannelId id, std::int64_t tick) const;
  BreakerState node_state(Rank node, std::int64_t tick) const;

  /// True when the resource is quarantined for planning at `tick`
  /// (open or half-open: probes re-admit traffic, sessions do not).
  bool channel_quarantined(ChannelId id, std::int64_t tick) const;
  bool node_quarantined(Rank node, std::int64_t tick) const;
  /// Any resource quarantined at `tick`?
  bool any_quarantined(std::int64_t tick) const;

  /// Records one error signal against a channel/node. Returns true
  /// exactly when this signal tripped the breaker from closed to open —
  /// the caller is the first discoverer and owes the (single)
  /// degradation-chain walk. `why` becomes the published verdict.
  bool record_channel_error(ChannelId id, std::int64_t tick, const std::string& why);
  bool record_node_error(Rank node, std::int64_t tick, const std::string& why);

  /// Absorbs a phi-accrual suspicion: the node's breaker opens
  /// immediately (suspicion is already an integrated signal, not one
  /// raw error).
  void report_suspicion(Rank node, std::int64_t tick, double phi);

  /// Absorbs a per-session IntegrityReport: every recorded violation
  /// charges one error to each channel of its scheduled straight route.
  void observe_integrity(const IntegrityReport& report, std::int64_t tick);

  /// Fires probes for every half-open breaker against ground truth:
  /// a still-faulty resource re-opens (one flap), a healed one closes.
  /// Call once per fault tick; cheap when nothing is half-open.
  void run_probes(const FaultModel& ground_truth, std::int64_t tick);

  /// The quarantine as a FaultModel (permanent windows), merged into
  /// `out` — feed to route_around_faults so planning avoids quarantined
  /// resources exactly like faulted ones.
  void add_quarantine(FaultModel& out, std::int64_t tick) const;

  /// The same quarantine as two lists: every channel and every node
  /// whose breaker is not closed at `tick`, appended under one lock.
  void add_quarantined(std::int64_t tick, std::vector<ChannelId>& channels,
                       std::vector<Rank>& nodes) const;

  /// Published verdict of a resource's first discoverer ("" if none).
  std::string channel_verdict(ChannelId id) const;

  // Accounting hooks for the data path (all thread-safe).
  void note_chain_walk(ChannelId id);    ///< first discoverer walked the chain
  void note_quarantine_hit();            ///< a message met an open breaker
  void note_reroute(std::int64_t extra_hops);
  void note_remap_hosted();
  void note_resent(std::int64_t parcels);
  void note_deferral();
  void note_planned_around();

  /// Snapshot (aggregates + per-resource detail) at `tick`.
  HealthStats stats(std::int64_t tick) const;

  /// Total closed -> open transitions so far. Cheap (no resource walk):
  /// the manager polls it after every dispatch to edge-detect breaker
  /// trips for the flight recorder.
  std::int64_t opens() const;

  /// Human-readable breaker table for post-mortem artifacts.
  std::string dump(std::int64_t tick) const;

 private:
  struct Key {
    FaultKind kind;
    std::int64_t id;
    bool operator<(const Key& other) const {
      return kind != other.kind ? kind < other.kind : id < other.id;
    }
  };
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    bool permanent = false;
    int errors = 0;
    int flaps = 0;
    int chain_walks = 0;
    std::int64_t opened_at = 0;
    std::int64_t cool_off = 0;  // open_ticks + jitter for this open
    std::string verdict;
    bool ever_opened = false;
  };

  // All of the below require mu_ held.
  BreakerState effective_state(const Breaker& b, std::int64_t tick) const;
  bool record_error_locked(const Key& key, std::int64_t tick, const std::string& why);
  void open_locked(const Key& key, Breaker& b, std::int64_t tick, const std::string& why);
  std::int64_t cool_off_for(const Key& key, int flaps) const;
  std::string describe_key(const Key& key) const;

  Torus torus_;
  BreakerOptions options_;
  Recorder* obs_;

  mutable std::mutex mu_;
  std::map<Key, Breaker> breakers_;
  HealthStats totals_;  // aggregate counters only; resources built on demand
};

/// What the health gate of one dispatch checks its messages against.
/// The fault tick is fixed for a dispatch, so the view is built once
/// per dispatch, with one pass over the service fault specs and one
/// registry call. It holds:
///  * the channels down at the tick (a channel fault active at the tick,
///    or a node fault active at the tick on either end);
///  * the relevant-failed nodes (a node fault active at or after the
///    tick, or a node breaker that is not closed);
///  * the channel breakers that are not closed, and every breaker the
///    dispatch trips on its way (quarantine()).
/// An empty view means no message of the dispatch can meet a remap, a
/// quarantine hit or a discovery. Lookups scan short lists: a view
/// holds the handful of resources that are bad at one tick.
class HealthView {
 public:
  /// An empty view: nothing is down, failed or quarantined.
  HealthView() = default;
  /// The view at `tick`. `faults` may be null (no ground-truth faults).
  HealthView(const Torus& torus, const FaultModel* faults, const HealthRegistry& registry,
             std::int64_t tick);

  bool empty() const {
    return down_channels_.empty() && failed_nodes_.empty() && quarantined_channels_.empty();
  }
  bool node_failed(Rank node) const;
  bool channel_down(ChannelId id) const;
  bool channel_quarantined(ChannelId id) const;
  /// Whether the straight route of `hops` hops from `from` along
  /// `direction` crosses a channel the view holds down or quarantined.
  /// It reads coordinates one at a time and allocates nothing, so only
  /// the messages it names need their route spelled out.
  bool crosses(Rank from, Direction direction, int hops) const;
  /// A breaker the dispatch tripped joins the view.
  void quarantine(ChannelId id);

  /// The model detours are planned against: the service faults plus
  /// everything the registry has quarantined, so a reroute never lands
  /// on another known-bad resource. Built on the dispatch's first detour
  /// and kept for the rest of it: a breaker the dispatch trips sits on a
  /// channel that is already down in the service faults.
  const FaultModel& planning();

 private:
  /// Whether some channel of `ids` leaves a node of the route.
  bool crosses(const std::vector<ChannelId>& ids, Rank from, Direction direction,
               int hops) const;

  const Torus* torus_ = nullptr;
  const FaultModel* faults_ = nullptr;
  const HealthRegistry* registry_ = nullptr;
  std::int64_t tick_ = 0;
  std::vector<ChannelId> down_channels_;
  std::vector<ChannelId> quarantined_channels_;
  std::vector<Rank> failed_nodes_;
  FaultModel planning_;
  bool planned_ = false;
};

}  // namespace torex
