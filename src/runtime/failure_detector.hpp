// Heartbeat failure detector: phi-accrual suspicion over the simulated
// clock.
//
// A stall deadline is reactive — a dead node is only noticed after a
// whole deadline of silence. This detector is predictive in the
// phi-accrual style (Hayashibara et al.): every node emits a heartbeat
// each `heartbeat_interval` ticks; the detector keeps a sliding window
// of observed inter-arrival gaps per node and converts "how long since
// the last heartbeat" into a suspicion level
//
//   phi(node, t) = (t - last_arrival) / mean_interval / ln(10)
//
// i.e. the number of decades of improbability under an exponential
// inter-arrival model. A node is *suspected* once phi >= phi_threshold.
// With the defaults (interval 1, threshold 8) a crashed node is
// suspected ~19 ticks after its last heartbeat — far inside any
// realistic watchdog deadline — and a rejoining node un-suspects on its
// first fresh heartbeat.
//
// Everything is deterministic: heartbeats are derived from the fault
// model's node windows (a crashed node is silent while its fault is
// active), so the same faults + options always produce the same
// suspicion ticks.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/fault_model.hpp"
#include "topology/shape.hpp"

namespace torex {

/// Tuning of the heartbeat failure detector. validate() rejects
/// non-positive intervals/thresholds and inverted windows.
struct FailureDetectorOptions {
  /// Ticks between heartbeats of a live node.
  std::int64_t heartbeat_interval = 1;
  /// Suspicion threshold in phi units (decades of improbability).
  double phi_threshold = 8.0;
  /// Sliding window of inter-arrival samples kept per node.
  int window = 32;
  /// Synthetic samples of `heartbeat_interval` pre-seeded into a node's
  /// window on its first heartbeat, so a couple of atypically quick
  /// early beats cannot collapse the mean and make a fresh node
  /// instantly suspicious. The seeds age out of the ring as real gaps
  /// arrive. 0 restores the unseeded (warm-up-sensitive) estimate.
  int warmup_samples = 8;

  void validate() const;
};

/// One node crossing the suspicion threshold.
struct Suspicion {
  Rank node = -1;
  std::int64_t suspected_at = 0;  ///< first tick with phi >= threshold
  double phi = 0.0;               ///< phi at that tick
};

/// Deterministic phi-accrual detector over the simulated tick axis.
class HeartbeatFailureDetector {
 public:
  HeartbeatFailureDetector(Rank num_nodes, FailureDetectorOptions options,
                           Recorder* obs = nullptr);

  Rank num_nodes() const { return num_nodes_; }
  const FailureDetectorOptions& options() const { return options_; }

  /// Records a heartbeat from `node` at `tick`. Returns true when the
  /// sample was accepted. Out-of-order or duplicate samples (tick <=
  /// the node's last arrival) are dropped and counted — a late
  /// heartbeat must not shrink the observed gaps and mask real
  /// silence, nor may a replayed one skew phi. dropped_samples() and
  /// the fd.dropped_samples counter expose the drop volume.
  bool heartbeat(Rank node, std::int64_t tick);

  /// Non-monotonic samples refused so far.
  std::int64_t dropped_samples() const { return dropped_samples_; }

  /// Suspicion level of `node` at `tick` (0 before any heartbeat
  /// history exists — an unseen node is trusted until its first
  /// expected arrival is missed).
  double phi(Rank node, std::int64_t tick) const;

  bool suspect(Rank node, std::int64_t tick) const {
    return phi(node, tick) >= options_.phi_threshold;
  }

  /// All nodes suspected at `tick`, ascending.
  std::vector<Rank> suspects(std::int64_t tick) const;

  /// First tick >= the node's last arrival at which phi reaches the
  /// threshold if no further heartbeat arrives (closed form).
  std::int64_t suspicion_tick(Rank node) const;

  /// Drives the detector from a fault model: every node emits a
  /// heartbeat each interval in [0, up_to_tick] unless its node fault
  /// is active at that tick (crashed nodes go silent; a healed fault —
  /// a rejoin — resumes the beat). Emits an `fd.suspect` span and
  /// bumps the `fd.suspects` counter at each new suspicion transition,
  /// and returns every transition in tick order.
  std::vector<Suspicion> observe_heartbeats(const FaultModel& faults, std::int64_t up_to_tick);

  /// Incremental variant: observes only ticks in [from_tick,
  /// up_to_tick], so a driver advancing its own tick axis (torexd's
  /// fault tick) can feed the detector without re-walking history.
  /// observe_heartbeats(faults, t) == observe_heartbeats(faults, 0, t).
  std::vector<Suspicion> observe_heartbeats(const FaultModel& faults, std::int64_t from_tick,
                                            std::int64_t up_to_tick);

  std::string summary(std::int64_t tick) const;

 private:
  struct NodeState {
    std::int64_t last_arrival = -1;
    std::vector<std::int64_t> intervals;  // ring buffer of recent gaps
    int next_slot = 0;
    bool suspected = false;  // transition tracking for observe_heartbeats
  };

  double mean_interval(const NodeState& state) const;

  Rank num_nodes_;
  FailureDetectorOptions options_;
  Recorder* obs_;
  std::vector<NodeState> nodes_;
  std::int64_t dropped_samples_ = 0;
};

}  // namespace torex
