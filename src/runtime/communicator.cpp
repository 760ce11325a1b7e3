#include "runtime/communicator.hpp"

#include <limits>
#include <sstream>

#include "topology/torus.hpp"

namespace torex {

std::string to_string(AlltoallAlgorithm algorithm) {
  switch (algorithm) {
    case AlltoallAlgorithm::kAuto: return "auto";
    case AlltoallAlgorithm::kSuhShin: return "suh-shin";
    case AlltoallAlgorithm::kSuhShinPadded: return "suh-shin-padded";
    case AlltoallAlgorithm::kRing: return "ring";
    case AlltoallAlgorithm::kDirect: return "direct";
    case AlltoallAlgorithm::kBruck: return "bruck";
  }
  TOREX_UNREACHABLE();
}

std::string to_string(IntegrityStatus status) {
  switch (status) {
    case IntegrityStatus::kClean: return "clean";
    case IntegrityStatus::kCorrected: return "corrected";
    case IntegrityStatus::kEscalated: return "escalated";
  }
  TOREX_UNREACHABLE();
}

std::string ExchangeOutcome::summary() const {
  std::ostringstream os;
  os << "algorithm=" << torex::to_string(algorithm) << " policy=" << torex::to_string(policy)
     << " attempts=" << attempts << " retries=" << retries << " waited=" << waited_ticks
     << " remapped=" << remapped_nodes << " rerouted=" << rerouted_messages
     << " extra_hops=" << extra_hops << (degraded ? " (degraded)" : "");
  if (integrity != IntegrityStatus::kClean || corrupted_messages > 0) {
    os << " integrity=" << torex::to_string(integrity) << " corrupted=" << corrupted_messages
       << " retransmits=" << retransmits << " escalations=" << escalations;
    if (integrity_failure.has_value()) {
      os << " [fatal: phase " << integrity_failure->phase << " step " << integrity_failure->step
         << ", " << integrity_failure->src << " -> " << integrity_failure->dst << ": "
         << integrity_failure->description << "]";
    }
  }
  if (suspected_nodes > 0) {
    os << " suspected=" << suspected_nodes << " suspicion_tick=" << suspicion_tick;
  }
  if (resume.has_value()) {
    os << " [" << resume->summary() << "]";
  }
  return os.str();
}

void ResumeOptions::validate() const {
  resilience.backoff.validate();
  detector.validate();
  TOREX_REQUIRE(resilience.start_tick >= 0,
                "resume options: start tick must be non-negative");
  if (crash.armed()) {
    TOREX_REQUIRE(crash.step >= 1, "resume options: crash step is 1-based");
  }
  TOREX_REQUIRE(resilience.algorithm == AlltoallAlgorithm::kAuto ||
                    resilience.algorithm == AlltoallAlgorithm::kSuhShin,
                "resume options: a resumable exchange runs the Suh-Shin schedule (kAuto or "
                "kSuhShin)");
  TOREX_REQUIRE(resilience.policy != RecoveryPolicy::kFallbackDirect,
                "resume options: a resumable exchange recovers by retry or remap, never by the "
                "direct fallback");
}

bool add_corruption_as_faults(const Torus& torus, const CorruptionModel& corruption,
                              const IntegrityViolation& fatal, FaultModel& faults) {
  // The fatal attempt crossed the straight-line route of its schedule
  // step; every corrupting channel on that route active at the failing
  // tick is implicated. The already-failed check keeps escalation
  // monotone: rounds that add nothing report false so the caller can
  // stop instead of spinning.
  std::vector<ChannelId> path;
  torus.straight_path(fatal.src, fatal.direction, fatal.hops, path);
  bool added = false;
  for (ChannelId id : path) {
    const auto spec = corruption.find(torus, id, fatal.tick);
    if (!spec.has_value()) continue;
    if (faults.channel_relevant_failed(torus, id, fatal.tick)) continue;
    const Channel ch = torus.channel_of(id);
    faults.fail_channel(ch.from, ch.direction, spec->active_from, spec->active_until);
    added = true;
  }
  return added;
}

TorusCommunicator::TorusCommunicator(TorusShape shape, CostParams params)
    : shape_(std::move(shape)), params_(params) {
  TOREX_REQUIRE(shape_.num_nodes() >= 2, "communicator needs at least two nodes");
  if (suh_shin_applicable()) schedule_.emplace(shape_);
}

bool TorusCommunicator::suh_shin_applicable() const {
  return shape_.num_dims() >= 2 && shape_.all_extents_multiple_of_four() &&
         shape_.extents_non_increasing();
}

CostBreakdown TorusCommunicator::estimate(AlltoallAlgorithm algorithm,
                                          std::int64_t block_bytes) const {
  TOREX_REQUIRE(block_bytes >= 1, "block size must be positive");
  CostParams p = params_;
  p.m = block_bytes;
  switch (algorithm) {
    case AlltoallAlgorithm::kAuto:
      return estimate(select(block_bytes), block_bytes);
    case AlltoallAlgorithm::kSuhShin: {
      TOREX_REQUIRE(suh_shin_applicable(), "Suh-Shin schedule not applicable to this shape");
      return proposed_cost_nd(shape_, p);
    }
    case AlltoallAlgorithm::kSuhShinPadded: {
      // Pad and price the virtual run, serializing each step by the
      // realized host multiplicity.
      const VirtualTorusAape padded(shape_);
      const VirtualExchangeResult run = padded.run_verified();
      CostBreakdown out;
      const double m = static_cast<double>(p.m);
      for (std::size_t i = 0; i < run.trace.steps.size(); ++i) {
        const auto& step = run.trace.steps[i];
        const double serial = static_cast<double>(run.per_step_host_sends[i]);
        out.startup += serial * p.t_s;
        out.transmission +=
            serial * static_cast<double>(step.max_blocks_per_node) * m * p.t_c;
        out.propagation += serial * static_cast<double>(step.hops) * p.t_l;
      }
      out.rearrangement = static_cast<double>(run.trace.rearrangement_passes) *
                          static_cast<double>(padded.virtual_shape().num_nodes()) * m * p.rho;
      return out;
    }
    case AlltoallAlgorithm::kRing: {
      // N-1 steps, step i moves N-i blocks over 1 hop; no rearrangement.
      const double N = static_cast<double>(shape_.num_nodes());
      CostBreakdown c;
      c.startup = (N - 1) * p.t_s;
      c.transmission = N * (N - 1) / 2 * static_cast<double>(p.m) * p.t_c;
      c.propagation = (N - 1) * p.t_l;
      return c;
    }
    case AlltoallAlgorithm::kDirect: {
      DirectExchange direct(shape_);
      return price_routed_steps(direct.torus(), direct.steps(), p);
    }
    case AlltoallAlgorithm::kBruck: {
      BruckExchange bruck(shape_);
      return price_routed_steps(bruck.torus(), bruck.run_verified(), p);
    }
  }
  TOREX_UNREACHABLE();
}

double TorusCommunicator::phase_cost(std::int64_t block_bytes) const {
  TOREX_REQUIRE(suh_shin_applicable(),
                "per-phase pricing requires the Suh-Shin schedule (qualifying shape)");
  TOREX_REQUIRE(block_bytes >= 1, "block size must be positive");
  CostParams p = params_;
  p.m = block_bytes;
  return proposed_phase_cost(shape_, p);
}

ExchangeOutcome TorusCommunicator::plan_resilient(const FaultModel& faults,
                                                  const ResilienceOptions& options,
                                                  std::int64_t block_bytes) const {
  TOREX_REQUIRE(block_bytes >= 1, "block size must be positive");
  ExchangeOutcome out;
  out.requested = options.algorithm;
  out.requested_policy = options.policy;
  out.run_tick = options.start_tick;
  const AlltoallAlgorithm chosen =
      options.algorithm == AlltoallAlgorithm::kAuto ? select(block_bytes) : options.algorithm;
  out.algorithm = chosen;
  if (faults.empty()) {
    out.modeled_time = estimate(chosen, block_bytes).total();
    out.note = "healthy network; no recovery needed";
    return out;
  }

  const Torus torus(shape_);
  const SuhShinAape* schedule =
      (chosen == AlltoallAlgorithm::kSuhShin && schedule_.has_value()) ? &*schedule_ : nullptr;
  const RecoveryDecision decision =
      decide_recovery(torus, schedule, faults, options.policy, options.backoff,
                      options.start_tick, options.obs);
  out.policy = decision.policy;
  out.attempts = decision.attempts;
  out.retries = decision.retries;
  out.waited_ticks = decision.waited_ticks;
  out.run_tick = decision.run_tick;
  out.remapped_nodes = decision.plan.remapped_nodes;
  out.rerouted_messages = decision.plan.rerouted_messages;
  out.extra_hops = decision.plan.extra_hops;
  out.note = decision.note.empty() ? "schedule clean under faults" : decision.note;
  if (decision.policy == RecoveryPolicy::kFallbackDirect) {
    out.algorithm = AlltoallAlgorithm::kDirect;
  }
  out.degraded = decision.policy == RecoveryPolicy::kRemap ||
                 decision.policy == RecoveryPolicy::kFallbackDirect;
  // Detours price as extra propagation on the paper's model; waiting
  // out transient faults is reported in ticks (waited_ticks), not here.
  out.modeled_time = estimate(out.algorithm, block_bytes).total() +
                     static_cast<double>(out.extra_hops) * params_.t_l;
  return out;
}

AlltoallAlgorithm TorusCommunicator::select(std::int64_t block_bytes) const {
  double best_time = std::numeric_limits<double>::infinity();
  AlltoallAlgorithm best = AlltoallAlgorithm::kRing;
  for (AlltoallAlgorithm algorithm :
       {AlltoallAlgorithm::kSuhShin, AlltoallAlgorithm::kSuhShinPadded,
        AlltoallAlgorithm::kRing, AlltoallAlgorithm::kDirect, AlltoallAlgorithm::kBruck}) {
    if (algorithm == AlltoallAlgorithm::kSuhShin && !suh_shin_applicable()) continue;
    // Padding only earns its keep when the plain schedule cannot run,
    // and §6 pads only tori of two or more dimensions sorted
    // non-increasing.
    if (algorithm == AlltoallAlgorithm::kSuhShinPadded &&
        (suh_shin_applicable() || shape_.num_dims() < 2 || !shape_.extents_non_increasing())) {
      continue;
    }
    const double t = estimate(algorithm, block_bytes).total();
    if (t < best_time) {
      best_time = t;
      best = algorithm;
    }
  }
  return best;
}

}  // namespace torex
