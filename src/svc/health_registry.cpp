#include "svc/health_registry.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/assert.hpp"
#include "util/prng.hpp"

namespace torex {

std::string to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  TOREX_UNREACHABLE();
}

void BreakerOptions::validate() const {
  TOREX_REQUIRE(error_threshold >= 1, "breaker: error threshold must be positive");
  TOREX_REQUIRE(open_ticks >= 1, "breaker: cool-off must be at least one tick");
  TOREX_REQUIRE(probe_jitter >= 0, "breaker: probe jitter must be non-negative");
  TOREX_REQUIRE(flap_limit >= 1, "breaker: flap limit must be positive");
}

void RetryBudgetOptions::validate() const {
  TOREX_REQUIRE(capacity >= 0, "retry budget: capacity must be non-negative");
  TOREX_REQUIRE(std::isfinite(refill_per_time) && refill_per_time >= 0.0,
                "retry budget: refill rate must be finite and non-negative");
}

RetryBudget::RetryBudget(RetryBudgetOptions options) : options_(options) {
  options_.validate();
  tokens_ = options_.capacity;
}

void RetryBudget::advance(double now) {
  std::lock_guard<std::mutex> lk(mu_);
  if (now <= last_now_) return;  // virtual time never refunds tokens
  if (options_.capacity > 0 && options_.refill_per_time > 0.0) {
    fractional_ += (now - last_now_) * options_.refill_per_time;
    const auto whole = static_cast<std::int64_t>(fractional_);
    if (whole > 0) {
      fractional_ -= static_cast<double>(whole);
      const std::int64_t grant = std::min(whole, options_.capacity - tokens_);
      tokens_ += grant;
      refilled_ += grant;
    }
  }
  last_now_ = now;
}

bool RetryBudget::try_acquire(std::int64_t tokens) {
  TOREX_REQUIRE(tokens >= 0, "retry budget: token request must be non-negative");
  std::lock_guard<std::mutex> lk(mu_);
  if (options_.capacity == 0) {  // unlimited
    granted_ += tokens;
    return true;
  }
  if (tokens > tokens_) {
    denied_ += tokens;
    return false;
  }
  tokens_ -= tokens;
  granted_ += tokens;
  return true;
}

std::int64_t RetryBudget::available() const {
  std::lock_guard<std::mutex> lk(mu_);
  return options_.capacity == 0 ? std::numeric_limits<std::int64_t>::max() : tokens_;
}

std::int64_t RetryBudget::granted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return granted_;
}

std::int64_t RetryBudget::denied() const {
  std::lock_guard<std::mutex> lk(mu_);
  return denied_;
}

std::int64_t RetryBudget::refilled() const {
  std::lock_guard<std::mutex> lk(mu_);
  return refilled_;
}

std::string ResourceHealth::describe(const Torus& torus) const {
  std::ostringstream out;
  if (kind == FaultKind::kChannel) {
    const Channel c = torus.channel_of(id);
    out << "channel " << id << " (node " << c.from << " dim " << c.direction.dim
        << (c.direction.sign == Sign::kPositive ? " +" : " -") << ")";
  } else {
    out << "node " << id;
  }
  out << ": " << to_string(state) << (permanent ? " (permanent)" : "") << ", errors=" << errors
      << ", flaps=" << flaps << ", chain_walks=" << chain_walks;
  if (!verdict.empty()) out << ", verdict=\"" << verdict << "\"";
  return out.str();
}

HealthRegistry::HealthRegistry(TorusShape shape, BreakerOptions options, Recorder* obs)
    : torus_(shape), options_(options), obs_(obs) {
  options_.validate();
  if (obs_ != nullptr && !obs_->enabled()) obs_ = nullptr;
}

std::int64_t HealthRegistry::cool_off_for(const Key& key, int flaps) const {
  if (options_.probe_jitter == 0) return options_.open_ticks;
  // Seeded per resource and per flap: correlated breakers spread their
  // probes over [open_ticks, open_ticks + probe_jitter], reproducibly.
  SplitMix64 rng(options_.seed ^ (static_cast<std::uint64_t>(key.id) << 8) ^
                 (static_cast<std::uint64_t>(key.kind) << 4) ^
                 static_cast<std::uint64_t>(flaps));
  return options_.open_ticks +
         static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(
             options_.probe_jitter + 1)));
}

BreakerState HealthRegistry::effective_state(const Breaker& b, std::int64_t tick) const {
  if (b.state == BreakerState::kOpen && !b.permanent && tick >= b.opened_at + b.cool_off) {
    return BreakerState::kHalfOpen;
  }
  return b.state;
}

BreakerState HealthRegistry::channel_state(ChannelId id, std::int64_t tick) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = breakers_.find({FaultKind::kChannel, id});
  return it == breakers_.end() ? BreakerState::kClosed : effective_state(it->second, tick);
}

BreakerState HealthRegistry::node_state(Rank node, std::int64_t tick) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = breakers_.find({FaultKind::kNode, node});
  return it == breakers_.end() ? BreakerState::kClosed : effective_state(it->second, tick);
}

bool HealthRegistry::channel_quarantined(ChannelId id, std::int64_t tick) const {
  return channel_state(id, tick) != BreakerState::kClosed;
}

bool HealthRegistry::node_quarantined(Rank node, std::int64_t tick) const {
  return node_state(node, tick) != BreakerState::kClosed;
}

bool HealthRegistry::any_quarantined(std::int64_t tick) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [key, b] : breakers_) {
    if (effective_state(b, tick) != BreakerState::kClosed) return true;
  }
  return false;
}

std::string HealthRegistry::describe_key(const Key& key) const {
  if (key.kind == FaultKind::kChannel) {
    const Channel c = torus_.channel_of(key.id);
    return "channel " + std::to_string(key.id) + " (node " + std::to_string(c.from) + " dim " +
           std::to_string(c.direction.dim) +
           (c.direction.sign == Sign::kPositive ? "+" : "-") + ")";
  }
  return "node " + std::to_string(key.id);
}

void HealthRegistry::open_locked(const Key& key, Breaker& b, std::int64_t tick,
                                 const std::string& why) {
  b.state = BreakerState::kOpen;
  b.opened_at = tick;
  b.errors = 0;
  if (b.ever_opened) {
    ++b.flaps;
    ++totals_.flaps;
    if (obs_ != nullptr) obs_->metrics().counter("svc.health.flaps").add();
    if (b.flaps >= options_.flap_limit) {
      b.permanent = true;
      ++totals_.permanent_quarantines;
      if (obs_ != nullptr) obs_->metrics().counter("svc.health.permanent").add();
    }
  }
  b.ever_opened = true;
  b.cool_off = cool_off_for(key, b.flaps);
  if (b.verdict.empty()) b.verdict = why;
  ++totals_.opens;
  if (obs_ != nullptr) {
    // Zero-length span so the quarantine decision is visible in traces
    // strictly before the reroutes it causes.
    const auto node = static_cast<std::int32_t>(key.id);
    obs_->begin("svc.health.breaker_open", node);
    obs_->end("svc.health.breaker_open", node);
    obs_->instant("svc.health.quarantine", node, 0, 0, tick);
    obs_->metrics().counter("svc.health.opens").add();
  }
}

bool HealthRegistry::record_error_locked(const Key& key, std::int64_t tick,
                                         const std::string& why) {
  Breaker& b = breakers_[key];
  ++totals_.errors;
  if (obs_ != nullptr) obs_->metrics().counter("svc.health.errors").add();
  switch (effective_state(b, tick)) {
    case BreakerState::kClosed:
      if (++b.errors >= options_.error_threshold) {
        open_locked(key, b, tick, why);
        return true;  // this caller is the first discoverer
      }
      return false;
    case BreakerState::kHalfOpen:
      // An error during the probe window is a failed probe by another
      // name: re-open and count the flap.
      open_locked(key, b, tick, why);
      return false;
    case BreakerState::kOpen:
      return false;  // already quarantined; nothing new to discover
  }
  TOREX_UNREACHABLE();
}

bool HealthRegistry::record_channel_error(ChannelId id, std::int64_t tick,
                                          const std::string& why) {
  TOREX_REQUIRE(id >= 0 && id < torus_.num_channels(), "health: unknown channel id");
  std::lock_guard<std::mutex> lk(mu_);
  return record_error_locked({FaultKind::kChannel, id}, tick, why);
}

bool HealthRegistry::record_node_error(Rank node, std::int64_t tick, const std::string& why) {
  TOREX_REQUIRE(node >= 0 && node < torus_.shape().num_nodes(), "health: unknown node");
  std::lock_guard<std::mutex> lk(mu_);
  return record_error_locked({FaultKind::kNode, node}, tick, why);
}

void HealthRegistry::report_suspicion(Rank node, std::int64_t tick, double phi) {
  TOREX_REQUIRE(node >= 0 && node < torus_.shape().num_nodes(), "health: unknown node");
  std::lock_guard<std::mutex> lk(mu_);
  ++totals_.suspicions;
  if (obs_ != nullptr) obs_->metrics().counter("svc.health.suspicions").add();
  const Key key{FaultKind::kNode, node};
  Breaker& b = breakers_[key];
  if (effective_state(b, tick) != BreakerState::kClosed) return;
  std::ostringstream why;
  why << "phi-accrual suspicion (phi=" << phi << ")";
  open_locked(key, b, tick, why.str());
}

void HealthRegistry::observe_integrity(const IntegrityReport& report, std::int64_t tick) {
  std::lock_guard<std::mutex> lk(mu_);
  ++totals_.integrity_reports;
  if (obs_ != nullptr) obs_->metrics().counter("svc.health.integrity_reports").add();
  std::vector<ChannelId> route;
  for (const IntegrityViolation& v : report.violations) {
    // The violation names the scheduled straight route: every channel
    // on it absorbs one error (the receiver cannot tell which hop
    // damaged the frame, so the whole route is suspect).
    route.clear();
    torus_.straight_path(v.src, v.direction, v.hops, route);
    for (const ChannelId id : route) {
      record_error_locked({FaultKind::kChannel, id}, tick,
                          "integrity retransmission: " + v.reason);
    }
  }
}

void HealthRegistry::run_probes(const FaultModel& ground_truth, std::int64_t tick) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [key, b] : breakers_) {
    if (effective_state(b, tick) != BreakerState::kHalfOpen) continue;
    ++totals_.probes;
    if (obs_ != nullptr) {
      const auto node = static_cast<std::int32_t>(key.id);
      obs_->begin("svc.health.probe", node);
      obs_->end("svc.health.probe", node);
      obs_->metrics().counter("svc.health.probes").add();
    }
    const bool still_bad =
        key.kind == FaultKind::kChannel
            ? ground_truth.channel_failed(torus_, key.id, tick)
            : ground_truth.node_failed(static_cast<Rank>(key.id), tick);
    if (still_bad) {
      ++totals_.probe_failures;
      open_locked(key, b, tick, b.verdict);
    } else {
      b.state = BreakerState::kClosed;
      b.errors = 0;
      ++totals_.closes;
      if (obs_ != nullptr) {
        obs_->instant("svc.health.readmit", static_cast<std::int32_t>(key.id), 0, 0, tick);
        obs_->metrics().counter("svc.health.closes").add();
      }
    }
  }
}

void HealthRegistry::add_quarantine(FaultModel& out, std::int64_t tick) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [key, b] : breakers_) {
    if (effective_state(b, tick) == BreakerState::kClosed) continue;
    if (key.kind == FaultKind::kChannel) {
      const Channel c = torus_.channel_of(key.id);
      out.fail_channel(c.from, c.direction);
    } else {
      out.fail_node(static_cast<Rank>(key.id));
    }
  }
}

void HealthRegistry::add_quarantined(std::int64_t tick, std::vector<ChannelId>& channels,
                                     std::vector<Rank>& nodes) const {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [key, b] : breakers_) {
    if (effective_state(b, tick) == BreakerState::kClosed) continue;
    if (key.kind == FaultKind::kChannel) {
      channels.push_back(key.id);
    } else {
      nodes.push_back(static_cast<Rank>(key.id));
    }
  }
}

std::string HealthRegistry::channel_verdict(ChannelId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = breakers_.find({FaultKind::kChannel, id});
  return it == breakers_.end() ? std::string() : it->second.verdict;
}

void HealthRegistry::note_chain_walk(ChannelId id) {
  std::lock_guard<std::mutex> lk(mu_);
  ++totals_.chain_walks;
  auto it = breakers_.find({FaultKind::kChannel, id});
  if (it != breakers_.end()) ++it->second.chain_walks;
  if (obs_ != nullptr) obs_->metrics().counter("svc.health.chain_walks").add();
}

void HealthRegistry::note_quarantine_hit() {
  std::lock_guard<std::mutex> lk(mu_);
  ++totals_.quarantine_hits;
  if (obs_ != nullptr) obs_->metrics().counter("svc.health.quarantine_hits").add();
}

void HealthRegistry::note_reroute(std::int64_t extra_hops) {
  std::lock_guard<std::mutex> lk(mu_);
  ++totals_.rerouted_messages;
  totals_.reroute_extra_hops += extra_hops;
  if (obs_ != nullptr) obs_->metrics().counter("svc.health.rerouted").add();
}

void HealthRegistry::note_remap_hosted() {
  std::lock_guard<std::mutex> lk(mu_);
  ++totals_.remap_hosted;
  if (obs_ != nullptr) obs_->metrics().counter("svc.health.remap_hosted").add();
}

void HealthRegistry::note_resent(std::int64_t parcels) {
  std::lock_guard<std::mutex> lk(mu_);
  totals_.resent_parcels += parcels;
  if (obs_ != nullptr) obs_->metrics().counter("svc.health.resent_parcels").add(parcels);
}

void HealthRegistry::note_deferral() {
  std::lock_guard<std::mutex> lk(mu_);
  ++totals_.deferrals;
  if (obs_ != nullptr) obs_->metrics().counter("svc.health.deferred").add();
}

void HealthRegistry::note_planned_around() {
  std::lock_guard<std::mutex> lk(mu_);
  ++totals_.planned_around;
  if (obs_ != nullptr) obs_->metrics().counter("svc.health.planned_around").add();
}

std::int64_t HealthRegistry::opens() const {
  std::lock_guard<std::mutex> lk(mu_);
  return totals_.opens;
}

HealthStats HealthRegistry::stats(std::int64_t tick) const {
  std::lock_guard<std::mutex> lk(mu_);
  HealthStats out = totals_;
  out.resources.clear();
  for (const auto& [key, b] : breakers_) {
    ResourceHealth r;
    r.kind = key.kind;
    r.id = key.id;
    r.state = effective_state(b, tick);
    r.permanent = b.permanent;
    r.errors = b.errors;
    r.flaps = b.flaps;
    r.chain_walks = b.chain_walks;
    r.opened_at = b.opened_at;
    r.verdict = b.verdict;
    if (r.state == BreakerState::kOpen) ++out.open_breakers;
    if (r.state == BreakerState::kHalfOpen) ++out.half_open_breakers;
    out.resources.push_back(std::move(r));
  }
  if (obs_ != nullptr) {
    obs_->metrics().gauge("svc.health.open_breakers").set(out.open_breakers);
  }
  return out;
}

std::string HealthRegistry::dump(std::int64_t tick) const {
  const HealthStats snap = stats(tick);
  std::ostringstream out;
  out << "health registry @ tick " << tick << ": " << snap.resources.size()
      << " tracked resource(s), " << snap.open_breakers << " open, " << snap.half_open_breakers
      << " half-open\n";
  out << "  errors=" << snap.errors << " opens=" << snap.opens << " closes=" << snap.closes
      << " flaps=" << snap.flaps << " probes=" << snap.probes << "/" << snap.probe_failures
      << " failed chain_walks=" << snap.chain_walks << " resent=" << snap.resent_parcels
      << " deferrals=" << snap.deferrals << " rerouted=" << snap.rerouted_messages
      << " hosted=" << snap.remap_hosted << "\n";
  for (const ResourceHealth& r : snap.resources) {
    out << "  " << r.describe(torus_) << "\n";
  }
  return out.str();
}

HealthView::HealthView(const Torus& torus, const FaultModel* faults,
                       const HealthRegistry& registry, std::int64_t tick)
    : torus_(&torus), faults_(faults), registry_(&registry), tick_(tick) {
  if (faults != nullptr) {
    for (const FaultSpec& spec : faults->specs()) {
      if (spec.kind == FaultKind::kChannel) {
        if (spec.active_at(tick)) {
          down_channels_.push_back(torus.channel_id(spec.channel.from, spec.channel.direction));
        }
        continue;
      }
      if (!spec.relevant_at(tick)) continue;
      failed_nodes_.push_back(spec.node);
      if (!spec.active_at(tick)) continue;
      // A dead node downs every channel out of it and into it.
      for (int d = 0; d < torus.shape().num_dims(); ++d) {
        for (const Sign sign : {Sign::kPositive, Sign::kNegative}) {
          const Direction out{d, sign};
          down_channels_.push_back(torus.channel_id(spec.node, out));
          down_channels_.push_back(
              torus.channel_id(torus.neighbor(spec.node, out), Direction{d, flip(sign)}));
        }
      }
    }
  }
  registry.add_quarantined(tick, quarantined_channels_, failed_nodes_);
}

bool HealthView::node_failed(Rank node) const {
  return std::find(failed_nodes_.begin(), failed_nodes_.end(), node) != failed_nodes_.end();
}

bool HealthView::channel_down(ChannelId id) const {
  return std::find(down_channels_.begin(), down_channels_.end(), id) != down_channels_.end();
}

bool HealthView::channel_quarantined(ChannelId id) const {
  return std::find(quarantined_channels_.begin(), quarantined_channels_.end(), id) !=
         quarantined_channels_.end();
}

void HealthView::quarantine(ChannelId id) { quarantined_channels_.push_back(id); }

bool HealthView::crosses(Rank from, Direction direction, int hops) const {
  return crosses(down_channels_, from, direction, hops) ||
         crosses(quarantined_channels_, from, direction, hops);
}

bool HealthView::crosses(const std::vector<ChannelId>& ids, Rank from, Direction direction,
                         int hops) const {
  const TorusShape& shape = torus_->shape();
  const int dim = direction.dim;
  const std::int32_t extent = shape.extent(dim);
  for (const ChannelId id : ids) {
    const Channel c = torus_->channel_of(id);
    if (!(c.direction == direction)) continue;
    bool same_line = true;
    for (int d = 0; d < shape.num_dims() && same_line; ++d) {
      same_line = d == dim || shape.coord_along(from, d) == shape.coord_along(c.from, d);
    }
    if (!same_line) continue;
    // Hops from `from` to the channel's node along the direction.
    std::int32_t ahead = shape.coord_along(c.from, dim) - shape.coord_along(from, dim);
    if (direction.sign == Sign::kNegative) ahead = -ahead;
    ahead = ((ahead % extent) + extent) % extent;
    if (ahead < hops) return true;
  }
  return false;
}

const FaultModel& HealthView::planning() {
  if (!planned_) {
    if (faults_ != nullptr) planning_ = *faults_;
    registry_->add_quarantine(planning_, tick_);
    planned_ = true;
  }
  return planning_;
}

}  // namespace torex
