#include "sim/fault_model.hpp"

#include <algorithm>
#include <deque>
#include <sstream>

#include "util/assert.hpp"
#include "util/prng.hpp"

namespace torex {

namespace {

std::string dir_text(const Direction& d) {
  std::string out(1, d.sign == Sign::kPositive ? '+' : '-');
  out += std::to_string(d.dim);
  return out;
}

std::string window_text(const FaultSpec& spec) {
  std::ostringstream os;
  if (spec.permanent()) {
    os << "permanent from tick " << spec.active_from;
  } else {
    os << "transient [" << spec.active_from << ", " << spec.active_until << ")";
  }
  return os.str();
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kChannel: return "channel";
    case FaultKind::kNode: return "node";
  }
  TOREX_UNREACHABLE();
}

std::string FaultSpec::describe(const Torus& torus) const {
  std::ostringstream os;
  if (kind == FaultKind::kChannel) {
    os << "channel " << channel.from << " -> " << torus.neighbor(channel.from, channel.direction)
       << " (" << dir_text(channel.direction) << ")";
  } else {
    os << "node " << node;
  }
  os << ", " << window_text(*this);
  return os.str();
}

FaultModel& FaultModel::fail_channel(Rank from, Direction direction, std::int64_t active_from,
                                     std::int64_t active_until) {
  TOREX_REQUIRE(from >= 0, "channel source must be a valid rank");
  TOREX_REQUIRE(active_from >= 0 && active_until > active_from,
                "fault activation window must be non-empty and start at tick >= 0");
  FaultSpec spec;
  spec.kind = FaultKind::kChannel;
  spec.channel = Channel{from, direction};
  spec.active_from = active_from;
  spec.active_until = active_until;
  specs_.push_back(spec);
  return *this;
}

FaultModel& FaultModel::flap_channel(Rank from, Direction direction, std::int64_t first_from,
                                     std::int64_t up_ticks, std::int64_t down_ticks,
                                     int cycles) {
  TOREX_REQUIRE(up_ticks >= 1 && down_ticks >= 1,
                "flapping channel needs non-empty up and down windows");
  TOREX_REQUIRE(cycles >= 1, "flapping channel needs at least one cycle");
  std::int64_t start = first_from;
  for (int cycle = 0; cycle < cycles; ++cycle) {
    fail_channel(from, direction, start, start + up_ticks);
    start += up_ticks + down_ticks;
  }
  return *this;
}

FaultModel& FaultModel::fail_node(Rank node, std::int64_t active_from,
                                  std::int64_t active_until) {
  TOREX_REQUIRE(node >= 0, "failed node must be a valid rank");
  TOREX_REQUIRE(active_from >= 0 && active_until > active_from,
                "fault activation window must be non-empty and start at tick >= 0");
  FaultSpec spec;
  spec.kind = FaultKind::kNode;
  spec.node = node;
  spec.active_from = active_from;
  spec.active_until = active_until;
  specs_.push_back(spec);
  return *this;
}

FaultModel& FaultModel::crash_node(Rank node, std::int64_t crash_tick,
                                   std::int64_t rejoin_tick) {
  fail_node(node, crash_tick, rejoin_tick);  // validates node and window
  CrashFault crash;
  crash.node = node;
  crash.crash_tick = crash_tick;
  crash.rejoin_tick = rejoin_tick;
  crashes_.push_back(crash);
  return *this;
}

FaultModel& FaultModel::inject_random_crashes(const Torus& torus, std::uint64_t seed, int count,
                                              std::int64_t crash_tick) {
  TOREX_REQUIRE(count >= 0, "crash count must be non-negative");
  TOREX_REQUIRE(count <= torus.shape().num_nodes(), "more crashes than nodes");
  SplitMix64 rng(seed);
  std::vector<Rank> chosen;
  while (static_cast<int>(chosen.size()) < count) {
    const Rank node = static_cast<Rank>(
        rng.next_below(static_cast<std::uint64_t>(torus.shape().num_nodes())));
    if (std::find(chosen.begin(), chosen.end(), node) != chosen.end()) continue;
    chosen.push_back(node);
    crash_node(node, crash_tick);
  }
  return *this;
}

std::string CrashFault::describe() const {
  std::string out = "node " + std::to_string(node) + " crashes at tick " +
                    std::to_string(crash_tick);
  out += rejoins() ? (", rejoins at tick " + std::to_string(rejoin_tick)) : ", never rejoins";
  return out;
}

FaultModel& FaultModel::inject_random_channel_faults(const Torus& torus, std::uint64_t seed,
                                                     int count, std::int64_t active_from,
                                                     std::int64_t active_until) {
  TOREX_REQUIRE(count >= 0, "fault count must be non-negative");
  TOREX_REQUIRE(count <= torus.num_channels(), "more channel faults than channels");
  SplitMix64 rng(seed);
  std::vector<ChannelId> chosen;
  while (static_cast<int>(chosen.size()) < count) {
    const ChannelId id =
        static_cast<ChannelId>(rng.next_below(static_cast<std::uint64_t>(torus.num_channels())));
    if (std::find(chosen.begin(), chosen.end(), id) != chosen.end()) continue;
    chosen.push_back(id);
    const Channel ch = torus.channel_of(id);
    fail_channel(ch.from, ch.direction, active_from, active_until);
  }
  return *this;
}

FaultModel& FaultModel::inject_random_node_faults(const Torus& torus, std::uint64_t seed,
                                                  int count, std::int64_t active_from,
                                                  std::int64_t active_until) {
  TOREX_REQUIRE(count >= 0, "fault count must be non-negative");
  TOREX_REQUIRE(count <= torus.shape().num_nodes(), "more node faults than nodes");
  SplitMix64 rng(seed);
  std::vector<Rank> chosen;
  while (static_cast<int>(chosen.size()) < count) {
    const Rank node = static_cast<Rank>(
        rng.next_below(static_cast<std::uint64_t>(torus.shape().num_nodes())));
    if (std::find(chosen.begin(), chosen.end(), node) != chosen.end()) continue;
    chosen.push_back(node);
    fail_node(node, active_from, active_until);
  }
  return *this;
}

std::string to_string(CorruptionKind kind) {
  switch (kind) {
    case CorruptionKind::kBitFlip: return "bit-flip";
    case CorruptionKind::kTruncate: return "truncate";
  }
  TOREX_UNREACHABLE();
}

std::string CorruptionSpec::describe(const Torus& torus) const {
  std::ostringstream os;
  os << to_string(kind) << " corruption on channel " << channel.from << " -> "
     << torus.neighbor(channel.from, channel.direction) << " (" << dir_text(channel.direction)
     << "), ";
  if (permanent()) {
    os << "permanent from tick " << active_from;
  } else {
    os << "transient [" << active_from << ", " << active_until << ")";
  }
  return os.str();
}

CorruptionModel& CorruptionModel::corrupt_channel(Rank from, Direction direction,
                                                  CorruptionKind kind, std::int64_t active_from,
                                                  std::int64_t active_until, std::uint64_t seed) {
  TOREX_REQUIRE(from >= 0, "corrupting channel source must be a valid rank");
  TOREX_REQUIRE(active_from >= 0 && active_until > active_from,
                "corruption activation window must be non-empty and start at tick >= 0");
  CorruptionSpec spec;
  spec.kind = kind;
  spec.channel = Channel{from, direction};
  spec.active_from = active_from;
  spec.active_until = active_until;
  spec.seed = seed;
  specs_.push_back(spec);
  return *this;
}

CorruptionModel& CorruptionModel::inject_random_corruptions(const Torus& torus,
                                                            std::uint64_t seed, int count,
                                                            std::int64_t active_from,
                                                            std::int64_t active_until) {
  TOREX_REQUIRE(count >= 0, "corruption count must be non-negative");
  TOREX_REQUIRE(count <= torus.num_channels(), "more corrupting channels than channels");
  SplitMix64 rng(seed);
  std::vector<ChannelId> chosen;
  while (static_cast<int>(chosen.size()) < count) {
    const ChannelId id =
        static_cast<ChannelId>(rng.next_below(static_cast<std::uint64_t>(torus.num_channels())));
    if (std::find(chosen.begin(), chosen.end(), id) != chosen.end()) continue;
    chosen.push_back(id);
    const Channel ch = torus.channel_of(id);
    const CorruptionKind kind =
        rng.next_below(2) == 0 ? CorruptionKind::kBitFlip : CorruptionKind::kTruncate;
    corrupt_channel(ch.from, ch.direction, kind, active_from, active_until, rng.next());
  }
  return *this;
}

bool CorruptionModel::any_permanent() const {
  for (const auto& spec : specs_) {
    if (spec.permanent()) return true;
  }
  return false;
}

std::optional<CorruptionSpec> CorruptionModel::find(const Torus& torus, ChannelId id,
                                                    std::int64_t tick) const {
  for (const auto& spec : specs_) {
    if (!spec.active_at(tick)) continue;
    if (torus.channel_id(spec.channel.from, spec.channel.direction) == id) return spec;
  }
  return std::nullopt;
}

void CorruptionModel::apply(const CorruptionSpec& spec, const TransferContext& ctx,
                            std::vector<std::byte>& wire) {
  if (wire.empty()) return;
  // Mix the transfer context into the spec seed so repeated hits on the
  // same channel damage different bits, deterministically.
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15u;
  std::uint64_t mix = spec.seed;
  mix ^= static_cast<std::uint64_t>(ctx.tick) * kGolden;
  mix ^= static_cast<std::uint64_t>(static_cast<std::int64_t>(ctx.src)) << 32;
  mix ^= static_cast<std::uint64_t>(static_cast<std::int64_t>(ctx.dst));
  SplitMix64 rng(mix);
  switch (spec.kind) {
    case CorruptionKind::kBitFlip: {
      const std::uint64_t bit = rng.next_below(static_cast<std::uint64_t>(wire.size()) * 8);
      wire[static_cast<std::size_t>(bit / 8)] ^=
          static_cast<std::byte>(1u << static_cast<unsigned>(bit % 8));
      return;
    }
    case CorruptionKind::kTruncate: {
      // Drop at least one trailing byte, at most half the message (so
      // small headers and large payloads both exercise short reads).
      const std::uint64_t max_drop =
          std::max<std::uint64_t>(1, static_cast<std::uint64_t>(wire.size()) / 2);
      const std::size_t drop = static_cast<std::size_t>(1 + rng.next_below(max_drop));
      wire.resize(wire.size() - std::min(drop, wire.size()));
      return;
    }
  }
  TOREX_UNREACHABLE();
}

ParcelTamperer CorruptionModel::tamperer(const Torus& torus) const {
  if (specs_.empty()) return {};
  return [model = *this, torus](const TransferContext& ctx,
                                std::vector<std::byte>& wire) -> bool {
    // Walks the straight route hop by hop: nothing is allocated per
    // transmission.
    Rank at = ctx.src;
    for (int hop = 0; hop < ctx.hops; ++hop) {
      const auto spec = model.find(torus, torus.channel_id(at, ctx.direction), ctx.tick);
      if (spec) {
        apply(*spec, ctx, wire);
        return true;
      }
      at = torus.neighbor(at, ctx.direction);
    }
    return false;
  };
}

bool FaultModel::any_permanent() const {
  for (const auto& spec : specs_) {
    if (spec.permanent()) return true;
  }
  return false;
}

std::int64_t FaultModel::all_clear_after() const {
  std::int64_t clear = 0;
  for (const auto& spec : specs_) {
    if (spec.permanent()) return kFaultForever;
    clear = std::max(clear, spec.active_until);
  }
  return clear;
}

std::optional<FaultSpec> FaultModel::find_channel_fault(const Torus& torus, ChannelId id,
                                                        std::int64_t tick) const {
  for (const auto& spec : specs_) {
    if (!spec.active_at(tick)) continue;
    if (spec.kind == FaultKind::kChannel) {
      if (torus.channel_id(spec.channel.from, spec.channel.direction) == id) return spec;
    } else {
      const Channel ch = torus.channel_of(id);
      if (ch.from == spec.node || torus.neighbor(ch.from, ch.direction) == spec.node) {
        return spec;
      }
    }
  }
  return std::nullopt;
}

bool FaultModel::node_failed(Rank node, std::int64_t tick) const {
  for (const auto& spec : specs_) {
    if (spec.kind == FaultKind::kNode && spec.node == node && spec.active_at(tick)) return true;
  }
  return false;
}

bool FaultModel::node_relevant_failed(Rank node, std::int64_t tick) const {
  for (const auto& spec : specs_) {
    if (spec.kind == FaultKind::kNode && spec.node == node && spec.relevant_at(tick)) {
      return true;
    }
  }
  return false;
}

bool FaultModel::channel_relevant_failed(const Torus& torus, ChannelId id,
                                         std::int64_t tick) const {
  for (const auto& spec : specs_) {
    if (!spec.relevant_at(tick)) continue;
    if (spec.kind == FaultKind::kChannel) {
      if (torus.channel_id(spec.channel.from, spec.channel.direction) == id) return true;
    } else {
      const Channel ch = torus.channel_of(id);
      if (ch.from == spec.node || torus.neighbor(ch.from, ch.direction) == spec.node) {
        return true;
      }
    }
  }
  return false;
}

namespace {

/// Shared audit core: checks one straight-line message against the
/// model and appends an impact when broken.
void audit_message(const Torus& torus, const FaultModel& faults, int phase, int step,
                   std::int64_t tick, Rank src, Rank dst, Direction dir, std::int64_t hops,
                   FaultImpactReport& report, bool& step_impacted,
                   std::vector<ChannelId>& scratch) {
  std::optional<FaultSpec> hit;
  // A node fault on src or dst is also visible through its adjacent
  // channels, but report it as the node fault it is.
  if (faults.node_failed(src, tick)) {
    for (const auto& spec : faults.specs()) {
      if (spec.kind == FaultKind::kNode && spec.node == src && spec.active_at(tick)) {
        hit = spec;
        break;
      }
    }
  }
  if (!hit && faults.node_failed(dst, tick)) {
    for (const auto& spec : faults.specs()) {
      if (spec.kind == FaultKind::kNode && spec.node == dst && spec.active_at(tick)) {
        hit = spec;
        break;
      }
    }
  }
  if (!hit) {
    scratch.clear();
    torus.straight_path(src, dir, hops, scratch);
    for (ChannelId id : scratch) {
      hit = faults.find_channel_fault(torus, id, tick);
      if (hit) break;
    }
  }
  if (!hit) return;

  ++report.impacted_messages;
  step_impacted = true;
  if (report.impacts.size() < FaultImpactReport::kMaxRecordedImpacts) {
    FaultImpact impact;
    impact.phase = phase;
    impact.step = step;
    impact.tick = tick;
    impact.src = src;
    impact.dst = dst;
    impact.fault = *hit;
    std::ostringstream os;
    os << "phase " << phase << " step " << step << " (tick " << tick << "): message " << src
       << " -> " << dst << " broken by " << hit->describe(torus);
    impact.description = os.str();
    if (!report.first_impact) report.first_impact = impact;
    report.impacts.push_back(std::move(impact));
  }
}

}  // namespace

FaultImpactReport audit_schedule_faults(const SuhShinAape& algo, const FaultModel& faults,
                                        std::int64_t base_tick) {
  const Torus& torus = algo.torus();
  const TorusShape& shape = torus.shape();
  FaultImpactReport report;
  if (faults.empty()) {
    report.audited_steps = algo.total_steps();
    return report;
  }
  std::vector<ChannelId> scratch;
  std::int64_t global_step = 0;
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    const int hops = algo.hops_per_step(phase);
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step, ++global_step) {
      const std::int64_t tick = base_tick + global_step;
      bool step_impacted = false;
      for (Rank node = 0; node < shape.num_nodes(); ++node) {
        const Direction dir = algo.direction(node, phase, step);
        // Extent-4 scatter assignments are degenerate length-one rings:
        // those nodes never transmit (same skip as the static
        // contention proof).
        if (algo.phase_kind(phase) == PhaseKind::kScatter && shape.extent(dir.dim) == 4) {
          continue;
        }
        audit_message(torus, faults, phase, step, tick, node, algo.partner(node, phase, step),
                      dir, hops, report, step_impacted, scratch);
      }
      ++report.audited_steps;
      if (step_impacted) ++report.impacted_steps;
    }
  }
  return report;
}

FaultImpactReport audit_trace_faults(const Torus& torus, const ExchangeTrace& trace,
                                     const FaultModel& faults, std::int64_t base_tick) {
  FaultImpactReport report;
  std::vector<ChannelId> scratch;
  for (std::size_t s = 0; s < trace.steps.size(); ++s) {
    const StepRecord& rec = trace.steps[s];
    const std::int64_t tick = base_tick + static_cast<std::int64_t>(s);
    bool step_impacted = false;
    for (const auto& t : rec.transfers) {
      if (t.blocks <= 0) continue;
      audit_message(torus, faults, rec.phase, rec.step, tick, t.src, t.dst, t.dir, t.hops,
                    report, step_impacted, scratch);
    }
    ++report.audited_steps;
    if (step_impacted) ++report.impacted_steps;
  }
  return report;
}

std::optional<std::vector<ChannelId>> route_around_faults(const Torus& torus,
                                                          const FaultModel& faults, Rank src,
                                                          Rank dst, std::int64_t tick) {
  const TorusShape& shape = torus.shape();
  TOREX_REQUIRE(src >= 0 && src < shape.num_nodes(), "route source out of range");
  TOREX_REQUIRE(dst >= 0 && dst < shape.num_nodes(), "route destination out of range");
  if (src == dst) return std::vector<ChannelId>{};

  // BFS over nodes; parent_channel remembers the channel used to reach
  // each node so the path can be reconstructed.
  std::vector<ChannelId> parent_channel(static_cast<std::size_t>(shape.num_nodes()), -1);
  std::vector<char> visited(static_cast<std::size_t>(shape.num_nodes()), 0);
  std::deque<Rank> queue;
  visited[static_cast<std::size_t>(src)] = 1;
  queue.push_back(src);
  while (!queue.empty()) {
    const Rank at = queue.front();
    queue.pop_front();
    if (at == dst) break;
    for (int d = 0; d < shape.num_dims(); ++d) {
      for (Sign sign : {Sign::kPositive, Sign::kNegative}) {
        const Direction dir{d, sign};
        const Rank next = torus.neighbor(at, dir);
        if (visited[static_cast<std::size_t>(next)]) continue;
        const ChannelId id = torus.channel_id(at, dir);
        if (faults.channel_relevant_failed(torus, id, tick)) continue;
        visited[static_cast<std::size_t>(next)] = 1;
        parent_channel[static_cast<std::size_t>(next)] = id;
        queue.push_back(next);
      }
    }
  }
  if (!visited[static_cast<std::size_t>(dst)]) return std::nullopt;

  std::vector<ChannelId> path;
  Rank at = dst;
  while (at != src) {
    const ChannelId id = parent_channel[static_cast<std::size_t>(at)];
    TOREX_CHECK(id >= 0, "BFS parent chain broken");
    path.push_back(id);
    at = torus.channel_of(id).from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace torex
