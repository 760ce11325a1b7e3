// Health registry tests: the breaker lattice (closed / open /
// half-open, flaps, permanent quarantine, seeded probe jitter), the
// global retry token bucket (all-or-nothing acquires, fractional
// refill, interleaving-independent totals under threads), the signal
// feeds (error attribution, phi-accrual suspicion, integrity reports),
// and the torexd integration seams (plan-around, quarantine-as-faults,
// typed unroutable errors, flapping fault windows). Everything runs on
// the fault tick axis, so every assertion is exact.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/exchange_engine.hpp"
#include "core/integrity.hpp"
#include "costmodel/params.hpp"
#include "digest.hpp"
#include "sim/fault_model.hpp"
#include "svc/health_registry.hpp"
#include "svc/session_manager.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"

namespace torex {
namespace {

const TorusShape kShape({4, 4});

/// A channel on the 4x4 torus to hang breakers off.
ChannelId some_channel(const HealthRegistry& registry, Rank from = 0) {
  return registry.torus().channel_id(from, Direction{0, Sign::kPositive});
}

BreakerOptions fast_breaker() {
  BreakerOptions options;
  options.error_threshold = 2;
  options.open_ticks = 4;
  options.probe_jitter = 0;  // deterministic cool-off for exact tests
  options.flap_limit = 3;
  return options;
}

// --- Breaker lattice ---------------------------------------------------

TEST(BreakerTest, OpensAfterConsecutiveErrorsAndReportsFirstDiscoverer) {
  HealthRegistry registry(kShape, fast_breaker());
  const ChannelId id = some_channel(registry);
  EXPECT_EQ(registry.channel_state(id, 0), BreakerState::kClosed);
  EXPECT_FALSE(registry.record_channel_error(id, 0, "first strike"));
  EXPECT_EQ(registry.channel_state(id, 0), BreakerState::kClosed);
  EXPECT_FALSE(registry.channel_quarantined(id, 0));
  // The second consecutive error trips the breaker; the caller is the
  // first discoverer (and the only one told so).
  EXPECT_TRUE(registry.record_channel_error(id, 0, "second strike"));
  EXPECT_EQ(registry.channel_state(id, 0), BreakerState::kOpen);
  EXPECT_TRUE(registry.channel_quarantined(id, 0));
  EXPECT_TRUE(registry.any_quarantined(0));
  EXPECT_EQ(registry.channel_verdict(id), "second strike");
  // Further errors on the open breaker do not re-claim discovery and
  // do not overwrite the published verdict.
  EXPECT_FALSE(registry.record_channel_error(id, 1, "pile-on"));
  EXPECT_EQ(registry.channel_verdict(id), "second strike");
}

TEST(BreakerTest, HalfOpensAfterCoolOffAndProbeHealsOrFlaps) {
  HealthRegistry registry(kShape, fast_breaker());
  const ChannelId id = some_channel(registry);
  registry.record_channel_error(id, 0, "x");
  registry.record_channel_error(id, 0, "x");
  ASSERT_EQ(registry.channel_state(id, 0), BreakerState::kOpen);
  // Cool-off is open_ticks = 4 with zero jitter: still open at tick 3,
  // half-open (probe-eligible, still quarantined for planning) at 4.
  EXPECT_EQ(registry.channel_state(id, 3), BreakerState::kOpen);
  EXPECT_EQ(registry.channel_state(id, 4), BreakerState::kHalfOpen);
  EXPECT_TRUE(registry.channel_quarantined(id, 4));

  // Probe against a still-dead ground truth: the breaker re-opens and
  // that counts one flap.
  const Channel ch = registry.torus().channel_of(id);
  FaultModel still_dead;
  still_dead.fail_channel(ch.from, ch.direction);
  registry.run_probes(still_dead, 4);
  EXPECT_EQ(registry.channel_state(id, 4), BreakerState::kOpen);
  HealthStats stats = registry.stats(4);
  EXPECT_EQ(stats.probes, 1);
  EXPECT_EQ(stats.probe_failures, 1);
  EXPECT_EQ(stats.flaps, 1);

  // Probe against a healed ground truth after the second cool-off: the
  // breaker converges back to closed.
  registry.run_probes(FaultModel{}, 8);
  EXPECT_EQ(registry.channel_state(id, 8), BreakerState::kClosed);
  EXPECT_FALSE(registry.any_quarantined(8));
  stats = registry.stats(8);
  EXPECT_EQ(stats.closes, 1);
  EXPECT_TRUE(stats.all_closed());
}

TEST(BreakerTest, FlapLimitQuarantinesPermanently) {
  HealthRegistry registry(kShape, fast_breaker());  // flap_limit = 3
  const ChannelId id = some_channel(registry);
  const Channel ch = registry.torus().channel_of(id);
  FaultModel still_dead;
  still_dead.fail_channel(ch.from, ch.direction);
  registry.record_channel_error(id, 0, "x");
  registry.record_channel_error(id, 0, "x");
  // Each failed probe is one flap; after flap_limit of them the
  // resource is quarantined for good and never probed again.
  std::int64_t tick = 0;
  for (int flap = 0; flap < 3; ++flap) {
    tick += 4;
    registry.run_probes(still_dead, tick);
  }
  const HealthStats stats = registry.stats(tick);
  EXPECT_EQ(stats.flaps, 3);
  EXPECT_EQ(stats.permanent_quarantines, 1);
  ASSERT_EQ(stats.resources.size(), 1u);
  EXPECT_TRUE(stats.resources[0].permanent);
  // No amount of cool-off makes it half-open again, and a probe
  // against a healed network is never fired for it.
  EXPECT_EQ(registry.channel_state(id, tick + 1000), BreakerState::kOpen);
  registry.run_probes(FaultModel{}, tick + 1000);
  EXPECT_EQ(registry.channel_state(id, tick + 1000), BreakerState::kOpen);
  EXPECT_EQ(registry.stats(tick + 1000).probes, stats.probes);
}

TEST(BreakerTest, SeededJitterIsDeterministicAndBounded) {
  BreakerOptions jittered = fast_breaker();
  jittered.probe_jitter = 2;
  jittered.seed = 0xfeedu;
  // Two registries with identical options must agree on every state
  // transition tick (the jitter is seeded, not random)...
  HealthRegistry a(kShape, jittered), b(kShape, jittered);
  const ChannelId id = some_channel(a);
  for (HealthRegistry* r : {&a, &b}) {
    r->record_channel_error(id, 0, "x");
    r->record_channel_error(id, 0, "x");
  }
  std::int64_t half_open_at = -1;
  for (std::int64_t tick = 0; tick <= 8; ++tick) {
    EXPECT_EQ(a.channel_state(id, tick), b.channel_state(id, tick)) << "tick " << tick;
    if (half_open_at < 0 && a.channel_state(id, tick) == BreakerState::kHalfOpen) {
      half_open_at = tick;
    }
  }
  // ...and the cool-off must land inside [open_ticks, open_ticks +
  // probe_jitter].
  ASSERT_GE(half_open_at, 4);
  ASSERT_LE(half_open_at, 6);
}

TEST(BreakerTest, NodeSuspicionOpensImmediatelyAndProbesClose) {
  HealthRegistry registry(kShape, fast_breaker());
  registry.report_suspicion(3, 10, 2.5);
  EXPECT_EQ(registry.node_state(3, 10), BreakerState::kOpen);
  EXPECT_TRUE(registry.node_quarantined(3, 10));
  const HealthStats stats = registry.stats(10);
  EXPECT_EQ(stats.suspicions, 1);
  EXPECT_EQ(stats.opens, 1);
  // The node heartbeats again: the half-open probe re-admits it.
  registry.run_probes(FaultModel{}, 14);
  EXPECT_EQ(registry.node_state(3, 14), BreakerState::kClosed);
}

TEST(BreakerTest, IntegrityReportChargesTheScheduledRoute) {
  BreakerOptions options = fast_breaker();
  options.error_threshold = 1;
  HealthRegistry registry(kShape, options);
  IntegrityReport report;
  IntegrityViolation v;
  v.src = 0;
  v.direction = Direction{0, Sign::kPositive};
  v.hops = 2;
  v.reason = "checksum mismatch";
  report.violations.push_back(v);
  registry.observe_integrity(report, 5);
  // Every channel of the 2-hop straight route absorbed one error, and
  // with threshold 1 each tripped its breaker.
  std::vector<ChannelId> route;
  registry.torus().straight_path(0, v.direction, 2, route);
  ASSERT_EQ(route.size(), 2u);
  for (const ChannelId id : route) {
    EXPECT_TRUE(registry.channel_quarantined(id, 5)) << "channel " << id;
  }
  const HealthStats stats = registry.stats(5);
  EXPECT_EQ(stats.integrity_reports, 1);
  EXPECT_EQ(stats.errors, 2);
}

TEST(BreakerTest, QuarantineMergesIntoFaultModelForPlanning) {
  HealthRegistry registry(kShape, fast_breaker());
  const ChannelId id = some_channel(registry);
  registry.record_channel_error(id, 0, "x");
  registry.record_channel_error(id, 0, "x");
  FaultModel avoid;
  registry.add_quarantine(avoid, 0);
  EXPECT_TRUE(avoid.channel_failed(registry.torus(), id, 0));
  // Detours planned against the merged model never cross the
  // quarantined channel.
  const Channel ch = registry.torus().channel_of(id);
  const Rank dst = registry.torus().neighbor(ch.from, ch.direction);
  const auto path = route_around_faults(registry.torus(), avoid, ch.from, dst, 0);
  ASSERT_TRUE(path.has_value());
  for (const ChannelId hop : *path) EXPECT_NE(hop, id);
}

TEST(BreakerTest, DumpNamesEveryTrippedResource) {
  HealthRegistry registry(kShape, fast_breaker());
  registry.record_channel_error(some_channel(registry), 0, "wedged");
  registry.record_channel_error(some_channel(registry), 0, "wedged");
  registry.report_suspicion(7, 0, 3.0);
  const std::string dump = registry.dump(0);
  EXPECT_NE(dump.find("node 7"), std::string::npos);
  EXPECT_NE(dump.find("wedged"), std::string::npos);
  EXPECT_NE(dump.find("open"), std::string::npos);
}

// --- Retry budget ------------------------------------------------------

TEST(RetryBudgetTest, UnlimitedAlwaysGrantsAndCounts) {
  RetryBudget budget;  // capacity 0 = unlimited
  EXPECT_TRUE(budget.try_acquire(1'000'000));
  EXPECT_EQ(budget.granted(), 1'000'000);
  EXPECT_EQ(budget.denied(), 0);
}

TEST(RetryBudgetTest, AcquireIsAllOrNothing) {
  RetryBudgetOptions options;
  options.capacity = 10;
  RetryBudget budget(options);
  EXPECT_EQ(budget.available(), 10);
  EXPECT_TRUE(budget.try_acquire(7));
  // 11 > 3 remaining: denied outright, nothing partially taken.
  EXPECT_FALSE(budget.try_acquire(11));
  EXPECT_EQ(budget.available(), 3);
  EXPECT_TRUE(budget.try_acquire(3));
  EXPECT_FALSE(budget.try_acquire(1));
  EXPECT_EQ(budget.granted(), 10);
  EXPECT_EQ(budget.denied(), 12);
}

TEST(RetryBudgetTest, RefillCarriesFractionsAndClampsAtCapacity) {
  RetryBudgetOptions options;
  options.capacity = 4;
  options.refill_per_time = 0.5;  // one token per two time units
  RetryBudget budget(options);
  ASSERT_TRUE(budget.try_acquire(4));
  budget.advance(1.0);  // 0.5 token: all fraction, nothing whole yet
  EXPECT_EQ(budget.available(), 0);
  budget.advance(3.0);  // cumulative 1.5: one whole token, 0.5 carried
  EXPECT_EQ(budget.available(), 1);
  budget.advance(2.0);  // non-monotonic time never refunds
  EXPECT_EQ(budget.available(), 1);
  budget.advance(100.0);  // refill clamps at capacity
  EXPECT_EQ(budget.available(), 4);
  EXPECT_EQ(budget.refilled(), 4);
}

TEST(RetryBudgetTest, TotalsIndependentOfThreadInterleaving) {
  // 8 threads x 500 single-token acquires against capacity 1000 with
  // no refill: exactly 1000 grants and 3000 denials, no matter how the
  // scheduler interleaves them. Run under TSan in CI.
  RetryBudgetOptions options;
  options.capacity = 1000;
  RetryBudget budget(options);
  std::vector<std::thread> workers;
  workers.reserve(8);
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&budget] {
      for (int i = 0; i < 500; ++i) budget.try_acquire(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(budget.granted(), 1000);
  EXPECT_EQ(budget.denied(), 3000);
  EXPECT_EQ(budget.available(), 0);
}

TEST(RetryBudgetTest, OptionsRejectNegatives) {
  RetryBudgetOptions negative_capacity;
  negative_capacity.capacity = -1;
  EXPECT_THROW(RetryBudget{negative_capacity}, std::invalid_argument);
  RetryBudgetOptions negative_rate;
  negative_rate.refill_per_time = -0.5;
  EXPECT_THROW(RetryBudget{negative_rate}, std::invalid_argument);
  BreakerOptions zero_threshold;
  zero_threshold.error_threshold = 0;
  EXPECT_THROW(zero_threshold.validate(), std::invalid_argument);
}

// --- Fault-model storm helpers ----------------------------------------

TEST(FlapChannelTest, BuildsTheRequestedWindows) {
  const Torus torus(kShape);
  FaultModel faults;
  faults.flap_channel(0, Direction{0, Sign::kPositive}, 10, 2, 3, 2);
  const ChannelId id = torus.channel_id(0, Direction{0, Sign::kPositive});
  // Windows [10, 12) and [15, 17); healthy everywhere else.
  for (std::int64_t tick = 0; tick < 20; ++tick) {
    const bool expected = (tick >= 10 && tick < 12) || (tick >= 15 && tick < 17);
    EXPECT_EQ(faults.channel_failed(torus, id, tick), expected) << "tick " << tick;
  }
  EXPECT_FALSE(faults.any_permanent());
  EXPECT_EQ(faults.size(), 2u);
  EXPECT_THROW(faults.flap_channel(0, Direction{0, Sign::kPositive}, 0, 0, 1, 1),
               std::invalid_argument);
}

// --- torexd integration ------------------------------------------------

SessionRequest health_request(Rank n) {
  SessionRequest req;
  req.send.resize(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    auto& row = req.send[static_cast<std::size_t>(p)];
    row.resize(static_cast<std::size_t>(n));
    for (Rank q = 0; q < n; ++q) {
      row[static_cast<std::size_t>(q)] = static_cast<std::int64_t>(p) * n + q;
    }
  }
  return req;
}

/// The first step-1 transfer of the 4x4 quarter phase (phase 3) — a
/// message the schedule is guaranteed to send, so a fault on its first
/// hop is guaranteed to be discovered.
TransferRecord quarter_phase_victim() {
  const SuhShinAape algo(kShape);
  ExchangeEngine engine(algo, EngineOptions{});
  const ExchangeTrace trace = engine.run_verified();
  for (const StepRecord& step : trace.steps) {
    if (step.phase == 3 && step.step == 1 && !step.transfers.empty()) {
      return step.transfers.front();
    }
  }
  ADD_FAILURE() << "4x4 quarter phase recorded no step-1 transfers";
  return {};
}

TEST(HealthManagerTest, TransientFaultDiscoveredOnceThenPlannedAround) {
  // One transient channel fault across the quarter phase of a 3-session
  // round-robin. The first session to cross it pays the discovery (two
  // retries, one chain walk); everyone after reroutes off the
  // quarantine for free, and all three complete unchanged.
  SessionManagerOptions options;
  options.max_active = 3;
  options.health.enabled = true;
  options.health.breaker.error_threshold = 2;
  const TransferRecord victim = quarter_phase_victim();
  // Quarter phase of 3 sessions spans fault ticks [6, 9).
  options.service_faults.fail_channel(victim.src, victim.dir, 6, 9);
  SessionManager mgr(kShape, CostParams{}, options);
  ASSERT_TRUE(mgr.health_enabled());
  for (int i = 0; i < 3; ++i) mgr.submit(health_request(kShape.num_nodes()));
  mgr.run_until_idle();
  for (SessionId id = 0; id < 3; ++id) {
    EXPECT_EQ(mgr.record(id).state, SessionState::kCompleted) << mgr.record(id).error;
  }
  const HealthStats stats = mgr.health_stats();
  EXPECT_EQ(stats.errors, 2);       // one discovery at threshold 2
  EXPECT_EQ(stats.opens, 1);
  EXPECT_EQ(stats.chain_walks, 1);  // first discoverer only
  EXPECT_GE(stats.quarantine_hits, 1);
  EXPECT_GE(stats.rerouted_messages, 1);
  EXPECT_EQ(stats.resent_parcels, stats.retry_granted);
  // The fault healed at tick 9; idle health ticks converge the breaker.
  for (int i = 0; i < 16 && !mgr.health_stats().all_closed(); ++i) mgr.advance_health();
  EXPECT_TRUE(mgr.health_stats().all_closed());
  EXPECT_EQ(mgr.outstanding_frames(), 0);
}

TEST(HealthManagerTest, LateArrivalCountsAsPlannedAround) {
  // Two eager sessions trip the breaker at tick 4 (the first quarter
  // phase dispatch of a 2-session round-robin, threshold 1); the third
  // session arrives while the breaker is still in its cool-off, so its
  // admission is counted as planned-around.
  SessionManagerOptions options;
  options.max_active = 3;
  options.health.enabled = true;
  options.health.breaker.error_threshold = 1;
  const TransferRecord victim = quarter_phase_victim();
  options.service_faults.fail_channel(victim.src, victim.dir, 4, 6);
  SessionManager mgr(kShape, CostParams{}, options);
  for (int i = 0; i < 2; ++i) mgr.submit(health_request(kShape.num_nodes()));
  SessionRequest late = health_request(kShape.num_nodes());
  late.arrival = 6.0 * mgr.phase_cost();
  mgr.submit(std::move(late));
  mgr.run_until_idle();
  for (SessionId id = 0; id < 3; ++id) {
    EXPECT_EQ(mgr.record(id).state, SessionState::kCompleted) << mgr.record(id).error;
  }
  const HealthStats stats = mgr.health_stats();
  EXPECT_EQ(stats.opens, 1);
  EXPECT_EQ(stats.planned_around, 1);
  EXPECT_EQ(mgr.outstanding_frames(), 0);
}

// --- Pinned storm outcomes ---------------------------------------------
//
// The health gate decides remaps, quarantine hits, discoveries, budget
// deferrals and reroutes; the manager turns them into breaker states,
// session dispositions, journals and flight dumps. The values below
// were recorded from the gate that copied the fault model and
// rescanned it for every message and channel. A gate that reads a
// per-dispatch view of the same faults must reproduce them exactly.

const TorusShape kStormShape({8, 8});

/// The pinned run's manager: two channels that flap on scheduled
/// routes, a node that crashes and later rejoins, a small retry budget
/// that refills on the virtual clock, and four sessions in flight.
SessionManagerOptions pinned_storm_options(double phase_cost) {
  const SuhShinAape algo(kStormShape);
  const ExchangeTrace trace = ExchangeEngine(algo, EngineOptions{}).run_verified();
  std::vector<TransferRecord> routes;
  for (const StepRecord& step : trace.steps) {
    for (const TransferRecord& t : step.transfers) routes.push_back(t);
  }
  SplitMix64 rng(0x5eed);
  SessionManagerOptions options;
  options.max_active = 4;
  options.max_queued = 8;
  options.health.enabled = true;
  options.health.breaker.error_threshold = 2;
  options.health.breaker.open_ticks = 4;
  options.health.breaker.probe_jitter = 2;
  options.health.breaker.seed = rng.next();
  options.health.retries.capacity = 96;
  options.health.retries.refill_per_time = 24.0 / phase_cost;
  for (int f = 0; f < 2; ++f) {
    const TransferRecord& t = routes[rng.next() % routes.size()];
    options.service_faults.flap_channel(t.src, t.dir, 6 + 5 * f, 2, 9 + 4 * f, 8);
  }
  options.service_faults.crash_node(static_cast<Rank>(rng.next() % 64), 20, 52);
  options.repro_hint = "health_test --gtest_filter=HealthManagerTest.PinnedStorm*";
  return options;
}

/// Every HealthStats field, the per-resource detail included.
std::string render_health(const HealthStats& h, const Torus& torus) {
  std::ostringstream out;
  out << "errors=" << h.errors << " opens=" << h.opens << " closes=" << h.closes
      << " flaps=" << h.flaps << " probes=" << h.probes
      << " probe_failures=" << h.probe_failures << " chain_walks=" << h.chain_walks
      << " suspicions=" << h.suspicions << " integrity_reports=" << h.integrity_reports
      << " quarantine_hits=" << h.quarantine_hits << " rerouted=" << h.rerouted_messages << " extra_hops=" << h.reroute_extra_hops
      << " remap_hosted=" << h.remap_hosted << " resent=" << h.resent_parcels
      << " deferrals=" << h.deferrals << " planned_around=" << h.planned_around
      << " permanent=" << h.permanent_quarantines << " open=" << h.open_breakers
      << " half_open=" << h.half_open_breakers << " retry_granted=" << h.retry_granted
      << " retry_denied=" << h.retry_denied << " retry_refilled=" << h.retry_refilled
      << " retry_capacity=" << h.retry_capacity << "\n";
  for (const ResourceHealth& r : h.resources) {
    out << r.describe(torus) << ", opened_at=" << r.opened_at << "\n";
  }
  return out.str();
}

std::uint32_t crc_of(const void* data, std::size_t bytes) {
  Crc32 crc;
  crc.update(data, bytes);
  return crc.value();
}

/// The pinned run's HealthStats, every field.
constexpr const char* kPinnedHealth = R"pin(errors=27 opens=45 closes=13 flaps=34 probes=44 probe_failures=31 chain_walks=13 suspicions=1 integrity_reports=0 quarantine_hits=158 rerouted=97 extra_hops=84 remap_hosted=114 resent=864 deferrals=20 planned_around=4 permanent=0 open=0 half_open=1 retry_granted=864 retry_denied=640 retry_refilled=864 retry_capacity=96
channel 20 (node 5 dim 0 +): closed, errors=0, flaps=5, chain_walks=1, verdict="node 13, transient [20, 52)", opened_at=49
channel 50 (node 12 dim 1 +): closed, errors=0, flaps=5, chain_walks=1, verdict="node 13, transient [20, 52)", opened_at=50
channel 52 (node 13 dim 0 +): closed, errors=0, flaps=6, chain_walks=1, verdict="node 13, transient [20, 52)", opened_at=51
channel 53 (node 13 dim 0 -): closed, errors=0, flaps=2, chain_walks=1, verdict="node 13, transient [20, 52)", opened_at=47
channel 54 (node 13 dim 1 +): closed, errors=0, flaps=4, chain_walks=1, verdict="node 13, transient [20, 52)", opened_at=50
channel 55 (node 13 dim 1 -): half-open, errors=0, flaps=2, chain_walks=1, verdict="node 13, transient [20, 52)", opened_at=51
channel 59 (node 14 dim 1 -): closed, errors=0, flaps=2, chain_walks=1, verdict="node 13, transient [20, 52)", opened_at=50
channel 85 (node 21 dim 0 -): closed, errors=0, flaps=3, chain_walks=1, verdict="node 13, transient [20, 52)", opened_at=48
channel 205 (node 51 dim 0 -): closed, errors=1, flaps=1, chain_walks=2, verdict="channel 51 -> 43 (-0), transient [11, 13)", opened_at=27
channel 214 (node 53 dim 1 +): closed, errors=0, flaps=2, chain_walks=3, verdict="channel 53 -> 54 (+1), transient [6, 8)", opened_at=50
node 13: closed, errors=0, flaps=2, chain_walks=0, verdict="phi-accrual suspicion (phi=8.2516)", opened_at=48
)pin";

/// Each session's terminal state, progress, spend and finish time (in
/// milli-phase-costs of virtual time), and the length and 64-bit FNV-1a
/// of its journal bytes when it was admitted (testing::digest).
constexpr const char* kPinnedSessions = R"pin(0 completed phases 4 sent 12288 deferrals 0 retry 0 finished 10000 journal 296 fnv fc23551f25d9d6a9
1 completed phases 4 sent 12288 deferrals 0 retry 64 finished 11000 journal 296 fnv fc23551f25d9d6a9
2 completed phases 4 sent 12288 deferrals 0 retry 0 finished 12000 journal 296 fnv fc23551f25d9d6a9
3 deadline_missed phases 0 sent 0 deferrals 0 retry 0 finished 12000 journal 40 fnv 20ac11507efd6930
4 completed phases 4 sent 12288 deferrals 0 retry 64 finished 19000 journal 296 fnv fc23551f25d9d6a9
5 completed phases 4 sent 12288 deferrals 0 retry 64 finished 20000 journal 296 fnv fc23551f25d9d6a9
6 completed phases 4 sent 12288 deferrals 9 retry 320 finished 56000 journal 296 fnv fc23551f25d9d6a9
7 deadline_missed phases 0 sent 0 deferrals 0 retry 0 finished 20000 journal 40 fnv 20ac11507efd6930
8 completed phases 4 sent 12288 deferrals 7 retry 192 finished 48000 journal 296 fnv fc23551f25d9d6a9
9 completed phases 4 sent 12288 deferrals 0 retry 64 finished 55000 journal 296 fnv fc23551f25d9d6a9
10 completed phases 4 sent 12288 deferrals 4 retry 96 finished 53000 journal 296 fnv fc23551f25d9d6a9
11 deadline_missed phases 0 sent 0 deferrals 0 retry 0 finished 48000 never admitted
)pin";

/// Every flight dump in emission order: trigger, session, and the
/// length and CRC-32 of its text.
constexpr const char* kPinnedDumps = R"pin(breaker_trip session 1 bytes 1986 crc 2364575685
deadline_miss session 3 bytes 688 crc 190891074
breaker_trip session 4 bytes 1270 crc 2067604822
breaker_trip session 5 bytes 2412 crc 2597891468
deadline_miss session 7 bytes 816 crc 2251086481
breaker_trip session 6 bytes 1317 crc 2166246000
breaker_trip session 6 bytes 2025 crc 4007619457
breaker_trip session 6 bytes 3150 crc 643854971
breaker_trip session 6 bytes 3623 crc 1262096011
breaker_trip session 8 bytes 1752 crc 2918545570
breaker_trip session 8 bytes 3372 crc 4204943219
breaker_trip session 8 bytes 4320 crc 4188223121
breaker_trip session 8 bytes 5176 crc 3898140007
breaker_trip session 6 bytes 5785 crc 1024946001
breaker_trip session 9 bytes 2307 crc 4002906412
breaker_trip session 8 bytes 6182 crc 229348879
breaker_trip session 8 bytes 6989 crc 1757141491
breaker_trip session 10 bytes 4420 crc 616106997
breaker_trip session 6 bytes 6609 crc 2727949909
breaker_trip session 9 bytes 3575 crc 2962543919
breaker_trip session 8 bytes 8473 crc 543753279
breaker_trip session 8 bytes 9795 crc 65294174
breaker_trip session 10 bytes 5417 crc 947660683
breaker_trip session 8 bytes 10268 crc 1346734013
deadline_miss session 11 bytes 1757 crc 1503068569
breaker_trip session 10 bytes 6301 crc 2928181086
breaker_trip session 6 bytes 7545 crc 2388043392
breaker_trip session 9 bytes 5213 crc 1369048220
breaker_trip session 10 bytes 7881 crc 3542144294
)pin";

TEST(HealthManagerTest, PinnedStormOutcomesAreExact) {
  const double phase_cost = SessionManager(kStormShape, CostParams{}).phase_cost();
  SessionManager mgr(kStormShape, CostParams{}, pinned_storm_options(phase_cost));
  const Rank n = kStormShape.num_nodes();
  for (SessionId id = 0; id < 12; ++id) {
    SessionRequest req = health_request(n);
    for (auto& row : req.send) {
      for (std::int64_t& word : row) word ^= id << 20;
    }
    req.tenant = id % 2 == 0 ? "even" : "odd";
    req.weight = static_cast<int>(1 + id % 3);
    req.arrival = static_cast<double>(id) * 1.5 * phase_cost;
    if (id % 4 == 3) req.deadline = 6.0 * phase_cost;
    mgr.submit(std::move(req));
  }
  mgr.run_until_idle();

  std::ostringstream sessions;
  for (SessionId id = 0; id < 12; ++id) {
    const SessionRecord rec = mgr.record(id);
    sessions << id << " " << to_string(rec.state) << " phases " << rec.phases_done << " sent "
             << rec.sent_parcels << " deferrals " << rec.deferrals << " retry "
             << rec.retry_parcels << " finished "
             << std::llround(1000.0 * rec.finished_at / phase_cost);
    try {
      const ExchangeJournal journal = mgr.journal(id);
      const auto [length, fnv] = testing::digest(journal.encode());
      sessions << " journal " << length << " fnv " << std::hex << fnv << std::dec;
    } catch (const std::invalid_argument&) {
      sessions << " never admitted";
    }
    sessions << "\n";
    if (rec.state != SessionState::kCompleted) continue;
    const auto recv = mgr.take_result(id);
    for (Rank q = 0; q < n; ++q) {
      for (Rank p = 0; p < n; ++p) {
        ASSERT_EQ(recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)],
                  (static_cast<std::int64_t>(p) * n + q) ^ (id << 20))
            << "session " << id << " recv[" << q << "][" << p << "]";
      }
    }
  }
  std::ostringstream dumps;
  for (const SessionManager::FlightDumpEntry& dump : mgr.flight_dumps()) {
    dumps << dump.trigger << " session " << dump.session << " bytes " << dump.text.size()
          << " crc " << crc_of(dump.text.data(), dump.text.size()) << "\n";
  }
  EXPECT_EQ(render_health(mgr.health_stats(), Torus(kStormShape)), kPinnedHealth);
  EXPECT_EQ(sessions.str(), kPinnedSessions);
  EXPECT_EQ(dumps.str(), kPinnedDumps);
  EXPECT_EQ(mgr.outstanding_frames(), 0);
}

TEST(HealthManagerTest, SessionFaultErrorNamesSessionAndCoordinates) {
  const SessionFaultError error(7, 3, 2, "no detour");
  EXPECT_EQ(error.id(), 7);
  EXPECT_EQ(std::string(error.what()), "session 7 unroutable at phase 3 step 2: no detour");
}

TEST(HealthManagerTest, HealthOptionsValidateRejectsBadTuning) {
  SessionManagerOptions options;
  options.health.enabled = true;
  options.health.breaker.open_ticks = 0;
  EXPECT_THROW(SessionManager(kShape, CostParams{}, options), std::invalid_argument);
  SessionManagerOptions bad_budget;
  bad_budget.health.enabled = true;
  bad_budget.health.retries.capacity = -5;
  EXPECT_THROW(SessionManager(kShape, CostParams{}, bad_budget), std::invalid_argument);
}

}  // namespace
}  // namespace torex
