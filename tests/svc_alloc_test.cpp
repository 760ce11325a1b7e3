// Allocation budget of a dispatched torexd phase.
//
// This binary replaces the global operator new with one that counts,
// so it stands alone: no other suite shares its counter. A seeded 8x8
// SessionManager with the health layer on runs its sessions to idle —
// on a healthy torus, with a flapping channel on a scheduled route, and
// on a healthy torus with a Recorder attached — and every heap
// allocation the manager makes while it runs (admissions and
// retirements included) is charged to the phases it executed. The
// budgets are the measured counts plus at most 10%: a change that
// brings back a per-step copy of the fault model, a per-dispatch
// arrival list, a per-dispatch label lookup or a route vector per hop
// fails here. A corrupting tamperer, run on its own, allocates nothing
// per transmission.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <vector>

#include "core/exchange_engine.hpp"
#include "costmodel/params.hpp"
#include "obs/recorder.hpp"
#include "sim/fault_model.hpp"
#include "svc/session_manager.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
// The nothrow forms too (std::stable_partition's temporary buffer uses
// them), so every allocation this binary frees came from malloc.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace torex {
namespace {

const TorusShape kShape({8, 8});
constexpr int kSessions = 32;

struct Budget {
  std::int64_t allocations = 0;
  std::int64_t phases = 0;
  std::int64_t reroutes = 0;

  double per_phase() const {
    return static_cast<double>(allocations) / static_cast<double>(phases);
  }
};

/// Allocations per executed phase as measured (RelWithDebInfo, GCC 12,
/// libstdc++), and the headroom the budgets allow over them. The gate
/// that copied the fault model for every step read 517 and 544 here;
/// neighbours found through coordinate vectors read 49.37 flapping, and
/// label lookups per event and per queue change read 41.87 with a
/// recorder attached.
constexpr double kHealthyMeasured = 23.02;
constexpr double kFlappingMeasured = 26.09;
constexpr double kRecordedMeasured = 23.46;
constexpr double kHeadroom = 1.10;

/// Runs kSessions seeded sessions to idle and counts what the manager
/// allocates meanwhile. `flapping` puts a channel of a scheduled route
/// down for 2 ticks in every 40, three times; `obs`, when non-null, is
/// attached to the manager.
Budget measure(bool flapping, Recorder* obs = nullptr) {
  SessionManagerOptions options;
  options.health.enabled = true;
  options.obs = obs;
  if (flapping) {
    const SuhShinAape algo(kShape);
    const ExchangeTrace trace = ExchangeEngine(algo, EngineOptions{}).run_verified();
    const TransferRecord& victim = trace.steps.back().transfers.front();
    options.service_faults.flap_channel(victim.src, victim.dir, 20, 2, 38, 3);
  }
  SessionManager mgr(kShape, CostParams{}, options);
  const Rank n = kShape.num_nodes();
  for (int id = 0; id < kSessions; ++id) {
    SessionRequest req;
    // Appended, not `"t" + std::to_string(...)`: GCC 12 at -O3 flags
    // that concatenation with a false -Wrestrict.
    req.tenant = "t";
    req.tenant += std::to_string(id % 4);
    req.weight = 1 + id % 3;
    req.arrival = static_cast<double>(id) * mgr.phase_cost();
    req.send.resize(static_cast<std::size_t>(n));
    for (Rank p = 0; p < n; ++p) {
      for (Rank q = 0; q < n; ++q) {
        req.send[static_cast<std::size_t>(p)].push_back(id * n * n + p * n + q);
      }
    }
    mgr.submit(std::move(req));
  }
  g_allocations.store(0);
  g_counting.store(true);
  mgr.run_until_idle();
  g_counting.store(false);
  Budget out;
  out.allocations = g_allocations.load();
  out.phases = mgr.stats().phases_executed;
  out.reroutes = mgr.health_stats().rerouted_messages;
  EXPECT_EQ(mgr.stats().completed, kSessions);
  return out;
}

TEST(SvcAllocationBudgetTest, HealthyPhase) {
  const Budget b = measure(false);
  std::cout << "healthy: " << b.allocations << " allocations over " << b.phases
            << " phases = " << b.per_phase() << " per phase\n";
  ASSERT_EQ(b.phases, kSessions * SuhShinAape(kShape).num_phases());
  EXPECT_LE(b.per_phase(), kHealthyMeasured * kHeadroom);
}

TEST(SvcAllocationBudgetTest, RecordedHealthyPhase) {
  Recorder recorder;
  const Budget b = measure(false, &recorder);
  std::cout << "recorded: " << b.allocations << " allocations over " << b.phases
            << " phases = " << b.per_phase() << " per phase\n";
  ASSERT_EQ(b.phases, kSessions * SuhShinAape(kShape).num_phases());
  EXPECT_LE(b.per_phase(), kRecordedMeasured * kHeadroom);
}

TEST(SvcAllocationBudgetTest, CorruptingTampererAllocatesNothingPerTransmission) {
  // Every +c channel corrupts: a transmission along +c is damaged on its
  // first hop, and one along +r walks its whole 4-hop route clean. The
  // route is walked by stride arithmetic on the rank, as neighbor_at
  // finds each receiver here: neither allocates.
  const Torus torus(TorusShape({16, 16}));
  const Direction along_c{1, Sign::kPositive};
  const Direction along_r{0, Sign::kPositive};
  CorruptionModel model;
  for (Rank p = 0; p < torus.shape().num_nodes(); ++p) {
    model.corrupt_channel(p, along_c, CorruptionKind::kBitFlip, 0, kFaultForever,
                          static_cast<std::uint64_t>(p));
  }
  const ParcelTamperer tamper = model.tamperer(torus);
  std::vector<std::byte> frame(256, std::byte{0});
  TransferContext ctx;
  ctx.hops = 4;
  int tampered = 0;
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < 1000; ++i) {
    ctx.src = static_cast<Rank>(i % torus.shape().num_nodes());
    ctx.direction = i % 2 == 0 ? along_c : along_r;
    ctx.dst = torus.neighbor_at(ctx.src, ctx.direction, ctx.hops);
    ctx.tick = i;
    if (tamper(ctx, frame)) ++tampered;
  }
  g_counting.store(false);
  EXPECT_EQ(g_allocations.load(), 0);
  EXPECT_EQ(tampered, 500);
}

TEST(SvcAllocationBudgetTest, FlappingChannelPhase) {
  const Budget b = measure(true);
  std::cout << "flapping: " << b.allocations << " allocations over " << b.phases
            << " phases = " << b.per_phase() << " per phase, " << b.reroutes << " reroutes\n";
  EXPECT_GT(b.reroutes, 0) << "the flapping channel must be met";
  EXPECT_LE(b.per_phase(), kFlappingMeasured * kHeadroom);
}

}  // namespace
}  // namespace torex
