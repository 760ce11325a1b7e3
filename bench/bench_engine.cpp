// google-benchmark microbenchmarks for the library itself: schedule
// construction, full exchange execution, trace pricing, contention
// analysis. These measure the *simulator's* throughput (how fast we can
// study schedules), not modeled network time.
#include <benchmark/benchmark.h>

#include "baselines/direct_exchange.hpp"
#include "core/data_array.hpp"
#include "core/exchange_engine.hpp"
#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "sim/contention.hpp"
#include "sim/cost_simulator.hpp"
#include "sim/wormhole.hpp"
#include "util/step_pool.hpp"

namespace {

using namespace torex;

TorusShape shape_for(std::int64_t side, std::int64_t dims) {
  std::vector<std::int32_t> extents(static_cast<std::size_t>(dims),
                                    static_cast<std::int32_t>(side));
  return TorusShape(extents);
}

void BM_ScheduleBuild(benchmark::State& state) {
  const TorusShape shape = shape_for(state.range(0), state.range(1));
  for (auto _ : state) {
    SuhShinAape algo(shape);
    benchmark::DoNotOptimize(algo.total_steps());
  }
  state.SetLabel(shape.to_string());
}
BENCHMARK(BM_ScheduleBuild)->Args({8, 2})->Args({16, 2})->Args({32, 2})->Args({8, 3})->Args({12, 3});

void BM_FullExchange(benchmark::State& state) {
  const TorusShape shape = shape_for(state.range(0), state.range(1));
  const SuhShinAape algo(shape);
  EngineOptions opts;
  opts.check_phase_invariants = false;
  opts.record_transfers = false;
  for (auto _ : state) {
    ExchangeEngine engine(algo, opts);
    benchmark::DoNotOptimize(engine.run());
  }
  const std::int64_t blocks =
      static_cast<std::int64_t>(shape.num_nodes()) * shape.num_nodes();
  state.SetItemsProcessed(state.iterations() * blocks);
  state.SetLabel(shape.to_string());
}
BENCHMARK(BM_FullExchange)->Args({8, 2})->Args({16, 2})->Args({8, 3})->Args({12, 3});

void BM_ContentionCheck(benchmark::State& state) {
  const TorusShape shape = shape_for(state.range(0), 2);
  const SuhShinAape algo(shape);
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(check_trace_contention(algo.torus(), trace));
  }
  state.SetLabel(shape.to_string());
}
BENCHMARK(BM_ContentionCheck)->Arg(8)->Arg(16)->Arg(32);

void BM_TracePricing(benchmark::State& state) {
  const TorusShape shape = shape_for(state.range(0), 2);
  const SuhShinAape algo(shape);
  EngineOptions opts;
  opts.record_transfers = false;
  ExchangeEngine engine(algo, opts);
  const ExchangeTrace trace = engine.run();
  const CostParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(price_trace(trace, params));
  }
  state.SetLabel(shape.to_string());
}
BENCHMARK(BM_TracePricing)->Arg(16)->Arg(32);

void BM_DirectRoutedPricing(benchmark::State& state) {
  const TorusShape shape = shape_for(state.range(0), 2);
  DirectExchange direct(shape);
  const auto steps = direct.steps();
  const CostParams params;
  for (auto _ : state) {
    benchmark::DoNotOptimize(price_routed_steps(direct.torus(), steps, params));
  }
  state.SetLabel(shape.to_string());
}
BENCHMARK(BM_DirectRoutedPricing)->Arg(8)->Arg(16);

void BM_LayoutSimulation(benchmark::State& state) {
  const TorusShape shape = shape_for(state.range(0), state.range(1));
  const SuhShinAape algo(shape);
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_layout_simulation(algo));
  }
  state.SetLabel(shape.to_string());
}
BENCHMARK(BM_LayoutSimulation)->Args({8, 2})->Args({12, 2})->Args({8, 3});

void BM_StepKernel(benchmark::State& state) {
  // The step kernel over int64 rows on a pool of range(1) participants;
  // the program compiles once, outside the timed loop.
  const TorusShape shape = shape_for(state.range(0), 2);
  const SuhShinAape algo(shape);
  const StepProgram program(algo);
  StepPool pool(static_cast<int>(state.range(1)));
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  options.pool = &pool;
  const Rank n = shape.num_nodes();
  std::vector<std::vector<std::int64_t>> rows(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      rows[static_cast<std::size_t>(p)].push_back(static_cast<std::int64_t>(p) * n + q);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(exchange_payloads_pooled(algo, program, rows, options));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n) * n);
  state.SetLabel(shape.to_string() + "/p" + std::to_string(state.range(1)));
}
BENCHMARK(BM_StepKernel)->Args({16, 1})->Args({16, 2})->Args({16, 4});

void BM_WormholeStep(benchmark::State& state) {
  // One contention-free schedule step at flit level.
  const TorusShape shape = shape_for(state.range(0), 2);
  const SuhShinAape algo(shape);
  ExchangeEngine engine(algo);
  const ExchangeTrace trace = engine.run();
  ExchangeTrace first_step;
  first_step.steps.push_back(trace.steps.front());
  const Torus& torus = algo.torus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_trace_steps(torus, first_step, 8));
  }
  state.SetLabel(shape.to_string());
}
BENCHMARK(BM_WormholeStep)->Arg(8)->Arg(16);

void BM_WormholeDirectStep(benchmark::State& state) {
  // One contended direct-exchange step at flit level.
  const TorusShape shape = shape_for(state.range(0), 2);
  DirectExchange direct(shape);
  std::vector<RoutedStep> one_step{direct.steps().front()};
  const Torus& torus = direct.torus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_routed_steps(torus, one_step, 8));
  }
  state.SetLabel(shape.to_string());
}
BENCHMARK(BM_WormholeDirectStep)->Arg(8)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
