// Wire-path evaluation: what the pooled zero-copy frame layer costs
// over the same kernel moving payloads without frames, and what sealing
// every frame costs over the pooled wire, measured where it matters —
// heap allocations, bytes copied, and wall-clock per parcel — plus what
// compiling each StepProgram costs.
//
// Every heap allocation in the process is counted by overriding the
// global operator new/delete, so the numbers are ground truth, not
// instrumentation estimates. For each shape (the paper's 8x8 and the
// 3D 8x4x4) five executors run over identical payloads:
//
//   local             the step kernel replaying the paper program with
//                     hooks whose framed() is false: every message moves
//                     through the local transport, the wire-free baseline
//                     of the same program
//   sealed_pooled     exchange_payloads_sealed, §3.3 layout, clean wire
//   pooled_paper      exchange_payloads_pooled, §3.3 layout
//   pooled_naive      exchange_payloads_pooled, naive destination order
//   pooled_strided    strided user-buffer views (columns of row-major
//                     matrices) through seed_rows_strided and
//                     scatter_rows_strided, naive destination order —
//                     every message is a true multi-run frame
//
// The wire paths replay a StepProgram compiled once per shape and
// layout, outside the timed loop (as TorusCommunicator memoizes it).
// Every path is warmed first, then the reps alternate over the five
// paths, one rep of each per round in a shuffled order. Wall time is
// the fastest of each path's warm reps: on a shared host, interference
// only ever adds time, so the minimum is the stable estimate of the
// steady state the gates compare, and alternating puts a burst of host
// load on every path alike.
//
// The compile table times StepProgram's constructor (the p50 of five
// compiles, identity tables included) and reports its memory_bytes(),
// per shape and layout, for 8x8, 8x4x4 and 8x8x8.
//
// The CRC table times every CRC-32 tier this CPU runs (slice8, pclmul,
// vpclmul512, armv8-crc; see util/crc32.hpp) at the three perfbench
// workloads' frame sizes, the fastest of kCrcReps alternating reps.
//
// A thread sweep then times pooled_paper and sealed_pooled with the
// step kernel on a StepPool of 1, 2 and nproc participants, on 8x8,
// 8x4x4, 8x8x8 and 16x16. Allocations are also counted per thread: a
// thread-local flag marks the calling thread, so an allocation made on
// a pool worker is counted apart.
//
// The bench is self-checking and exits non-zero on regression:
//   * sealed_pooled must allocate no more per step than pooled_paper
//     and copy exactly the same payload bytes: both are the same step
//     kernel over the same program, and sealing adds no copy;
//   * sealed_pooled must stay within 1.5x pooled_paper's ns/parcel on
//     every shape (the price of tamper/verify/retransmit bookkeeping);
//   * pooled_paper must stay under a fixed allocs-per-step budget
//     (kAllocBudgetPerStep) once the arena is warm — the CI bench
//     smoke job fails when the zero-copy invariant erodes;
//   * pooled_paper must be fully contiguous in 2D and within the
//     2^(n-2) run bound in 3D;
//   * pooled_paper must cost no more ns/parcel than pooled_naive on
//     every shape — the §3.3 layout exists to make sends cheaper;
//   * from 2 KiB frames up, the dispatched CRC tier must be no slower
//     than any other tier this CPU runs — a dispatch that silently
//     falls back, or a wide fold that regresses, fails;
//   * pooled_strided must gather parcels (gathered_parcels > 0, the
//     dead run-gather path regression) with more encoded runs than
//     messages, under the same alloc budget as pooled_paper;
//   * local must allocate at most once per step: the local transport
//     stages a step in one buffer the replay keeps, not one per node;
//   * in the thread sweep, pool workers must make no allocation at all
//     once the path is warm (the caller sizes every buffer, frame and
//     scratch vector they write);
//   * on 8x8x8 and 16x16, with nproc >= 2, nproc participants must
//     cost no more ns/parcel than one, on both swept paths.
//
// --out=FILE (default BENCH_wire.json) receives the results as JSON,
// with a provenance record: git describe of the source tree, build
// type, compiler, CPU model, nproc and the CRC-32 backend.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/payload_exchange.hpp"
#include "core/wire_buffer.hpp"
#include "obs/chrome_trace.hpp"
#include "provenance.hpp"
#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "util/step_pool.hpp"
#include "util/table.hpp"

// --- Global allocation counting ----------------------------------------

namespace {
std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_alloc_bytes{0};
/// Allocations made on any thread but the one running main().
std::atomic<std::int64_t> g_off_caller_allocs{0};
thread_local bool t_calling_thread = false;
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  if (!t_calling_thread) g_off_caller_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace torex;

/// Allocations-per-step ceiling for the warm pooled paper path. The
/// steady-state wire itself allocates nothing (frames recycle through
/// the arena); what remains is O(1) per exchange — the senders' frame
/// table and the scratch rows. The budget is deliberately a
/// hard constant: if a change re-introduces per-message allocation,
/// allocs-per-step jumps by ~the message count and this trips.
constexpr double kAllocBudgetPerStep = 512.0;

/// The rows every step-kernel path starts from: rows[p][q] = p * n + q.
std::vector<std::vector<std::int64_t>> canonical_rows(Rank n) {
  std::vector<std::vector<std::int64_t>> rows(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      rows[static_cast<std::size_t>(p)].push_back(static_cast<std::int64_t>(p) * n + q);
    }
  }
  return rows;
}

/// Kernel hooks that replay every step locally: no frame is sealed,
/// so the program runs with no wire at all.
struct LocalHooks : detail::StepHooks {
  bool framed(int /*phase*/, int /*step*/) const { return false; }
};

struct PathResult {
  std::string name;
  double ms = 0;                  ///< wall-clock of the fastest exchange
  double ns_per_parcel = 0;       ///< of the fastest exchange
  double allocs_per_step = 0;
  double alloc_kib_per_step = 0;
  WirePoolStats stats;            ///< wire traffic delta (none for local)
  bool has_stats = false;
};

/// One path's reps so far: the fastest rep's wall time, and the
/// allocations of all of them.
struct RepStats {
  double best_ms = std::numeric_limits<double>::infinity();
  std::int64_t allocs = 0;
  std::int64_t alloc_bytes = 0;
  int reps = 0;
};

/// Times one exchange: `fn` over a fresh seed from `seed`, counting only
/// the exchange itself — seed construction sits outside the window.
template <typename Seed, typename Fn>
void measure_rep(RepStats& stats, Rank n, Seed&& seed, Fn&& fn) {
  auto parcels = seed(n);
  const std::int64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const std::int64_t b0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  fn(std::move(parcels));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  stats.allocs += g_allocs.load(std::memory_order_relaxed) - a0;
  stats.alloc_bytes += g_alloc_bytes.load(std::memory_order_relaxed) - b0;
  stats.best_ms =
      std::min(stats.best_ms, std::chrono::duration<double, std::milli>(elapsed).count());
  ++stats.reps;
}

/// A path's result from its reps: time is the fastest rep, allocations
/// are averaged over all reps.
PathResult path_result(const std::string& name, const SuhShinAape& algo, const RepStats& stats) {
  const Rank N = algo.shape().num_nodes();
  const double steps = static_cast<double>(algo.total_steps()) * stats.reps;
  const double parcels = static_cast<double>(N) * static_cast<double>(N);  // one hop each
  PathResult r;
  r.name = name;
  r.ms = stats.best_ms;
  r.ns_per_parcel = stats.best_ms * 1e6 / parcels;
  r.allocs_per_step = static_cast<double>(stats.allocs) / steps;
  r.alloc_kib_per_step = static_cast<double>(stats.alloc_bytes) / steps / 1024.0;
  return r;
}

/// Runs `fn` reps times back to back (see measure_rep). The caller warms
/// the path before calling.
template <typename Seed, typename Fn>
PathResult measure(const std::string& name, const SuhShinAape& algo, int reps, Seed&& seed,
                   Fn&& fn) {
  RepStats stats;
  for (int rep = 0; rep < reps; ++rep) measure_rep(stats, algo.shape().num_nodes(), seed, fn);
  return path_result(name, algo, stats);
}

/// One executor of the per-shape table. `run(nullptr)` is an untimed
/// exchange; `run(&stats)` a timed one (see measure_rep).
struct Path {
  std::string name;
  WireArena* arena = nullptr;  ///< the path's own arena; nullptr for local
  std::function<void(RepStats*)> run;
};

template <typename Seed, typename Fn>
Path make_path(std::string name, WireArena* arena, Rank n, Seed seed, Fn fn) {
  return {std::move(name), arena, [n, seed, fn](RepStats* stats) {
            if (stats == nullptr) {
              fn(seed(n));
            } else {
              measure_rep(*stats, n, seed, fn);
            }
          }};
}

void append_path_json(std::ostringstream& out, const PathResult& r, bool last) {
  out << "        \"" << r.name << "\": {\n"
      << "          \"ms_per_exchange\": " << r.ms << ",\n"
      << "          \"ns_per_parcel\": " << r.ns_per_parcel << ",\n"
      << "          \"allocs_per_step\": " << r.allocs_per_step << ",\n"
      << "          \"alloc_kib_per_step\": " << r.alloc_kib_per_step;
  if (r.has_stats) {
    out << ",\n"
        << "          \"messages\": " << r.stats.messages << ",\n"
        << "          \"parcels\": " << r.stats.parcels << ",\n"
        << "          \"bytes_encoded\": " << r.stats.bytes_encoded << ",\n"
        << "          \"bytes_copied\": " << r.stats.bytes_copied << ",\n"
        << "          \"pool_hits\": " << r.stats.pool_hits << ",\n"
        << "          \"pool_misses\": " << r.stats.pool_misses << ",\n"
        << "          \"contiguous_sends\": " << r.stats.contiguous_sends << ",\n"
        << "          \"total_sends\": " << r.stats.total_sends << ",\n"
        << "          \"gathered_parcels\": " << r.stats.gathered_parcels << ",\n"
        << "          \"runs_encoded\": " << r.stats.runs_encoded << ",\n"
        << "          \"max_runs_per_send\": " << r.stats.max_runs_per_send;
  }
  out << "\n        }" << (last ? "\n" : ",\n");
}

/// One configuration of the thread sweep.
struct SweepResult {
  std::string shape;
  std::string path;
  int participants = 1;
  PathResult timing;
  double off_caller_allocs_per_step = 0;
};

void append_sweep_json(std::ostringstream& out, const SweepResult& r, bool last) {
  out << "    {\"shape\": \"" << r.shape << "\", \"path\": \"" << r.path
      << "\", \"participants\": " << r.participants
      << ", \"ms_per_exchange\": " << r.timing.ms
      << ", \"ns_per_parcel\": " << r.timing.ns_per_parcel
      << ", \"allocs_per_step\": " << r.timing.allocs_per_step
      << ", \"off_caller_allocs_per_step\": " << r.off_caller_allocs_per_step << "}"
      << (last ? "\n" : ",\n");
}

/// One StepProgram compile timing.
struct CompileResult {
  std::string shape;
  std::string layout;
  double compile_ms = 0;  ///< p50 of kCompileReps
  std::size_t memory_bytes = 0;
};

constexpr int kCompileReps = 5;

/// The p50 wall time of kCompileReps compiles of `algo` under `layout`.
CompileResult time_compile(const SuhShinAape& algo, LayoutPolicy layout) {
  std::vector<double> ms;
  CompileResult r;
  r.shape = algo.shape().to_string();
  r.layout = layout == LayoutPolicy::kPaper ? "paper" : "naive";
  for (int rep = 0; rep < kCompileReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    const StepProgram program(algo, layout);
    ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count());
    r.memory_bytes = program.memory_bytes();
  }
  std::sort(ms.begin(), ms.end());
  r.compile_ms = ms[ms.size() / 2];
  return r;
}

/// CRC-32 update lengths of the three perfbench workloads' frames. A
/// seal or verify hashes the 36-byte header, then everything after it
/// in one update: payload plus the 4-byte header-CRC slot. So about
/// 300 B for service_overload, 2,052 for alltoall_word (256 8-byte
/// words) and 65,540 for checked_kib (64 1-KiB blocks).
constexpr std::size_t kCrcFrameBytes[] = {300, 2052, 65540};

/// Frames at or above this size must run fastest on the dispatched tier.
constexpr std::size_t kCrcGateBytes = 2048;

constexpr int kCrcReps = 15;

/// One CRC tier at one frame size.
struct CrcResult {
  std::string tier;
  std::size_t frame_bytes = 0;
  double ns_per_frame = 0;  ///< of the fastest rep
  double gib_per_s = 0;
};

std::atomic<std::uint32_t> g_crc_sink{0};

/// Times every CRC tier this CPU runs at each of kCrcFrameBytes. A rep
/// hashes about 4 MiB in frames on each tier in turn, so the tiers
/// alternate; each keeps its fastest rep.
std::vector<CrcResult> time_crc_tiers() {
  const std::span<const detail::Crc32Tier> tiers = detail::crc32_tiers();
  std::vector<unsigned char> frame(kCrcFrameBytes[std::size(kCrcFrameBytes) - 1]);
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<unsigned char>(i * 131 + 7);
  }
  std::uint32_t sink = 0;
  std::vector<CrcResult> out;
  for (const std::size_t bytes : kCrcFrameBytes) {
    const std::size_t frames = std::max<std::size_t>(1, (std::size_t{4} << 20) / bytes);
    std::vector<double> best(tiers.size(), std::numeric_limits<double>::infinity());
    for (int rep = 0; rep < kCrcReps; ++rep) {
      for (std::size_t t = 0; t < tiers.size(); ++t) {
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t f = 0; f < frames; ++f) {
          sink ^= tiers[t].update(0xFFFFFFFFu, frame.data(), bytes);
        }
        const double ns =
            std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
                .count();
        best[t] = std::min(best[t], ns / static_cast<double>(frames));
      }
    }
    for (std::size_t t = 0; t < tiers.size(); ++t) {
      out.push_back({tiers[t].name, bytes, best[t],
                     static_cast<double>(bytes) / best[t] * 1e9 / static_cast<double>(1u << 30)});
    }
  }
  g_crc_sink.store(sink, std::memory_order_relaxed);
  return out;
}

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::cerr << "SELF-CHECK FAILED: " << what << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  t_calling_thread = true;
  const CliFlags flags = CliFlags::parse(argc, argv, {"out", "reps"});
  const std::string out_path = flags.get_string("out", "BENCH_wire.json");
  const int reps = static_cast<int>(flags.get_int("reps", 10, 1, 10000));
  const int nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  std::ostringstream json;
  json << "{\n  \"bench\": \"wire\",\n  \"provenance\": " << bench::provenance_json()
       << ",\n  \"alloc_budget_per_step\": " << kAllocBudgetPerStep
       << ",\n  \"reps\": " << reps << ",\n  \"nproc\": " << nproc
       << ",\n  \"shapes\": [\n";

  const std::vector<std::vector<std::int32_t>> shapes{{8, 8}, {8, 4, 4}};
  for (std::size_t si = 0; si < shapes.size(); ++si) {
    const TorusShape shape(shapes[si]);
    const SuhShinAape algo(shape);
    const Rank N = shape.num_nodes();
    std::cout << "=== " << shape.to_string() << " (" << N << " nodes, "
              << algo.total_steps() << " steps, " << reps << " reps) ===\n\n";

    // Every path gets its own arena and one untimed warmup exchange
    // (pool converges, caches warm); then arena stats are snapshot and
    // the measured reps alternate over the paths, one rep of each per
    // round in a shuffled order. The allocation counts and traffic
    // stats cover exactly the steady-state reps, and a burst of host
    // load lands on every path's reps alike instead of on one path's
    // block of them, or on whichever path always follows another.
    const StepProgram paper_program(algo, LayoutPolicy::kPaper);
    const StepProgram naive_program(algo, LayoutPolicy::kNaiveDestinationOrder);
    WireArena local_arena;  // leases no frame: every step is local
    WireArena sealed_arena;
    WireArena paper_arena;
    WireArena naive_arena;
    WireArena strided_arena;
    IntegrityOptions sealed_options;
    sealed_options.arena = &sealed_arena;
    WireExchangeOptions paper_options;
    paper_options.arena = &paper_arena;
    WireExchangeOptions naive_options;
    naive_options.arena = &naive_arena;
    WireExchangeOptions strided_options;
    strided_options.arena = &strided_arena;

    // Strided user-buffer workload: both endpoints are columns of
    // row-major matrices (stride = N), seeded and scattered through
    // the StridedView API inside the measured window — the layer a
    // Träff-style datatype user pays. Naive destination order keeps
    // every send fragmented, so this is the workload that proves the
    // multi-run gather path is alive.
    const auto n = static_cast<std::size_t>(N);
    std::vector<std::int64_t> send_mat(n * n);
    std::vector<std::int64_t> recv_mat(n * n);
    std::vector<StridedView<const std::int64_t>> send_views;
    std::vector<StridedView<std::int64_t>> recv_views;
    for (Rank p = 0; p < N; ++p) {
      send_views.push_back({send_mat.data() + p, n, static_cast<std::ptrdiff_t>(n)});
      recv_views.push_back({recv_mat.data() + p, n, static_cast<std::ptrdiff_t>(n)});
      for (Rank q = 0; q < N; ++q) {
        send_mat[static_cast<std::size_t>(q) * n + static_cast<std::size_t>(p)] =
            static_cast<std::int64_t>(p) * N + q;
      }
    }

    using Rows = std::vector<std::vector<std::int64_t>>;
    std::vector<Path> paths;
    paths.push_back(make_path("local", nullptr, N, canonical_rows, [&](Rows rows) {
      LocalHooks hooks;
      detail::StepReplay<std::int64_t> replay;
      detail::replay_step_program(paper_program, rows, local_arena, nullptr, nullptr, hooks,
                                  replay);
      detail::put_rows_in_origin_order(paper_program, rows, nullptr, replay, nullptr);
    }));
    paths.push_back(make_path("sealed_pooled", &sealed_arena, N, canonical_rows, [&](Rows rows) {
      exchange_payloads_sealed(algo, paper_program, std::move(rows), {}, sealed_options);
    }));
    paths.push_back(make_path("pooled_paper", &paper_arena, N, canonical_rows, [&](Rows rows) {
      exchange_payloads_pooled(algo, paper_program, std::move(rows), paper_options);
    }));
    paths.push_back(make_path("pooled_naive", &naive_arena, N, canonical_rows, [&](Rows rows) {
      exchange_payloads_pooled(algo, naive_program, std::move(rows), naive_options);
    }));
    paths.push_back(make_path("pooled_strided", &strided_arena, N, canonical_rows, [&](Rows) {
      auto rows = seed_rows_strided(N, send_views);
      detail::StepReplay<std::int64_t> replay;
      detail::run_pooled(algo, naive_program, rows, strided_options, replay);
      scatter_rows_strided(naive_program, rows, recv_views);
    }));

    std::vector<WirePoolStats> stats_before;
    for (Path& path : paths) {
      path.run(nullptr);  // warmup
      stats_before.push_back(path.arena != nullptr ? path.arena->stats() : WirePoolStats{});
    }
    std::vector<RepStats> rep_stats(paths.size());
    std::vector<std::size_t> order(paths.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    SplitMix64 rng(0x5EEDu + si);
    for (int rep = 0; rep < reps; ++rep) {
      deterministic_shuffle(order, rng);
      for (const std::size_t i : order) paths[i].run(&rep_stats[i]);
    }
    std::vector<PathResult> results;
    for (std::size_t i = 0; i < paths.size(); ++i) {
      PathResult r = path_result(paths[i].name, algo, rep_stats[i]);
      if (paths[i].arena != nullptr) {
        r.stats = wire_stats_delta(paths[i].arena->stats(), stats_before[i]);
        r.has_stats = true;
      }
      results.push_back(r);
    }

    TextTable table({"path", "ms/exch", "ns/parcel", "allocs/step", "KiB alloc/step",
                     "bytes copied", "contig sends", "max runs"});
    table.set_align(0, TextTable::Align::kLeft);
    for (const PathResult& r : results) {
      auto& row = table.start_row()
                      .cell(r.name)
                      .cell(r.ms, 3)
                      .cell(r.ns_per_parcel, 1)
                      .cell(r.allocs_per_step, 1)
                      .cell(r.alloc_kib_per_step, 1);
      if (r.has_stats) {
        row.cell(r.stats.bytes_copied)
            .cell(std::to_string(r.stats.contiguous_sends) + "/" +
                  std::to_string(r.stats.total_sends))
            .cell(r.stats.max_runs_per_send);
      } else {
        row.cell("-").cell("-").cell("-");
      }
    }
    table.print(std::cout);
    std::cout << "\n";

    const PathResult& local = results[0];
    const PathResult& sealed_pooled = results[1];
    const PathResult& pooled_paper = results[2];
    const PathResult& pooled_naive = results[3];
    const PathResult& pooled_strided = results[4];
    const std::string tag = " (" + shape.to_string() + ")";

    // The sealed path is the pooled step kernel plus tamper/verify/
    // retransmit bookkeeping: no extra allocation, no extra copy, and a
    // bounded time overhead.
    check(sealed_pooled.allocs_per_step <= pooled_paper.allocs_per_step,
          "sealed_pooled must allocate no more per step than pooled_paper" + tag);
    check(sealed_pooled.stats.bytes_copied == pooled_paper.stats.bytes_copied,
          "sealed_pooled must copy exactly the bytes pooled_paper copies" + tag);
    check(sealed_pooled.ns_per_parcel <= 1.5 * pooled_paper.ns_per_parcel,
          "sealed_pooled must stay within 1.5x pooled_paper ns/parcel" + tag);
    check(pooled_paper.allocs_per_step <= kAllocBudgetPerStep,
          "pooled paper path exceeded the alloc budget" + tag);
    check(pooled_paper.stats.pool_misses <= pooled_paper.stats.pool_hits,
          "warm arena should serve most frames from the pool" + tag);
    // The strided workload is the dead-path regression gate: before
    // the run-gather rework gathered_parcels never moved off zero and
    // every message claimed exactly one run.
    check(pooled_strided.stats.gathered_parcels > 0,
          "strided workload must gather parcels (multi-run sends)" + tag);
    check(pooled_strided.stats.runs_encoded > pooled_strided.stats.total_sends,
          "strided workload must encode more runs than messages" + tag);
    check(pooled_strided.allocs_per_step <= kAllocBudgetPerStep,
          "strided workload exceeded the alloc budget" + tag);
    check(local.allocs_per_step <= 1.0,
          "local transport must allocate at most once per step" + tag);
    check(pooled_paper.ns_per_parcel <= pooled_naive.ns_per_parcel,
          "pooled_paper must cost no more ns/parcel than pooled_naive" + tag);
    if (shape.num_dims() == 2) {
      check(pooled_paper.stats.fully_contiguous(),
            "paper layout must be fully contiguous in 2D" + tag);
    } else {
      check(pooled_paper.stats.max_runs_per_send <= 2,
            "paper layout must stay within 2 runs per send in 3D" + tag);
      check(pooled_naive.stats.gathered_parcels >= pooled_paper.stats.gathered_parcels,
            "naive layout should gather at least as much as the paper layout" + tag);
    }

    json << "    {\n      \"shape\": \"" << shape.to_string() << "\",\n      \"nodes\": " << N
         << ",\n      \"steps\": " << algo.total_steps() << ",\n      \"paths\": {\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      append_path_json(json, results[i], i + 1 == results.size());
    }
    json << "      }\n    }" << (si + 1 == shapes.size() ? "\n" : ",\n");
  }

  json << "  ],\n";

  // Compile times, identity tables included.
  std::vector<CompileResult> compiles;
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{{8, 8}, {8, 4, 4}, {8, 8, 8}}) {
    const SuhShinAape algo{TorusShape(extents)};
    for (const LayoutPolicy layout : {LayoutPolicy::kPaper, LayoutPolicy::kNaiveDestinationOrder}) {
      compiles.push_back(time_compile(algo, layout));
    }
  }
  std::cout << "=== StepProgram compile (p50 of " << kCompileReps << ") ===\n\n";
  TextTable compile_table({"shape", "layout", "compile ms", "table bytes"});
  compile_table.set_align(0, TextTable::Align::kLeft);
  compile_table.set_align(1, TextTable::Align::kLeft);
  json << "  \"compile\": [\n";
  for (std::size_t i = 0; i < compiles.size(); ++i) {
    const CompileResult& r = compiles[i];
    compile_table.start_row()
        .cell(r.shape)
        .cell(r.layout)
        .cell(r.compile_ms, 3)
        .cell(static_cast<std::int64_t>(r.memory_bytes));
    json << "    {\"shape\": \"" << r.shape << "\", \"layout\": \"" << r.layout
         << "\", \"compile_ms\": " << r.compile_ms << ", \"memory_bytes\": " << r.memory_bytes
         << "}" << (i + 1 == compiles.size() ? "\n" : ",\n");
  }
  json << "  ],\n";
  compile_table.print(std::cout);
  std::cout << "\n";

  // Every CRC tier this CPU runs, at the workloads' frame sizes. From
  // 2 KiB up the dispatched tier must be the fastest: a dispatch that
  // silently falls back to a narrower tier, or a wide fold that
  // regresses below the 128-bit one, fails here.
  const std::string dispatched = crc32_backend_name();
  const std::vector<CrcResult> crcs = time_crc_tiers();
  std::cout << "=== CRC-32 tiers (min of " << kCrcReps << ", dispatched " << dispatched
            << ") ===\n\n";
  TextTable crc_table({"frame bytes", "tier", "ns/frame", "GiB/s"});
  crc_table.set_align(1, TextTable::Align::kLeft);
  json << "  \"crc32\": {\"dispatched\": \"" << dispatched << "\", \"reps\": " << kCrcReps
       << ", \"frames\": [\n";
  for (std::size_t i = 0; i < crcs.size(); ++i) {
    const CrcResult& r = crcs[i];
    crc_table.start_row()
        .cell(static_cast<std::int64_t>(r.frame_bytes))
        .cell(r.tier)
        .cell(r.ns_per_frame, 1)
        .cell(r.gib_per_s, 2);
    json << "    {\"frame_bytes\": " << r.frame_bytes << ", \"tier\": \"" << r.tier
         << "\", \"ns_per_frame\": " << r.ns_per_frame << ", \"gib_per_s\": " << r.gib_per_s
         << "}" << (i + 1 == crcs.size() ? "\n" : ",\n");
    if (r.frame_bytes < kCrcGateBytes || r.tier == dispatched) continue;
    for (const CrcResult& d : crcs) {
      if (d.frame_bytes != r.frame_bytes || d.tier != dispatched) continue;
      check(d.ns_per_frame <= r.ns_per_frame,
            "dispatched CRC tier " + dispatched + " must be no slower than " + r.tier + " at " +
                std::to_string(r.frame_bytes) + " B");
    }
  }
  json << "  ]},\n";
  crc_table.print(std::cout);
  std::cout << "\n";

  // Thread sweep: the same kernel on 1, 2 and nproc participants.
  std::vector<int> participant_counts{1, 2, nproc};
  std::sort(participant_counts.begin(), participant_counts.end());
  participant_counts.erase(std::unique(participant_counts.begin(), participant_counts.end()),
                           participant_counts.end());
  std::vector<SweepResult> sweep;
  {
    // Cores that sat idle through the single-threaded paths above come
    // up slowly, on a virtual machine for a second or so: run threaded
    // exchanges for a second before timing any.
    const SuhShinAape algo(TorusShape({8, 8, 8}));
    const StepProgram program(algo, LayoutPolicy::kPaper);
    StepPool pool(nproc);
    WireExchangeOptions options;
    options.pool = &pool;
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start < std::chrono::seconds(1)) {
      exchange_payloads_pooled(algo, program, canonical_rows(algo.shape().num_nodes()), options);
    }
  }
  std::cout << "=== thread sweep (nproc " << nproc << ", " << reps << " reps) ===\n\n";
  TextTable sweep_table({"shape", "path", "participants", "ms/exch", "ns/parcel", "allocs/step",
                         "worker allocs/step"});
  sweep_table.set_align(0, TextTable::Align::kLeft);
  sweep_table.set_align(1, TextTable::Align::kLeft);
  for (const auto& extents :
       std::vector<std::vector<std::int32_t>>{{8, 8}, {8, 4, 4}, {8, 8, 8}, {16, 16}}) {
    const TorusShape shape(extents);
    const SuhShinAape algo(shape);
    const Rank N = shape.num_nodes();
    const StepProgram program(algo, LayoutPolicy::kPaper);
    const double steps = static_cast<double>(algo.total_steps()) * reps;
    for (const std::string path : {"pooled_paper", "sealed_pooled"}) {
      for (const int participants : participant_counts) {
        StepPool pool(participants);
        WireArena arena;
        const auto exchange = [&](std::vector<std::vector<std::int64_t>> rows) {
          if (path == "pooled_paper") {
            WireExchangeOptions options;
            options.arena = &arena;
            options.pool = &pool;
            exchange_payloads_pooled(algo, program, std::move(rows), options);
          } else {
            IntegrityOptions options;
            options.arena = &arena;
            options.pool = &pool;
            exchange_payloads_sealed(algo, program, std::move(rows), {}, options);
          }
        };
        exchange(canonical_rows(N));  // warmup
        const std::int64_t off0 = g_off_caller_allocs.load(std::memory_order_relaxed);
        SweepResult r;
        r.shape = shape.to_string();
        r.path = path;
        r.participants = participants;
        r.timing = measure(path, algo, reps, canonical_rows, exchange);
        r.off_caller_allocs_per_step =
            static_cast<double>(g_off_caller_allocs.load(std::memory_order_relaxed) - off0) /
            steps;
        sweep_table.start_row()
            .cell(r.shape)
            .cell(r.path)
            .cell(static_cast<std::int64_t>(participants))
            .cell(r.timing.ms, 3)
            .cell(r.timing.ns_per_parcel, 1)
            .cell(r.timing.allocs_per_step, 1)
            .cell(r.off_caller_allocs_per_step, 1);
        check(r.off_caller_allocs_per_step == 0,
              "pool workers must not allocate on a warm path (" + r.shape + " " + path + ", " +
                  std::to_string(participants) + " participants)");
        sweep.push_back(r);
      }
    }
  }
  sweep_table.print(std::cout);
  std::cout << "\n";
  // The threaded kernel must pay for itself where the work is largest:
  // on the most nodes, and on the most slots a step moves per node.
  if (nproc >= 2) {
    for (const std::string shape : {"8x8x8", "16x16"}) {
      for (const std::string path : {"pooled_paper", "sealed_pooled"}) {
        double one = 0;
        double all = 0;
        for (const SweepResult& r : sweep) {
          if (r.shape != shape || r.path != path) continue;
          if (r.participants == 1) one = r.timing.ns_per_parcel;
          if (r.participants == nproc) all = r.timing.ns_per_parcel;
        }
        check(all <= one, path + " on nproc participants must cost no more ns/parcel than on "
                                 "one (" + shape + ")");
      }
    }
  }
  json << "  \"thread_sweep\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    append_sweep_json(json, sweep[i], i + 1 == sweep.size());
  }
  json << "  ],\n  \"pass\": " << (g_failures == 0 ? "true" : "false") << "\n}\n";

  std::string error;
  if (!json_well_formed(json.str(), &error)) {
    std::cerr << "internal error: BENCH_wire.json is not well-formed: " << error << "\n";
    return 1;
  }
  {
    std::ofstream out(out_path);
    out << json.str();
    if (!out) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
  }
  std::cout << "wrote " << out_path << "\n";
  if (g_failures > 0) {
    std::cerr << g_failures << " self-check(s) failed\n";
    return 1;
  }
  std::cout << "all self-checks passed\n";
  return 0;
}
