// The repository benchmark's measuring binary: runs one workload for a
// wall-clock budget, checks every output, and prints its metrics.
//
//   perfbench --workload=<alltoall_word|checked_kib|service_overload>
//             --seed=<n> --seconds=<s> --trace=<0|1>
//
// --trace=0 measures the end-to-end metrics with telemetry off.
// --trace=1 alternates untraced and traced operations (collective calls,
// or whole service epochs): the traced ones give the per-layer metrics
// (span self times from a Recorder, wire/health/SLO counters), the
// untraced ones give the service dispatch latencies and the baseline of
// the tracing-overhead comparison.
//
// Every collective result is compared against the transpose oracle and
// every completed session against its seeded payload; arenas must end
// with zero outstanding frames and recorders with zero dropped events.
// Stdout ends with one provenance line ("provenance {...}") and one
// result line ({"correct", "attempted", "failed", "metrics"}), which
// perfbench/run.py validates and relays. A workload emits only the
// metrics catalog.json lists for it; run.py reads the rest as 0.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/exchange_engine.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/communicator.hpp"
#include "svc/session_manager.hpp"
#include "util/cli.hpp"
#include "util/crc32.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

// Every heap allocation in the process is counted (as bench_wire does),
// so core.wire.allocs_per_call is ground truth, not an estimate.
namespace {
std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_alloc_bytes{0};
/// Keeps the CRC throughput loop's digests observable.
std::atomic<std::uint32_t> g_crc_sink{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
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
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// SplitMix64: every input of a run derives from --seed through it.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double uniform() { return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740993.0; }
};

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 rng{seed ^ (stream * 0xd1b54a32d192ed03ULL)};
  return rng.next();
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// The untraced operations of one measurement window: about a second of
/// collective calls, or one service epoch.
struct Window {
  std::vector<double> ms;  ///< wall time of each operation
  double completed = 0.0;  ///< exchanges completed
  double seconds = 0.0;    ///< wall seconds spent inside the library
};

// End-to-end timings are taken per window and reported at the quartile
// of the run's windows that load from outside the process moves least.
// On a shared host, bursts of foreign load slow whole seconds of calls
// by up to 1.5x and lengthen the tail most; a change to the library
// moves every window alike.

/// Lower quartile over windows of each window's q-th percentile.
double calm_percentile(const std::vector<Window>& windows, double q) {
  std::vector<double> values;
  for (const Window& w : windows) {
    if (!w.ms.empty()) values.push_back(percentile(w.ms, q));
  }
  return percentile(std::move(values), 0.25);
}

/// Upper quartile over windows of each window's completion rate.
double calm_rate(const std::vector<Window>& windows) {
  std::vector<double> rates;
  for (const Window& w : windows) {
    if (w.seconds > 0.0) rates.push_back(w.completed / w.seconds);
  }
  return percentile(std::move(rates), 0.75);
}

/// Run-level verdict: operations attempted and failed, plus every
/// violated output check (any one makes the run incorrect).
struct Verdict {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (problems.size() < 16) std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
    problems.push_back(what);
  }
  double error_rate() const { return ratio(static_cast<double>(failed), static_cast<double>(attempted)); }
};

/// Ordered (name, value, unit) list rendered as the result's "metrics".
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  bool all_finite() const {
    return std::all_of(entries_.begin(), entries_.end(),
                       [](const Entry& e) { return std::isfinite(e.value); });
  }
  std::string json() const {
    std::ostringstream out;
    out.precision(std::numeric_limits<double>::max_digits10);
    out << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << entries_[i].name << "\": {\"value\": "
          << entries_[i].value << ", \"unit\": \"" << entries_[i].unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Per-span-name totals and self times (duration minus the part its
/// child spans cover) accumulated over recorder snapshots.
struct SpanTotals {
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;
  std::int64_t unmatched = 0;
  std::int64_t dropped = 0;

  void add(const Recorder& recorder) {
    const Telemetry t = recorder.snapshot();
    dropped += t.dropped_events;
    struct Open {
      const std::string* name;
      std::int64_t start;
      std::int64_t children;
    };
    std::map<int, std::vector<Open>> stacks;  // one nesting stack per thread
    for (const TelemetryEvent& e : t.events) {
      auto& stack = stacks[e.tid];
      if (e.kind == EventKind::kBegin) {
        stack.push_back({&e.name, e.ts_ns, 0});
      } else if (e.kind == EventKind::kEnd) {
        if (stack.empty() || *stack.back().name != e.name) {
          ++unmatched;
          continue;
        }
        const Open open = stack.back();
        stack.pop_back();
        const std::int64_t dur = e.ts_ns - open.start;
        total_ms[e.name] += static_cast<double>(dur) / 1e6;
        self_ms[e.name] += static_cast<double>(dur - open.children) / 1e6;
        if (!stack.empty()) stack.back().children += dur;
      }
    }
    for (const auto& [tid, stack] : stacks) unmatched += static_cast<std::int64_t>(stack.size());
  }
  double total(const std::string& name) const {
    const auto it = total_ms.find(name);
    return it == total_ms.end() ? 0.0 : it->second;
  }
  double self(const std::string& name) const {
    const auto it = self_ms.find(name);
    return it == self_ms.end() ? 0.0 : it->second;
  }
};

/// Throughput of torex::crc32 over buffers of `frame_bytes` (the
/// workload's mean wire frame), in GiB/s.
double crc32_gib_per_s(std::size_t frame_bytes, std::uint64_t seed) {
  frame_bytes = std::max<std::size_t>(frame_bytes, 64);
  std::vector<std::uint8_t> frame(frame_bytes);
  SplitMix64 rng{seed};
  for (auto& b : frame) b = static_cast<std::uint8_t>(rng.next());
  std::uint32_t sink = 0;
  std::int64_t bytes = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.05 || bytes < (std::int64_t{64} << 20)) {
    for (int i = 0; i < 64; ++i) {
      sink ^= crc32(frame.data(), frame.size());
      frame[static_cast<std::size_t>(i) % frame.size()] ^= static_cast<std::uint8_t>(sink);
    }
    bytes += 64 * static_cast<std::int64_t>(frame.size());
    elapsed = seconds_since(start);
  }
  g_crc_sink.store(sink, std::memory_order_relaxed);
  return static_cast<double>(bytes) / elapsed / static_cast<double>(1ull << 30);
}

/// The provenance the binary knows; run.py adds the git revision, CPU
/// model and processor count.
void print_provenance(const std::string& workload, const TorusShape& shape,
                      std::int64_t payload_bytes, std::uint64_t seed, double seconds,
                      bool trace) {
  std::cout << "provenance {\"workload\": \"" << workload << "\", \"shape\": \""
            << shape.to_string() << "\", \"nodes\": " << shape.num_nodes()
            << ", \"payload_bytes\": " << payload_bytes << ", \"seed\": " << seed
            << ", \"seconds\": " << seconds << ", \"trace\": " << (trace ? 1 : 0)
            << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\", \"compiler\": \"g++ "
            << __VERSION__ << "\", \"crc32_backend\": \"" << crc32_backend_name() << "\"}\n";
}

// --- Collective workloads ---------------------------------------------

/// One KiB payload word-block (trivially copyable, 1024 bytes).
struct Kib {
  std::array<std::uint64_t, 128> words;
};
static_assert(sizeof(Kib) == 1024, "Kib must be exactly one KiB");

/// What one collective call reported besides its result.
struct CallReport {
  std::int64_t corrupted = 0;
  std::int64_t retransmits = 0;
  bool failed = false;  ///< escalated, degraded, or fell off the Suh-Shin path
};

/// alltoall_word: TorusCommunicator::alltoall<int64> on 8x8x8, Suh-Shin
/// forced, over the pooled wire (the §3.3 rearrangement path).
struct WordWorkload {
  using T = std::int64_t;
  static constexpr bool kChecked = false;
  static TorusShape shape() { return TorusShape::make_3d(8, 8, 8); }

  explicit WordWorkload(std::uint64_t seed) : salt_(derive(seed, 1)) {}

  /// Rewrites every payload for call `call`, so no call can pass on a
  /// stale result.
  void stamp(std::vector<std::vector<T>>& send, std::int64_t call) const {
    const auto n = static_cast<std::uint64_t>(send.size());
    const std::uint64_t base = salt_ + static_cast<std::uint64_t>(call) * n * n;
    for (std::uint64_t p = 0; p < n; ++p) {
      for (std::uint64_t q = 0; q < n; ++q) send[p][q] = static_cast<T>(base + p * n + q);
    }
  }

  std::vector<std::vector<T>> call(const TorusCommunicator& comm,
                                   const std::vector<std::vector<T>>& send, std::int64_t,
                                   Recorder* obs, CallReport&) const {
    return comm.alltoall(send, AlltoallAlgorithm::kSuhShin, sizeof(T), nullptr, obs);
  }

  static bool equal(const T& a, const T& b) { return a == b; }

 private:
  std::uint64_t salt_;
};

/// checked_kib: TorusCommunicator::alltoall_checked on 16x8 with 1 KiB
/// blocks, Suh-Shin forced. Each call meets a fresh seeded corruption
/// model of two transient corrupting channels whose windows (at most 3
/// ticks from tick 0) close within the default 3-retransmit budget, so
/// every call ends clean or corrected, never escalated.
struct KibWorkload {
  using T = Kib;
  static constexpr bool kChecked = true;
  static TorusShape shape() { return TorusShape::make_2d(16, 8); }

  explicit KibWorkload(std::uint64_t seed) : seed_(seed), torus_(shape()) {}

  void stamp(std::vector<std::vector<T>>& send, std::int64_t call) const {
    const std::uint64_t salt = derive(seed_, 2 + static_cast<std::uint64_t>(call));
    const auto n = static_cast<std::uint64_t>(send.size());
    for (std::uint64_t p = 0; p < n; ++p) {
      for (std::uint64_t q = 0; q < n; ++q) {
        Kib& block = send[p][q];
        if (call == 0) {
          SplitMix64 rng{derive(seed_, 1) ^ (p * n + q)};
          for (auto& w : block.words) w = rng.next();
        }
        block.words[0] = salt ^ (p * n + q);
      }
    }
  }

  std::vector<std::vector<T>> call(const TorusCommunicator& comm,
                                   const std::vector<std::vector<T>>& send, std::int64_t call,
                                   Recorder* obs, CallReport& report) const {
    SplitMix64 rng{derive(seed_, 0x10000 + static_cast<std::uint64_t>(call))};
    CorruptionModel corruption;
    const auto until = static_cast<std::int64_t>(1 + rng.next() % 3);
    corruption.inject_random_corruptions(torus_, rng.next(), 2, 0, until);
    ResilienceOptions options;
    options.algorithm = AlltoallAlgorithm::kSuhShin;
    options.obs = obs;
    ExchangeOutcome outcome;
    auto recv = comm.alltoall_checked(send, FaultModel{}, corruption, outcome, options);
    report.corrupted = outcome.corrupted_messages;
    report.retransmits = outcome.retransmits;
    report.failed = outcome.integrity == IntegrityStatus::kEscalated || outcome.degraded ||
                    outcome.algorithm != AlltoallAlgorithm::kSuhShin;
    return recv;
  }

  static bool equal(const T& a, const T& b) {
    return std::memcmp(a.words.data(), b.words.data(), sizeof(Kib)) == 0;
  }

 private:
  std::uint64_t seed_;
  Torus torus_;
};

/// Transpose oracle: recv[q][p] must equal send[p][q].
template <typename W, typename T>
bool transpose_matches(const std::vector<std::vector<T>>& send,
                       const std::vector<std::vector<T>>& recv) {
  const std::size_t n = send.size();
  if (recv.size() != n) return false;
  for (std::size_t q = 0; q < n; ++q) {
    if (recv[q].size() != n) return false;
    for (std::size_t p = 0; p < n; ++p) {
      if (!W::equal(recv[q][p], send[p][q])) return false;
    }
  }
  return true;
}

/// Wire counters summed over a set of calls.
struct WireSums {
  WirePoolStats sum;
  void add(const WirePoolStats& d) {
    sum.messages += d.messages;
    sum.parcels += d.parcels;
    sum.bytes_encoded += d.bytes_encoded;
    sum.bytes_copied += d.bytes_copied;
    sum.pool_hits += d.pool_hits;
    sum.pool_misses += d.pool_misses;
    sum.total_sends += d.total_sends;
    sum.contiguous_sends += d.contiguous_sends;
    sum.runs_encoded += d.runs_encoded;
    sum.parcels_rearranged += d.parcels_rearranged;
  }
};

template <typename W>
int run_collective(const std::string& workload, std::uint64_t seed, double seconds, bool trace) {
  using T = typename W::T;
  const TorusShape shape = W::shape();
  const Rank N = shape.num_nodes();
  const auto n = static_cast<std::size_t>(N);
  print_provenance(workload, shape, static_cast<std::int64_t>(sizeof(T)), seed, seconds, trace);

  const W spec(seed);
  Verdict verdict;
  std::vector<std::vector<T>> send(n, std::vector<T>(n));
  std::int64_t next_call = 0;

  // Set-up: constructor plus the first (untimed) call. It runs three
  // times up front and then replaces the communicator every
  // kSetupEvery-th iteration, so the setup_s samples span the whole run.
  constexpr std::int64_t kSetupEvery = 8;
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  std::unique_ptr<TorusCommunicator> comm;
  const auto set_up = [&] {
    if (comm) {
      verdict.check(comm->wire_stats().outstanding_frames() == 0,
                    "arena must report zero outstanding frames after its calls");
    }
    spec.stamp(send, next_call);
    comm.reset();
    const auto start = Clock::now();
    comm = std::make_unique<TorusCommunicator>(shape, CostParams{});
    build_ms.push_back(seconds_since(start) * 1e3);
    CallReport report;
    auto recv = spec.call(*comm, send, next_call, nullptr, report);
    setup_s.push_back(seconds_since(start));
    ++next_call;
    verdict.check(transpose_matches<W>(send, recv), "set-up call must match the transpose oracle");
  };
  for (int rep = 0; rep < 3; ++rep) set_up();

  std::vector<double> plain_ms;   // untraced call wall times
  std::vector<double> traced_ms;  // traced call wall times
  std::vector<Window> windows(1);  // untraced calls, about one second each
  WireSums wire;
  std::int64_t calls = 0;
  std::int64_t plain_allocs = 0;
  std::int64_t plain_alloc_bytes = 0;
  std::int64_t corrupted = 0;
  std::int64_t retransmits = 0;
  SpanTotals spans;

  const auto run_start = Clock::now();
  for (std::int64_t iteration = 1; seconds_since(run_start) < seconds; ++iteration) {
    if (iteration % kSetupEvery == 0) {
      set_up();
      continue;
    }
    spec.stamp(send, next_call);
    const bool traced = trace && (calls % 2 == 1);
    std::unique_ptr<Recorder> recorder;
    if (traced) {
      ObsOptions obs_options;
      obs_options.events_per_thread = 1 << 14;
      recorder = std::make_unique<Recorder>(obs_options);
      recorder->instant("perfbench.prime");  // allocates this thread's buffer now
    }
    const WirePoolStats before = comm->wire_stats();
    CallReport report;
    std::vector<std::vector<T>> recv;
    bool threw = false;
    const std::int64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const std::int64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
    const auto start = Clock::now();
    try {
      recv = spec.call(*comm, send, next_call, recorder.get(), report);
    } catch (const std::exception& error) {
      threw = true;
      std::cerr << "perfbench: call " << next_call << " threw: " << error.what() << "\n";
    }
    const double ms = seconds_since(start) * 1e3;
    const std::int64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
    const std::int64_t bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
    ++verdict.attempted;
    ++calls;
    ++next_call;
    if (threw || report.failed) {
      ++verdict.failed;
      continue;
    }
    verdict.check(transpose_matches<W>(send, recv),
                  "call " + std::to_string(next_call - 1) + " must match the transpose oracle");
    wire.add(wire_stats_delta(comm->wire_stats(), before));
    corrupted += report.corrupted;
    retransmits += report.retransmits;
    if (traced) {
      traced_ms.push_back(ms);
      spans.add(*recorder);
    } else {
      plain_ms.push_back(ms);
      if (windows.back().seconds >= 1.0) windows.emplace_back();
      windows.back().ms.push_back(ms);
      windows.back().completed += 1.0;
      windows.back().seconds += ms / 1e3;
      plain_allocs += allocs;
      plain_alloc_bytes += bytes;
    }
  }
  verdict.check(comm->wire_stats().outstanding_frames() == 0,
                "arena must report zero outstanding frames at the end");
  verdict.check(!plain_ms.empty(), "the run must complete at least one untraced call");
  if (windows.size() > 1 && windows.back().seconds < 1.0) windows.pop_back();

  const double parcels_per_call = static_cast<double>(N) * static_cast<double>(N);
  const double ok_calls = static_cast<double>(plain_ms.size() + traced_ms.size());
  MetricSet metrics;
  if (!trace) {
    metrics.add("setup_s", percentile(setup_s, 0.25), "s");
    metrics.add("peak_rss_mib", peak_rss_mib(), "MiB");
    metrics.add("parcels_per_s", calm_rate(windows) * parcels_per_call, "1/s");
    metrics.add("call_p50_ms", calm_percentile(windows, 0.50), "ms");
    metrics.add("call_p90_ms", calm_percentile(windows, 0.90), "ms");
  } else {
    verdict.check(!traced_ms.empty(), "the traced run must complete at least one traced call");
    verdict.check(spans.unmatched == 0, "every traced span must begin and end in order");
    verdict.check(spans.dropped == 0, "the recorder must drop no events");
    const auto traced_calls = static_cast<double>(traced_ms.size());
    const auto plain_calls = static_cast<double>(plain_ms.size());
    const auto per_traced = [&](double v) { return ratio(v, traced_calls); };
    const double rearrange = spans.self("phase");
    const double step = spans.total("step");
    const double seed_ms = spans.self("alltoall") + spans.self("verify");
    const double scatter = spans.total("permute");
    const double plan = spans.total("plan");
    double traced_total = 0.0;
    for (const double ms : traced_ms) traced_total += ms;
    const WirePoolStats& w = wire.sum;
    metrics.add("core.schedule.build_ms", median(build_ms), "ms");
    metrics.add("core.rearrange.ms_per_call", per_traced(rearrange), "ms");
    metrics.add("core.rearrange.parcels_per_call",
                ratio(static_cast<double>(w.parcels_rearranged), ok_calls), "count");
    metrics.add("core.step.ms_per_call", per_traced(step), "ms");
    metrics.add("core.seed.ms_per_call", per_traced(seed_ms), "ms");
    metrics.add("core.wire.messages_per_call", ratio(static_cast<double>(w.messages), ok_calls),
                "count");
    metrics.add("core.wire.runs_per_message",
                ratio(static_cast<double>(w.runs_encoded), static_cast<double>(w.messages)),
                "count");
    metrics.add("core.wire.contiguous_send_ratio",
                ratio(static_cast<double>(w.contiguous_sends), static_cast<double>(w.total_sends)),
                "ratio");
    metrics.add("core.wire.bytes_encoded_per_call",
                ratio(static_cast<double>(w.bytes_encoded), ok_calls), "B");
    metrics.add("core.wire.bytes_copied_per_parcel",
                ratio(static_cast<double>(w.bytes_copied), ok_calls * parcels_per_call), "B");
    metrics.add("core.wire.pool_hit_ratio",
                ratio(static_cast<double>(w.pool_hits),
                      static_cast<double>(w.pool_hits + w.pool_misses)),
                "ratio");
    metrics.add("core.wire.allocs_per_call", ratio(static_cast<double>(plain_allocs), plain_calls),
                "count");
    metrics.add("core.wire.alloc_kib_per_call",
                ratio(static_cast<double>(plain_alloc_bytes) / 1024.0, plain_calls), "KiB");
    if (W::kChecked) {
      metrics.add("core.integrity.corrupted_per_call",
                  ratio(static_cast<double>(corrupted), ok_calls), "count");
      metrics.add("core.integrity.retransmits_per_call",
                  ratio(static_cast<double>(retransmits), ok_calls), "count");
      metrics.add("runtime.plan.ms_per_call", per_traced(plan), "ms");
    } else {
      metrics.add("core.scatter.ms_per_call", per_traced(scatter), "ms");
    }
    metrics.add("util.crc32.gib_per_s",
                crc32_gib_per_s(static_cast<std::size_t>(ratio(static_cast<double>(w.bytes_encoded),
                                                               static_cast<double>(w.messages))),
                                derive(seed, 3)),
                "GiB/s");
    metrics.add("obs.trace.overhead_pct",
                (ratio(percentile(traced_ms, 0.5), percentile(plain_ms, 0.5)) - 1.0) * 100.0, "%");
    metrics.add("obs.trace.unattributed_pct",
                ratio(traced_total - (rearrange + step + seed_ms + scatter + plan), traced_total) *
                    100.0,
                "%");
    metrics.add("obs.trace.dropped", static_cast<double>(spans.dropped), "count");
    metrics.add("error_rate", verdict.error_rate(), "ratio");
  }
  verdict.check(metrics.all_finite(), "every metric must be finite");
  std::cout << "{\"correct\": " << (verdict.problems.empty() ? "true" : "false")
            << ", \"attempted\": " << verdict.attempted << ", \"failed\": " << verdict.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}

// --- service_overload ---------------------------------------------------

/// The torexd overload mix: 8 tenants (t7 over its byte quota, t6 capped
/// at one session in flight), weights 1..4, ~30% deadlines, open-loop
/// exponential arrivals on the virtual clock, health layer on with
/// recurring transient channel faults on scheduled routes.
///
/// kOfferedLoad is the arrival rate in exchanges per exchange time (one
/// exchange's phases at the manager's phase cost): 4/3 divided by
/// 7/8 * 7/10, about 2.18. The queue stays full: about a quarter of the
/// offered sessions are rejected (t7 quota, queue-full sheds) and about
/// a quarter miss their deadline (shed_ratio, deadline_miss_ratio).
struct ServiceWorkload {
  static TorusShape shape() { return TorusShape::make_2d(8, 8); }
  /// Sessions per epoch: one epoch is one fresh SessionManager driven
  /// until idle, which keeps memory bounded however long the run is.
  static constexpr std::int64_t kSessionsPerEpoch = 768;
  static constexpr double kOfferedLoad = (4.0 / 3.0) / ((7.0 / 8.0) * (7.0 / 10.0));

  explicit ServiceWorkload(std::uint64_t run_seed) : seed(run_seed), algo(shape()) {
    const ExchangeTrace trace = ExchangeEngine(algo, EngineOptions{}).run_verified();
    for (const StepRecord& step : trace.steps) {
      for (const TransferRecord& t : step.transfers) routes.push_back(t);
    }
  }

  /// Manager options for epoch `epoch`: faults flap on two scheduled
  /// routes, two ticks down per window, every ~150-250 dispatched phases.
  SessionManagerOptions options(std::int64_t epoch, Recorder* obs) const {
    const Rank N = shape().num_nodes();
    SplitMix64 rng{derive(seed, 0x20000 + static_cast<std::uint64_t>(epoch))};
    SessionManagerOptions o;
    o.max_active = 8;
    o.max_queued = 64;
    o.quotas["t7"].max_parcel_bytes =
        static_cast<std::int64_t>(N) * N * static_cast<std::int64_t>(sizeof(std::int64_t)) - 1;
    o.quotas["t6"].max_sessions_in_flight = 1;
    o.health.enabled = true;
    o.health.breaker.error_threshold = 2;
    o.health.breaker.open_ticks = 4;
    o.health.breaker.probe_jitter = 2;
    o.health.breaker.seed = rng.next();
    o.health.retries.capacity = 1'000'000;
    o.health.retries.refill_per_time = 1e-6;
    for (int f = 0; f < 2; ++f) {
      const TransferRecord& t = routes[rng.next() % routes.size()];
      o.service_faults.flap_channel(t.src, t.dir, static_cast<std::int64_t>(20 + rng.next() % 40),
                                    2, static_cast<std::int64_t>(150 + rng.next() % 100), 40);
    }
    o.obs = obs;
    o.repro_hint = "python3 perfbench/run.py --workload service_overload --seed " +
                   std::to_string(seed);
    return o;
  }

  /// The seeded word node p sends node q in session `tag`.
  std::int64_t payload(std::int64_t tag, Rank p, Rank q) const {
    const std::uint64_t salt = derive(seed, 0x30000 + static_cast<std::uint64_t>(tag));
    return static_cast<std::int64_t>(salt >> 20) ^ (static_cast<std::int64_t>(p) << 10) ^
           static_cast<std::int64_t>(q);
  }

  /// Next arrival of the epoch's open-loop process (arrival advances).
  SessionRequest request(std::int64_t tag, double& arrival, double phase_cost,
                         SplitMix64& rng) const {
    const Rank N = shape().num_nodes();
    const double mean_gap = static_cast<double>(algo.num_phases()) / kOfferedLoad;
    arrival += -mean_gap * phase_cost * std::log(rng.uniform());
    SessionRequest req;
    req.tenant = "t";
    req.tenant += std::to_string(rng.next() % 8);
    req.weight = static_cast<int>(1 + rng.next() % 4);
    req.arrival = arrival;
    if (rng.next() % 10 < 3) req.deadline = phase_cost * (4.0 + 16.0 * rng.uniform());
    req.send.resize(static_cast<std::size_t>(N));
    for (Rank p = 0; p < N; ++p) {
      auto& row = req.send[static_cast<std::size_t>(p)];
      row.resize(static_cast<std::size_t>(N));
      for (Rank q = 0; q < N; ++q) row[static_cast<std::size_t>(q)] = payload(tag, p, q);
    }
    return req;
  }

  std::uint64_t seed;
  SuhShinAape algo;
  std::vector<TransferRecord> routes;  ///< every scheduled transfer: fault victims
};

/// Per-run accumulators of the service workload.
struct ServiceTotals {
  // Every epoch: set-up is the constructor plus the timed calls up to
  // the first dispatch that executes a phase.
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  // Untraced epochs (end-to-end).
  std::vector<Window> plain_epochs;  ///< session latencies, completions, service seconds
  std::vector<double> plain_dispatch_us;
  // Traced epochs (per-layer).
  double traced_wall_s = 0.0;
  std::vector<double> traced_dispatch_us;
  double traced_run_one_s = 0.0;
  double traced_submit_s = 0.0;
  double traced_take_s = 0.0;
  std::int64_t traced_submits = 0;
  std::int64_t traced_takes = 0;
  std::int64_t traced_phases = 0;
  double queue_depth_sum = 0.0;
  std::int64_t queue_depth_samples = 0;
  std::vector<double> journal_bytes;
  std::int64_t wire_bytes_encoded = 0;
  std::int64_t wire_messages = 0;
  std::int64_t wire_pool_hits = 0;
  std::int64_t wire_pool_misses = 0;
  std::int64_t rerouted = 0;
  std::int64_t deferrals = 0;
  std::int64_t retry_denied = 0;
  std::int64_t flight_dumps = 0;
  std::vector<HistogramSnapshot> queue_wait;
  SpanTotals spans;
  // Every epoch.
  std::vector<double> session_phases;
  std::int64_t offered = 0;
  std::int64_t rejected = 0;
  std::int64_t deadline_missed = 0;
};

/// Merges histograms with identical bounds into one.
HistogramSnapshot merge_histograms(const std::vector<HistogramSnapshot>& parts) {
  HistogramSnapshot merged;
  bool first = true;
  for (const HistogramSnapshot& h : parts) {
    if (h.count == 0) continue;
    if (first) {
      merged = h;
      first = false;
      continue;
    }
    if (h.bounds != merged.bounds) continue;
    for (std::size_t i = 0; i < merged.counts.size(); ++i) merged.counts[i] += h.counts[i];
    merged.count += h.count;
    merged.sum += h.sum;
    merged.min = std::min(merged.min, h.min);
    merged.max = std::max(merged.max, h.max);
  }
  return merged;
}

/// Drives one epoch: a fresh manager, kSessionsPerEpoch sessions
/// generated as the virtual clock reaches their arrival, results taken
/// and verified as sessions complete.
void run_epoch(const ServiceWorkload& w, std::int64_t epoch, bool traced, ServiceTotals& totals,
               Verdict& verdict) {
  const Rank N = ServiceWorkload::shape().num_nodes();
  std::unique_ptr<Recorder> recorder;
  if (traced) {
    ObsOptions obs_options;
    obs_options.events_per_thread = 1 << 17;
    recorder = std::make_unique<Recorder>(obs_options);
    recorder->instant("perfbench.prime");
  }
  const SessionManagerOptions options = w.options(epoch, recorder.get());
  const auto ctor_start = Clock::now();
  SessionManager mgr(ServiceWorkload::shape(), CostParams{}, options);
  const double ctor_s = seconds_since(ctor_start);
  totals.build_ms.push_back(ctor_s * 1e3);
  const double pc = mgr.phase_cost();
  SplitMix64 rng{derive(w.seed, 0x40000 + static_cast<std::uint64_t>(epoch))};
  const std::int64_t tag0 = epoch * ServiceWorkload::kSessionsPerEpoch;

  struct Live {
    SessionId id;
    std::int64_t tag;
    double submitted_at;  ///< service clock at submit
  };
  std::vector<Live> live;
  double service_clock = 0.0;  // timed wall seconds spent inside the manager
  double arrival = 0.0;
  std::int64_t generated = 0;
  std::int64_t completed = 0;
  std::vector<double> session_ms;
  bool have_next = false;
  SessionRequest next;
  SvcStats last{};
  const auto retired_total = [](const SvcStats& s) {
    return s.completed + s.failed + s.cancelled + s.deadline_missed_running + s.rejected +
           s.deadline_missed_queued + s.cancelled_queued;
  };
  const auto timed = [&](auto&& fn, double& bucket) {
    const auto start = Clock::now();
    fn();
    const double dt = seconds_since(start);
    service_clock += dt;
    bucket += dt;
    return dt;
  };
  double submit_s = 0.0, run_one_s = 0.0, take_s = 0.0;
  std::int64_t submits = 0, takes = 0;

  const auto submit_next = [&] {
    SessionId id = -1;
    timed([&] { id = mgr.submit(std::move(next)); }, submit_s);
    ++submits;
    live.push_back({id, tag0 + generated, service_clock});
    ++generated;
    have_next = false;
  };
  const auto prepare_next = [&] {
    if (!have_next && generated < ServiceWorkload::kSessionsPerEpoch) {
      next = w.request(tag0 + generated, arrival, pc, rng);
      have_next = true;
    }
    return have_next;
  };

  for (;;) {
    // Offer every arrival due before the next dispatch.
    while (prepare_next() && next.arrival <= mgr.now() + pc) submit_next();
    bool busy = false;
    const double dt = timed([&] { busy = mgr.run_one(); }, run_one_s);
    if (!busy) {
      if (!prepare_next()) break;
      submit_next();  // idle until the next arrival: offer it now
      continue;
    }
    const SvcStats st = mgr.stats();
    if (st.phases_executed > last.phases_executed) {
      (traced ? totals.traced_dispatch_us : totals.plain_dispatch_us).push_back(dt * 1e6);
      if (last.phases_executed == 0) totals.setup_s.push_back(ctor_s + service_clock);
    }
    if (traced && recorder) {
      totals.queue_depth_sum +=
          static_cast<double>(recorder->metrics().gauge("svc.queued_sessions").value());
      ++totals.queue_depth_samples;
    }
    if (retired_total(st) != retired_total(last)) {
      for (std::size_t i = 0; i < live.size();) {
        const SessionRecord rec = mgr.record(live[i].id);
        if (!rec.terminal()) {
          ++i;
          continue;
        }
        if (rec.state == SessionState::kCompleted) {
          const double latency_ms = (service_clock - live[i].submitted_at) * 1e3;
          std::vector<std::vector<std::int64_t>> recv;
          timed([&] { recv = mgr.take_result(live[i].id); }, take_s);
          ++takes;
          ++completed;
          bool ok = static_cast<Rank>(recv.size()) == N;
          for (Rank q = 0; ok && q < N; ++q) {
            ok = static_cast<Rank>(recv[static_cast<std::size_t>(q)].size()) == N;
            for (Rank p = 0; ok && p < N; ++p) {
              ok = recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)] ==
                   w.payload(live[i].tag, p, q);
            }
          }
          verdict.check(ok, "session " + std::to_string(live[i].tag) +
                                " must match its seeded payload");
          totals.session_phases.push_back(rec.latency() / pc);
          session_ms.push_back(latency_ms);
          if (traced && completed % 8 == 0) {
            totals.journal_bytes.push_back(
                static_cast<double>(mgr.journal(live[i].id).encode().size()));
          }
        } else if (rec.state == SessionState::kFailed) {
          ++verdict.failed;
          std::cerr << "perfbench: session " << live[i].tag << " failed: " << rec.error << "\n";
        }
        live[i] = live.back();
        live.pop_back();
      }
    }
    last = st;
  }

  const SvcStats st = mgr.stats();
  verdict.attempted += st.offered;
  verdict.check(st.offered == ServiceWorkload::kSessionsPerEpoch,
                "every generated session must be offered");
  verdict.check(st.disposed() == st.offered, "every offered session must be disposed at idle");
  verdict.check(st.admitted == st.completed + st.failed + st.cancelled + st.deadline_missed_running,
                "every admitted session must land in exactly one terminal bucket");
  verdict.check(st.completed == completed, "every completed session must be verified");
  verdict.check(live.empty(), "no session may be left non-terminal at idle");
  verdict.check(mgr.outstanding_frames() == 0, "arena must report zero outstanding frames");
  totals.offered += st.offered;
  totals.rejected += st.rejected;
  totals.deadline_missed += st.deadline_missed();

  if (!traced) {
    totals.plain_epochs.push_back({std::move(session_ms), static_cast<double>(completed),
                                   service_clock});
    return;
  }
  totals.traced_wall_s += service_clock;
  totals.traced_run_one_s += run_one_s;
  totals.traced_submit_s += submit_s;
  totals.traced_take_s += take_s;
  totals.traced_submits += submits;
  totals.traced_takes += takes;
  totals.traced_phases += st.phases_executed;
  const WirePoolStats wire = mgr.wire_stats();
  totals.wire_bytes_encoded += wire.bytes_encoded;
  totals.wire_pool_hits += wire.pool_hits;
  totals.wire_pool_misses += wire.pool_misses;
  totals.wire_messages += wire.messages;
  const HealthStats health = mgr.health_stats();
  totals.rerouted += health.rerouted_messages;
  totals.deferrals += health.deferrals;
  totals.retry_denied += mgr.exposition_snapshot().counter_value("svc.retry.denied");
  totals.flight_dumps += static_cast<std::int64_t>(mgr.flight_dumps().size());
  for (const HistogramSnapshot& h : mgr.slo_snapshot().histograms) {
    if (h.name == "svc.slo.queue_wait") totals.queue_wait.push_back(h);
  }
  totals.spans.add(*recorder);
}

int run_service(std::uint64_t seed, double seconds, bool trace) {
  const TorusShape shape = ServiceWorkload::shape();
  print_provenance("service_overload", shape, static_cast<std::int64_t>(sizeof(std::int64_t)),
                   seed, seconds, trace);
  const ServiceWorkload w(seed);
  Verdict verdict;
  ServiceTotals totals;
  const auto run_start = Clock::now();
  for (std::int64_t epoch = 0; seconds_since(run_start) < seconds; ++epoch) {
    run_epoch(w, epoch, trace && epoch % 2 == 1, totals, verdict);
  }

  const Rank N = shape.num_nodes();
  const double parcels_per_session = static_cast<double>(N) * static_cast<double>(N);
  const double sessions_per_s = calm_rate(totals.plain_epochs);
  verdict.check(sessions_per_s > 0.0, "the run must complete sessions in untraced epochs");
  MetricSet metrics;
  if (!trace) {
    metrics.add("setup_s", percentile(totals.setup_s, 0.25), "s");
    metrics.add("peak_rss_mib", peak_rss_mib(), "MiB");
    metrics.add("parcels_per_s", sessions_per_s * parcels_per_session, "1/s");
    metrics.add("call_p50_ms", calm_percentile(totals.plain_epochs, 0.50), "ms");
    metrics.add("call_p90_ms", calm_percentile(totals.plain_epochs, 0.90), "ms");
  } else {
    verdict.check(!totals.traced_dispatch_us.empty() && !totals.plain_dispatch_us.empty(),
                  "the traced run must dispatch in both untraced and traced epochs");
    verdict.check(totals.spans.unmatched == 0, "every traced span must begin and end in order");
    verdict.check(totals.spans.dropped == 0, "the recorder must drop no events");
    const double phase_ms = totals.spans.total("svc.phase");
    const auto phases = static_cast<double>(totals.traced_phases);
    const HistogramSnapshot wait = merge_histograms(totals.queue_wait);
    const double offered = static_cast<double>(totals.offered);
    metrics.add("core.schedule.build_ms", median(totals.build_ms), "ms");
    metrics.add("util.crc32.gib_per_s",
                crc32_gib_per_s(static_cast<std::size_t>(ratio(
                                    static_cast<double>(totals.wire_bytes_encoded),
                                    static_cast<double>(totals.wire_messages))),
                                derive(seed, 3)),
                "GiB/s");
    metrics.add("sessions_per_s", sessions_per_s, "1/s");
    metrics.add("svc.dispatch.phase_us", ratio(phase_ms * 1e3, phases), "us");
    metrics.add("svc.dispatch.sched_us",
                ratio((totals.traced_run_one_s * 1e3 - phase_ms) * 1e3, phases), "us");
    metrics.add("svc.submit_us",
                ratio(totals.traced_submit_s * 1e6, static_cast<double>(totals.traced_submits)),
                "us");
    metrics.add("svc.take_result_us",
                ratio(totals.traced_take_s * 1e6, static_cast<double>(totals.traced_takes)), "us");
    metrics.add("svc.queue.depth_mean",
                ratio(totals.queue_depth_sum, static_cast<double>(totals.queue_depth_samples)),
                "count");
    metrics.add("svc.queue.wait_p50_phases", wait.percentile(0.5) / 1000.0, "phase-cost");
    metrics.add("svc.journal.bytes_per_session", median(totals.journal_bytes), "B");
    metrics.add("svc.wire.bytes_encoded_per_phase",
                ratio(static_cast<double>(totals.wire_bytes_encoded), phases), "B");
    metrics.add("svc.wire.pool_hit_ratio",
                ratio(static_cast<double>(totals.wire_pool_hits),
                      static_cast<double>(totals.wire_pool_hits + totals.wire_pool_misses)),
                "ratio");
    metrics.add("svc.health.rerouted_per_kphase",
                ratio(static_cast<double>(totals.rerouted) * 1000.0, phases), "count");
    metrics.add("svc.health.deferrals", static_cast<double>(totals.deferrals), "count");
    metrics.add("svc.retry.denied", static_cast<double>(totals.retry_denied), "count");
    metrics.add("svc.flight.dumps", static_cast<double>(totals.flight_dumps), "count");
    metrics.add("obs.trace.overhead_pct",
                (ratio(percentile(totals.traced_dispatch_us, 0.5),
                       percentile(totals.plain_dispatch_us, 0.5)) -
                 1.0) * 100.0,
                "%");
    metrics.add("obs.trace.unattributed_pct",
                ratio(totals.traced_wall_s * 1e3 - phase_ms - totals.traced_submit_s * 1e3 -
                          totals.traced_take_s * 1e3,
                      totals.traced_wall_s * 1e3) *
                    100.0,
                "%");
    metrics.add("obs.trace.dropped", static_cast<double>(totals.spans.dropped), "count");
    metrics.add("error_rate", verdict.error_rate(), "ratio");
    metrics.add("dispatch_p50_us", percentile(totals.plain_dispatch_us, 0.50), "us");
    metrics.add("dispatch_p99_us", percentile(totals.plain_dispatch_us, 0.99), "us");
    metrics.add("session_p50_phases", percentile(totals.session_phases, 0.50), "phase-cost");
    metrics.add("session_p99_phases", percentile(totals.session_phases, 0.99), "phase-cost");
    metrics.add("shed_ratio", ratio(static_cast<double>(totals.rejected), offered), "ratio");
    metrics.add("deadline_miss_ratio", ratio(static_cast<double>(totals.deadline_missed), offered),
                "ratio");
  }
  verdict.check(metrics.all_finite(), "every metric must be finite");
  std::cout << "{\"correct\": " << (verdict.problems.empty() ? "true" : "false")
            << ", \"attempted\": " << verdict.attempted << ", \"failed\": " << verdict.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags = CliFlags::parse(argc, argv, {"workload", "seed", "seconds", "trace"});
    const std::string workload = flags.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 0, 0, 1LL << 62));
    const double seconds = flags.get_double("seconds", 10.0);
    const bool trace = flags.get_int("trace", 0, 0, 1) == 1;
    if (!(seconds > 0.0 && seconds <= 60.0)) {
      throw std::invalid_argument("--seconds must be in (0, 60]");
    }
    if (workload == "alltoall_word") return run_collective<WordWorkload>(workload, seed, seconds, trace);
    if (workload == "checked_kib") return run_collective<KibWorkload>(workload, seed, seconds, trace);
    if (workload == "service_overload") return run_service(seed, seconds, trace);
    std::cerr << "perfbench: unknown --workload \"" << workload
              << "\" (alltoall_word, checked_kib, service_overload)\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
