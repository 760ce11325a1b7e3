// torexd load generator: seeded open-loop arrivals against the
// multi-session SessionManager, with overload on purpose.
//
// The generator submits --sessions exchanges (default 1200) whose
// arrival gaps are exponential with mean --mean-gap phase-costs. The
// default gap (3) against a service demand of num_phases phase-costs
// per session (4 on a 4x4 torus) makes the offered load ~4/3 of
// capacity, so the bounded queue fills and admission control must shed
// — which is the point: the bench demonstrates *graceful* overload
// degradation and audits its accounting.
//
// Tenants t0..t7 arrive round-robin-by-seed with weights 1..4. Two
// tenants carry deliberate quota pressure: t7's per-session byte quota
// is one byte short of a full exchange (every t7 session rejects with
// kParcelBytesQuota), and t6 may run at most one session at a time
// (its queued sessions wait without being rejected). ~30% of sessions
// carry deadlines; under overload some of them expire in the queue.
//
// The run is self-checking and exits non-zero on violation:
//   * conservation: admitted + rejected + deadline_missed_queued (+
//     cancelled_queued when a canceller thread runs) == offered, and
//     every admitted session lands in exactly one terminal bucket;
//   * fidelity: every completed session's recv matrix is byte-identical
//     to the transpose oracle (recv[q][p] == f(id, p, q));
//   * telemetry: svc.* counters match SvcStats and the active-sessions
//     gauge reads zero at idle;
//   * hygiene: the shared arena reports zero outstanding frames.
//
// --threads=J switches to the concurrency soak (the CI TSan job): J
// submitter threads race a canceller (every 17th session) against the
// scheduler thread. Interleaving is nondeterministic there, so the
// deterministic bucket splits are not asserted — conservation,
// fidelity, telemetry, and hygiene still are.
//
// --out=FILE (default BENCH_svc.json) receives the results as JSON:
// parcels/sec, p50/p99 session latency (virtual time), and the shed
// rate, alongside the full disposition accounting and a provenance
// record (provenance.hpp).
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "costmodel/params.hpp"
#include "provenance.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/exposition.hpp"
#include "obs/recorder.hpp"
#include "svc/session_manager.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace torex;

TorusShape parse_torus(const std::string& text) {
  std::vector<std::int32_t> extents;
  std::string token;
  std::istringstream in(text);
  while (std::getline(in, token, 'x')) {
    std::int32_t extent = 0;
    const char* last = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), last, extent);
    if (token.empty() || ec != std::errc{} || ptr != last || extent <= 0) {
      throw std::invalid_argument("--shape has a bad extent \"" + token + "\" in \"" + text +
                                  "\" (want e.g. 4x4 or 8x4x4)");
    }
    extents.push_back(extent);
  }
  if (extents.size() < 2) {
    throw std::invalid_argument("--shape needs at least two extents, e.g. --shape=4x4");
  }
  return TorusShape(extents);
}

/// SplitMix64: tiny, seedable, and identical everywhere — the whole
/// arrival process replays from --seed.
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in (0, 1].
  double uniform() {
    return (static_cast<double>(next() >> 11) + 1.0) / 9007199254740993.0;
  }
};

/// The oracle payload node p sends node q in session `id`.
std::int64_t payload(SessionId id, Rank p, Rank q) {
  return (id << 20) ^ (static_cast<std::int64_t>(p) << 10) ^ static_cast<std::int64_t>(q);
}

SessionRequest make_request(SessionId id, Rank N, double arrival, double phase_cost,
                            SplitMix64& rng) {
  SessionRequest req;
  req.tenant = "t";  // two-step concat dodges GCC 12's -Wrestrict false positive
  req.tenant += std::to_string(rng.next() % 8);
  req.weight = static_cast<int>(1 + rng.next() % 4);
  req.arrival = arrival;
  if (rng.next() % 10 < 3) {
    // A deadline between 4x and 20x one phase: generous against pure
    // service time, tight against overload queueing.
    req.deadline = phase_cost * (4.0 + 16.0 * rng.uniform());
  }
  req.send.resize(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    auto& row = req.send[static_cast<std::size_t>(p)];
    row.resize(static_cast<std::size_t>(N));
    for (Rank q = 0; q < N; ++q) {
      row[static_cast<std::size_t>(q)] = payload(id, p, q);
    }
  }
  return req;
}

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::cerr << "SELF-CHECK FAILED: " << what << "\n";
}

/// Publishes the live exposition snapshot atomically: write to a
/// sibling .tmp, then rename over the target. Readers (torex_top)
/// therefore never observe a torn file.
void publish_snapshot(const SessionManager& mgr, const std::string& path) {
  const std::string text = prometheus_text(mgr.exposition_snapshot());
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << text;
    if (!out) {
      check(false, "cannot write snapshot file " + tmp);
      return;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    check(false, "cannot publish snapshot file " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags = CliFlags::parse(
        argc, argv,
        {"shape", "sessions", "seed", "threads", "mean-gap", "max-active", "max-queued", "out",
         "snapshot", "snapshot-every"});
    const TorusShape shape = parse_torus(flags.get_string("shape", "4x4"));
    const auto num_sessions = flags.get_int("sessions", 1200, 1, 1000000);
    const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 42, 0, 1LL << 62));
    const int threads = static_cast<int>(flags.get_int("threads", 0, 0, 64));
    const double mean_gap = flags.get_double("mean-gap", 3.0);
    const std::string out_path = flags.get_string("out", "BENCH_svc.json");
    const std::string snapshot_path = flags.get_string("snapshot", "");
    const auto snapshot_every = flags.get_int("snapshot-every", 64, 1, 1 << 20);
    const Rank N = shape.num_nodes();

    SessionManagerOptions options;
    options.max_active = static_cast<int>(flags.get_int("max-active", 8, 1, 1024));
    options.max_queued = static_cast<int>(flags.get_int("max-queued", 64, 1, 1 << 20));
    // t7: one byte short of a full exchange — every session rejects at
    // admission. t6: at most one session in flight at a time.
    options.quotas["t7"].max_parcel_bytes =
        static_cast<std::int64_t>(N) * N * static_cast<std::int64_t>(sizeof(std::int64_t)) - 1;
    options.quotas["t6"].max_sessions_in_flight = 1;
    Recorder recorder;
    options.obs = &recorder;
    // Flight dumps from this run carry the exact command to replay it.
    {
      std::ostringstream hint;
      hint << "svc_loadgen --shape=" << flags.get_string("shape", "4x4")
           << " --sessions=" << num_sessions << " --seed=" << seed << " --threads=" << threads
           << " --mean-gap=" << mean_gap << " --max-active=" << options.max_active
           << " --max-queued=" << options.max_queued;
      options.repro_hint = hint.str();
    }

    SessionManager mgr(shape, CostParams{}, options);
    const double phase_cost = mgr.phase_cost();

    // Precompute the seeded open-loop arrival plan so the threaded soak
    // offers the same load as the deterministic run.
    SplitMix64 rng{seed};
    std::vector<SessionRequest> plan;
    plan.reserve(static_cast<std::size_t>(num_sessions));
    double arrival = 0.0;
    for (SessionId id = 0; id < num_sessions; ++id) {
      arrival += -mean_gap * phase_cost * std::log(rng.uniform());
      plan.push_back(make_request(id, N, arrival, phase_cost, rng));
    }

    std::cout << "svc_loadgen: " << num_sessions << " sessions on " << shape.to_string() << " ("
              << N << " nodes), seed " << seed << ", mean gap " << mean_gap
              << " phase-costs, threads " << threads << "\n";

    // Racing submitters make the manager-assigned session id diverge
    // from the plan index that seeded the payloads, so the oracle must
    // be keyed through this map. Each submit writes one distinct slot
    // (assigned ids are unique), so concurrent writes never collide.
    std::vector<std::int64_t> plan_tag(static_cast<std::size_t>(num_sessions), -1);

    const auto wall_start = std::chrono::steady_clock::now();
    bool cancels_injected = false;
    if (threads == 0) {
      std::int64_t i = 0;
      for (auto& req : plan) plan_tag[static_cast<std::size_t>(mgr.submit(std::move(req)))] = i++;
      if (snapshot_path.empty()) {
        mgr.run_until_idle();
      } else {
        // Live-feed mode: publish the exposition snapshot every K
        // dispatched phases so torex_top can watch the run.
        std::int64_t dispatched = 0;
        while (mgr.run_one()) {
          if (++dispatched % snapshot_every == 0) publish_snapshot(mgr, snapshot_path);
        }
      }
    } else {
      // Concurrency soak: submitters and a canceller race the scheduler.
      cancels_injected = true;
      std::atomic<std::int64_t> next{0};
      std::atomic<bool> done_submitting{false};
      std::vector<std::thread> submitters;
      submitters.reserve(static_cast<std::size_t>(threads));
      for (int t = 0; t < threads; ++t) {
        submitters.emplace_back([&] {
          for (;;) {
            const std::int64_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= num_sessions) return;
            const SessionId sid = mgr.submit(std::move(plan[static_cast<std::size_t>(i)]));
            plan_tag[static_cast<std::size_t>(sid)] = i;
          }
        });
      }
      std::thread canceller([&] {
        std::int64_t cancelled_upto = 0;
        while (!done_submitting.load(std::memory_order_acquire)) {
          const std::int64_t submitted = mgr.sessions();
          for (; cancelled_upto < submitted; ++cancelled_upto) {
            if (cancelled_upto % 17 == 0) mgr.cancel(cancelled_upto);
          }
          std::this_thread::yield();
        }
      });
      while (!done_submitting.load(std::memory_order_acquire)) {
        if (!mgr.run_one() && next.load(std::memory_order_relaxed) >= num_sessions) {
          done_submitting.store(true, std::memory_order_release);
        }
      }
      for (auto& t : submitters) t.join();
      canceller.join();
      mgr.run_until_idle();
    }
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - wall_start)
                               .count();

    const SvcStats stats = mgr.stats();

    // --- Conservation: nothing admitted, shed, or expired goes missing.
    check(stats.offered == num_sessions, "offered must equal submitted sessions");
    check(stats.disposed() == stats.offered,
          "admitted + rejected + deadline_missed_queued + cancelled_queued must equal offered");
    check(stats.admitted == stats.completed + stats.failed + stats.cancelled +
                                stats.deadline_missed_running,
          "every admitted session must land in exactly one terminal bucket");
    if (threads == 0) {
      check(stats.cancelled_queued == 0 && stats.cancelled == 0 && stats.failed == 0,
            "deterministic run has no cancels and no failures");
      check(stats.rejected > 0, "overload plan must shed (raise --sessions or lower --mean-gap)");
      check(stats.deadline_missed() > 0, "overload plan must miss some deadlines");
    }
    check(stats.completed > 0, "some sessions must complete");

    // --- Fidelity: every completed exchange matches the oracle.
    std::vector<double> latencies;
    std::int64_t verified = 0;
    for (SessionId id = 0; id < mgr.sessions(); ++id) {
      const SessionRecord rec = mgr.record(id);
      check(rec.terminal(), "all sessions must be terminal at idle");
      if (rec.state != SessionState::kCompleted) continue;
      latencies.push_back(rec.latency());
      const auto recv = mgr.take_result(id);
      const std::int64_t tag = plan_tag[static_cast<std::size_t>(id)];
      bool ok = tag >= 0 && static_cast<Rank>(recv.size()) == N;
      for (Rank q = 0; ok && q < N; ++q) {
        for (Rank p = 0; ok && p < N; ++p) {
          ok = recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)] == payload(tag, p, q);
        }
      }
      check(ok, "completed session " + std::to_string(id) + " must match the transpose oracle");
      ++verified;
    }
    check(verified == stats.completed, "every completed session must be verified");

    // --- Telemetry: counters mirror SvcStats; gauges read idle.
    const Telemetry telemetry = recorder.snapshot();
    check(telemetry.metrics.counter_value("svc.admitted") == stats.admitted,
          "svc.admitted counter must match stats");
    check(telemetry.metrics.counter_value("svc.rejected") == stats.rejected,
          "svc.rejected counter must match stats");
    check(telemetry.metrics.counter_value("svc.deadline_missed") == stats.deadline_missed(),
          "svc.deadline_missed counter must match stats");
    check(telemetry.metrics.gauge_value("svc.active_sessions") == 0,
          "active-sessions gauge must read zero at idle");
    check(telemetry.metrics.gauge_value("svc.queued_sessions") == 0,
          "queued-sessions gauge must read zero at idle");

    // --- Hygiene: the shared arena leaked nothing.
    check(mgr.outstanding_frames() == 0, "arena must report zero outstanding frames at idle");

    // --- Exposition: the labeled snapshot agrees with SvcStats and
    // both wire formats lint clean.
    const MetricsSnapshot expo = mgr.exposition_snapshot();
    check(expo.counter_value("svc.offered") == stats.offered,
          "exposition svc.offered must match stats");
    check(expo.counter_value("svc.completed") == stats.completed,
          "exposition svc.completed must match stats");
    check(expo.counter_value("svc.parcels_delivered") == stats.parcels_delivered,
          "exposition svc.parcels_delivered must match stats");
    check(expo.gauge_value("svc.active_sessions") == 0,
          "exposition active-sessions gauge must read zero at idle");
    std::string lint_error;
    check(prometheus_text_well_formed(prometheus_text(expo), &lint_error),
          "prometheus exposition must lint: " + lint_error);
    check(json_well_formed(json_snapshot(expo), &lint_error),
          "json exposition must lint: " + lint_error);
    if (!snapshot_path.empty()) {
      publish_snapshot(mgr, snapshot_path);
      std::cout << "published final snapshot to " << snapshot_path << "\n";
    }

    std::sort(latencies.begin(), latencies.end());
    const double p50 = percentile(latencies, 0.50);
    const double p99 = percentile(latencies, 0.99);
    const double shed_rate =
        static_cast<double>(stats.rejected) / static_cast<double>(stats.offered);
    const double parcels_per_sec =
        wall_ms > 0 ? static_cast<double>(stats.parcels_delivered) / (wall_ms / 1e3) : 0.0;

    TextTable table({"metric", "value"});
    table.set_align(0, TextTable::Align::kLeft);
    table.start_row().cell("offered").cell(stats.offered);
    table.start_row().cell("admitted").cell(stats.admitted);
    table.start_row().cell("rejected (shed)").cell(stats.rejected);
    table.start_row().cell("deadline missed").cell(stats.deadline_missed());
    table.start_row().cell("cancelled").cell(stats.cancelled + stats.cancelled_queued);
    table.start_row().cell("completed").cell(stats.completed);
    table.start_row().cell("failed").cell(stats.failed);
    table.start_row().cell("phases executed").cell(stats.phases_executed);
    table.start_row().cell("parcels delivered").cell(stats.parcels_delivered);
    table.start_row().cell("shed rate").cell(shed_rate, 3);
    table.start_row().cell("p50 latency (vt)").cell(p50, 1);
    table.start_row().cell("p99 latency (vt)").cell(p99, 1);
    table.start_row().cell("parcels/sec").cell(parcels_per_sec, 0);
    table.start_row().cell("wall ms").cell(wall_ms, 1);
    table.print(std::cout);

    std::ostringstream json;
    json << "{\n  \"bench\": \"svc\",\n"
         << "  \"provenance\": " << bench::provenance_json() << ",\n"
         << "  \"shape\": \"" << shape.to_string() << "\",\n"
         << "  \"nodes\": " << N << ",\n"
         << "  \"sessions\": " << num_sessions << ",\n"
         << "  \"seed\": " << seed << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"mean_gap_phase_costs\": " << mean_gap << ",\n"
         << "  \"phase_cost\": " << phase_cost << ",\n"
         << "  \"max_active\": " << options.max_active << ",\n"
         << "  \"max_queued\": " << options.max_queued << ",\n"
         << "  \"cancels_injected\": " << (cancels_injected ? "true" : "false") << ",\n"
         << "  \"stats\": {\n"
         << "    \"offered\": " << stats.offered << ",\n"
         << "    \"admitted\": " << stats.admitted << ",\n"
         << "    \"rejected\": " << stats.rejected << ",\n"
         << "    \"deadline_missed_queued\": " << stats.deadline_missed_queued << ",\n"
         << "    \"deadline_missed_running\": " << stats.deadline_missed_running << ",\n"
         << "    \"cancelled_queued\": " << stats.cancelled_queued << ",\n"
         << "    \"cancelled\": " << stats.cancelled << ",\n"
         << "    \"completed\": " << stats.completed << ",\n"
         << "    \"failed\": " << stats.failed << ",\n"
         << "    \"phases_executed\": " << stats.phases_executed << ",\n"
         << "    \"parcels_delivered\": " << stats.parcels_delivered << "\n"
         << "  },\n"
         << "  \"shed_rate\": " << shed_rate << ",\n"
         << "  \"p50_latency_vt\": " << p50 << ",\n"
         << "  \"p99_latency_vt\": " << p99 << ",\n"
         << "  \"p50_latency_phases\": " << (phase_cost > 0 ? p50 / phase_cost : 0) << ",\n"
         << "  \"p99_latency_phases\": " << (phase_cost > 0 ? p99 / phase_cost : 0) << ",\n"
         << "  \"parcels_per_sec\": " << parcels_per_sec << ",\n"
         << "  \"wall_ms\": " << wall_ms << ",\n"
         << "  \"pass\": " << (g_failures == 0 ? "true" : "false") << "\n}\n";

    std::string error;
    if (!json_well_formed(json.str(), &error)) {
      std::cerr << "internal error: " << out_path << " is not well-formed: " << error << "\n";
      return 1;
    }
    std::ofstream out(out_path);
    out << json.str();
    if (!out) {
      std::cerr << "error: cannot write " << out_path << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << "\n";
    if (g_failures > 0) {
      std::cerr << g_failures << " self-check(s) failed\n";
      return 1;
    }
    std::cout << "all self-checks passed\n";
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "svc_loadgen: " << error.what() << "\n";
    return 1;
  }
}
