// torex_trace — run one instrumented exchange and export its telemetry.
//
//   ./torex_trace [--torus=8x8] [--out=torex_trace.json]
//                 [--mode=engine|parallel|payload|checked|resumable]
//                 [--faults=0] [--corrupt=0] [--seed=0] [--threads=0]
//                 [--buffer=65536] [--block-bytes=64]
//                 [--journal=torex_journal.toxj] [--kill-at=PHASE]
//                 [--kill-step=1] [--resume] [--crash=0]
//
// Runs the Suh-Shin exchange on the given torus (extents multiples of
// four, sorted non-increasing, e.g. 8x8 or 8x4x4) with a telemetry
// recorder attached, writes the snapshot as Chrome trace-event JSON
// (load it in chrome://tracing or https://ui.perfetto.dev), and prints
// the per-phase summary: measured wall time next to the paper's
// four-parameter model prediction, plus every nonzero metric counter.
//
// Modes:
//   engine    sequential ExchangeEngine (default on a healthy network);
//   parallel  the step kernel (exchange_payloads_pooled) over int64 rows
//             on a --threads participant pool: 0 takes every hardware
//             thread, and the count is capped at the host's hardware
//             threads and at N. Workers record nothing, so the trace
//             holds one stream;
//   payload   communicator alltoall over real payloads;
//   checked   integrity-checked alltoall under injected faults
//             (--faults=K channel faults, --corrupt=K corrupting
//             channels) — retry, escalation, and recovery spans appear
//             in the trace and the retransmit counters go nonzero.
//   resumable crash-durable journaled alltoall. --kill-at=PHASE
//             (--kill-step=S, 1-based within the phase) arms a crash
//             point: the run journals to --journal=FILE, dies with a
//             saved journal, and prints its summary. A second
//             invocation with --resume loads that journal and finishes
//             the exchange as a delta — the report compares parcels
//             re-sent against a full restart. --crash=K instead crashes
//             K random nodes in the fault model so the heartbeat
//             failure detector fires (fd.suspect spans precede the
//             recovery.attempt spans in the trace) and the journaled
//             degraded path delivers the delta.
// --faults/--corrupt switch the default mode to `checked`;
// --kill-at/--resume/--crash switch it to `resumable`. The emitted
// JSON is validated with the built-in RFC 8259 checker before writing;
// buffer overflow (undersized --buffer) is reported as dropped events.
#include <algorithm>
#include <charconv>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/exchange_engine.hpp"
#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/recorder.hpp"
#include "runtime/communicator.hpp"
#include "sim/fault_model.hpp"
#include "topology/torus.hpp"
#include "util/cli.hpp"
#include "util/step_pool.hpp"

namespace {

using namespace torex;

/// Parses an "8x4x4"-style extent list (also accepts commas). Strict:
/// every extent must be a whole positive integer — "8x4q4", "8x", and
/// "8x-4" are rejected with the offending token named.
TorusShape parse_torus(const std::string& text) {
  std::vector<std::int32_t> extents;
  std::string token;
  std::istringstream in(text);
  while (std::getline(in, token, 'x')) {
    std::istringstream part(token);
    std::string sub;
    while (std::getline(part, sub, ',')) {
      std::int32_t extent = 0;
      const char* last = sub.data() + sub.size();
      const auto [ptr, ec] = std::from_chars(sub.data(), last, extent);
      if (sub.empty() || ec != std::errc{} || ptr != last || extent <= 0) {
        throw std::invalid_argument("--torus has a bad extent \"" + sub + "\" in \"" + text +
                                    "\" (want e.g. 8x8 or 8x4x4)");
      }
      extents.push_back(extent);
    }
  }
  if (extents.size() < 2) {
    throw std::invalid_argument("--torus needs at least two extents, e.g. --torus=8x8");
  }
  return TorusShape(extents);
}

std::vector<std::vector<std::int64_t>> make_send(Rank n) {
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    auto& row = send[static_cast<std::size_t>(p)];
    row.reserve(static_cast<std::size_t>(n));
    for (Rank q = 0; q < n; ++q) row.push_back(static_cast<std::int64_t>(p) * n + q);
  }
  return send;
}

/// True when `recv` is the transpose of make_send(n): recv[p][q] holds
/// what q sent to p.
bool is_transpose(const std::vector<std::vector<std::int64_t>>& recv, Rank n) {
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      const auto got = recv[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)];
      if (got != static_cast<std::int64_t>(q) * n + p) return false;
    }
  }
  return true;
}

/// Schedule trace without telemetry or per-transfer detail — the model
/// side of the summary join for runs that do not produce a trace
/// themselves (payload/checked modes).
ExchangeTrace schedule_trace(const SuhShinAape& algo) {
  EngineOptions options;
  options.check_phase_invariants = false;
  options.record_transfers = false;
  return ExchangeEngine(algo, options).run();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags = CliFlags::parse(
        argc, argv,
        {"torus", "out", "mode", "faults", "corrupt", "seed", "threads", "buffer",
         "block-bytes", "journal", "kill-at", "kill-step", "resume", "crash"});
    const TorusShape shape = parse_torus(flags.get_string("torus", "8x8"));
    const std::string out_path = flags.get_string("out", "torex_trace.json");
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    const int faults_k = static_cast<int>(flags.get_int("faults", 0, 0, kIntMax));
    const int corrupt_k = static_cast<int>(flags.get_int("corrupt", 0, 0, kIntMax));
    const std::uint64_t seed = static_cast<std::uint64_t>(
        flags.get_int("seed", 0, 0, std::numeric_limits<std::int64_t>::max()));
    const int kill_phase = static_cast<int>(flags.get_int("kill-at", 0, 0, kIntMax));
    const int kill_step = static_cast<int>(flags.get_int("kill-step", 1, 1, kIntMax));
    const bool do_resume = flags.get_bool("resume", false);
    const int crash_k = static_cast<int>(flags.get_int("crash", 0, 0, kIntMax));
    const bool wants_resumable = kill_phase > 0 || do_resume || crash_k > 0;
    const std::string mode = flags.get_string(
        "mode", wants_resumable           ? "resumable"
                : faults_k || corrupt_k   ? "checked"
                                          : "engine");

    ObsOptions obs_options;
    obs_options.events_per_thread =
        static_cast<std::size_t>(flags.get_int("buffer", 1 << 16, 1, 1 << 26));
    Recorder recorder(obs_options);

    CostParams params;
    params.m = flags.get_int("block-bytes", params.m, 1,
                             std::numeric_limits<std::int64_t>::max());
    const SuhShinAape algo(shape);

    std::cout << "torex_trace: " << shape.to_string() << " (" << shape.num_nodes()
              << " nodes), mode=" << mode;
    if (faults_k > 0) std::cout << ", faults=" << faults_k;
    if (corrupt_k > 0) std::cout << ", corrupt=" << corrupt_k;
    if (faults_k > 0 || corrupt_k > 0) std::cout << ", seed=" << seed;
    std::cout << "\n";

    ExchangeTrace trace;
    if (mode == "engine") {
      EngineOptions options;
      options.record_transfers = false;
      options.obs = &recorder;
      trace = ExchangeEngine(algo, options).run_verified();
    } else if (mode == "parallel") {
      // Sized the way TorusCommunicator sizes its pool: at most one
      // participant per hardware thread and per node.
      const auto hardware = std::max<std::int64_t>(std::thread::hardware_concurrency(), 1);
      const std::int64_t wanted = flags.get_int("threads", 0, 0, 4096);
      const auto participants = static_cast<int>(std::clamp<std::int64_t>(
          wanted == 0 ? hardware : std::min(wanted, hardware), 1, shape.num_nodes()));
      std::cout << "step kernel on " << participants << " participant(s)\n";
      StepPool pool(participants);
      WireExchangeOptions options;
      options.pool = &pool;
      options.obs = &recorder;
      const auto recv = exchange_payloads_pooled(algo, StepProgram(algo),
                                                 make_send(shape.num_nodes()), options);
      if (!is_transpose(recv, shape.num_nodes())) {
        std::cerr << "error: pooled exchange broke the AAPE permutation\n";
        return 1;
      }
      trace = schedule_trace(algo);
    } else if (mode == "payload") {
      const TorusCommunicator comm(shape, params);
      comm.alltoall(make_send(shape.num_nodes()), AlltoallAlgorithm::kSuhShin, params.m,
                    nullptr, &recorder);
      trace = schedule_trace(algo);
    } else if (mode == "checked") {
      const TorusCommunicator comm(shape, params);
      const Torus torus(shape);
      FaultModel fault_model;
      if (faults_k > 0) {
        fault_model.inject_random_channel_faults(torus, seed * 0x9E3779B9u + 0x7072u,
                                                 faults_k);
      }
      CorruptionModel corruption;
      if (corrupt_k > 0) {
        // Permanent corruption exhausts the retransmit budget and
        // escalates into recovery, so the trace exercises the retry,
        // escalation, and recovery span vocabulary.
        corruption.inject_random_corruptions(torus, seed * 0x9E3779B9u + 0xC0DEu,
                                             corrupt_k);
      }
      ResilienceOptions options;
      options.algorithm = AlltoallAlgorithm::kSuhShin;
      options.block_bytes = params.m;
      options.obs = &recorder;
      ExchangeOutcome outcome;
      comm.alltoall_checked(make_send(shape.num_nodes()), fault_model, corruption, outcome,
                            options);
      std::cout << "outcome: " << outcome.summary() << "\n";
      trace = schedule_trace(algo);
    } else if (mode == "resumable") {
      const TorusCommunicator comm(shape, params);
      const std::string journal_path = flags.get_string("journal", "torex_journal.toxj");
      const Rank N = shape.num_nodes();
      const auto send = make_send(N);

      FaultModel fault_model;
      if (crash_k > 0) {
        // Crash after a few heartbeats so the phi-accrual detector has
        // interval history to accrue suspicion against.
        fault_model.inject_random_crashes(Torus(shape), seed * 0x9E3779B9u + 0xDEADu,
                                          crash_k, /*crash_tick=*/8);
        for (const auto& crash : fault_model.crashes()) {
          std::cout << "injected: " << crash.describe() << "\n";
        }
      }

      ResumeOptions options;
      options.resilience.algorithm = AlltoallAlgorithm::kSuhShin;
      options.resilience.block_bytes = params.m;
      options.resilience.obs = &recorder;
      // Durability hook: the sink appends only the journal bytes that
      // are new since its last sync (the first sync rewrites), so the
      // on-disk state always trails the in-memory one by at most the
      // record being written — exactly the torn-tail case decode drops.
      JournalFileSink sink(journal_path);
      options.flush = [&](const ExchangeJournal& j) { sink.sync(j); };

      ExchangeOutcome outcome;
      if (do_resume) {
        ExchangeJournal journal = ExchangeJournal::load_file(journal_path);
        std::cout << "loaded " << journal.summary() << "\n";
        const auto recv = comm.resume(send, fault_model, journal, outcome, options);
        sink.sync(journal);
        if (!is_transpose(recv, N)) {
          std::cerr << "error: resumed exchange broke the AAPE permutation\n";
          return 1;
        }
        std::cout << "outcome: " << outcome.summary() << "\n";

        // Full-restart baseline: a fresh journaled run over the same
        // payloads, counted but not kept.
        ExchangeJournal fresh;
        ExchangeOutcome fresh_outcome;
        ResumeOptions fresh_options;
        fresh_options.resilience.algorithm = AlltoallAlgorithm::kSuhShin;
        comm.alltoall_resumable(send, FaultModel{}, fresh, fresh_outcome, fresh_options);
        const auto& r = *outcome.resume;
        std::cout << "resume re-sent " << r.sent_parcels << " parcels vs "
                  << fresh_outcome.resume->sent_parcels << " for a full restart ("
                  << r.replayed_parcels << " replayed locally, " << r.materialized
                  << " already durable, " << r.duplicates_dropped
                  << " duplicates dropped)\n";
      } else {
        if (kill_phase > 0) {
          options.crash = CrashPoint{kill_phase, kill_step, /*after_flush=*/true};
        }
        ExchangeJournal journal;
        try {
          const auto recv = comm.alltoall_resumable(send, fault_model, journal, outcome,
                                                    options);
          sink.sync(journal);
          if (!is_transpose(recv, N)) {
            std::cerr << "error: journaled exchange broke the AAPE permutation\n";
            return 1;
          }
          if (options.crash.armed()) {
            std::cout << "note: crash point (phase " << options.crash.phase << ", step "
                      << options.crash.step
                      << ") never fired — no such active step in this schedule\n";
          }
          std::cout << "outcome: " << outcome.summary() << "\n";
        } catch (const ExchangeCrashError& e) {
          sink.sync(journal);
          std::cout << "process died at phase " << e.phase() << " step " << e.step()
                    << " — " << journal.summary() << "\n";
          std::cout << "journal saved to " << journal_path << " (" << sink.rewrites()
                    << " rewrites, " << sink.appends() << " appends, "
                    << sink.bytes_written()
                    << " bytes written); re-run with --resume to finish the exchange\n";
        }
      }
      trace = schedule_trace(algo);
    } else {
      throw std::invalid_argument("unknown --mode=" + mode +
                                  " (engine|parallel|payload|checked)");
    }

    const Telemetry telemetry = recorder.snapshot();
    const std::string json = chrome_trace_json(telemetry);
    std::string error;
    if (!json_well_formed(json, &error)) {
      std::cerr << "internal error: emitted trace is not well-formed JSON: " << error
                << '\n';
      return 1;
    }
    {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) throw std::runtime_error("cannot open " + out_path + " for writing");
      out << json;
    }
    std::cout << "wrote " << out_path << " (" << telemetry.events.size() << " events, "
              << telemetry.streams << " stream(s), " << telemetry.dropped_events
              << " dropped)\n\n";

    print_phase_summary(std::cout, summarize_vs_model(telemetry, trace, params));

    bool any_counter = false;
    for (const auto& counter : telemetry.metrics.counters) {
      if (counter.value == 0) continue;
      if (!any_counter) std::cout << "\ncounters:\n";
      any_counter = true;
      std::cout << "  " << counter.name << " = " << counter.value << '\n';
    }
    for (const auto& histogram : telemetry.metrics.histograms) {
      if (histogram.count == 0) continue;
      std::cout << "  " << histogram.name << ": count=" << histogram.count
                << " mean=" << histogram.mean() << "ns min=" << histogram.min
                << " max=" << histogram.max << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
