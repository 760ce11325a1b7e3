// torex_verify — exhaustive self-verification sweep.
//
//   ./torex_verify [--max-nodes=800] [--max-dims=4] [--flit-level]
//                  [--layout] [--static-nodes=0] [--faults=0]
//                  [--chaos=0] [--kill-rate=0] [--sessions=0]
//                  [--storm=0] [--seed=0] [--trace=FILE]
//
// Enumerates every valid torus shape (extents multiples of four, sorted
// non-increasing) up to the node budget and dimension cap, and runs the
// full verification stack on each:
//   * engine execution + AAPE postcondition + phase invariants
//   * per-step contention check (max channel load must be 1)
//   * Table 1 count checks (startups, blocks, hops)
//   * optionally (--layout) the §3.3 layout audit, plus the compiled
//     StepProgram of both layouts replayed on the pooled wire: transpose
//     delivered, run accounting equal to the layout simulator's
//   * optionally (--flit-level) stall-freedom in the wormhole simulator
//   * optionally (--static-nodes=K) static contention proofs on shapes
//     up to K nodes that are too large to execute
//   * optionally (--faults=K) a degraded-mode sweep: K seeded permanent
//     channel faults injected per shape, the exchange re-run under every
//     recovery policy, and the AAPE permutation re-checked
//   * optionally (--chaos=R) a chaos differential sweep: R seeded runs
//     per chaos shape (4x4 and 8x4x4), each injecting a random mix of
//     corruption faults (bit flips / truncations, transient and
//     permanent windows) and channel faults, run through the checked
//     exchange and compared against the sequential oracle. Every run
//     must either match the oracle exactly or end in a *detected,
//     attributed* failure — one silently wrong element fails the sweep.
//   * optionally (--kill-rate=P) a kill-and-resume sweep on the chaos
//     shapes: a P-percent share of the rounds kills the journaled
//     exchange at a schedule step, round-trips its journal (tearing some
//     tails) and resumes it against the oracle. The rounds then run
//     again with one seeded node crashed from tick 0: every plan must be
//     a remap, which runs the same program, so the pass must count the
//     same kills, re-sent parcels, duplicates and torn tails.
//   * optionally (--sessions=K) a multi-session kill-one-tenant sweep:
//     K sessions share one torexd SessionManager, one victim per round
//     carries a rotating failure mode (journal-window crash, corrupted
//     wire frame, arena frame quota of one, mid-run cancel), and every
//     survivor must complete byte-identical to the oracle with exactly
//     the single-session parcel count — zero cross-session blast radius.
//   * optionally (--storm=K) a mid-flight fault/flap storm sweep: K
//     concurrent sessions run under torexd's health layer while the
//     service fault model flaps a scheduled channel, kills another for
//     a whole phase, and crashes+rejoins a node. Asserts zero silent
//     corruption, bounded retry amplification (parcels resent == budget
//     tokens granted <= capacity + refilled), first-discoverer-heals-all
//     (per-channel degradation-chain walks <= covering fault windows),
//     detector suspicion of the crashed node, and breaker convergence
//     back to closed once the storm passes; a second, tight-budget
//     round proves denied retries defer (queue) rather than fire.
// --seed=S perturbs every seeded sweep (faults and chaos) and is echoed
// in the report so failures are reproducible; every chaos-harness FAIL
// line also prints the one-command repro (sweep flag + seed, and the
// failing session where there is one). Exits non-zero on the
// first failure. This is the tool to run after touching the pattern or
// schedule code on a machine with more budget than CI.
//
// --trace=FILE attaches a telemetry recorder to every run in the sweep
// (engine executions, fault recoveries, chaos rounds) and dumps the
// merged Chrome trace-event JSON to FILE at the end. A large sweep can
// overflow the bounded event buffers; any dropped event FAILS the run
// (a truncated trace must never be mistaken for a complete one) —
// raise --trace-capacity (events per thread) until the sweep fits.
//
// The session sweeps also audit the flight recorder: every injected
// victim failure must retire carrying a parseable black-box dump whose
// final events land on the failing phase, and every storm must leave
// parseable breaker-trip dumps behind. Offending dumps are saved as
// flight_*.txt artifacts for CI to upload.
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <vector>

#include "core/data_array.hpp"
#include "core/exchange_engine.hpp"
#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/recorder.hpp"
#include "runtime/communicator.hpp"
#include "sim/contention.hpp"
#include "sim/fault_model.hpp"
#include "sim/wormhole.hpp"
#include "svc/session_manager.hpp"
#include "tagged.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"

namespace {

using namespace torex;

/// Recursively enumerates sorted multiple-of-four shapes within budget.
void enumerate(std::vector<std::int32_t>& prefix, std::int64_t nodes_so_far,
               std::int64_t max_nodes, int max_dims, std::int32_t max_extent,
               std::vector<std::vector<std::int32_t>>& out) {
  if (prefix.size() >= 2) out.push_back(prefix);
  if (static_cast<int>(prefix.size()) == max_dims) return;
  for (std::int32_t e = 4; e <= max_extent; e += 4) {
    if (nodes_so_far * e > max_nodes) break;
    prefix.push_back(e);
    enumerate(prefix, nodes_so_far * e, max_nodes, max_dims, e, out);
    prefix.pop_back();
  }
}

/// Deterministic per-shape seed so fault sweeps are reproducible.
/// `base` is the --seed override (0 keeps the historical stream).
std::uint64_t shape_seed(const TorusShape& shape, std::uint64_t base) {
  std::uint64_t seed = 0x7072u;
  for (int d = 0; d < shape.num_dims(); ++d) {
    seed = seed * 1000003u + static_cast<std::uint64_t>(shape.extent(d));
  }
  return seed ^ (base * 0x9E3779B97F4A7C15u);
}

/// One-command repro echoed with every chaos-harness FAIL: the sweep
/// flag plus the seed pins the exact failing run (the chaos shapes are
/// fixed, so --max-nodes=4 skips the unrelated enumeration sweep).
std::string repro_command(const std::string& sweep_flags, std::uint64_t base_seed) {
  return "torex_verify --max-nodes=4 " + sweep_flags + " --seed=" + std::to_string(base_seed);
}

std::string repro(const std::string& sweep_flags, std::uint64_t base_seed) {
  return "  repro: " + repro_command(sweep_flags, base_seed);
}

/// Saves a flight-recorder dump next to the binary so CI can upload it
/// alongside the FAIL line.
void save_flight_artifact(const std::string& tag, const std::string& text) {
  const std::string path = "flight_" + tag + ".txt";
  std::ofstream out(path);
  if (out) {
    out << text;
    std::cerr << "  flight-recorder artifact saved: " << path << '\n';
  } else {
    std::cerr << "  flight-recorder artifact NOT saved: cannot write " << path << '\n';
  }
}

/// The --layout audit of the compiled program: compiles the schedule
/// under `policy`, replays it over Tagged payloads (each naming its own
/// origin and destination) on the pooled wire, and requires the
/// transpose slot for slot plus run accounting identical to `expected`,
/// the layout simulator's stats under the same policy. Returns false
/// (after printing a FAIL line) otherwise.
bool verify_step_program(const SuhShinAape& algo, LayoutPolicy policy,
                         const LayoutStats& expected) {
  const std::string tag = algo.shape().to_string() + (policy == LayoutPolicy::kPaper
                                                           ? " (paper layout)"
                                                           : " (naive layout)");
  const Rank N = algo.shape().num_nodes();
  const std::uint64_t salt =
      static_cast<std::uint64_t>(N) * 0x51ED + (policy == LayoutPolicy::kPaper ? 1 : 0);
  WireArena arena;
  WireExchangeOptions options;
  options.arena = &arena;
  const auto delivered = exchange_payloads_pooled(algo, StepProgram(algo, policy),
                                                  testing::tagged_rows(N, salt), options);
  if (const std::string wrong = testing::transpose_mismatch(N, delivered, salt); !wrong.empty()) {
    std::cerr << "FAIL " << tag << ": compiled program misplaced a payload: " << wrong << "\n";
    return false;
  }
  const WirePoolStats& wire = arena.stats();
  if (wire.total_sends != expected.total_sends ||
      wire.contiguous_sends != expected.contiguous_sends ||
      wire.gathered_parcels != expected.gathered_blocks ||
      wire.max_runs_per_send != expected.max_runs_per_send ||
      wire.runs_encoded != expected.total_runs) {
    std::cerr << "FAIL " << tag << ": compiled program's runs (" << wire.runs_encoded
              << " over " << wire.total_sends << " sends) diverge from the layout simulator's ("
              << expected.total_runs << " over " << expected.total_sends << ")\n";
    return false;
  }
  return true;
}

/// Re-runs the exchange with `faults_k` seeded permanent channel faults
/// under every recovery policy and re-checks the AAPE permutation.
/// Returns false (after printing a FAIL line) on any divergence.
bool verify_faulted_exchange(const TorusShape& shape, int faults_k, std::uint64_t base_seed,
                             Recorder* obs) {
  const TorusCommunicator comm(shape, CostParams{});
  FaultModel faults;
  faults.inject_random_channel_faults(Torus(shape), shape_seed(shape, base_seed), faults_k);
  const Rank N = comm.size();
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    auto& row = send[static_cast<std::size_t>(p)];
    row.reserve(static_cast<std::size_t>(N));
    for (Rank q = 0; q < N; ++q) row.push_back(static_cast<std::int64_t>(p) * N + q);
  }
  for (RecoveryPolicy policy :
       {RecoveryPolicy::kRetryBackoff, RecoveryPolicy::kRemap, RecoveryPolicy::kFallbackDirect,
        RecoveryPolicy::kAuto}) {
    ResilienceOptions options;
    options.algorithm = AlltoallAlgorithm::kSuhShin;
    options.policy = policy;
    options.obs = obs;
    ExchangeOutcome outcome;
    const auto recv = comm.alltoall_resilient(send, faults, outcome, options);
    for (Rank q = 0; q < N; ++q) {
      for (Rank p = 0; p < N; ++p) {
        if (recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)] !=
            send[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)]) {
          std::cerr << "FAIL " << shape.to_string() << ": faulted exchange broke the AAPE "
                    << "permutation under policy " << to_string(policy) << " ("
                    << outcome.summary() << ")\n";
          return false;
        }
      }
    }
  }
  return true;
}

/// Chaos differential sweep over one shape: `runs` seeded rounds, each
/// injecting a random mix of corruption faults (kind, count, window)
/// and channel faults, executed through the checked exchange and
/// compared element-by-element against the trivial oracle
/// (recv[q][p] == send[p][q]). A run may legitimately end in a thrown,
/// attributed failure (the integrity layer refusing to deliver); what
/// it must never do is return silently wrong data or hang. Prints a
/// per-shape tally and returns false on the first silent corruption.
bool chaos_sweep(const TorusShape& shape, int runs, std::uint64_t base_seed, Recorder* obs) {
  const std::string chaos_repro = repro("--chaos=" + std::to_string(runs), base_seed);
  const TorusCommunicator comm(shape, CostParams{});
  const Torus torus(shape);
  const Rank N = comm.size();
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    auto& row = send[static_cast<std::size_t>(p)];
    row.reserve(static_cast<std::size_t>(N));
    for (Rank q = 0; q < N; ++q) row.push_back(static_cast<std::int64_t>(p) * N + q);
  }

  std::int64_t clean = 0, corrected = 0, escalated = 0, detected = 0;
  for (int run = 0; run < runs; ++run) {
    SplitMix64 rng(shape_seed(shape, base_seed) + static_cast<std::uint64_t>(run));
    // 1-3 corrupting channels; roughly half get a short transient
    // window (heals under retransmission), the rest are permanent
    // (must escalate into recovery).
    CorruptionModel corruption;
    const int corruptions = 1 + static_cast<int>(rng.next_below(3));
    for (int c = 0; c < corruptions; ++c) {
      const std::int64_t until = (rng.next() & 1u) != 0
                                     ? static_cast<std::int64_t>(1 + rng.next_below(3))
                                     : kFaultForever;
      corruption.inject_random_corruptions(torus, rng.next(), 1, 0, until);
    }
    // Every other run also loses a channel outright, so corruption
    // recovery and channel-fault recovery compose.
    FaultModel faults;
    if ((run & 1) != 0) faults.inject_random_channel_faults(torus, rng.next(), 1);

    ResilienceOptions options;
    options.algorithm = AlltoallAlgorithm::kSuhShin;
    options.obs = obs;
    ExchangeOutcome outcome;
    std::vector<std::vector<std::int64_t>> recv;
    try {
      recv = comm.alltoall_checked(send, faults, corruption, outcome, options);
    } catch (const IntegrityError&) {
      // A loud, attributed refusal is an acceptable chaos outcome —
      // the property under test is "no silent corruption", not "always
      // deliverable".
      ++detected;
      continue;
    } catch (const FaultedExchangeError&) {
      ++detected;
      continue;
    } catch (const std::exception& e) {
      // Anything else — a lost-parcel TOREX_CHECK, a bad_alloc, an
      // invariant violation — is a genuine failure, not a detected
      // fault, and must fail the sweep (and CI) loudly.
      std::cerr << "FAIL " << shape.to_string() << ": chaos run " << run
                << " raised an unexpected exception (not an attributed integrity/fault "
                << "refusal): " << e.what() << '\n' << chaos_repro << '\n';
      return false;
    }
    for (Rank q = 0; q < N; ++q) {
      for (Rank p = 0; p < N; ++p) {
        if (recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)] !=
            send[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)]) {
          std::cerr << "FAIL " << shape.to_string() << ": SILENT CORRUPTION in chaos run "
                    << run << " (recv[" << q << "][" << p << "] wrong; " << outcome.summary()
                    << ")\n" << chaos_repro << '\n';
          return false;
        }
      }
    }
    switch (outcome.integrity) {
      case IntegrityStatus::kClean: ++clean; break;
      case IntegrityStatus::kCorrected: ++corrected; break;
      case IntegrityStatus::kEscalated: ++escalated; break;
    }
  }
  std::cout << "  chaos " << shape.to_string() << ": " << runs << " runs — " << clean
            << " clean, " << corrected << " corrected, " << escalated << " escalated, "
            << detected << " detected failures, 0 silent corruptions\n";
  return true;
}

/// What one pass of the kill-and-resume sweep counted.
struct KillTally {
  std::int64_t full_sent = 0;  ///< parcels a full journaled run sends
  std::int64_t kills = 0;
  std::int64_t avg_resent = 0;  ///< parcels re-sent per resume
  std::int64_t duplicates = 0;
  std::int64_t torn = 0;

  bool operator==(const KillTally&) const = default;
};

/// Kill-and-resume sweep over one shape: `runs` seeded rounds; a
/// `kill_rate`-percent fraction injects a crash (cycling through every
/// active (phase, step) of the schedule, alternating before/after the
/// journal flush), round-trips the journal through encode/decode —
/// occasionally truncating the tail to exercise torn-write recovery —
/// and resumes. Every round must deliver the exact AAPE permutation
/// (zero lost, zero duplicated parcels; duplicates that arrive are
/// counted and dropped), and every resume with at least one committed
/// step must re-send strictly fewer parcels than a full restart. The
/// rounds run twice, with the same per-round seeds: on a healthy
/// network, then with one seeded node crashed from tick 0, where every
/// plan must be a remap. A remapped plan runs the same program, so the
/// second pass must count exactly what the first did. On failure the
/// offending journal is saved as a .toxj artifact for CI to upload.
bool kill_resume_sweep(const TorusShape& shape, int runs, int kill_rate,
                       std::uint64_t base_seed, Recorder* obs) {
  const std::string kill_repro = repro(
      "--chaos=" + std::to_string(runs) + " --kill-rate=" + std::to_string(kill_rate),
      base_seed);
  const TorusCommunicator comm(shape, CostParams{});
  const SuhShinAape algo(shape);
  const Rank N = comm.size();
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    auto& row = send[static_cast<std::size_t>(p)];
    row.reserve(static_cast<std::size_t>(N));
    for (Rank q = 0; q < N; ++q) row.push_back(static_cast<std::int64_t>(p) * N + q);
  }
  const auto matches_oracle = [&](const std::vector<std::vector<std::int64_t>>& recv) {
    for (Rank q = 0; q < N; ++q) {
      for (Rank p = 0; p < N; ++p) {
        if (recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)] !=
            send[static_cast<std::size_t>(p)][static_cast<std::size_t>(q)]) {
          return false;
        }
      }
    }
    return true;
  };
  const auto save_artifact = [&](const ExchangeJournal& journal, int run) {
    const std::string path = "journal_fail_" + shape.to_string() + "_run" +
                             std::to_string(run) + ".toxj";
    try {
      journal.save_file(path);
      std::cerr << "  journal artifact saved: " << path << '\n';
    } catch (const std::exception& e) {
      std::cerr << "  journal artifact NOT saved: " << e.what() << '\n';
    }
  };

  std::vector<std::pair<int, int>> active;
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
      active.emplace_back(phase, step);
    }
  }

  // One pass of the rounds under `faults`, whose plans must all be
  // `policy`; false on the first failure.
  const auto pass = [&](const FaultModel& faults, RecoveryPolicy policy, const std::string& label,
                        KillTally& tally) {
    const auto planned = [&](const ExchangeOutcome& outcome, int run) {
      if (outcome.policy == policy) return true;
      std::cerr << "FAIL " << label << ": run " << run << " planned policy="
                << to_string(outcome.policy) << ", expected " << to_string(policy) << " ("
                << outcome.summary() << ")\n";
      std::cerr << kill_repro << '\n';
      return false;
    };
    ResumeOptions options;
    options.resilience.algorithm = AlltoallAlgorithm::kSuhShin;
    options.resilience.obs = obs;

    // Full-restart baseline: one journaled run fixes the send count
    // every resume must beat.
    {
      ExchangeJournal journal;
      ExchangeOutcome outcome;
      const auto recv = comm.alltoall_resumable(send, faults, journal, outcome, options);
      if (!matches_oracle(recv) || !journal.exchange_complete()) {
        std::cerr << "FAIL " << label << ": journaled baseline broke (" << outcome.summary()
                  << ")\n";
        std::cerr << kill_repro << '\n';
        save_artifact(journal, -1);
        return false;
      }
      if (!planned(outcome, -1)) return false;
      tally.full_sent = outcome.resume->sent_parcels;
    }

    std::int64_t resumed_sent = 0;
    for (int run = 0; run < runs; ++run) {
      SplitMix64 rng(shape_seed(shape, base_seed) + 0xD1CEu + static_cast<std::uint64_t>(run));
      if (static_cast<int>(rng.next_below(100)) >= kill_rate) {
        ExchangeJournal journal;
        ExchangeOutcome outcome;
        const auto recv = comm.alltoall_resumable(send, faults, journal, outcome, options);
        if (!matches_oracle(recv)) {
          std::cerr << "FAIL " << label << ": kill sweep run " << run
                    << " (no kill) broke the permutation\n";
          std::cerr << kill_repro << '\n';
          save_artifact(journal, run);
          return false;
        }
        if (!planned(outcome, run)) return false;
        continue;
      }

      // Cycle the kill point by kill count so every phase and step of
      // the schedule gets killed in, regardless of the rate.
      const auto [phase, step] = active[static_cast<std::size_t>(tally.kills) % active.size()];
      ++tally.kills;
      ResumeOptions killed = options;
      killed.crash = CrashPoint{phase, step, (rng.next() & 1u) != 0};
      ExchangeJournal journal;
      ExchangeOutcome outcome;
      bool crashed = false;
      try {
        comm.alltoall_resumable(send, faults, journal, outcome, killed);
      } catch (const ExchangeCrashError&) {
        crashed = true;
      }
      if (!crashed) {
        std::cerr << "FAIL " << label << ": crash point phase " << phase << " step " << step
                  << " never fired in run " << run << '\n';
        std::cerr << kill_repro << '\n';
        save_artifact(journal, run);
        return false;
      }

      // Durability round-trip; every fourth kill also tears the tail to
      // prove a mid-write death still loads. A fresh journal (kill
      // before the first flush) is all header — tearing it is header
      // corruption, not a torn record, so leave it whole.
      std::vector<std::byte> bytes = journal.encode();
      if ((rng.next() & 3u) == 0 && !journal.fresh()) {
        bytes.resize(bytes.size() - static_cast<std::size_t>(1 + rng.next_below(7)));
      }
      ExchangeJournal loaded = ExchangeJournal::decode(bytes);
      if (loaded.torn_tail()) ++tally.torn;
      const std::int64_t committed = loaded.committed_steps();

      ExchangeOutcome resumed_outcome;
      const auto recv = comm.alltoall_resumable(send, faults, loaded, resumed_outcome, options);
      if (!matches_oracle(recv)) {
        std::cerr << "FAIL " << label << ": LOST OR DUPLICATED PARCELS after "
                  << "kill+resume in run " << run << " (kill at phase " << phase << " step "
                  << step << "; " << resumed_outcome.summary() << ")\n";
        std::cerr << kill_repro << '\n';
        save_artifact(loaded, run);
        return false;
      }
      if (!planned(resumed_outcome, run)) return false;
      const ResumeReport& report = *resumed_outcome.resume;
      tally.duplicates += report.duplicates_dropped;
      resumed_sent += report.sent_parcels;
      if (committed > 0 && report.sent_parcels >= tally.full_sent) {
        std::cerr << "FAIL " << label << ": resume after kill at phase " << phase << " step "
                  << step << " re-sent " << report.sent_parcels
                  << " parcels, not fewer than a full restart (" << tally.full_sent << ")\n";
        std::cerr << kill_repro << '\n';
        save_artifact(loaded, run);
        return false;
      }
      if (committed == 0 && report.sent_parcels != tally.full_sent) {
        std::cerr << "FAIL " << label << ": resume with nothing committed sent "
                  << report.sent_parcels << " parcels, expected the full " << tally.full_sent
                  << '\n';
        std::cerr << kill_repro << '\n';
        save_artifact(loaded, run);
        return false;
      }
      if (!loaded.exchange_complete()) {
        std::cerr << "FAIL " << label << ": journal incomplete after resume in run " << run
                  << '\n';
        std::cerr << kill_repro << '\n';
        save_artifact(loaded, run);
        return false;
      }
    }
    tally.avg_resent = tally.kills > 0 ? resumed_sent / tally.kills : 0;
    return true;
  };

  KillTally healthy;
  if (!pass(FaultModel{}, RecoveryPolicy::kNone, shape.to_string(), healthy)) return false;
  std::cout << "  kill+resume " << shape.to_string() << ": " << runs << " runs — "
            << healthy.kills << " kills across " << active.size() << " schedule steps, "
            << healthy.avg_resent << " avg parcels re-sent vs " << healthy.full_sent
            << " full restart, " << healthy.duplicates << " duplicates dropped, " << healthy.torn
            << " torn tails recovered, 0 lost parcels\n";
  SplitMix64 victim_rng(shape_seed(shape, base_seed) + 0xC4A5u);
  const auto victim = static_cast<Rank>(victim_rng.next_below(static_cast<std::uint64_t>(N)));
  FaultModel crashed;
  crashed.crash_node(victim, /*crash_tick=*/0);
  const std::string label =
      shape.to_string() + " (node " + std::to_string(victim) + " crashed from tick 0)";
  KillTally remapped;
  if (!pass(crashed, RecoveryPolicy::kRemap, label, remapped)) return false;
  if (!(remapped == healthy)) {
    std::cerr << "FAIL " << label << ": the remapped pass counted " << remapped.full_sent
              << " sent in full, " << remapped.kills << " kills, " << remapped.avg_resent
              << " avg re-sent, " << remapped.duplicates << " duplicates, " << remapped.torn
              << " torn tails; the healthy pass " << healthy.full_sent << ", " << healthy.kills
              << ", " << healthy.avg_resent << ", " << healthy.duplicates << ", " << healthy.torn
              << "\n";
    std::cerr << kill_repro << '\n';
    return false;
  }
  std::cout << "  kill+resume " << label << ": policy=remap in every round — " << remapped.kills
            << " kills, " << remapped.avg_resent << " avg parcels re-sent, "
            << remapped.duplicates << " duplicates dropped, " << remapped.torn
            << " torn tails recovered, 0 lost parcels, as on the healthy network\n";
  return true;
}

/// The oracle payload node p sends node q in svc-chaos session `id`.
std::int64_t svc_payload(SessionId id, Rank N, Rank p, Rank q) {
  return (id + 1) * 1'000'003 + static_cast<std::int64_t>(p) * N + q;
}

/// Session `id`'s N x N send matrix under the svc oracle.
std::vector<std::vector<std::int64_t>> svc_send_matrix(Rank N, SessionId id) {
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    auto& row = send[static_cast<std::size_t>(p)];
    row.reserve(static_cast<std::size_t>(N));
    for (Rank q = 0; q < N; ++q) row.push_back(svc_payload(id, N, p, q));
  }
  return send;
}

/// recv[q][p] must equal session `id`'s svc_payload(p, q) everywhere.
bool svc_matches_oracle(Rank N, SessionId id,
                        const std::vector<std::vector<std::int64_t>>& recv) {
  for (Rank q = 0; q < N; ++q) {
    for (Rank p = 0; p < N; ++p) {
      if (recv[static_cast<std::size_t>(q)][static_cast<std::size_t>(p)] !=
          svc_payload(id, N, p, q)) {
        return false;
      }
    }
  }
  return true;
}

/// Multi-session kill-one-tenant sweep over one shape: `sessions_k`
/// concurrent sessions share one SessionManager with generous limits
/// (nothing should queue out or miss a deadline), and each round one
/// victim session carries a rotating failure mode — a crash in the
/// journal's flush/commit window, a corrupted wire frame, an arena
/// frame quota of one, or a mid-run cooperative cancel. The property
/// under test is zero cross-session blast radius:
///   * every survivor completes with a recv matrix byte-identical to
///     the transpose oracle;
///   * every survivor's sent-parcel count equals the single-session
///     baseline (the multi-session path is pinned to the
///     single-session report — interleaving moves no extra parcels);
///   * zero AdmissionRejected and zero deadline misses are attributable
///     to the victim (the limits make any nonzero count a leak);
///   * the victim retires as kFailed (or kCancelled for the cancel
///     mode) with a non-empty diagnostic;
///   * the shared arena reports zero outstanding frames afterwards.
bool svc_chaos_sweep(const TorusShape& shape, int sessions_k, std::uint64_t base_seed) {
  const Rank N = shape.num_nodes();
  // Early Suh-Shin phases can be empty (zero steps) on small extents;
  // the crash/corruption seams live inside the step loop, so pin the
  // injection to the first phase that actually moves parcels.
  int inject_phase = 0;
  {
    const SuhShinAape algo(shape);
    for (int phase = 1; phase <= algo.num_phases(); ++phase) {
      if (algo.steps_in_phase(phase) > 0) {
        inject_phase = phase;
        break;
      }
    }
  }
  const std::string svc_hint =
      repro_command("--sessions=" + std::to_string(sessions_k), base_seed);
  const std::string svc_repro = "  repro: " + svc_hint;

  // Single-session baseline: fixes the per-session sent-parcel count
  // every multi-session survivor must reproduce exactly.
  std::int64_t baseline_sent = 0;
  {
    SessionManagerOptions options;
    options.max_active = 1;
    options.max_queued = 1;
    SessionManager mgr(shape, CostParams{}, options);
    SessionRequest req;
    req.send = svc_send_matrix(N, 0);
    mgr.submit(std::move(req));
    mgr.run_until_idle();
    const SessionRecord rec = mgr.record(0);
    if (rec.state != SessionState::kCompleted || !svc_matches_oracle(N, 0, mgr.take_result(0))) {
      std::cerr << "FAIL " << shape.to_string() << ": single-session baseline broke (session 0)\n"
                << svc_repro << '\n';
      return false;
    }
    baseline_sent = rec.sent_parcels;
  }

  struct Mode {
    const char* name;
    SessionState expected;
  };
  const std::vector<Mode> modes{{"crash", SessionState::kFailed},
                                {"corrupt", SessionState::kFailed},
                                {"frame-quota", SessionState::kFailed},
                                {"cancel", SessionState::kCancelled}};
  for (std::size_t round = 0; round < modes.size(); ++round) {
    const Mode& mode = modes[round];
    SessionManagerOptions options;
    options.max_active = sessions_k;
    options.max_queued = sessions_k;
    options.quotas["victim"].max_arena_frames = 1;
    options.repro_hint = svc_hint;
    SessionManager mgr(shape, CostParams{}, options);
    const auto victim = static_cast<SessionId>((base_seed + round) %
                                               static_cast<std::uint64_t>(sessions_k));
    for (SessionId id = 0; id < sessions_k; ++id) {
      SessionRequest req;
      req.tenant = id == victim && std::string(mode.name) == "frame-quota"
                       ? "victim"
                       : "t" + std::to_string(id % 3);
      req.weight = static_cast<int>(1 + id % 3);
      req.send = svc_send_matrix(N, id);
      if (id == victim) {
        if (std::string(mode.name) == "crash") req.inject.crash_phase = inject_phase;
        if (std::string(mode.name) == "corrupt") req.inject.corrupt_phase = inject_phase;
        if (std::string(mode.name) == "cancel") req.inject.cancel_after_phases = 1;
      }
      mgr.submit(std::move(req));
    }
    mgr.run_until_idle();

    const SvcStats stats = mgr.stats();
    if (stats.rejected != 0 || stats.deadline_missed() != 0 || stats.cancelled_queued != 0) {
      std::cerr << "FAIL " << shape.to_string() << ": svc chaos mode " << mode.name
                << " leaked blast radius into admission (" << stats.rejected << " rejected, "
                << stats.deadline_missed() << " deadline misses; victim session " << victim
                << ")\n" << svc_repro << '\n';
      return false;
    }
    for (SessionId id = 0; id < sessions_k; ++id) {
      const SessionRecord rec = mgr.record(id);
      if (id == victim) {
        if (rec.state != mode.expected || rec.error.empty()) {
          std::cerr << "FAIL " << shape.to_string() << ": victim of mode " << mode.name
                    << " retired as " << to_string(rec.state) << " (error: \"" << rec.error
                    << "\"), expected " << to_string(mode.expected) << " with a diagnostic\n"
                    << svc_repro << '\n';
          return false;
        }
        // Black-box audit: every injected failure must carry a
        // parseable flight dump whose final event sits on the failing
        // phase; a cooperative cancel is not a failure and must not.
        if (mode.expected == SessionState::kCancelled) {
          if (!rec.flight_dump.empty()) {
            std::cerr << "FAIL " << shape.to_string() << ": cancelled victim of mode "
                      << mode.name << " carries a flight dump (cancel is not a failure)\n"
                      << svc_repro << '\n';
            save_flight_artifact(shape.to_string() + "_" + mode.name, rec.flight_dump);
            return false;
          }
          continue;
        }
        FlightDump dump;
        std::string dump_error;
        if (rec.flight_dump.empty() ||
            !parse_flight_dump(rec.flight_dump, &dump, &dump_error)) {
          std::cerr << "FAIL " << shape.to_string() << ": victim of mode " << mode.name
                    << " has no parseable flight dump ("
                    << (rec.flight_dump.empty() ? "empty" : dump_error) << ")\n"
                    << svc_repro << '\n';
          save_flight_artifact(shape.to_string() + "_" + mode.name, rec.flight_dump);
          return false;
        }
        const char* expected_final = std::string(mode.name) == "crash" ? "svc.crash"
                                     : std::string(mode.name) == "corrupt"
                                         ? "svc.integrity_refused"
                                         : "svc.quota_breach";
        if (dump.session != victim || dump.events.empty() ||
            dump.events.back().name != expected_final ||
            dump.events.back().phase != inject_phase || dump.repro != svc_hint) {
          std::cerr << "FAIL " << shape.to_string() << ": victim flight dump of mode "
                    << mode.name << " does not pin the failure (session " << dump.session
                    << ", final event \""
                    << (dump.events.empty() ? "<none>" : dump.events.back().name)
                    << "\" at phase "
                    << (dump.events.empty() ? 0 : dump.events.back().phase) << ", expected \""
                    << expected_final << "\" at phase " << inject_phase << ")\n"
                    << svc_repro << '\n';
          save_flight_artifact(shape.to_string() + "_" + mode.name, rec.flight_dump);
          return false;
        }
        continue;
      }
      if (rec.state != SessionState::kCompleted) {
        std::cerr << "FAIL " << shape.to_string() << ": survivor " << id << " of mode "
                  << mode.name << " retired as " << to_string(rec.state) << " (" << rec.error
                  << ") — the victim's failure escaped its session\n" << svc_repro << '\n';
        return false;
      }
      if (rec.sent_parcels != baseline_sent) {
        std::cerr << "FAIL " << shape.to_string() << ": survivor " << id << " of mode "
                  << mode.name << " sent " << rec.sent_parcels << " parcels, baseline "
                  << baseline_sent << " — interleaving changed the wire traffic\n"
                  << svc_repro << '\n';
        return false;
      }
      if (!svc_matches_oracle(N, id, mgr.take_result(id))) {
        std::cerr << "FAIL " << shape.to_string() << ": SILENT CORRUPTION in survivor " << id
                  << " of mode " << mode.name << '\n' << svc_repro << '\n';
        return false;
      }
    }
    if (mgr.outstanding_frames() != 0) {
      std::cerr << "FAIL " << shape.to_string() << ": mode " << mode.name << " leaked "
                << mgr.outstanding_frames() << " arena frames\n" << svc_repro << '\n';
      return false;
    }
  }
  std::cout << "  svc chaos " << shape.to_string() << ": " << sessions_k << " sessions x "
            << modes.size() << " victim modes — all survivors byte-identical at "
            << baseline_sent << " parcels each, victims isolated with parseable flight "
            << "dumps pinned to phase " << inject_phase << ", 0 leaked frames\n";
  return true;
}

/// Storm sweep over one shape: `sessions_k` (min 4) equal-weight
/// sessions run concurrently under torexd's health layer while the
/// service fault model throws a correlated mid-flight storm at them:
///   * a flapping channel on a scheduled quarter-phase route — two dead
///     windows, so the breaker must open on discovery, half-open after
///     its cool-off, fail the probe into the second window (a flap),
///     and re-close once the channel stays up;
///   * a transient channel fault covering the whole pair phase;
///   * a node crash+rejoin feeding the phi-accrual detector, whose
///     messages must be remap-hosted (§6), never faulted;
///   * one extra session arriving mid-storm, which admission must plan
///     around the live quarantine.
/// The faulted channels are read off a recorded trace, so the storm
/// always lands on channels the schedule actually crosses. Asserted
/// invariants: zero silent corruption (every session completes
/// byte-identical to the transpose oracle); bounded retry amplification
/// (parcels resent == budget tokens granted <= capacity + refilled,
/// zero denials in the generous round); first-discoverer-heals-all
/// (each channel's degradation-chain walks <= its covering fault
/// windows, and later sessions pay quarantine hits + reroutes instead
/// of retries); detector suspicion observed; breakers converge back to
/// closed within a bounded number of idle health ticks; zero leaked
/// arena frames. A second, tight-budget round re-runs a single
/// transient fault with the bucket sized to exactly one retransmission
/// burst: mid-discovery the budget denies, the phase defers (re-queued
/// under the fair scheduler, nothing fired), and every session must
/// still complete once the bucket refills. On any failure the breaker
/// table is saved as a .txt artifact for CI to upload.
bool storm_sweep(const TorusShape& shape, int sessions_k, std::uint64_t base_seed) {
  const Rank N = shape.num_nodes();
  const int K = std::max(sessions_k, 4);
  const SuhShinAape algo(shape);
  const Torus torus(shape);
  const int n = shape.num_dims();
  const int quarter = n + 1;  // the two phases every shape executes
  const int pair = n + 2;
  // With K equal-weight sessions all arriving at virtual time zero the
  // WFQ scheduler round-robins: fault tick t dispatches phase t/K + 1,
  // so phase P spans ticks [(P-1)K, PK) and windows can be aimed.
  const std::int64_t sa = static_cast<std::int64_t>(quarter - 1) * K;
  const std::int64_t sb = static_cast<std::int64_t>(pair - 1) * K;
  const Rank crash = N - 1;
  const std::string storm_hint = repro_command("--storm=" + std::to_string(sessions_k), base_seed);
  const std::string storm_repro = "  repro: " + storm_hint;

  // Pick the victims from real traffic: one step-1 quarter-phase
  // transfer and one step-1 pair-phase transfer, neither touching the
  // crashed node (hosted messages skip route enforcement and would
  // never discover the fault).
  TransferRecord xfer_a, xfer_b;
  {
    ExchangeEngine engine(algo, EngineOptions{});
    const ExchangeTrace trace = engine.run_verified();
    bool have_a = false, have_b = false;
    for (const StepRecord& step : trace.steps) {
      if (step.step != 1) continue;
      for (const TransferRecord& t : step.transfers) {
        if (t.src == crash || t.dst == crash) continue;
        if (step.phase == quarter && !have_a) {
          xfer_a = t;
          have_a = true;
        }
        if (step.phase == pair && !have_b &&
            (!have_a ||
             torus.channel_id(t.src, t.dir) != torus.channel_id(xfer_a.src, xfer_a.dir))) {
          xfer_b = t;
          have_b = true;
        }
      }
    }
    if (!have_a || !have_b) {
      std::cerr << "FAIL " << shape.to_string()
                << ": storm setup found no quarter/pair transfer to fault\n"
                << storm_repro << '\n';
      return false;
    }
  }
  const ChannelId flap_id = torus.channel_id(xfer_a.src, xfer_a.dir);
  const ChannelId transient_id = torus.channel_id(xfer_b.src, xfer_b.dir);

  // Window plan (ticks): flap windows [sa+1, sa+4) and [sa+5, sa+8) —
  // the second overlaps every possible probe tick of the first open's
  // cool-off (4 + jitter in [0,2]), forcing at least one probe-failure
  // flap; the pair-phase fault outlives the nominal run so convergence
  // is exercised from a still-open breaker; the crash covers the
  // quarter phase and rejoins.
  FaultModel storm;
  storm.flap_channel(xfer_a.src, xfer_a.dir, sa + 1, 3, 1, 2);
  storm.fail_channel(xfer_b.src, xfer_b.dir, sb, sb + K + 8);
  storm.crash_node(crash, sa, sa + K);

  SessionManagerOptions options;
  options.max_active = K + 1;
  options.max_queued = K + 1;
  options.service_faults = storm;
  options.health.enabled = true;
  options.health.breaker.error_threshold = 2;
  options.health.breaker.open_ticks = 4;
  options.health.breaker.probe_jitter = 2;
  options.health.breaker.seed = base_seed ^ 0x5102'7d9euLL;
  options.health.retries.capacity = 1'000'000;  // generous: nothing defers
  options.health.retries.refill_per_time = 1e-6;
  // Suspect after ~3.5 silent ticks so the quarter-phase crash window
  // (>= 4 ticks at the K floor) is always detected before rejoin.
  options.health.detector.phi_threshold = 1.5;
  options.repro_hint = storm_hint;
  SessionManager mgr(shape, CostParams{}, options);
  const double pc = mgr.phase_cost();

  const auto fail = [&](SessionManager& m, const std::string& what) {
    std::cerr << "FAIL " << shape.to_string() << ": " << what << '\n' << storm_repro << '\n';
    const std::string path = "health_fail_" + shape.to_string() + ".txt";
    std::ofstream out(path);
    if (out) {
      out << m.health_dump();
      std::cerr << "  breaker-state artifact saved: " << path << '\n';
    }
    // The black boxes of the sessions in flight when the storm broke.
    std::size_t saved = 0;
    for (const auto& entry : m.flight_dumps()) {
      if (saved >= 4) break;
      save_flight_artifact(shape.to_string() + "_" + entry.trigger + "_s" +
                               std::to_string(entry.session),
                           entry.text);
      ++saved;
    }
    return false;
  };
  const auto check_sessions = [&](SessionManager& m, SessionId count, const char* round) {
    for (SessionId id = 0; id < count; ++id) {
      const SessionRecord rec = m.record(id);
      if (rec.state != SessionState::kCompleted) {
        return fail(m, std::string(round) + " session " + std::to_string(id) + " retired as " +
                           to_string(rec.state) + " (" + rec.error +
                           ") instead of completing through the storm");
      }
      if (!svc_matches_oracle(N, id, m.take_result(id))) {
        return fail(m, "SILENT CORRUPTION in " + std::string(round) + " session " +
                           std::to_string(id));
      }
    }
    return true;
  };
  // Closes every breaker by advancing idle health ticks; returns the
  // ticks spent or -1 when the registry refuses to converge.
  const auto settle = [&](SessionManager& m) {
    std::int64_t ticks = 0;
    while (!m.health_stats().all_closed() && ticks < 256) {
      m.advance_health();
      ++ticks;
    }
    return m.health_stats().all_closed() ? ticks : -1;
  };

  for (SessionId id = 0; id < K; ++id) {
    SessionRequest req;
    req.send = svc_send_matrix(N, id);
    mgr.submit(std::move(req));
  }
  {
    // The mid-storm arrival: admitted while the flap's first window has
    // the breaker open, so admission must plan around the quarantine.
    SessionRequest late;
    late.arrival = static_cast<double>(sa + 2) * pc;
    late.send = svc_send_matrix(N, K);
    mgr.submit(std::move(late));
  }
  mgr.run_until_idle();

  if (!check_sessions(mgr, K + 1, "storm")) return false;
  const HealthStats hs = mgr.health_stats();
  if (hs.errors == 0 || hs.opens < 3) {
    return fail(mgr, "storm never tripped its breakers (errors=" + std::to_string(hs.errors) +
                         ", opens=" + std::to_string(hs.opens) + ", expected >= 3 opens)");
  }
  if (hs.flaps < 1) {
    return fail(mgr, "flapping channel produced no breaker flap (probe should have failed "
                     "into the second dead window)");
  }
  if (hs.suspicions < 1) {
    return fail(mgr, "phi-accrual detector never suspected the crashed node " +
                         std::to_string(crash));
  }
  if (hs.remap_hosted < 1) {
    return fail(mgr, "no message was remap-hosted while node " + std::to_string(crash) +
                         " was down");
  }
  if (hs.quarantine_hits < 1 || hs.rerouted_messages < 1) {
    return fail(mgr, "later sessions did not heal off the first discoverer's quarantine (" +
                         std::to_string(hs.quarantine_hits) + " hits, " +
                         std::to_string(hs.rerouted_messages) + " reroutes)");
  }
  if (hs.planned_around < 1) {
    return fail(mgr, "the mid-storm arrival was not planned around the live quarantine");
  }
  if (hs.deferrals != 0 || hs.retry_denied != 0) {
    return fail(mgr, "the generous budget denied retries (" +
                         std::to_string(hs.retry_denied) + " tokens denied, " +
                         std::to_string(hs.deferrals) + " deferrals)");
  }
  if (hs.resent_parcels != hs.retry_granted ||
      hs.retry_granted > hs.retry_capacity + hs.retry_refilled) {
    return fail(mgr, "RETRY AMPLIFICATION UNBOUNDED: " + std::to_string(hs.resent_parcels) +
                         " parcels resent vs " + std::to_string(hs.retry_granted) +
                         " granted (capacity " + std::to_string(hs.retry_capacity) +
                         " + refilled " + std::to_string(hs.retry_refilled) + ")");
  }
  for (const ResourceHealth& r : hs.resources) {
    if (r.permanent) {
      return fail(mgr, r.describe(torus) + " — permanently quarantined by a transient storm");
    }
    if (r.kind != FaultKind::kChannel) {
      if (r.chain_walks != 0) {
        return fail(mgr, r.describe(torus) + " — node breakers host, they never walk the "
                                             "degradation chain");
      }
      continue;
    }
    // Covering windows: two flap windows, one pair-phase window, and
    // one crash window for every channel touching the crashed node (a
    // node fault kills all its channels, so transit discovery there is
    // legitimate).
    const Channel ch = torus.channel_of(r.id);
    std::int64_t windows = 0;
    if (r.id == flap_id) windows += 2;
    if (r.id == transient_id) windows += 1;
    if (ch.from == crash || torus.neighbor(ch.from, ch.direction) == crash) windows += 1;
    if (r.chain_walks > windows) {
      return fail(mgr, r.describe(torus) + " — " + std::to_string(r.chain_walks) +
                           " degradation-chain walks for " + std::to_string(windows) +
                           " covering fault window(s): first-discoverer-heals-all broken");
    }
  }
  // Every breaker trip must have left a parseable black box behind,
  // stamped with this sweep's repro command.
  std::int64_t trip_dumps = 0;
  for (const auto& entry : mgr.flight_dumps()) {
    FlightDump dump;
    std::string dump_error;
    if (!parse_flight_dump(entry.text, &dump, &dump_error)) {
      save_flight_artifact(shape.to_string() + "_" + entry.trigger + "_s" +
                               std::to_string(entry.session),
                           entry.text);
      return fail(mgr, "flight dump (trigger " + entry.trigger + ", session " +
                           std::to_string(entry.session) +
                           ") does not parse: " + dump_error);
    }
    if (dump.session != entry.session || dump.repro != storm_hint) {
      save_flight_artifact(shape.to_string() + "_" + entry.trigger + "_s" +
                               std::to_string(entry.session),
                           entry.text);
      return fail(mgr, "flight dump (trigger " + entry.trigger +
                           ") is mis-stamped: session " + std::to_string(dump.session) +
                           ", repro \"" + dump.repro + "\"");
    }
    if (entry.trigger == "breaker_trip") ++trip_dumps;
  }
  if (trip_dumps < 1) {
    return fail(mgr, "the storm opened " + std::to_string(hs.opens) +
                         " breakers but left no breaker-trip flight dump");
  }
  const std::int64_t settled = settle(mgr);
  if (settled < 0) {
    return fail(mgr, "breakers failed to converge to closed within 256 idle health ticks "
                     "after the storm passed");
  }
  if (mgr.outstanding_frames() != 0) {
    return fail(mgr, "storm leaked " + std::to_string(mgr.outstanding_frames()) +
                         " arena frames");
  }

  // Tight-budget round: one transient fault on the same quarter-phase
  // channel, bucket sized to exactly one retransmission burst of that
  // message. The discoverer's first attempt drains the bucket, the
  // second must defer; the deferred phase re-queues and completes after
  // the per-dispatch refill (2 bursts per phase cost).
  FaultModel squall;
  squall.fail_channel(xfer_a.src, xfer_a.dir, sa + 1, sa + 3);
  SessionManagerOptions tight;
  tight.max_active = K;
  tight.max_queued = K;
  tight.service_faults = squall;
  tight.health.enabled = true;
  tight.health.breaker = options.health.breaker;
  tight.health.retries.capacity = xfer_a.blocks;
  tight.health.retries.refill_per_time = 2.0 * static_cast<double>(xfer_a.blocks) / pc;
  SessionManager tmgr(shape, CostParams{}, tight);
  for (SessionId id = 0; id < K; ++id) {
    SessionRequest req;
    req.send = svc_send_matrix(N, id);
    tmgr.submit(std::move(req));
  }
  tmgr.run_until_idle();
  if (!check_sessions(tmgr, K, "tight-budget")) return false;
  const HealthStats ts = tmgr.health_stats();
  if (ts.deferrals < 1 || ts.retry_denied < 1) {
    return fail(tmgr, "tight budget never deferred a retry (" +
                          std::to_string(ts.retry_denied) + " tokens denied, " +
                          std::to_string(ts.deferrals) +
                          " deferrals) — retries beyond budget must queue, not fire");
  }
  if (ts.resent_parcels != ts.retry_granted ||
      ts.retry_granted > ts.retry_capacity + ts.retry_refilled) {
    return fail(tmgr, "RETRY AMPLIFICATION UNBOUNDED under the tight budget: " +
                          std::to_string(ts.resent_parcels) + " parcels resent vs capacity " +
                          std::to_string(ts.retry_capacity) + " + refilled " +
                          std::to_string(ts.retry_refilled));
  }
  if (settle(tmgr) < 0) {
    return fail(tmgr, "tight-budget breaker failed to converge to closed");
  }
  if (tmgr.outstanding_frames() != 0) {
    return fail(tmgr, "tight-budget round leaked " +
                          std::to_string(tmgr.outstanding_frames()) + " arena frames");
  }

  std::cout << "  storm " << shape.to_string() << ": " << K << "+1 sessions — " << hs.errors
            << " errors, " << hs.opens << " opens, " << hs.flaps << " flap(s), "
            << hs.suspicions << " suspicion(s), " << hs.resent_parcels
            << " parcels resent (== granted, 0 denied), " << hs.quarantine_hits
            << " quarantine hits, " << hs.rerouted_messages << " reroutes, "
            << hs.remap_hosted << " hosted, " << hs.chain_walks
            << " chain walk(s), " << trip_dumps << " breaker-trip flight dump(s), "
            << "breakers closed after " << settled
            << " idle tick(s); tight round: " << ts.deferrals << " deferral(s), "
            << ts.retry_denied << " tokens denied, all sessions completed, "
            << "0 silent corruptions\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const CliFlags flags = CliFlags::parse(
        argc, argv,
        {"max-nodes", "max-dims", "flit-level", "layout", "static-nodes", "faults", "chaos",
         "seed", "trace", "trace-capacity", "kill-rate", "sessions", "storm"});
    constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
    const std::int64_t max_nodes = flags.get_int("max-nodes", 800, 4, 1'000'000);
    const int max_dims = static_cast<int>(flags.get_int("max-dims", 4, 2, 16));
    const bool flit_level = flags.get_bool("flit-level", false);
    const bool layout = flags.get_bool("layout", false);
    const int faults_k = static_cast<int>(flags.get_int("faults", 0, 0, kIntMax));
    const int chaos_runs = static_cast<int>(flags.get_int("chaos", 0, 0, kIntMax));
    const int kill_rate = static_cast<int>(flags.get_int("kill-rate", 0, 0, 100));
    const int svc_sessions = static_cast<int>(flags.get_int("sessions", 0, 0, 4096));
    const int storm_k = static_cast<int>(flags.get_int("storm", 0, 0, 4096));
    const std::uint64_t base_seed = static_cast<std::uint64_t>(
        flags.get_int("seed", 0, 0, std::numeric_limits<std::int64_t>::max()));
    const std::string trace_path = flags.get_string("trace", "");
    std::optional<Recorder> recorder;
    if (!trace_path.empty()) {
      ObsOptions obs_options;
      obs_options.events_per_thread = static_cast<std::size_t>(
          flags.get_int("trace-capacity", 1 << 16, 1 << 10, 1 << 26));
      recorder.emplace(obs_options);
    }
    Recorder* obs = recorder.has_value() ? &*recorder : nullptr;

    std::vector<std::vector<std::int32_t>> shapes;
    {
      std::vector<std::int32_t> prefix;
      // First dimension is the largest; enumerate descending extents.
      for (std::int32_t e = 4; e <= max_nodes; e += 4) {
        prefix.push_back(e);
        enumerate(prefix, e, max_nodes, max_dims, e, shapes);
        prefix.pop_back();
      }
    }

    std::cout << "verifying " << shapes.size() << " shapes (<= " << max_nodes
              << " nodes, <= " << max_dims << " dims)"
              << (layout ? ", layout audit on" : "")
              << (flit_level ? ", flit-level on" : "");
    if (faults_k > 0) std::cout << ", fault sweep k=" << faults_k;
    if (chaos_runs > 0) std::cout << ", chaos runs=" << chaos_runs;
    if (kill_rate > 0) std::cout << ", kill rate=" << kill_rate << "%";
    if (faults_k > 0 || chaos_runs > 0) std::cout << ", seed=" << base_seed;
    std::cout << "\n";

    std::int64_t checked = 0;
    for (const auto& extents : shapes) {
      const TorusShape shape(extents);
      const SuhShinAape algo(shape);
      EngineOptions engine_options;
      engine_options.obs = obs;
      ExchangeEngine engine(algo, engine_options);
      const ExchangeTrace trace = engine.run_verified();

      const ContentionReport contention = check_trace_contention(algo.torus(), trace);
      if (!contention.contention_free) {
        std::cerr << "FAIL " << shape.to_string() << ": "
                  << contention.first_conflict.value_or("contention") << '\n';
        return 1;
      }
      const int n = shape.num_dims();
      const std::int64_t a1 = shape.extent(0);
      if (trace.num_steps() != n * (a1 / 4 + 1) ||
          trace.total_hops() != n * (a1 - 1) ||
          trace.total_max_blocks() * 8 != n * (a1 + 4) * shape.num_nodes()) {
        std::cerr << "FAIL " << shape.to_string() << ": Table 1 counts diverge\n";
        return 1;
      }
      if (layout) {
        const LayoutStats stats = run_layout_simulation(algo);
        if (n == 2 && !stats.fully_contiguous()) {
          std::cerr << "FAIL " << shape.to_string() << ": 2D layout not contiguous\n";
          return 1;
        }
        const std::int64_t run_bound =
            n <= 2 ? 1 : (std::int64_t{1} << (n - 2));  // empirical law, see DESIGN.md
        if (stats.max_runs_per_send > run_bound) {
          std::cerr << "FAIL " << shape.to_string() << ": send fragmented into "
                    << stats.max_runs_per_send << " runs (bound " << run_bound << ")\n";
          return 1;
        }
        if (!verify_step_program(algo, LayoutPolicy::kPaper, stats) ||
            !verify_step_program(
                algo, LayoutPolicy::kNaiveDestinationOrder,
                run_layout_simulation(algo, LayoutPolicy::kNaiveDestinationOrder))) {
          return 1;
        }
      }
      if (flit_level) {
        for (const auto& out : simulate_trace_steps(algo.torus(), trace, 2)) {
          if (!out.stall_free()) {
            std::cerr << "FAIL " << shape.to_string() << ": flit-level stall\n";
            return 1;
          }
        }
      }
      if (faults_k > 0 && !verify_faulted_exchange(shape, faults_k, base_seed, obs)) return 1;
      ++checked;
      if (checked % 25 == 0) std::cout << "  " << checked << " shapes ok...\n";
    }
    std::cout << "all " << checked << " shapes verified\n";

    // Chaos differential sweep on the two reference shapes (one square
    // 2D torus, one 3D torus) — small enough to hammer with many seeds,
    // shaped differently enough to cover both schedule structures.
    if (chaos_runs > 0) {
      std::cout << "chaos sweep: " << chaos_runs << " runs/shape, seed=" << base_seed << "\n";
      for (const auto& extents : std::vector<std::vector<std::int32_t>>{{4, 4}, {8, 4, 4}}) {
        if (!chaos_sweep(TorusShape(extents), chaos_runs, base_seed, obs)) return 1;
      }
    }

    // Kill-and-resume sweep on the same reference shapes: seeded
    // process deaths at every schedule step, journal round-trips (with
    // torn tails), delta resumes checked against the oracle. Runs per
    // shape follow --chaos (default 120 when only --kill-rate given).
    if (kill_rate > 0) {
      const int kill_runs = chaos_runs > 0 ? chaos_runs : 120;
      std::cout << "kill+resume sweep: " << kill_runs << " runs/shape, kill rate=" << kill_rate
                << "%, seed=" << base_seed << "\n";
      for (const auto& extents : std::vector<std::vector<std::int32_t>>{{4, 4}, {8, 4, 4}}) {
        if (!kill_resume_sweep(TorusShape(extents), kill_runs, kill_rate, base_seed, obs)) {
          return 1;
        }
      }
    }

    // Multi-session kill-one-tenant sweep on the same reference shapes:
    // K sessions share one manager, one victim per round carries a
    // rotating failure mode, and every survivor must stay pinned to the
    // single-session report (byte-identical result, identical parcel
    // count, zero admission fallout).
    if (svc_sessions > 0) {
      std::cout << "multi-session chaos sweep: " << svc_sessions
                << " sessions/shape, seed=" << base_seed << "\n";
      for (const auto& extents : std::vector<std::vector<std::int32_t>>{{4, 4}, {8, 4, 4}}) {
        if (!svc_chaos_sweep(TorusShape(extents), svc_sessions, base_seed)) return 1;
      }
    }

    // Storm sweep on the same reference shapes: concurrent sessions
    // under the health layer ride out a flapping channel, a transient
    // pair-phase fault, and a node crash+rejoin; breakers, the retry
    // budget, and the detector must keep the blast radius bounded.
    if (storm_k > 0) {
      std::cout << "storm sweep: " << storm_k << " sessions/shape (floor 4), seed=" << base_seed
                << "\n";
      for (const auto& extents : std::vector<std::vector<std::int32_t>>{{4, 4}, {8, 4, 4}}) {
        if (!storm_sweep(TorusShape(extents), storm_k, base_seed)) return 1;
      }
    }

    // Optional second pass: static contention proofs on shapes far too
    // large to execute (O(N n) per step, no block movement).
    const std::int64_t static_nodes = flags.get_int("static-nodes", 0, 0, 100'000'000);
    if (static_nodes > 0) {
      std::vector<std::vector<std::int32_t>> big;
      {
        std::vector<std::int32_t> prefix;
        for (std::int32_t e = 4; e <= static_nodes; e += 4) {
          prefix.push_back(e);
          enumerate(prefix, e, static_nodes, max_dims, e, big);
          prefix.pop_back();
        }
      }
      std::int64_t proved = 0;
      for (const auto& extents : big) {
        const TorusShape shape(extents);
        if (shape.num_nodes() <= max_nodes) continue;  // already executed
        const SuhShinAape algo(shape);
        const ContentionReport report = check_schedule_contention_static(algo);
        if (!report.contention_free) {
          std::cerr << "FAIL " << shape.to_string() << ": static contention ("
                    << report.first_conflict.value_or("") << ")\n";
          return 1;
        }
        ++proved;
      }
      std::cout << "static contention proof on " << proved << " additional large shapes\n";
    }

    if (recorder.has_value()) {
      const Telemetry telemetry = recorder->snapshot();
      const std::string json = chrome_trace_json(telemetry);
      std::string json_error;
      if (!json_well_formed(json, &json_error)) {
        std::cerr << "FAIL: emitted trace is not well-formed JSON: " << json_error << '\n';
        return 1;
      }
      std::ofstream out(trace_path, std::ios::binary);
      if (!out) {
        std::cerr << "FAIL: cannot open " << trace_path << " for writing\n";
        return 1;
      }
      out << json;
      std::cout << "trace: wrote " << trace_path << " (" << telemetry.events.size()
                << " events, " << telemetry.streams << " stream(s))\n";
      if (telemetry.dropped_events > 0) {
        std::cerr << "FAIL: " << telemetry.dropped_events
                  << " trace events dropped (bounded buffers overflowed; the trace covers "
                  << "only the sweep's prefix) — raise --trace-capacity and re-run\n";
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
