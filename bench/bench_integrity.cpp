// Integrity-layer evaluation: what end-to-end checking costs and what
// corruption does to the exchange.
//
// Three results:
//  1. Sealing overhead: wall-clock of the sealed exchange (CRC-32
//     seals, encode/decode per message) vs the plain pooled exchange
//     (exchange_payloads_pooled: the same kernel and program, every
//     frame verified, nothing tampered with), across torus sizes — the
//     price of "no silent corruption".
//  2. Corruption response: for growing numbers of seeded corrupting
//     channels on an 8x8 torus, how many runs stay clean, heal by
//     retransmission, or escalate into the recovery chain, plus the
//     average retransmits and fault ticks spent.
//  3. Retransmit-budget sensitivity: detection stays perfect at any
//     budget; the budget only moves the correct/escalate split for
//     transient corruption windows.
#include <chrono>
#include <functional>
#include <iostream>
#include <vector>

#include "core/payload_exchange.hpp"
#include "runtime/communicator.hpp"
#include "sim/fault_model.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"

namespace {

using namespace torex;

std::vector<std::vector<std::int64_t>> make_send(Rank n) {
  std::vector<std::vector<std::int64_t>> send(static_cast<std::size_t>(n));
  for (Rank p = 0; p < n; ++p) {
    for (Rank q = 0; q < n; ++q) {
      send[static_cast<std::size_t>(p)].push_back(static_cast<std::int64_t>(p) * n + q);
    }
  }
  return send;
}

double time_ms(const std::function<void()>& fn, int reps) {
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double, std::milli>(elapsed).count() / reps;
}

}  // namespace

int main() {
  std::cout << "=== Sealing overhead: sealed vs plain payload exchange ===\n\n";
  TextTable overhead({"shape", "nodes", "plain ms", "sealed ms", "ratio"});
  overhead.set_align(0, TextTable::Align::kLeft);
  for (const auto& extents : std::vector<std::vector<std::int32_t>>{{4, 4}, {8, 4}, {8, 8},
                                                                    {8, 4, 4}, {12, 8}}) {
    const TorusShape shape(extents);
    const SuhShinAape algo(shape);
    const Rank N = shape.num_nodes();
    const int reps = N <= 64 ? 20 : 5;
    const StepProgram program(algo);  // compiled once, as the communicator memoizes it
    const double plain =
        time_ms([&] { exchange_payloads_pooled(algo, program, make_send(N)); }, reps);
    const double sealed =
        time_ms([&] { exchange_payloads_sealed(algo, program, make_send(N)); }, reps);
    overhead.start_row()
        .cell(shape.to_string())
        .cell(static_cast<std::int64_t>(N))
        .cell(plain, 3)
        .cell(sealed, 3)
        .cell(sealed / plain, 2);
  }
  overhead.print(std::cout);

  std::cout << "\n=== Corruption response (8x8, 40 seeded runs per row) ===\n\n";
  const TorusShape shape = TorusShape::make_2d(8, 8);
  const TorusCommunicator comm(shape, CostParams{});
  const Torus torus(shape);
  const auto send = make_send(shape.num_nodes());
  TextTable response({"corruptions", "clean", "corrected", "escalated", "refused",
                      "avg retransmits", "avg escalations"});
  for (int k : {1, 2, 4, 8}) {
    int clean = 0, corrected = 0, escalated = 0, refused = 0;
    std::int64_t retransmits = 0;
    std::int64_t escalations = 0;
    for (int run = 0; run < 40; ++run) {
      SplitMix64 rng(0xC0DE + static_cast<std::uint64_t>(k * 1000 + run));
      CorruptionModel corruption;
      const std::int64_t until = (rng.next() & 1u) != 0
                                     ? static_cast<std::int64_t>(1 + rng.next_below(3))
                                     : kFaultForever;
      corruption.inject_random_corruptions(torus, rng.next(), k, 0, until);
      ResilienceOptions options;
      options.algorithm = AlltoallAlgorithm::kSuhShin;
      ExchangeOutcome outcome;
      try {
        comm.alltoall_checked(send, FaultModel{}, corruption, outcome, options);
      } catch (const std::exception&) {
        ++refused;
        continue;
      }
      retransmits += outcome.retransmits;
      escalations += outcome.escalations;
      switch (outcome.integrity) {
        case IntegrityStatus::kClean: ++clean; break;
        case IntegrityStatus::kCorrected: ++corrected; break;
        case IntegrityStatus::kEscalated: ++escalated; break;
      }
    }
    response.start_row()
        .cell(static_cast<std::int64_t>(k))
        .cell(static_cast<std::int64_t>(clean))
        .cell(static_cast<std::int64_t>(corrected))
        .cell(static_cast<std::int64_t>(escalated))
        .cell(static_cast<std::int64_t>(refused))
        .cell(static_cast<double>(retransmits) / 40.0, 2)
        .cell(static_cast<double>(escalations) / 40.0, 2);
  }
  response.print(std::cout);

  std::cout << "\n=== Retransmit-budget sensitivity (8x8, transient windows) ===\n\n";
  TextTable budget({"max retransmits", "corrected", "escalated", "avg final tick"});
  for (int max_retransmits : {0, 1, 2, 3, 5}) {
    int corrected = 0, escalated = 0;
    std::int64_t ticks = 0;
    int measured = 0;
    for (int run = 0; run < 40; ++run) {
      SplitMix64 rng(0xBEEF + static_cast<std::uint64_t>(run));
      CorruptionModel corruption;
      corruption.inject_random_corruptions(torus, rng.next(), 2, 0,
                                           static_cast<std::int64_t>(1 + rng.next_below(4)));
      ResilienceOptions options;
      options.algorithm = AlltoallAlgorithm::kSuhShin;
      IntegrityOptions integrity;
      integrity.max_retransmits = max_retransmits;
      ExchangeOutcome outcome;
      try {
        comm.alltoall_checked(send, FaultModel{}, corruption, outcome, options, integrity);
      } catch (const std::exception&) {
        continue;
      }
      if (outcome.integrity == IntegrityStatus::kCorrected) ++corrected;
      if (outcome.integrity == IntegrityStatus::kEscalated) ++escalated;
      ticks += outcome.run_tick;
      ++measured;
    }
    budget.start_row()
        .cell(static_cast<std::int64_t>(max_retransmits))
        .cell(static_cast<std::int64_t>(corrected))
        .cell(static_cast<std::int64_t>(escalated))
        .cell(measured > 0 ? static_cast<double>(ticks) / measured : 0.0, 2);
  }
  budget.print(std::cout);
  std::cout << "\nEvery run above either delivered the exact AAPE permutation or refused "
               "loudly; silent corruption is structurally impossible at any budget.\n";
  return 0;
}
