// Physical data-array model (paper §3.3).
//
// The cost model charges one data-rearrangement pass between phases
// (n+1 passes total) and none inside a phase, on the claim that with
// the right array ordering every step's send set is *physically
// contiguous*: the message can be handed to the router without copying.
//
// This module executes the schedule over ordered per-node buffers and
// checks that claim mechanically:
//  * at each phase boundary every node re-sorts its buffer by the
//    phase's layout key (counted as one rearrangement pass);
//  * within a phase, each send extracts the predicate-matching blocks,
//    recording how many contiguous runs they occupied (1 = free send,
//    >1 = the router would need scatter-gather or an extra copy);
//  * the received message is spliced, order-preserved, into the hole
//    the send left (receives always copy from the consumption buffer,
//    so their placement is free).
//
// Layout keys:
//  * scatter phase k: ascending directed subtorus distance to the
//    block's target along the phase dimension — step sends are always
//    the tail of the buffer;
//  * quarter / pair phases: the binary-reflected Gray rank of the
//    "difference vector" (bit s = block still differs from the holder
//    in the dimension of step s), the n-D generalization of the
//    paper's B0, B1, B3, B2 ordering.
//
// Finding: in 2D this reproduces the paper exactly (every send is one
// run). For n >= 3 the final two phases cannot keep all n steps
// contiguous under any fixed ordering (a parity obstruction — see
// DESIGN.md); the simulator quantifies the extra gather traffic the
// paper's n-D cost model leaves out.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/aape.hpp"
#include "core/block.hpp"

namespace torex {

/// Contiguity statistics of one layout-faithful execution.
struct LayoutStats {
  /// Inter-phase rearrangement passes performed (paper: n+1).
  std::int64_t rearrangement_passes = 0;
  /// Blocks touched by those passes (passes * N per node, summed over
  /// the busiest node only, matching the paper's per-node accounting).
  std::int64_t blocks_rearranged = 0;
  /// Total send events across all nodes and steps.
  std::int64_t total_sends = 0;
  /// Send events whose blocks occupied a single contiguous run.
  std::int64_t contiguous_sends = 0;
  /// Worst number of runs any single send needed.
  std::int64_t max_runs_per_send = 1;
  /// Blocks that belonged to multi-run sends (would need gathering).
  std::int64_t gathered_blocks = 0;
  /// Runs across all sends (the wire's runs_encoded).
  std::int64_t total_runs = 0;

  bool fully_contiguous() const { return contiguous_sends == total_sends; }
};

// --- §3.3 layout keys --------------------------------------------------
//
// Shared by the block-level layout simulator below and the pooled
// payload executor (core/payload_exchange.hpp), so both order their
// buffers identically and report comparable run statistics.
namespace layout {

/// Scatter-phase key: directed ring distance (in subtorus hops) from
/// `node_coord`'s submesh to the block target's submesh along the
/// phase dimension, in the node's transmit direction. Sorting
/// ascending makes every step's send set the tail of the buffer.
std::int64_t scatter_key(const TorusShape& shape, const Coord& node_coord, const Block& b,
                         const Direction& dir);

/// Difference vector of a block at `node` for the quarter/pair phases:
/// bit for step s set iff the block still differs from the holder in
/// the dimension exchanged at step s (step 1 = most significant bit).
std::uint32_t difference_vector(const SuhShinAape& algo, Rank node, int phase, const Block& b);

/// Rank of `word` in the binary-reflected Gray sequence (inverse Gray
/// code). Ordering by gray_rank(difference_vector(...)) is the n-D
/// generalization of the paper's B0, B1, B3, B2 layout.
std::uint32_t gray_rank(std::uint32_t word);

}  // namespace layout

/// Which layout key the per-phase rearrangement uses.
enum class LayoutPolicy {
  /// The paper's §3.3 ordering (distance-sorted scatter key, Gray-coded
  /// difference vector for the exchange phases).
  kPaper,
  /// Ablation: keep buffers ordered by destination rank — a natural but
  /// naive layout that fragments the send sets.
  kNaiveDestinationOrder,
};

/// Sees every message a layout simulation lands: the 1-based
/// (phase, step), the receiver, and the message's blocks in wire order.
using LayoutReceiveObserver =
    std::function<void(int phase, int step, Rank receiver, const std::vector<Block>& message)>;

/// Executes the schedule with full layout fidelity and verifies the
/// AAPE postcondition. Throws on any correctness violation. When
/// `final_buffers` is non-null it receives every node's buffer in its
/// final physical order; `on_receive`, when set, sees every landed
/// message.
LayoutStats run_layout_simulation(const SuhShinAape& algo,
                                  LayoutPolicy policy = LayoutPolicy::kPaper,
                                  std::vector<std::vector<Block>>* final_buffers = nullptr,
                                  const LayoutReceiveObserver& on_receive = {});

}  // namespace torex
