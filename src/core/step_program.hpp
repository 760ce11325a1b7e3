// The compiled schedule: a SuhShinAape plus a §3.3 layout policy,
// replayed by the payload step kernel without re-deriving either.
//
// The schedule does not depend on the data. For the canonical seed (one
// payload per destination, in destination order) every node's row holds
// exactly N slots at every step, and which block sits in which slot is
// fixed, so whatever the executor would otherwise recompute per call —
// which slots each step sends, where they land, and whose block each
// slot holds — is computed once. StepProgram records it:
//  * per (step, node): the partner, the sender whose message the node
//    receives, the send set as {offset, count} runs of the node's row,
//    and whether the receive overwrites the send's own slots (a single
//    run). Every node receives exactly as many slots as it sends, so a
//    row never grows or shrinks; a multi-run send closes its gaps
//    towards the end of the row and the receive lands in one piece at
//    the first run's offset;
//  * per step, what its messages add up to (the wire statistics the
//    kernel records), and per phase its largest message, which sizes
//    the frame each sender leases for the phase;
//  * per phase boundary and node: the rearrangement (the paper's ρ
//    pass) as a slot permutation, in gather form (slot i takes the
//    payload of slot perm[i]);
//  * the block identity of the slots the kernel never inspects: each
//    node's final slot of every origin, for unpacking a result, and per
//    (step, receiver) the receive offset and origin of every parcel that
//    reaches its destination, for the exchange journal.
//
// The tables are interned: nodes whose permutation, final layout or
// arrival list is the same share one copy. Origins are stored relative
// to the node that holds them (the coordinate difference, per
// dimension), so translated nodes — which the schedule treats alike —
// share tables too, and no table grows with N per node.
//
// Compiling simulates the schedule once over block identities and
// proves the AAPE postcondition there, for every replay: the kernel
// moves bare payloads and checks no identity at run time. The program
// is a value: it holds no pointer into the schedule it was compiled
// from, only that schedule's shape and convention, against which
// require_compiled_for() checks every replay, and a 64-bit fingerprint
// of (shape, convention, layout) that seals every wire frame. Every
// table owns whole cache lines (util/cache_line.hpp): the kernel's
// participants read them while writing rows, and no row may share a
// line with a table.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/aape.hpp"
#include "core/data_array.hpp"
#include "util/cache_line.hpp"

namespace torex {

/// One send run: `count` slots from row slot `offset` on.
struct SendRun {
  std::uint32_t offset = 0;
  std::uint32_t count = 0;
};

/// A StepProgram replayed against a schedule it was not compiled for.
/// Subclasses std::invalid_argument: it is an argument contract, like
/// every other precondition of the exchange entry points.
class StepProgramMismatchError : public std::invalid_argument {
 public:
  explicit StepProgramMismatchError(const std::string& why)
      : std::invalid_argument("step program does not match the schedule: " + why) {}
};

/// A vector whose storage owns whole cache lines.
template <typename T>
using LineVector = std::vector<T, CacheLineAllocator<T>>;

/// Closes the gaps a multi-run send leaves in a row of `size` slots:
/// the slots after the first run that stay behind move, in order, to
/// the end of the row, in one backward pass. The receive then lands in
/// one piece at runs.front().offset. Slots already in place (those
/// after the last run) are not moved: a move onto itself may empty a
/// payload such as std::string, and std::move_backward forbids it.
template <typename T>
void close_send_gaps(T* row, std::size_t size, std::span<const SendRun> runs) {
  std::size_t write = size;
  for (std::size_t r = runs.size(); r-- > 0;) {
    const std::size_t begin = std::size_t{runs[r].offset} + runs[r].count;
    const std::size_t end = r + 1 < runs.size() ? runs[r + 1].offset : size;
    if (write != end) std::move_backward(row + begin, row + end, row + write);
    write -= end - begin;
  }
}

/// A schedule compiled for replay by the step kernel of
/// core/payload_exchange.hpp (see the file comment).
class StepProgram {
 public:
  /// One node's part of one step: its send, and what its receive brings.
  struct NodeStep {
    Rank partner = -1;                ///< receiver of this node's message
    Rank from = -1;                   ///< sender of the message this node receives
    std::uint32_t first_run = 0;      ///< index of the first send run
    std::uint32_t count = 0;          ///< slots sent, and received; 0 when idle
    std::uint32_t run_count = 0;      ///< send runs (1 = one memcpy)
    std::uint32_t first_arrival = 0;  ///< index of the receive's first Arrival
    std::uint32_t arrival_count = 0;  ///< received parcels that reach this node
    bool in_place = false;            ///< the receive overwrites the single send run
  };

  /// What the messages of one step add up to: the kernel records these
  /// wire statistics once per step instead of once per message.
  struct StepTotals {
    std::uint32_t messages = 0;
    std::uint32_t parcels = 0;
    std::uint32_t runs = 0;        ///< send runs, over every message
    std::uint32_t contiguous = 0;  ///< messages sent as a single run
    std::uint32_t gathered = 0;    ///< parcels of multi-run messages
    std::uint32_t max_runs = 0;    ///< most runs of one message (0: none sent)
    std::uint32_t arrivals = 0;    ///< parcels that reach their destinations
  };

  /// A received parcel that has reached its destination: its offset in
  /// the receive and its origin, relative to the receiver.
  struct Arrival {
    std::uint32_t offset = 0;
    std::uint32_t origin = 0;
  };

  /// The largest dimension count a program supports (every extent is at
  /// least four, so a torus whose node count fits a Rank has fewer).
  static constexpr int kMaxDims = 16;

  /// Compiles `algo` under `layout`. Throws when the simulated schedule
  /// violates the AAPE postcondition or the one-port model (two senders
  /// for one receiver in a step), or when a node would receive a
  /// different number of parcels than it sends.
  explicit StepProgram(const SuhShinAape& algo, LayoutPolicy layout = LayoutPolicy::kPaper);

  const TorusShape& shape() const { return shape_; }
  Rank num_nodes() const { return shape_.num_nodes(); }
  int num_phases() const { return static_cast<int>(phase_first_step_.size()) - 1; }
  int steps_in_phase(int phase) const {
    return phase_first_step_[static_cast<std::size_t>(phase)] -
           phase_first_step_[static_cast<std::size_t>(phase - 1)];
  }
  /// Steps over every phase.
  std::int64_t total_steps() const { return phase_first_step_.back(); }
  /// The 1-based (phase, step) of 0-based flat step `flat`.
  std::pair<int, int> coordinates(std::int64_t flat) const {
    const auto next = std::upper_bound(phase_first_step_.begin(), phase_first_step_.end(), flat);
    const auto phase = static_cast<int>(next - phase_first_step_.begin());
    return {phase,
            static_cast<int>(flat - phase_first_step_[static_cast<std::size_t>(phase - 1)]) + 1};
  }

  /// 64-bit digest of (shape, pattern convention, layout): every frame
  /// the kernel seals names the program it was sealed for.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// Throws StepProgramMismatchError unless `algo` is the schedule this
  /// program was compiled from (same shape, same pattern convention).
  void require_compiled_for(const SuhShinAape& algo) const;

  /// Node `node`'s part of (phase, step); both 1-based.
  const NodeStep& step(int phase, int step, Rank node) const {
    return steps_[step_index(phase, step, node)];
  }

  /// What the messages of (phase, step) add up to.
  const StepTotals& totals(int phase, int step) const {
    return totals_[static_cast<std::size_t>(
        phase_first_step_[static_cast<std::size_t>(phase - 1)] + step - 1)];
  }

  /// The most parcels one node sends in one step of `phase` (0 when the
  /// phase has no steps).
  std::uint32_t largest_message(int phase) const {
    return largest_[static_cast<std::size_t>(phase - 1)];
  }

  /// The send runs of one node step, ascending by offset.
  std::span<const SendRun> runs(const NodeStep& s) const {
    return {runs_.data() + s.first_run, s.run_count};
  }

  /// Whether any row is rearranged at the start of `phase`.
  bool rearranges(int phase) const {
    const auto first = perm_of_.begin() + static_cast<std::ptrdiff_t>(phase - 1) * num_nodes();
    return std::any_of(first, first + num_nodes(),
                       [](std::uint32_t at) { return at != kKeepsOrder; });
  }

  /// The rearrangement of `node`'s row at the start of `phase`, in
  /// gather form (slot i takes slot perm[i]); empty when the row keeps
  /// its order.
  std::span<const std::uint32_t> permutation(int phase, Rank node) const {
    const std::uint32_t at = perm_of_[static_cast<std::size_t>(phase - 1) *
                                          static_cast<std::size_t>(num_nodes()) +
                                      static_cast<std::size_t>(node)];
    if (at == kKeepsOrder) return {};
    return {perms_.data() + at, static_cast<std::size_t>(num_nodes())};
  }

  /// Calls fn(offset, origin) for every parcel of `node`'s receive in
  /// (phase, step) that reaches its destination, in receive order.
  template <typename Fn>
  void for_each_arrival(int phase, int step, Rank node, Fn&& fn) const {
    const NodeStep& s = this->step(phase, step, node);
    if (s.arrival_count == 0) return;
    const Digits at = digits_of(node);
    const Arrival* first = arrivals_.data() + s.first_arrival;
    for (const Arrival* a = first; a != first + s.arrival_count; ++a) {
      fn(a->offset, resolve(at, a->origin));
    }
  }

  /// Calls fn(origin, slot) for every origin in ascending order, with
  /// the slot of `node`'s row that holds origin's parcel once the
  /// exchange is done.
  template <typename Fn>
  void for_each_origin(Rank node, Fn&& fn) const {
    const std::uint32_t* slot_of = finals_.data() + final_of_[static_cast<std::size_t>(node)];
    const Digits at = digits_of(node);
    const auto last = static_cast<std::size_t>(dims_.size() - 1);
    const std::int32_t extent = dims_[last].extent;
    const std::int32_t shift = at[last];
    Digits outer{};
    for (Rank base = 0; base < num_nodes(); base += extent) {
      // The relative rank of the outer digits; the last digit's
      // difference wraps once, so its slots come in two pieces.
      std::size_t rel = 0;
      for (std::size_t d = 0; d < last; ++d) {
        std::int32_t diff = outer[d] - at[d];
        if (diff < 0) diff += dims_[d].extent;
        rel += static_cast<std::size_t>(diff) * static_cast<std::size_t>(dims_[d].stride);
      }
      const std::uint32_t* row = slot_of + rel;
      for (std::int32_t c = 0; c < shift; ++c) fn(base + c, row[c + extent - shift]);
      for (std::int32_t c = shift; c < extent; ++c) fn(base + c, row[c - shift]);
      for (std::size_t d = last; d-- > 0;) {
        if (++outer[d] < dims_[d].extent) break;
        outer[d] = 0;
      }
    }
  }

  /// The program's tables as byte ranges. Each starts on a cache line,
  /// and the lines it spans hold nothing else.
  std::array<std::span<const std::byte>, 11> tables() const;

  /// Bytes held by the program's tables.
  std::size_t memory_bytes() const;

 private:
  /// One dimension of the torus, and its field in a relative origin.
  struct Dim {
    std::int32_t extent = 0;
    std::int32_t stride = 0;  ///< of a rank (row-major)
    std::uint32_t shift = 0;  ///< of the field in a relative origin
    std::uint32_t mask = 0;
  };
  using Digits = std::array<std::int32_t, kMaxDims>;

  static constexpr std::uint32_t kKeepsOrder = 0xFFFFFFFFu;

  std::size_t step_index(int phase, int step, Rank node) const {
    const auto flat = static_cast<std::size_t>(
        phase_first_step_[static_cast<std::size_t>(phase - 1)] + step - 1);
    return flat * static_cast<std::size_t>(num_nodes()) + static_cast<std::size_t>(node);
  }

  Digits digits_of(Rank node) const {
    Digits at{};
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      at[d] = (node / dims_[d].stride) % dims_[d].extent;
    }
    return at;
  }

  /// The rank `origin` (a relative origin) names, seen from the node at
  /// digits `at`.
  Rank resolve(const Digits& at, std::uint32_t origin) const {
    Rank rank = 0;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      const auto diff = static_cast<std::int32_t>((origin >> dims_[d].shift) & dims_[d].mask);
      std::int32_t c = at[d] + diff;
      if (c >= dims_[d].extent) c -= dims_[d].extent;
      rank += c * dims_[d].stride;
    }
    return rank;
  }

  void compile(const SuhShinAape& algo);

  TorusShape shape_;
  PatternConvention convention_;
  LayoutPolicy layout_;
  std::uint64_t fingerprint_ = 0;
  LineVector<Dim> dims_;
  LineVector<int> phase_first_step_;      // [phase - 1]: flat index of step 1; last = total
  LineVector<NodeStep> steps_;            // [flat step * N + node]
  LineVector<StepTotals> totals_;         // [flat step]
  LineVector<std::uint32_t> largest_;     // [phase - 1]: most parcels of one message
  LineVector<SendRun> runs_;
  LineVector<std::uint32_t> perms_;       // interned permutations, N entries each
  LineVector<std::uint32_t> perm_of_;     // [(phase - 1) * N + node]: offset, or kKeepsOrder
  LineVector<std::uint32_t> finals_;      // interned final layouts: relative origin rank -> slot
  LineVector<std::uint32_t> final_of_;    // [node]: offset into finals_
  LineVector<Arrival> arrivals_;          // interned arrival lists
};

}  // namespace torex
