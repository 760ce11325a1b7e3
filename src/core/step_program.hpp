// The compiled schedule: a SuhShinAape plus a §3.3 layout policy,
// replayed by the payload step kernel without re-deriving either.
//
// The schedule does not depend on the data. For the canonical seed (one
// parcel per destination, in destination order) every buffer's content
// and order at every step is fixed, so whatever the executor would
// otherwise recompute per call — which parcels each step sends, and
// where they sit — can be computed once. StepProgram records it:
//  * per (step, node): the partner, the send set as {offset, count}
//    runs of the node's buffer, and whether the receive may overwrite
//    the send's own slots (a single run replaced by an equal-sized
//    message, so the buffer neither shrinks nor grows);
//  * per phase boundary: the rearrangement (the paper's ρ pass) as a
//    stable counting sort by a precomputed key. Keys come from small
//    per-node tables indexed by a class of the destination — its
//    subtorus coordinate along the node's ring for the scatter phases
//    (a ring-distance table), its half or parity bits for the exchange
//    phases (a 2^n-entry Gray-rank table), the destination itself for
//    the naive layout — so the program never stores an N-entry
//    permutation per node.
//
// Compiling simulates the schedule once over block identities and
// checks the AAPE postcondition. The program is a value: it holds no
// pointer into the schedule it was compiled from, only that schedule's
// shape and convention, against which require_compiled_for() checks
// every replay. Every table owns whole cache lines (util/cache_line.hpp):
// the kernel's participants read them for every parcel while writing
// their own scratch, and must never share a line with that scratch.
#pragma once

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

/// One send run: `count` parcels from buffer slot `offset` on.
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

/// Stable counting sort of `items` by `key_of(item)` in [0, num_keys):
/// three linear passes (histogram, prefix sum, move into `scratch`),
/// then the two vectors swap. `scratch` and `counts` (a vector of
/// std::uint32_t) are reusable storage; once they reach capacity the
/// sort allocates nothing.
template <typename Item, typename Counts, typename KeyOf>
void stable_counting_sort(std::vector<Item>& items, std::vector<Item>& scratch, Counts& counts,
                          std::uint32_t num_keys, KeyOf&& key_of) {
  counts.assign(static_cast<std::size_t>(num_keys) + 1, 0);
  for (const Item& x : items) ++counts[static_cast<std::size_t>(key_of(x)) + 1];
  for (std::size_t k = 1; k < counts.size(); ++k) counts[k] += counts[k - 1];
  scratch.resize(items.size());
  for (Item& x : items) {
    const std::size_t key = key_of(x);
    scratch[counts[key]++] = std::move(x);
  }
  items.swap(scratch);
}

/// A schedule compiled for replay by the step kernel of
/// core/payload_exchange.hpp (see the file comment).
class StepProgram {
 public:
  /// One node's part of one step.
  struct NodeStep {
    Rank partner = -1;             ///< receiver of this node's message
    std::uint32_t first_run = 0;   ///< index of the first send run
    std::uint32_t count = 0;       ///< parcels sent; 0 when the node is idle
    std::uint32_t run_count = 0;   ///< send runs (1 = one memcpy)
    bool in_place = false;         ///< the receive overwrites the single send run
  };

  /// Rearrangement key of one node at one phase boundary: a parcel for
  /// destination d sorts by key_of_class[class_of[d]].
  struct SortKey {
    const std::uint32_t* class_of = nullptr;
    const std::uint32_t* key_of_class = nullptr;
    std::uint32_t operator()(Rank dest) const {
      return key_of_class[class_of[static_cast<std::size_t>(dest)]];
    }
  };

  /// Compiles `algo` under `layout`. Throws when the simulated schedule
  /// violates the AAPE postcondition or the one-port model.
  explicit StepProgram(const SuhShinAape& algo, LayoutPolicy layout = LayoutPolicy::kPaper);

  Rank num_nodes() const { return shape_.num_nodes(); }
  int num_phases() const { return static_cast<int>(phase_first_step_.size()) - 1; }
  int steps_in_phase(int phase) const {
    return phase_first_step_[static_cast<std::size_t>(phase)] -
           phase_first_step_[static_cast<std::size_t>(phase - 1)];
  }

  /// Throws StepProgramMismatchError unless `algo` is the schedule this
  /// program was compiled from (same shape, same pattern convention).
  void require_compiled_for(const SuhShinAape& algo) const;

  /// Node `node`'s send in (phase, step); both 1-based.
  const NodeStep& step(int phase, int step, Rank node) const {
    return steps_[step_index(phase, step, node)];
  }

  /// The send runs of one node step, ascending by offset.
  std::span<const SendRun> runs(const NodeStep& s) const {
    return {runs_.data() + s.first_run, s.run_count};
  }

  /// Whether buffers are rearranged at the start of `phase` (the paper
  /// layout skips scatter phases that have no steps).
  bool rearranges(int phase) const { return num_keys(phase) > 0; }

  /// Key range of the rearrangement at the start of `phase` (0: none).
  std::uint32_t num_keys(int phase) const {
    return num_keys_[static_cast<std::size_t>(phase - 1)];
  }

  /// The rearrangement key of `node` at the start of `phase`.
  SortKey sort_key(int phase, Rank node) const {
    const Keying& k = keying_[static_cast<std::size_t>(phase - 1) *
                                  static_cast<std::size_t>(num_nodes()) +
                              static_cast<std::size_t>(node)];
    return {classes_.data() + k.classes_at, keys_.data() + k.keys_at};
  }

  /// The program's tables as byte ranges. Each starts on a cache line,
  /// and the lines it spans hold nothing else.
  std::array<std::span<const std::byte>, 7> tables() const;

  /// Bytes held by the program's tables.
  std::size_t memory_bytes() const;

 private:
  struct Keying {
    std::uint32_t classes_at = 0;  ///< offset of the dest -> class table
    std::uint32_t keys_at = 0;     ///< offset of the class -> key table
  };

  std::size_t step_index(int phase, int step, Rank node) const {
    const auto flat = static_cast<std::size_t>(
        phase_first_step_[static_cast<std::size_t>(phase - 1)] + step - 1);
    return flat * static_cast<std::size_t>(num_nodes()) + static_cast<std::size_t>(node);
  }
  void compile_keys(const SuhShinAape& algo, LayoutPolicy layout);
  void compile_steps(const SuhShinAape& algo);

  TorusShape shape_;
  PatternConvention convention_;
  LineVector<int> phase_first_step_;       // [phase - 1]: flat index of step 1; last = total
  LineVector<NodeStep> steps_;             // [flat step * N + node]
  LineVector<SendRun> runs_;
  LineVector<std::uint32_t> classes_;      // dest -> class tables, N entries each
  LineVector<std::uint32_t> keys_;         // class -> key tables, deduplicated
  LineVector<Keying> keying_;              // [(phase - 1) * N + node]
  LineVector<std::uint32_t> num_keys_;     // [phase - 1]
};

}  // namespace torex
