#include "core/data_array.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"
#include "util/math.hpp"

namespace torex {

namespace layout {

/// Directed ring distance (in subtorus hops) from `node`'s submesh to
/// the block target's submesh along `dim`, in direction `sign`.
std::int64_t scatter_key(const TorusShape& shape, const Coord& node_coord, const Block& b,
                         const Direction& dir) {
  const std::int64_t ring = shape.extent(dir.dim) / 4;
  const std::int64_t from = node_coord[static_cast<std::size_t>(dir.dim)] / 4;
  // coord_along avoids materializing the full destination coordinate;
  // this key runs inside sort comparators, O(N log N) times per pass.
  const std::int64_t to = shape.coord_along(b.dest, dir.dim) / 4;
  const std::int64_t ahead = floor_mod(to - from, ring);
  return dir.sign == Sign::kPositive ? ahead : floor_mod(-(to - from), ring);
}

/// Difference vector of a block at `node` for the quarter/pair phases:
/// the bit for step s is set iff the block still differs from the
/// holder in the dimension it will exchange in step s. Step 1 takes the
/// MOST significant bit: ordering buffers by the binary-reflected Gray
/// rank of this word then makes the step-1 send a contiguous tail, and
/// (because reflection reverses the sub-order of the sent half exactly
/// the way the receiver needs it) keeps step 2 contiguous as well — the
/// n-D generalization of the paper's B0, B1, B3, B2 layout. A parity
/// argument (DESIGN.md) shows later steps cannot all stay contiguous
/// for n >= 3: measured fragmentation doubles per extra dimension,
/// reaching at most 2^(n-2) runs per send (2 in 3D, 4 in 4D, ...).
std::uint32_t difference_vector(const SuhShinAape& algo, Rank node, int phase,
                                const Block& b) {
  const int n = algo.num_dims();
  std::uint32_t bits = 0;
  for (int step = 1; step <= n; ++step) {
    if (algo.should_send(node, phase, step, b)) bits |= 1u << (n - step);
  }
  return bits;
}

/// Rank of `word` in the binary-reflected Gray sequence (inverse Gray
/// code).
std::uint32_t gray_rank(std::uint32_t word) {
  std::uint32_t binary = 0;
  for (std::uint32_t w = word; w != 0; w >>= 1) binary ^= w;
  return binary;
}

}  // namespace layout

using layout::difference_vector;
using layout::gray_rank;
using layout::scatter_key;

LayoutStats run_layout_simulation(const SuhShinAape& algo, LayoutPolicy policy,
                                  std::vector<std::vector<Block>>* final_buffers,
                                  const LayoutReceiveObserver& on_receive) {
  const TorusShape& shape = algo.shape();
  const Rank N = shape.num_nodes();

  std::vector<std::vector<Block>> buffers(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    auto& buf = buffers[static_cast<std::size_t>(p)];
    buf.reserve(static_cast<std::size_t>(N));
    for (Rank d = 0; d < N; ++d) buf.push_back(Block{p, d});
  }

  LayoutStats stats;

  // In-flight messages: per destination node, the spliced-out blocks in
  // wire order. The splice position belongs to the *receiver* — the hole
  // its own send left — so it lives per node, not with the message.
  struct Incoming {
    std::vector<Block> blocks;
    bool active = false;
  };
  std::vector<Incoming> inbox(static_cast<std::size_t>(N));
  std::vector<std::size_t> own_hole(static_cast<std::size_t>(N));

  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    // Phase-boundary rearrangement: sort every buffer by the phase key.
    // (The paper counts one pass per boundary; we sort at the start of
    // every phase, which is the same n+1 passes when phase 1's initial
    // layout is counted as given.)
    if (phase > 1) {
      ++stats.rearrangement_passes;
      stats.blocks_rearranged += N;  // per-node accounting: N blocks per pass
    }
    for (Rank p = 0; p < N; ++p) {
      auto& buf = buffers[static_cast<std::size_t>(p)];
      if (policy == LayoutPolicy::kNaiveDestinationOrder) {
        std::stable_sort(buf.begin(), buf.end(),
                         [](const Block& a, const Block& b) { return a.dest < b.dest; });
      } else if (algo.phase_kind(phase) == PhaseKind::kScatter) {
        if (algo.steps_in_phase(phase) == 0) continue;
        const Direction dir = algo.direction(p, phase, 1);
        const Coord pc = shape.coord_of(p);
        std::stable_sort(buf.begin(), buf.end(), [&](const Block& a, const Block& b) {
          return scatter_key(shape, pc, a, dir) < scatter_key(shape, pc, b, dir);
        });
      } else {
        std::stable_sort(buf.begin(), buf.end(), [&](const Block& a, const Block& b) {
          return gray_rank(difference_vector(algo, p, phase, a)) <
                 gray_rank(difference_vector(algo, p, phase, b));
        });
      }
    }

    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
      // Send: splice out the predicate-matching blocks, recording run
      // structure.
      for (Rank p = 0; p < N; ++p) {
        auto& buf = buffers[static_cast<std::size_t>(p)];
        std::vector<Block> message;
        std::int64_t runs = 0;
        bool in_run = false;
        std::size_t& hole = own_hole[static_cast<std::size_t>(p)];
        hole = buf.size();
        std::size_t write = 0;
        for (std::size_t i = 0; i < buf.size(); ++i) {
          if (algo.should_send(p, phase, step, buf[i])) {
            if (!in_run) {
              ++runs;
              in_run = true;
              if (message.empty()) hole = write;
            }
            message.push_back(buf[i]);
          } else {
            in_run = false;
            buf[write++] = buf[i];
          }
        }
        if (message.empty()) continue;
        buf.resize(write);

        ++stats.total_sends;
        stats.total_runs += runs;
        if (runs == 1) {
          ++stats.contiguous_sends;
        } else {
          stats.gathered_blocks += static_cast<std::int64_t>(message.size());
        }
        stats.max_runs_per_send = std::max(stats.max_runs_per_send, runs);

        const Rank q = algo.partner(p, phase, step);
        Incoming& in = inbox[static_cast<std::size_t>(q)];
        TOREX_CHECK(!in.active, "one-port receive violation in layout simulation");
        in.blocks = std::move(message);
        in.active = true;
      }
      // Deliver: splice each message, order preserved, into the hole
      // its own send left (or append when the node sent nothing).
      for (Rank p = 0; p < N; ++p) {
        Incoming& in = inbox[static_cast<std::size_t>(p)];
        if (!in.active) continue;
        auto& buf = buffers[static_cast<std::size_t>(p)];
        const std::size_t at = std::min(own_hole[static_cast<std::size_t>(p)], buf.size());
        buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at), in.blocks.begin(),
                   in.blocks.end());
        if (on_receive) on_receive(phase, step, p, in.blocks);
        in.blocks.clear();
        in.active = false;
      }
    }
  }

  // Postcondition.
  for (Rank p = 0; p < N; ++p) {
    const auto& buf = buffers[static_cast<std::size_t>(p)];
    TOREX_CHECK(static_cast<Rank>(buf.size()) == N, "layout engine lost blocks");
    std::vector<char> seen(static_cast<std::size_t>(N), 0);
    for (const Block& b : buf) {
      TOREX_CHECK(b.dest == p, "layout engine misdelivered a block");
      TOREX_CHECK(!seen[static_cast<std::size_t>(b.origin)], "duplicate origin");
      seen[static_cast<std::size_t>(b.origin)] = 1;
    }
  }
  if (final_buffers != nullptr) *final_buffers = std::move(buffers);
  return stats;
}

}  // namespace torex
