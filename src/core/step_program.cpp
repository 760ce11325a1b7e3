#include "core/step_program.hpp"

#include <algorithm>
#include <limits>
#include <map>

#include "util/assert.hpp"

namespace torex {

namespace {

/// Narrows a buffer position or table offset to the program's 32-bit
/// fields; compiling a schedule too large for them is refused.
std::uint32_t narrow(std::size_t v) {
  TOREX_REQUIRE(v <= std::numeric_limits<std::uint32_t>::max(),
                "schedule too large for a step program");
  return static_cast<std::uint32_t>(v);
}

}  // namespace

StepProgram::StepProgram(const SuhShinAape& algo, LayoutPolicy layout)
    : shape_(algo.shape()), convention_(algo.convention()) {
  compile_keys(algo, layout);
  compile_steps(algo);
}

void StepProgram::require_compiled_for(const SuhShinAape& algo) const {
  if (!(algo.shape() == shape_)) {
    throw StepProgramMismatchError("compiled for " + shape_.to_string() + ", replayed on " +
                                   algo.shape().to_string());
  }
  if (algo.convention() != convention_) {
    throw StepProgramMismatchError("compiled for another pattern convention on " +
                                   shape_.to_string());
  }
}

std::array<std::span<const std::byte>, 7> StepProgram::tables() const {
  return {std::as_bytes(std::span(phase_first_step_)), std::as_bytes(std::span(steps_)),
          std::as_bytes(std::span(runs_)),             std::as_bytes(std::span(classes_)),
          std::as_bytes(std::span(keys_)),             std::as_bytes(std::span(keying_)),
          std::as_bytes(std::span(num_keys_))};
}

std::size_t StepProgram::memory_bytes() const {
  std::size_t bytes = 0;
  for (const std::span<const std::byte> table : tables()) bytes += table.size();
  return bytes;
}

// Each key table is built by evaluating the layout simulator's own key
// functions (layout::scatter_key, layout::difference_vector) on one
// representative destination per class, so the program sorts by
// exactly the keys the oracle does.
void StepProgram::compile_keys(const SuhShinAape& algo, LayoutPolicy layout) {
  const Rank N = num_nodes();
  const auto nodes = static_cast<std::size_t>(N);
  const int n = shape_.num_dims();
  const int phases = algo.num_phases();
  keying_.assign(static_cast<std::size_t>(phases) * nodes, Keying{});
  num_keys_.assign(static_cast<std::size_t>(phases), 0);

  const auto add_classes = [&](auto&& class_of) {
    const std::uint32_t at = narrow(classes_.size());
    for (Rank d = 0; d < N; ++d) classes_.push_back(class_of(d));
    return at;
  };
  std::map<std::vector<std::uint32_t>, std::uint32_t> interned;
  const auto intern = [&](const std::vector<std::uint32_t>& table) {
    const auto [it, fresh] = interned.emplace(table, narrow(keys_.size()));
    if (fresh) keys_.insert(keys_.end(), table.begin(), table.end());
    return it->second;
  };

  if (layout == LayoutPolicy::kNaiveDestinationOrder) {
    // Destination order at every boundary: class = key = destination.
    const std::uint32_t classes_at =
        add_classes([](Rank d) { return static_cast<std::uint32_t>(d); });
    std::vector<std::uint32_t> identity(nodes);
    for (std::size_t d = 0; d < nodes; ++d) identity[d] = narrow(d);
    const std::uint32_t keys_at = intern(identity);
    std::fill(keying_.begin(), keying_.end(), Keying{classes_at, keys_at});
    std::fill(num_keys_.begin(), num_keys_.end(), narrow(nodes));
    return;
  }

  // Destination classes: the subtorus coordinate along each dimension
  // (scatter), and the half / parity bit vectors (the two exchanges).
  std::vector<std::uint32_t> along_at(static_cast<std::size_t>(n));
  for (int dim = 0; dim < n; ++dim) {
    along_at[static_cast<std::size_t>(dim)] = add_classes([&](Rank d) {
      return static_cast<std::uint32_t>(shape_.coord_along(d, dim) / 4);
    });
  }
  const auto bits_of = [&](Rank d, int modulus, int divisor) {
    std::uint32_t bits = 0;
    for (int dim = 0; dim < n; ++dim) {
      if ((shape_.coord_along(d, dim) % modulus) / divisor != 0) bits |= 1u << dim;
    }
    return bits;
  };
  const std::uint32_t half_at = add_classes([&](Rank d) { return bits_of(d, 4, 2); });
  const std::uint32_t parity_at = add_classes([&](Rank d) { return bits_of(d, 2, 1); });

  Coord rep(static_cast<std::size_t>(n), 0);
  std::vector<std::uint32_t> table;
  for (int phase = 1; phase <= phases; ++phase) {
    Keying* row = keying_.data() + static_cast<std::size_t>(phase - 1) * nodes;
    std::uint32_t& num_keys = num_keys_[static_cast<std::size_t>(phase - 1)];
    const PhaseKind kind = algo.phase_kind(phase);
    if (kind == PhaseKind::kScatter) {
      if (algo.steps_in_phase(phase) == 0) continue;  // nothing moves: no rearrangement
      for (Rank p = 0; p < N; ++p) {
        const Direction dir = algo.direction(p, phase, 1);
        const Coord pc = shape_.coord_of(p);
        const std::int32_t ring = shape_.extent(dir.dim) / 4;
        table.assign(static_cast<std::size_t>(ring), 0);
        std::fill(rep.begin(), rep.end(), 0);
        for (std::int32_t c = 0; c < ring; ++c) {
          rep[static_cast<std::size_t>(dir.dim)] = 4 * c;
          table[static_cast<std::size_t>(c)] = static_cast<std::uint32_t>(
              layout::scatter_key(shape_, pc, Block{p, shape_.rank_of(rep)}, dir));
        }
        row[static_cast<std::size_t>(p)] =
            Keying{along_at[static_cast<std::size_t>(dir.dim)], intern(table)};
        num_keys = std::max(num_keys, static_cast<std::uint32_t>(ring));
      }
      continue;
    }
    // Exchange phases: the Gray rank of the difference vector, which is
    // a function of the destination's half (quarter exchange) or parity
    // (pair exchange) bits — 2^n classes.
    const bool quarter = kind == PhaseKind::kQuarterExchange;
    const std::uint32_t classes = 1u << n;
    table.assign(classes, 0);
    for (Rank p = 0; p < N; ++p) {
      for (std::uint32_t cls = 0; cls < classes; ++cls) {
        for (int dim = 0; dim < n; ++dim) {
          const std::int32_t bit = (cls >> dim) & 1u;
          rep[static_cast<std::size_t>(dim)] = quarter ? 2 * bit : bit;
        }
        table[cls] = layout::gray_rank(
            layout::difference_vector(algo, p, phase, Block{p, shape_.rank_of(rep)}));
      }
      row[static_cast<std::size_t>(p)] = Keying{quarter ? half_at : parity_at, intern(table)};
    }
    num_keys = classes;
  }
}

// Runs the schedule once over block identities, exactly as the payload
// executor will replay it: rearrange at each boundary, extract each
// step's send runs (compacting the buffer), splice every message into
// the hole its receiver's own send left (or append), then verify the
// AAPE postcondition.
void StepProgram::compile_steps(const SuhShinAape& algo) {
  const Rank N = num_nodes();
  const auto nodes = static_cast<std::size_t>(N);
  const int phases = algo.num_phases();
  phase_first_step_.assign(static_cast<std::size_t>(phases) + 1, 0);
  for (int phase = 1; phase <= phases; ++phase) {
    phase_first_step_[static_cast<std::size_t>(phase)] =
        phase_first_step_[static_cast<std::size_t>(phase - 1)] + algo.steps_in_phase(phase);
  }
  steps_.assign(static_cast<std::size_t>(phase_first_step_.back()) * nodes, NodeStep{});

  std::vector<std::vector<Block>> held(nodes);
  for (Rank p = 0; p < N; ++p) {
    auto& buf = held[static_cast<std::size_t>(p)];
    buf.reserve(nodes);
    for (Rank d = 0; d < N; ++d) buf.push_back(Block{p, d});
  }
  std::vector<Block> scratch;
  std::vector<std::uint32_t> counts;
  std::vector<std::vector<Block>> incoming(nodes);
  std::vector<std::size_t> hole(nodes);

  for (int phase = 1; phase <= phases; ++phase) {
    if (rearranges(phase)) {
      for (Rank p = 0; p < N; ++p) {
        const SortKey key = sort_key(phase, p);
        stable_counting_sort(held[static_cast<std::size_t>(p)], scratch, counts,
                             num_keys(phase), [&](const Block& b) { return key(b.dest); });
      }
    }
    for (int s = 1; s <= algo.steps_in_phase(phase); ++s) {
      for (Rank p = 0; p < N; ++p) {
        auto& buf = held[static_cast<std::size_t>(p)];
        NodeStep& ns = steps_[step_index(phase, s, p)];
        ns.partner = algo.partner(p, phase, s);
        ns.first_run = narrow(runs_.size());
        hole[static_cast<std::size_t>(p)] = buf.size();
        auto& message = incoming[static_cast<std::size_t>(ns.partner)];
        const bool receiver_free = message.empty();
        std::size_t kept = 0;
        for (std::size_t i = 0; i < buf.size(); ++i) {
          const Block b = buf[i];
          if (!algo.should_send(p, phase, s, b)) {
            buf[kept++] = b;
            continue;
          }
          if (ns.run_count == 0 || runs_.back().offset + runs_.back().count != i) {
            runs_.push_back(SendRun{narrow(i), 0});
            ++ns.run_count;
          }
          ++runs_.back().count;
          message.push_back(b);
        }
        if (ns.run_count == 0) continue;
        TOREX_CHECK(receiver_free, "one-port receive violation while compiling the schedule");
        ns.count = narrow(buf.size() - kept);
        buf.resize(kept);
        hole[static_cast<std::size_t>(p)] = runs_[ns.first_run].offset;
      }
      for (Rank q = 0; q < N; ++q) {
        auto& message = incoming[static_cast<std::size_t>(q)];
        if (message.empty()) continue;
        auto& buf = held[static_cast<std::size_t>(q)];
        const std::size_t at = std::min(hole[static_cast<std::size_t>(q)], buf.size());
        buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(at), message.begin(),
                   message.end());
        NodeStep& ns = steps_[step_index(phase, s, q)];
        ns.in_place = ns.run_count == 1 && message.size() == ns.count;
        message.clear();
      }
    }
  }

  std::vector<char> seen(nodes);
  for (Rank p = 0; p < N; ++p) {
    const auto& buf = held[static_cast<std::size_t>(p)];
    TOREX_CHECK(buf.size() == nodes, "compiled schedule lost blocks");
    std::fill(seen.begin(), seen.end(), 0);
    for (const Block& b : buf) {
      TOREX_CHECK(b.dest == p, "compiled schedule misdelivered a block");
      TOREX_CHECK(!seen[static_cast<std::size_t>(b.origin)], "duplicate origin");
      seen[static_cast<std::size_t>(b.origin)] = 1;
    }
  }
}

}  // namespace torex
