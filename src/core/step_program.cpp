#include "core/step_program.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <unordered_map>

#include "util/assert.hpp"

namespace torex {

namespace {

/// Narrows a row position or table offset to the program's 32-bit
/// fields; compiling a schedule too large for them is refused.
std::uint32_t narrow(std::size_t v) {
  TOREX_REQUIRE(v <= std::numeric_limits<std::uint32_t>::max(),
                "schedule too large for a step program");
  return static_cast<std::uint32_t>(v);
}

/// FNV-1a over the object representation of `v`, folded into `h`.
template <typename V>
std::uint64_t fnv1a(std::uint64_t h, const V& v) {
  unsigned char bytes[sizeof(V)];
  std::memcpy(bytes, &v, sizeof(V));
  for (const unsigned char b : bytes) h = (h ^ b) * 0x100000001B3ull;
  return h;
}

/// Interned tables: a table equal to one already in `pool` is stored
/// once, and both share its offset.
template <typename E>
class Interner {
 public:
  explicit Interner(LineVector<E>& pool) : pool_(pool) {}

  std::uint32_t intern(const std::vector<E>& table) {
    const std::size_t bytes = table.size() * sizeof(E);
    std::uint64_t h = 0xCBF29CE484222325ull ^ table.size();
    const auto* words = reinterpret_cast<const unsigned char*>(table.data());
    for (std::size_t at = 0; at + 8 <= bytes; at += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, words + at, 8);
      h = (h ^ w) * 0x9E3779B97F4A7C15ull;
      h ^= h >> 29;
    }
    if (bytes % 8 != 0) {
      std::uint64_t w = 0;
      std::memcpy(&w, words + bytes / 8 * 8, bytes % 8);
      h = (h ^ w) * 0x9E3779B97F4A7C15ull;
    }
    auto& bucket = buckets_[h];
    for (const auto& [at, size] : bucket) {
      if (size == table.size() && std::memcmp(pool_.data() + at, table.data(), bytes) == 0) {
        return at;
      }
    }
    const std::uint32_t at = narrow(pool_.size());
    pool_.insert(pool_.end(), table.begin(), table.end());
    bucket.emplace_back(at, table.size());
    return at;
  }

 private:
  LineVector<E>& pool_;
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint32_t, std::size_t>>> buckets_;
};

}  // namespace

StepProgram::StepProgram(const SuhShinAape& algo, LayoutPolicy layout)
    : shape_(algo.shape()), convention_(algo.convention()), layout_(layout) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  h = fnv1a(h, static_cast<std::int32_t>(shape_.num_dims()));
  for (const std::int32_t extent : shape_.extents()) h = fnv1a(h, extent);
  h = fnv1a(h, static_cast<std::int32_t>(convention_));
  fingerprint_ = fnv1a(h, static_cast<std::int32_t>(layout_));
  compile(algo);
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

std::array<std::span<const std::byte>, 11> StepProgram::tables() const {
  return {std::as_bytes(std::span(dims_)),    std::as_bytes(std::span(phase_first_step_)),
          std::as_bytes(std::span(steps_)),   std::as_bytes(std::span(totals_)),
          std::as_bytes(std::span(largest_)), std::as_bytes(std::span(runs_)),
          std::as_bytes(std::span(perms_)),   std::as_bytes(std::span(perm_of_)),
          std::as_bytes(std::span(finals_)),  std::as_bytes(std::span(final_of_)),
          std::as_bytes(std::span(arrivals_))};
}

std::size_t StepProgram::memory_bytes() const {
  std::size_t bytes = 0;
  for (const std::span<const std::byte> table : tables()) bytes += table.size();
  return bytes;
}

// One simulation over block identities compiles everything, exactly as
// the kernel will replay it: rearrange each row at a phase boundary by
// the layout's keys (the permutation is recorded), extract each step's
// send runs, land every message over its receiver's own send (closing
// a multi-run send's gaps first) and record which received parcels
// arrived, then prove the AAPE postcondition and record each row's
// final layout.
//
// The keys are the layout simulator's own (layout::scatter_key,
// layout::difference_vector), evaluated on one representative
// destination per class — a destination's subtorus coordinate along
// the node's ring for the scatter phases, its half or parity bits for
// the exchange phases, the destination itself for the naive layout —
// so the rows end up in exactly the oracle's order. The forwarding rule
// is hoisted per node step: a block leaves when its destination's class
// along the step's dimension differs from the node's.
void StepProgram::compile(const SuhShinAape& algo) {
  const Rank N = num_nodes();
  const auto nodes = static_cast<std::size_t>(N);
  const int n = shape_.num_dims();
  const auto dims = static_cast<std::size_t>(n);
  const int phases = algo.num_phases();
  TOREX_REQUIRE(n <= kMaxDims, "too many dimensions for a step program");

  // Dimensions, and the fields of a relative origin.
  dims_.assign(dims, Dim{});
  std::uint32_t bits = 0;
  for (std::size_t d = dims; d-- > 0;) {
    Dim& dim = dims_[d];
    dim.extent = shape_.extent(static_cast<int>(d));
    dim.stride = d + 1 < dims ? dims_[d + 1].stride * dims_[d + 1].extent : 1;
    const auto width = static_cast<std::uint32_t>(
        std::bit_width(static_cast<std::uint32_t>(dim.extent - 1)));
    dim.shift = bits;
    dim.mask = (std::uint32_t{1} << width) - 1;
    bits += width;
  }
  TOREX_REQUIRE(bits <= 32, "schedule too large for a step program");
  std::vector<std::int32_t> digit(nodes * dims);  // [node * n + dim]
  for (Rank r = 0; r < N; ++r) {
    const Digits at = digits_of(r);
    std::copy(at.begin(), at.begin() + n, digit.begin() + static_cast<std::ptrdiff_t>(r) * n);
  }
  const auto relative = [&](Rank origin, Rank node) {
    std::uint32_t code = 0;
    std::size_t rank = 0;
    for (std::size_t d = 0; d < dims; ++d) {
      std::int32_t diff = digit[static_cast<std::size_t>(origin) * dims + d] -
                          digit[static_cast<std::size_t>(node) * dims + d];
      if (diff < 0) diff += dims_[d].extent;
      code |= static_cast<std::uint32_t>(diff) << dims_[d].shift;
      rank += static_cast<std::size_t>(diff) * static_cast<std::size_t>(dims_[d].stride);
    }
    return std::pair{code, rank};
  };

  phase_first_step_.assign(static_cast<std::size_t>(phases) + 1, 0);
  for (int phase = 1; phase <= phases; ++phase) {
    phase_first_step_[static_cast<std::size_t>(phase)] =
        phase_first_step_[static_cast<std::size_t>(phase - 1)] + algo.steps_in_phase(phase);
  }
  steps_.assign(static_cast<std::size_t>(phase_first_step_.back()) * nodes, NodeStep{});
  totals_.assign(static_cast<std::size_t>(phase_first_step_.back()), StepTotals{});
  largest_.assign(static_cast<std::size_t>(phases), 0);
  perm_of_.assign(static_cast<std::size_t>(phases) * nodes, kKeepsOrder);
  final_of_.assign(nodes, 0);
  Interner<std::uint32_t> perm_pool(perms_);
  Interner<std::uint32_t> final_pool(finals_);
  Interner<Arrival> arrival_pool(arrivals_);

  // Destination classes (shared N-entry tables): the subtorus coordinate
  // along each dimension, the half and parity bit vectors, and for the
  // naive layout the destination itself.
  std::vector<std::uint32_t> along(dims * nodes);   // [dim * N + dest]: coordinate / 4
  std::vector<std::uint32_t> half(dims * nodes);    // [dim * N + dest]: (coordinate % 4) / 2
  std::vector<std::uint32_t> parity(dims * nodes);  // [dim * N + dest]: coordinate % 2
  std::vector<std::uint32_t> half_bits(nodes);
  std::vector<std::uint32_t> parity_bits(nodes);
  std::vector<std::uint32_t> identity(nodes);
  for (Rank d = 0; d < N; ++d) {
    const auto du = static_cast<std::size_t>(d);
    identity[du] = static_cast<std::uint32_t>(d);
    for (std::size_t dim = 0; dim < dims; ++dim) {
      const std::int32_t c = digit[du * dims + dim];
      along[dim * nodes + du] = static_cast<std::uint32_t>(c / 4);
      half[dim * nodes + du] = static_cast<std::uint32_t>((c % 4) / 2);
      parity[dim * nodes + du] = static_cast<std::uint32_t>(c % 2);
      if ((c % 4) / 2 != 0) half_bits[du] |= 1u << dim;
      if (c % 2 != 0) parity_bits[du] |= 1u << dim;
    }
  }

  std::vector<std::vector<Block>> held(nodes);
  for (Rank p = 0; p < N; ++p) {
    auto& row = held[static_cast<std::size_t>(p)];
    row.reserve(nodes);
    for (Rank d = 0; d < N; ++d) row.push_back(Block{p, d});
  }
  std::vector<Block> scratch(nodes);
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> keys(nodes);
  std::vector<std::uint32_t> perm(nodes);
  std::vector<std::uint32_t> key_of_class;
  std::vector<std::vector<Block>> incoming(nodes);
  std::vector<Arrival> arrived;
  std::size_t arrivals = 0;  // over every step
  Coord rep(dims, 0);

  for (int phase = 1; phase <= phases; ++phase) {
    const PhaseKind kind = algo.phase_kind(phase);
    const bool quarter = kind == PhaseKind::kQuarterExchange;
    const std::vector<std::uint32_t>& forwarding =
        kind == PhaseKind::kScatter ? along : quarter ? half : parity;
    // Rearrangement: a stable counting sort of each row's slots by key.
    const bool sorts = layout_ == LayoutPolicy::kNaiveDestinationOrder ||
                       kind != PhaseKind::kScatter || algo.steps_in_phase(phase) > 0;
    for (Rank p = 0; sorts && p < N; ++p) {
      const std::uint32_t* class_of = identity.data();
      const std::uint32_t* key_of = identity.data();
      std::uint32_t num_keys = narrow(nodes);
      if (layout_ == LayoutPolicy::kPaper && kind == PhaseKind::kScatter) {
        const Direction dir = algo.direction(p, phase, 1);
        const Coord pc = shape_.coord_of(p);
        const std::int32_t ring = shape_.extent(dir.dim) / 4;
        key_of_class.assign(static_cast<std::size_t>(ring), 0);
        std::fill(rep.begin(), rep.end(), 0);
        for (std::int32_t c = 0; c < ring; ++c) {
          rep[static_cast<std::size_t>(dir.dim)] = 4 * c;
          key_of_class[static_cast<std::size_t>(c)] = static_cast<std::uint32_t>(
              layout::scatter_key(shape_, pc, Block{p, shape_.rank_of(rep)}, dir));
        }
        class_of = along.data() + static_cast<std::size_t>(dir.dim) * nodes;
        key_of = key_of_class.data();
        num_keys = static_cast<std::uint32_t>(ring);
      } else if (layout_ == LayoutPolicy::kPaper) {
        // Exchange phases: the Gray rank of the difference vector, a
        // function of the destination's half (quarter exchange) or
        // parity (pair exchange) bits — 2^n classes.
        const std::uint32_t classes = 1u << n;
        key_of_class.assign(classes, 0);
        for (std::uint32_t cls = 0; cls < classes; ++cls) {
          for (std::size_t dim = 0; dim < dims; ++dim) {
            const std::int32_t bit = (cls >> dim) & 1u;
            rep[dim] = quarter ? 2 * bit : bit;
          }
          key_of_class[cls] = layout::gray_rank(
              layout::difference_vector(algo, p, phase, Block{p, shape_.rank_of(rep)}));
        }
        class_of = quarter ? half_bits.data() : parity_bits.data();
        key_of = key_of_class.data();
        num_keys = classes;
      }
      auto& row = held[static_cast<std::size_t>(p)];
      counts.assign(static_cast<std::size_t>(num_keys) + 1, 0);
      for (std::size_t i = 0; i < nodes; ++i) {
        keys[i] = key_of[class_of[static_cast<std::size_t>(row[i].dest)]];
        ++counts[keys[i] + 1];
      }
      for (std::size_t k = 1; k < counts.size(); ++k) counts[k] += counts[k - 1];
      bool moves = false;
      for (std::size_t i = 0; i < nodes; ++i) {
        const std::uint32_t to = counts[keys[i]]++;
        perm[to] = static_cast<std::uint32_t>(i);
        moves = moves || to != i;
      }
      if (!moves) continue;
      for (std::size_t i = 0; i < nodes; ++i) scratch[i] = row[perm[i]];
      row.swap(scratch);
      perm_of_[static_cast<std::size_t>(phase - 1) * nodes + static_cast<std::size_t>(p)] =
          perm_pool.intern(perm);
    }

    for (int s = 1; s <= algo.steps_in_phase(phase); ++s) {
      StepTotals& total = totals_[static_cast<std::size_t>(
          phase_first_step_[static_cast<std::size_t>(phase - 1)] + s - 1)];
      // Send: the runs of each row whose blocks leave, in row order.
      for (Rank p = 0; p < N; ++p) {
        auto& row = held[static_cast<std::size_t>(p)];
        NodeStep& ns = steps_[step_index(phase, s, p)];
        ns.partner = algo.partner(p, phase, s);
        ns.first_run = narrow(runs_.size());
        const std::uint32_t* class_of =
            forwarding.data() +
            static_cast<std::size_t>(algo.direction(p, phase, s).dim) * nodes;
        const std::uint32_t mine = class_of[static_cast<std::size_t>(p)];
        auto& message = incoming[static_cast<std::size_t>(ns.partner)];
        const bool receiver_free = message.empty();
        const auto emit = [&](std::size_t begin, std::size_t end) {
          runs_.push_back(SendRun{narrow(begin), narrow(end - begin)});
          ++ns.run_count;
          message.insert(message.end(), row.begin() + static_cast<std::ptrdiff_t>(begin),
                         row.begin() + static_cast<std::ptrdiff_t>(end));
        };
        std::size_t run_begin = 0;
        bool in_run = false;
        for (std::size_t i = 0; i < nodes; ++i) {
          const bool leaves = class_of[static_cast<std::size_t>(row[i].dest)] != mine;
          if (leaves == in_run) continue;
          if (leaves) {
            run_begin = i;
          } else {
            emit(run_begin, i);
          }
          in_run = leaves;
        }
        if (in_run) emit(run_begin, nodes);
        if (ns.run_count == 0) continue;
        // The one-port model, proven here for every replay: the kernel
        // lands each receive from the one sender this names.
        TOREX_CHECK(receiver_free, "one-port receive violation while compiling the schedule");
        steps_[step_index(phase, s, ns.partner)].from = p;
        ns.count = narrow(message.size());
        ++total.messages;
        total.parcels += ns.count;
        total.runs += ns.run_count;
        if (ns.run_count == 1) {
          ++total.contiguous;
        } else {
          total.gathered += ns.count;
        }
        total.max_runs = std::max(total.max_runs, ns.run_count);
        largest_[static_cast<std::size_t>(phase - 1)] =
            std::max(largest_[static_cast<std::size_t>(phase - 1)], ns.count);
      }
      // Receive: over the node's own send, in one piece at its first
      // run, which must have been exactly as large.
      for (Rank q = 0; q < N; ++q) {
        auto& message = incoming[static_cast<std::size_t>(q)];
        NodeStep& ns = steps_[step_index(phase, s, q)];
        TOREX_CHECK(message.size() == ns.count,
                    "a node would receive a different number of parcels than it sends");
        if (message.empty()) continue;
        auto& row = held[static_cast<std::size_t>(q)];
        const std::span<const SendRun> sent = runs(ns);
        ns.in_place = ns.run_count == 1;
        if (!ns.in_place) close_send_gaps(row.data(), nodes, sent);
        std::copy(message.begin(), message.end(),
                  row.begin() + static_cast<std::ptrdiff_t>(sent.front().offset));
        arrived.clear();
        for (std::size_t i = 0; i < message.size(); ++i) {
          if (message[i].dest != q || message[i].origin == q) continue;
          arrived.push_back(Arrival{narrow(i), relative(message[i].origin, q).first});
        }
        ns.arrival_count = narrow(arrived.size());
        total.arrivals += ns.arrival_count;
        arrivals += arrived.size();
        if (!arrived.empty()) ns.first_arrival = arrival_pool.intern(arrived);
        message.clear();
      }
    }
  }

  // The AAPE postcondition, proven here for every replay: each row
  // holds one block from every origin, all addressed to its node, and
  // every parcel but the self parcels arrived exactly once (a block at
  // its destination never leaves it), which the exchange journal's step
  // records rely on.
  TOREX_CHECK(arrivals == nodes * (nodes - 1), "compiled schedule miscounted its arrivals");
  std::vector<std::uint32_t> slot_of(nodes);
  for (Rank p = 0; p < N; ++p) {
    const auto& row = held[static_cast<std::size_t>(p)];
    std::fill(slot_of.begin(), slot_of.end(), kKeepsOrder);
    for (std::size_t i = 0; i < nodes; ++i) {
      TOREX_CHECK(row[i].dest == p, "compiled schedule misdelivered a block");
      std::uint32_t& slot = slot_of[relative(row[i].origin, p).second];
      TOREX_CHECK(slot == kKeepsOrder, "duplicate origin");
      slot = static_cast<std::uint32_t>(i);
    }
    final_of_[static_cast<std::size_t>(p)] = final_pool.intern(slot_of);
  }
}

}  // namespace torex
