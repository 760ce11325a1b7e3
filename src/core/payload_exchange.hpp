// Payload-carrying exchange: the bridge from schedule to application.
//
// The exchange engine moves block *identities*; applications move data.
// This header runs the same schedule over user payloads attached to
// blocks — each node starts with one payload per destination and ends
// with one payload per origin — so examples (matrix transpose, FFT)
// and downstream users exercise exactly the communication pattern the
// paper schedules, with their own element types.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <exception>
#include <iterator>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/aape.hpp"
#include "core/block.hpp"
#include "core/data_array.hpp"
#include "core/integrity.hpp"
#include "core/step_program.hpp"
#include "core/wire_buffer.hpp"
#include "obs/recorder.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"
#include "util/step_pool.hpp"

namespace torex {

/// One payload in flight: its block identity plus user data.
template <typename T>
struct Parcel {
  Block block;
  T payload;
};

/// Per-node parcel buffers, indexed by rank.
template <typename T>
using ParcelBuffers = std::vector<std::vector<Parcel<T>>>;

/// Per-destination delivery state of one all-to-all: bit (dest, origin)
/// is set once `dest` durably holds the parcel `origin` addressed to
/// it. This is the unit of progress the exchange journal
/// (runtime/journal.hpp) persists and the delta-resume path consults to
/// re-send only what is missing and drop what is re-received.
class DeliveryBitmap {
 public:
  DeliveryBitmap() = default;
  explicit DeliveryBitmap(Rank num_nodes)
      : num_nodes_(num_nodes),
        words_(static_cast<std::size_t>(num_nodes) * words_per_row(num_nodes), 0) {
    TOREX_REQUIRE(num_nodes >= 1, "delivery bitmap needs at least one node");
  }

  Rank num_nodes() const { return num_nodes_; }

  bool test(Rank dest, Rank origin) const {
    check_pair(dest, origin);
    return (words_[word_index(dest, origin)] >> bit_index(origin)) & 1u;
  }

  /// Sets bit (dest, origin); returns true when it was newly set.
  bool mark(Rank dest, Rank origin) {
    check_pair(dest, origin);
    std::uint64_t& word = words_[word_index(dest, origin)];
    const std::uint64_t bit = std::uint64_t{1} << bit_index(origin);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++delivered_;
    return true;
  }

  /// Parcels marked delivered so far (out of expected()).
  std::int64_t delivered() const { return delivered_; }

  /// Total parcels of the exchange: one per ordered (origin, dest)
  /// pair, self pairs included.
  std::int64_t expected() const {
    return static_cast<std::int64_t>(num_nodes_) * num_nodes_;
  }

  bool complete() const { return delivered_ == expected(); }

  /// Delivered count for one destination's row.
  std::int64_t delivered_to(Rank dest) const {
    TOREX_REQUIRE(dest >= 0 && dest < num_nodes_, "destination out of range");
    std::int64_t count = 0;
    for (Rank origin = 0; origin < num_nodes_; ++origin) {
      if (test(dest, origin)) ++count;
    }
    return count;
  }

 private:
  static std::size_t words_per_row(Rank num_nodes) {
    return (static_cast<std::size_t>(num_nodes) + 63) / 64;
  }
  std::size_t word_index(Rank dest, Rank origin) const {
    return static_cast<std::size_t>(dest) * words_per_row(num_nodes_) +
           static_cast<std::size_t>(origin) / 64;
  }
  static unsigned bit_index(Rank origin) { return static_cast<unsigned>(origin) % 64; }
  void check_pair(Rank dest, Rank origin) const {
    TOREX_REQUIRE(dest >= 0 && dest < num_nodes_ && origin >= 0 && origin < num_nodes_,
                  "delivery bitmap pair out of range");
  }

  Rank num_nodes_ = 0;
  std::int64_t delivered_ = 0;
  std::vector<std::uint64_t> words_;
};

namespace detail {

/// Runs `check(p, seen)` for every node p on `pool` (inline when null),
/// each participant with its own N-entry `seen` scratch, allocated here
/// on the calling thread.
template <typename Check>
void check_each_node(Rank N, StepPool* pool, Check&& check) {
  std::vector<std::vector<char>> seen(static_cast<std::size_t>(participants(pool)),
                                      std::vector<char>(static_cast<std::size_t>(N)));
  StepPool::run(pool, static_cast<std::size_t>(N), [&](std::size_t p, int who) {
    check(static_cast<Rank>(p), seen[static_cast<std::size_t>(who)]);
  });
}

/// Validates the canonical all-to-all seed: one buffer per node, one
/// parcel per destination, every parcel originating at its node. Nodes
/// are checked on `pool`; the lowest failing node's error is thrown.
template <typename T>
void require_canonical_parcel_seed(Rank N, const ParcelBuffers<T>& buffers,
                                   StepPool* pool = nullptr) {
  TOREX_REQUIRE(static_cast<Rank>(buffers.size()) == N, "need one buffer per node");
  check_each_node(N, pool, [&](Rank p, std::vector<char>& seen) {
    TOREX_REQUIRE(static_cast<Rank>(buffers[static_cast<std::size_t>(p)].size()) == N,
                  "node must start with one parcel per destination");
    std::fill(seen.begin(), seen.end(), 0);
    for (const auto& parcel : buffers[static_cast<std::size_t>(p)]) {
      TOREX_REQUIRE(parcel.block.origin == p, "parcel origin must match its node");
      TOREX_REQUIRE(parcel.block.dest >= 0 && parcel.block.dest < N,
                    "parcel destination out of range");
      TOREX_REQUIRE(!seen[static_cast<std::size_t>(parcel.block.dest)],
                    "duplicate destination in a node's initial parcels");
      seen[static_cast<std::size_t>(parcel.block.dest)] = 1;
    }
  });
}

/// Verifies the AAPE postcondition on delivered parcels: node p holds
/// exactly one parcel from every origin, all addressed to p. Nodes are
/// checked on `pool`.
template <typename T>
void check_parcel_postcondition(Rank N, const ParcelBuffers<T>& buffers,
                                StepPool* pool = nullptr) {
  check_each_node(N, pool, [&](Rank p, std::vector<char>& seen) {
    const auto& buf = buffers[static_cast<std::size_t>(p)];
    TOREX_CHECK(static_cast<Rank>(buf.size()) == N, "payload exchange lost parcels");
    std::fill(seen.begin(), seen.end(), 0);
    for (const auto& parcel : buf) {
      TOREX_CHECK(parcel.block.dest == p, "payload delivered to the wrong node");
      TOREX_CHECK(!seen[static_cast<std::size_t>(parcel.block.origin)], "duplicate origin");
      seen[static_cast<std::size_t>(parcel.block.origin)] = 1;
    }
  });
}

}  // namespace detail

/// Runs the full schedule over `initial` parcels. Requirements:
/// initial[p] holds exactly one parcel per destination, each with
/// block.origin == p. Returns the final buffers: node p ends with one
/// parcel from every origin, all with block.dest == p. Throws on any
/// violation.
template <typename T>
ParcelBuffers<T> exchange_payloads(const SuhShinAape& algo, ParcelBuffers<T> buffers,
                                   Recorder* obs = nullptr) {
  const Rank N = algo.shape().num_nodes();
  detail::require_canonical_parcel_seed(N, buffers);
  if (obs != nullptr && !obs->enabled()) obs = nullptr;
  SpanGuard exchange_span(obs, "exchange");

  ParcelBuffers<T> inbox(static_cast<std::size_t>(N));
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    SpanGuard phase_span(obs, "phase", -1, phase);
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
      SpanGuard step_span(obs, "step", -1, phase, step);
      for (Rank p = 0; p < N; ++p) {
        auto& buf = buffers[static_cast<std::size_t>(p)];
        auto split = std::stable_partition(buf.begin(), buf.end(), [&](const Parcel<T>& x) {
          return !algo.should_send(p, phase, step, x.block);
        });
        if (split == buf.end()) continue;
        const Rank q = algo.partner(p, phase, step);
        auto& in = inbox[static_cast<std::size_t>(q)];
        in.insert(in.end(), std::make_move_iterator(split),
                  std::make_move_iterator(buf.end()));
        buf.erase(split, buf.end());
      }
      for (Rank p = 0; p < N; ++p) {
        auto& in = inbox[static_cast<std::size_t>(p)];
        if (in.empty()) continue;
        auto& buf = buffers[static_cast<std::size_t>(p)];
        buf.insert(buf.end(), std::make_move_iterator(in.begin()),
                   std::make_move_iterator(in.end()));
        in.clear();
      }
    }
  }

  detail::check_parcel_postcondition(N, buffers);
  return buffers;
}

// --- Wire frames (TOX3, the one frame format) ---------------------------
//
// A TOX3 frame ships one sealed header, a run table and the raw parcel
// runs, with a trailing CRC over the whole frame. The sender appends
// its send set as gathered {ptr, len} runs straight out of its buffer —
// one memcpy per run, and a §3.3-contiguous send is a single run — with
// the source order untouched, so a refused frame retransmits from
// intact parcels. The run table of {dst_offset, count} descriptors lets
// the receiver scatter each run into its destination slot without a
// rearrangement pass of its own. Both CRCs (header, frame) must match
// and the byte count must be exact, so any bit flip or truncation
// anywhere in the frame is detected. The frame seals the parcels'
// object representation, so framed exchanges need trivially copyable
// parcels.
//
// Frame layout (little-endian):
//   [ 0) magic u32  "TOX3"
//   [ 4) phase u32        [ 8) step u32
//   [12) src u64          [20) dst u64
//   [28) count u64        [36) parcel_size u64
//   [44) run_count u32
//   [48) header crc u32 over bytes [0, 48)
//   [52) run_count * { dst_offset u64, count u64 } run table
//   [..) count * parcel_size raw parcel bytes, runs concatenated in
//        table order
//   [..) frame crc u32 over everything before it
//
// Decode never trusts the wire: run_count is bounded by the bytes
// present before the table is read, count by the bytes left after the
// table, and the descriptors must form an exact ascending partition of
// [0, count) — zero-length, overlapping, or out-of-bounds runs are
// typed errors, so a forged table can neither over-read the frame nor
// over-write the scatter destination.

namespace detail {

inline constexpr std::uint32_t kFrameV3Magic = 0x544F5833u;  // "TOX3"
inline constexpr std::size_t kFrameV3HeaderBytes = 52;
inline constexpr std::size_t kRunDescriptorBytes = 16;
inline constexpr std::size_t kFrameTrailerBytes = 4;

/// Appends one contiguous run of parcels to a frame (a single memcpy of
/// the run's object representation). Returns the run's size in bytes.
template <typename T>
std::size_t frame_append_run(std::vector<std::byte>& frame, const Parcel<T>* run,
                             std::size_t count) {
  static_assert(std::is_trivially_copyable_v<Parcel<T>>,
                "framed exchange requires trivially copyable parcels");
  const std::size_t bytes = count * sizeof(Parcel<T>);
  if (bytes == 0) return 0;
  const std::size_t at = frame.size();
  frame.resize(at + bytes);
  std::memcpy(frame.data() + at, run, bytes);
  return bytes;
}

/// Adds a wire-stats delta to the recorder's metric counters.
inline void publish_wire_metrics(Recorder* obs, const WirePoolStats& d) {
  if (obs == nullptr) return;
  MetricsRegistry& m = obs->metrics();
  m.counter("wire.messages").add(d.messages);
  m.counter("wire.parcels").add(d.parcels);
  m.counter("wire.pool_hits").add(d.pool_hits);
  m.counter("wire.pool_misses").add(d.pool_misses);
  m.counter("wire.bytes_encoded").add(d.bytes_encoded);
  m.counter("wire.bytes_copied").add(d.bytes_copied);
  m.counter("wire.contiguous_sends").add(d.contiguous_sends);
  m.counter("wire.gathered_parcels").add(d.gathered_parcels);
  m.counter("wire.runs_encoded").add(d.runs_encoded);
}

/// Compacts a buffer by dropping the given runs (ascending, disjoint)
/// in one stable pass: what a node keeps once its send has left.
template <typename T>
void erase_runs(std::vector<Parcel<T>>& buf, std::span<const SendRun> runs) {
  if (runs.empty()) return;
  std::size_t write = runs.front().offset;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const std::size_t keep_begin = std::size_t{runs[r].offset} + runs[r].count;
    const std::size_t keep_end = r + 1 < runs.size() ? runs[r + 1].offset : buf.size();
    for (std::size_t i = keep_begin; i < keep_end; ++i) buf[write++] = std::move(buf[i]);
  }
  buf.resize(write);
}

}  // namespace detail

/// Encodes one message as a TOX3 multi-run frame, gathering the given
/// runs straight from `buf` (one memcpy per run, no staging copy, no
/// reordering of `buf`). Descriptors carry cumulative destination
/// offsets, so the receiver's scatter reproduces the runs' order.
template <typename T>
void encode_multi_run_frame(const std::vector<Parcel<T>>& buf, std::span<const SendRun> runs,
                            std::size_t count, int phase, int step, Rank src, Rank dst,
                            std::vector<std::byte>& frame) {
  static_assert(std::is_trivially_copyable_v<Parcel<T>>,
                "framed exchange requires trivially copyable parcels");
  TOREX_REQUIRE(phase >= 0 && step >= 0 && src >= 0 && dst >= 0,
                "sealed message metadata must be non-negative");
  const std::size_t table_bytes = runs.size() * detail::kRunDescriptorBytes;
  const std::size_t run_bytes = count * sizeof(Parcel<T>);
  frame.clear();
  frame.reserve(detail::kFrameV3HeaderBytes + table_bytes + run_bytes +
                detail::kFrameTrailerBytes);
  frame.resize(detail::kFrameV3HeaderBytes + table_bytes);
  std::byte* h = frame.data();
  wire_write_u32(h + 0, detail::kFrameV3Magic);
  wire_write_u32(h + 4, static_cast<std::uint32_t>(phase));
  wire_write_u32(h + 8, static_cast<std::uint32_t>(step));
  wire_write_u64(h + 12, static_cast<std::uint64_t>(static_cast<std::int64_t>(src)));
  wire_write_u64(h + 20, static_cast<std::uint64_t>(static_cast<std::int64_t>(dst)));
  wire_write_u64(h + 28, static_cast<std::uint64_t>(count));
  wire_write_u64(h + 36, static_cast<std::uint64_t>(sizeof(Parcel<T>)));
  wire_write_u32(h + 44, static_cast<std::uint32_t>(runs.size()));
  std::uint64_t dst_offset = 0;
  std::size_t at = detail::kFrameV3HeaderBytes;
  for (const SendRun& r : runs) {
    const std::uint64_t n = r.count;
    wire_write_u64(frame.data() + at, dst_offset);
    wire_write_u64(frame.data() + at + 8, n);
    at += detail::kRunDescriptorBytes;
    dst_offset += n;
  }
  TOREX_CHECK(dst_offset == count, "run spans disagree with parcel count");
  for (const SendRun& r : runs) detail::frame_append_run(frame, buf.data() + r.offset, r.count);
  // One streaming pass: the header digest is sampled mid-stream (value()
  // does not consume the accumulator), patched into [48, 52), and those
  // bytes then feed the same accumulator so the frame digest covers them.
  Crc32 crc;
  crc.update(frame.data(), 48);
  wire_write_u32(frame.data() + 48, crc.value());
  crc.update(frame.data() + 48, frame.size() - 48);
  const std::uint32_t frame_crc = crc.value();
  const std::size_t end = frame.size();
  frame.resize(end + detail::kFrameTrailerBytes);
  wire_write_u32(frame.data() + end, frame_crc);
}

/// Non-owning typed view over a verified multi-run frame: the run
/// table plus the concatenated parcel runs, both inside the frame
/// bytes (which must outlive the view). Reads go through memcpy so
/// nothing requires alignment.
template <typename T>
class SealedRunFrameView {
 public:
  /// One decoded run: `count` parcels at `bytes`, destined for parcel
  /// slots [dst_offset, dst_offset + count) of the scatter region.
  struct Run {
    std::uint64_t dst_offset = 0;
    std::size_t count = 0;
    const std::byte* bytes = nullptr;
  };

  SealedRunFrameView() = default;
  SealedRunFrameView(const std::byte* table, std::size_t run_count, const std::byte* payload,
                     std::size_t count)
      : table_(table), run_count_(run_count), payload_(payload), count_(count) {}

  std::size_t count() const { return count_; }
  std::size_t run_count() const { return run_count_; }
  const std::byte* payload_bytes() const { return payload_; }
  std::size_t payload_size() const { return count_ * sizeof(Parcel<T>); }

  /// Run `r` of the table; source byte positions accumulate in table
  /// order (runs are concatenated on the wire).
  Run run(std::size_t r) const {
    Run out;
    const std::byte* src = payload_;
    for (std::size_t i = 0; i <= r; ++i) {
      WireView d(table_ + i * detail::kRunDescriptorBytes, detail::kRunDescriptorBytes);
      std::size_t offset = 0;
      std::uint64_t dst_offset = 0, n = 0;
      wire_get_u64(d, offset, dst_offset);
      wire_get_u64(d, offset, n);
      out.dst_offset = dst_offset;
      out.count = static_cast<std::size_t>(n);
      out.bytes = src;
      src += static_cast<std::size_t>(n) * sizeof(Parcel<T>);
    }
    return out;
  }

  Block identity(std::size_t i) const {
    Block b;
    std::memcpy(&b, payload_ + i * sizeof(Parcel<T>), sizeof(Block));
    return b;
  }

  Parcel<T> parcel(std::size_t i) const {
    Parcel<T> p;
    std::memcpy(&p, payload_ + i * sizeof(Parcel<T>), sizeof(Parcel<T>));
    return p;
  }

  /// Hole-splice scatter: one memcpy per run, each landing at its
  /// descriptor's destination slot. `dest` must hold count() parcels
  /// (decode guarantees the descriptors exactly partition that region).
  void scatter(Parcel<T>* dest) const {
    const std::byte* src = payload_;
    for (std::size_t r = 0; r < run_count_; ++r) {
      WireView d(table_ + r * detail::kRunDescriptorBytes, detail::kRunDescriptorBytes);
      std::size_t offset = 0;
      std::uint64_t dst_offset = 0, n = 0;
      wire_get_u64(d, offset, dst_offset);
      wire_get_u64(d, offset, n);
      const std::size_t bytes = static_cast<std::size_t>(n) * sizeof(Parcel<T>);
      std::memcpy(dest + dst_offset, src, bytes);
      src += bytes;
    }
  }

  /// Appends all parcels to `out` in destination order (one grow, then
  /// the run-by-run scatter).
  void append_to(std::vector<Parcel<T>>& out) const {
    const std::size_t old = out.size();
    out.resize(old + count_);
    scatter(out.data() + old);
  }

 private:
  const std::byte* table_ = nullptr;
  std::size_t run_count_ = 0;
  const std::byte* payload_ = nullptr;
  std::size_t count_ = 0;
};

/// Verifies a TOX3 multi-run frame in place. Detects truncation, bit
/// flips anywhere, wrong (phase, step) or channel, forged counts and
/// identities out of range, plus the run-table classes: a table longer
/// than the frame, zero-length runs, overlapping or out-of-order
/// descriptors, descriptors pointing outside the scatter region, and a
/// table that does not account for every parcel. Returns null when the
/// frame verifies, leaving its view in `out`; otherwise the reason, a
/// string literal. Allocates nothing, so step-kernel workers call it.
template <typename T>
const char* verify_multi_run_frame(WireView wire, int phase, int step, Rank src, Rank dst,
                                   Rank num_nodes, SealedRunFrameView<T>& out) {
  static_assert(std::is_trivially_copyable_v<Parcel<T>>,
                "framed exchange requires trivially copyable parcels");
  out = SealedRunFrameView<T>();
  if (phase < 0 || step < 0 || src < 0 || dst < 0) return "negative message metadata";
  if (wire.size() < detail::kFrameV3HeaderBytes + detail::kFrameTrailerBytes) {
    return "truncated message header";
  }
  std::size_t offset = 0;
  std::uint32_t magic = 0, wire_phase = 0, wire_step = 0, run_count = 0, header_crc = 0;
  std::uint64_t wire_src = 0, wire_dst = 0, count = 0, parcel_size = 0;
  wire_get_u32(wire, offset, magic);
  wire_get_u32(wire, offset, wire_phase);
  wire_get_u32(wire, offset, wire_step);
  wire_get_u64(wire, offset, wire_src);
  wire_get_u64(wire, offset, wire_dst);
  wire_get_u64(wire, offset, count);
  wire_get_u64(wire, offset, parcel_size);
  wire_get_u32(wire, offset, run_count);
  const std::size_t header_len = offset;
  wire_get_u32(wire, offset, header_crc);
  Crc32 crc;
  crc.update(wire.data(), header_len);
  if (header_crc != crc.value()) return "header checksum mismatch";
  if (magic != detail::kFrameV3Magic) return "bad magic";
  if (wire_phase != static_cast<std::uint32_t>(phase) ||
      wire_step != static_cast<std::uint32_t>(step)) {
    return "message sealed for a different step";
  }
  if (wire_src != static_cast<std::uint64_t>(static_cast<std::int64_t>(src)) ||
      wire_dst != static_cast<std::uint64_t>(static_cast<std::int64_t>(dst))) {
    return "message sealed for a different channel";
  }
  if (parcel_size != sizeof(Parcel<T>)) return "parcel record size mismatch";
  // Bound the run table, then the parcel count, by the bytes actually
  // present — neither may drive a read past the frame.
  const std::size_t avail_all =
      wire.size() - detail::kFrameV3HeaderBytes - detail::kFrameTrailerBytes;
  if (run_count > avail_all / detail::kRunDescriptorBytes) {
    return "run table exceeds message size";
  }
  const std::size_t table_bytes =
      static_cast<std::size_t>(run_count) * detail::kRunDescriptorBytes;
  const std::size_t avail = avail_all - table_bytes;
  if (count > avail / sizeof(Parcel<T>)) return "parcel count exceeds message size";
  if (count * sizeof(Parcel<T>) != avail) return "frame size mismatch";
  const std::size_t run_end = wire.size() - detail::kFrameTrailerBytes;
  std::uint32_t frame_crc = 0;
  std::size_t trailer_at = run_end;
  wire_get_u32(wire, trailer_at, frame_crc);
  crc.update(wire.data() + header_len, run_end - header_len);
  if (frame_crc != crc.value()) return "frame checksum mismatch";
  // The descriptors must form an exact ascending partition of the
  // scatter region [0, count): no zero-length, overlapping, or
  // out-of-bounds run can reach the scatter memcpy.
  std::uint64_t next_free = 0;
  std::uint64_t covered = 0;
  for (std::uint32_t r = 0; r < run_count; ++r) {
    std::size_t at = detail::kFrameV3HeaderBytes +
                     static_cast<std::size_t>(r) * detail::kRunDescriptorBytes;
    std::uint64_t dst_offset = 0, n = 0;
    wire_get_u64(wire, at, dst_offset);
    wire_get_u64(wire, at, n);
    if (n == 0) return "empty run descriptor";
    if (dst_offset < next_free) return "overlapping run descriptors";
    if (n > count || dst_offset > count - n) return "run descriptor out of bounds";
    next_free = dst_offset + n;
    covered += n;
  }
  if (covered != count) return "run table does not cover the frame";
  SealedRunFrameView<T> view(wire.data() + detail::kFrameV3HeaderBytes,
                             static_cast<std::size_t>(run_count),
                             wire.data() + detail::kFrameV3HeaderBytes + table_bytes,
                             static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < view.count(); ++i) {
    const Block b = view.identity(i);
    if (b.origin < 0 || b.origin >= num_nodes || b.dest < 0 || b.dest >= num_nodes) {
      return "parcel identity out of range";
    }
  }
  out = view;
  return nullptr;
}

/// verify_multi_run_frame with a boolean verdict; the reason, when the
/// frame is refused, goes to `reason`.
template <typename T>
bool decode_multi_run_frame(WireView wire, int phase, int step, Rank src, Rank dst,
                            Rank num_nodes, SealedRunFrameView<T>& out,
                            std::string* reason = nullptr) {
  const char* refused = verify_multi_run_frame<T>(wire, phase, step, src, dst, num_nodes, out);
  if (refused != nullptr && reason != nullptr) *reason = refused;
  return refused == nullptr;
}

// --- Strided user-buffer views (Träff-style datatypes) ------------------

/// A strided view over caller-owned memory: `count` logical elements,
/// `stride` elements apart (stride 1 is a dense row; a column of a
/// row-major matrix has stride = row length). The exchange engine
/// seeds parcels straight from these views and scatters results
/// straight back — the caller never materializes a dense staging copy.
template <typename T>
struct StridedView {
  T* base = nullptr;
  std::size_t count = 0;
  std::ptrdiff_t stride = 1;

  T& at(std::size_t i) const { return base[static_cast<std::ptrdiff_t>(i) * stride]; }
};

namespace detail {

/// Requires one view per node, each covering N elements: checked for
/// every view before any data moves, so a bad view leaves the caller's
/// memory untouched.
template <typename View>
void require_strided_views(Rank N, const std::vector<View>& views, const char* per_node,
                           const char* per_view) {
  TOREX_REQUIRE(static_cast<Rank>(views.size()) == N, per_node);
  for (const View& view : views) {
    TOREX_REQUIRE(static_cast<Rank>(view.count) == N && view.base != nullptr, per_view);
  }
}

/// The pool that may copy payloads of type T: copying runs no user code
/// only for trivially copyable payloads, so other payloads are copied
/// inline, on the calling thread.
template <typename T>
StepPool* copy_pool(StepPool* pool) {
  return std::is_trivially_copyable_v<T> ? pool : nullptr;
}

}  // namespace detail

/// Seeds the canonical all-to-all parcels from per-node strided send
/// views: node p's element for destination q is send[p].at(q). Every
/// buffer is allocated on the calling thread; trivially copyable
/// payloads are then copied on `pool`.
template <typename T>
ParcelBuffers<T> seed_parcels_strided(Rank N, const std::vector<StridedView<const T>>& send,
                                      StepPool* pool = nullptr) {
  detail::require_strided_views(N, send, "need one send view per node",
                                "send view must cover one element per destination");
  ParcelBuffers<T> buffers(static_cast<std::size_t>(N));
  for (auto& buf : buffers) buf.reserve(static_cast<std::size_t>(N));
  StepPool::run(detail::copy_pool<T>(pool), buffers.size(), [&](std::size_t p, int) {
    const StridedView<const T>& view = send[p];
    auto& buf = buffers[p];
    for (Rank q = 0; q < N; ++q) {
      buf.push_back({Block{static_cast<Rank>(p), q}, view.at(static_cast<std::size_t>(q))});
    }
  });
  return buffers;
}

/// Scatters delivered parcels into per-node strided receive views:
/// node p's parcel from origin o lands at recv[p].at(o). `delivered`
/// must satisfy the AAPE postcondition (checked by the executors).
/// Every view is checked before any element is written. Trivially
/// copyable payloads are written on `pool`, so the views must not
/// overlap.
template <typename T>
void scatter_parcels_strided(Rank N, const ParcelBuffers<T>& delivered,
                             const std::vector<StridedView<T>>& recv, StepPool* pool = nullptr) {
  detail::require_strided_views(N, recv, "need one receive view per node",
                                "receive view must cover one element per origin");
  StepPool::run(detail::copy_pool<T>(pool), recv.size(), [&](std::size_t p, int) {
    for (const Parcel<T>& parcel : delivered[p]) {
      recv[p].at(static_cast<std::size_t>(parcel.block.origin)) = parcel.payload;
    }
  });
}

// --- The step kernel ---------------------------------------------------
//
// Every data-moving executor below is a thin driver over one loop that
// replays a compiled StepProgram. At each phase boundary every buffer
// is rearranged by the program's stable counting sort (the paper's ρ
// pass, with the §3.3 keys, or destination order for the naive layout).
// At each step every sending node's runs leave as one message, and
// every receive lands either over the receiver's own single-run send
// (when the program marks it in place) or in the hole that send left
// (appended when the receiver sent nothing). No parcel is tested with
// should_send and nothing is comparison-sorted.
//
// A message either crosses the framed wire — gathered into a pooled
// TOX3 frame, one memcpy per run, and verified — or, for payloads that
// are not trivially copyable and for steps a driver replays locally,
// moves through a staging vector. Every message of a step leaves before
// any receive integrates, so a refused frame re-encodes from intact
// source runs, and an in-place receive overwrites its node's send only
// once every message of the step has settled. The arena records
// LayoutStats-style run accounting, so the payload path reports the
// same contiguity evidence as the block-level simulator.
//
// The one-port model makes every node's part of a stage independent —
// each node sorts only its own buffer, each sender writes only its
// receiver's frame, each node lands only its own receive — so the
// per-node work of a step runs on an optional StepPool
// (util/step_pool.hpp), as bulk-synchronous stages:
//
//   caller   begin_step: the driver may defer the step, untouched;
//   caller   lease every frame at full size (or reserve staging), check
//            the one-port model, size every receive, account traffic;
//   workers  each sender gathers its runs into its frame and seals it
//            (a local step moves them into the receiver's staging slot);
//            with no tamper stage, each frame is verified here too;
//   caller   the driver tampers with every first transmission, in
//            sender order (only drivers that tamper);
//   workers  every frame is verified (only drivers that tamper);
//   caller   the driver settles each message in sender order; a refused
//            one is re-encoded, tampered with and verified right there,
//            before the next sender's message settles;
//   workers  each node compacts its send, unless it receives in place,
//            then lands its receive;
//   caller   frames return to the arena; `received` and `step_done` run.
//
// The phase-boundary sort, the seed order and the postcondition check
// run on the pool too. Every hook runs on the calling thread, in node
// order, so reports, recorder events and journal records come out the
// same at any pool size; with a null or one-participant pool the same
// stages run inline. Workers never allocate — the caller sizes every
// frame, buffer, staging slot and scratch vector first — and record
// nothing: the phase and step spans wrap the stages on the caller.
//
// The loop is resumable. A StepReplay holds where a replay stands, the
// next (phase, step), together with the storage the kernel reuses from
// step to step, and replay_phase() runs it from there to the end of
// that phase. The one-shot drivers call it phase after phase within one
// call; torexd's sessions (svc/session_exchange.hpp) keep their
// StepReplay and run one phase per dispatch. A step that begin_step
// defers has mutated nothing — a phase's rearrangement runs after its
// first step's begin_step — so the next call resumes exactly there, and
// no step or rearrangement runs twice.
//
// Drivers extend the loop through StepHooks. Hooks are template
// arguments: no std::function and no virtual call per message.

namespace detail {

/// One message of a step, as the kernel shows it to its hooks.
struct StepMessage {
  int phase = 0;  ///< 1-based schedule coordinates
  int step = 0;
  Rank src = -1;
  Rank dst = -1;
  int attempt = 0;  ///< 0: first transmission; >= 1: retransmission
};

/// The kernel's default hooks. A driver derives from them and hides the
/// members it extends. Every hook runs on the calling thread.
struct StepHooks {
  /// Runs before anything of (phase, step) does, the phase's
  /// rearrangement included when `step` is its first. Returning false
  /// defers the step: replay_phase returns false with the step still
  /// next, and nothing of it has run.
  bool begin_step(int /*phase*/, int /*step*/) { return true; }

  /// Whether (phase, step) crosses the framed wire; when false its
  /// messages move locally. Non-trivially-copyable parcels always move
  /// locally.
  bool framed(int /*phase*/, int /*step*/) const { return true; }

  /// Whether frames pass through tamper() before they are verified.
  /// When false the workers verify each frame as soon as it is sealed.
  bool tampers() const { return false; }

  /// May damage one transmission's frame in flight. All first
  /// transmissions of a step are tampered with, in sender order, before
  /// any is verified; a retransmission right after it is re-encoded.
  void tamper(const StepMessage& /*m*/, std::vector<std::byte>& /*frame*/) {}

  /// Settles one transmission, in sender order: `refused` is null when
  /// the frame verified (its parcels are in `view`), else the verifier's
  /// reason. Returning false makes the kernel re-encode the message from
  /// its intact source runs, tamper with it and verify it again (attempt
  /// + 1). The default wire is never tampered with, so a refused frame is
  /// a logic error.
  template <typename T>
  bool settle(const StepMessage& /*m*/, const SealedRunFrameView<T>& /*view*/,
              const char* refused) {
    TOREX_CHECK(refused == nullptr, std::string("wire frame failed verification: ") + refused);
    return true;
  }

  /// One integrated receive: `count` parcels at `first` in `node`'s
  /// buffer. Called in node order once every receive of the step landed.
  template <typename T>
  void received(Rank /*node*/, int /*phase*/, int /*step*/, Parcel<T>* /*first*/,
                std::size_t /*count*/) {}

  void step_done(int /*phase*/, int /*step*/) {}
  void phase_done(int /*phase*/) {}
};

/// Puts one node's canonical seed (one parcel per destination) in
/// destination order, through `scratch` (capacity for the buffer, so
/// nothing allocates). Seeds built row by row already are in order.
template <typename T>
void order_by_destination(std::vector<Parcel<T>>& buf, std::vector<Parcel<T>>& scratch) {
  bool ordered = true;
  for (std::size_t i = 0; ordered && i < buf.size(); ++i) {
    ordered = buf[i].block.dest == static_cast<Rank>(i);
  }
  if (ordered) return;
  scratch.resize(buf.size());
  for (Parcel<T>& x : buf) scratch[static_cast<std::size_t>(x.block.dest)] = std::move(x);
  buf.swap(scratch);
}

/// Puts a canonical seed (see require_canonical_parcel_seed) in
/// destination order — the order a StepProgram is compiled for.
template <typename T>
void order_seed_by_destination(ParcelBuffers<T>& buffers, std::vector<Parcel<T>>& scratch) {
  for (auto& buf : buffers) order_by_destination(buf, scratch);
}

/// A replay in progress: the next (phase, step) to run, and the storage
/// the kernel reuses from step to step (see the section comment).
template <typename T>
struct StepReplay {
  /// In flight, one per receiver: its sender and a leased frame with the
  /// verifier's verdict, or the parcels moved into `staged`.
  struct Inbound {
    Rank src = -1;  ///< -1: nothing arrives this step
    PooledFrame frame;
    SealedRunFrameView<T> view;
    const char* refused = nullptr;  ///< null once the frame verified
    std::size_t at = 0;             ///< where the receive landed
    std::size_t count = 0;          ///< parcels received
  };
  /// One participant's sort scratch. The histogram is written for every
  /// parcel the participant sorts, so it owns its cache lines: no other
  /// participant's histogram and no program table can share them.
  struct Scratch {
    std::vector<Parcel<T>> parcels;
    LineVector<std::uint32_t> key_counts;
  };

  int phase = 1;  ///< 1-based; num_phases() + 1 once every phase ran
  int step = 1;   ///< 1-based, within `phase`
  std::vector<Inbound> inbound;
  ParcelBuffers<T> staged;       // local transport, sized on first use
  std::vector<Scratch> scratch;  // one per participant
};

/// Reserves the largest buffer's size in every buffer and participant
/// scratch vector: once they all hold it, the sort's swaps keep it so.
template <typename T>
void hold_largest_buffer(ParcelBuffers<T>& buffers, StepReplay<T>& replay) {
  std::size_t largest = 0;
  for (const auto& buf : buffers) largest = std::max(largest, buf.size());
  for (auto& buf : buffers) buf.reserve(largest);
  for (auto& s : replay.scratch) s.parcels.reserve(largest);
}

/// Starts a fresh replay of `program` over `buffers` (a canonical seed
/// the driver has validated): sizes the kernel's storage for `pool`'s
/// participants and puts the seed in destination order.
template <typename T>
void begin_replay(const StepProgram& program, ParcelBuffers<T>& buffers, StepPool* pool,
                  StepReplay<T>& replay) {
  replay.inbound.resize(static_cast<std::size_t>(program.num_nodes()));
  std::uint32_t max_keys = 0;
  for (int phase = 1; phase <= program.num_phases(); ++phase) {
    max_keys = std::max(max_keys, program.num_keys(phase));
  }
  replay.scratch.resize(static_cast<std::size_t>(participants(pool)));
  for (auto& s : replay.scratch) s.key_counts.reserve(std::size_t{max_keys} + 1);
  hold_largest_buffer(buffers, replay);
  StepPool::run(pool, buffers.size(), [&](std::size_t p, int who) {
    order_by_destination(buffers[p], replay.scratch[static_cast<std::size_t>(who)].parcels);
  });
}

/// Returns every frame a replay still leases when a hook or a worker
/// throws mid-step: the replay may outlive the throw (a failed torexd
/// session keeps its state), its frames may not.
template <typename T>
class ReleaseFramesOnThrow {
 public:
  explicit ReleaseFramesOnThrow(StepReplay<T>& replay) : replay_(replay) {}
  ReleaseFramesOnThrow(const ReleaseFramesOnThrow&) = delete;
  ReleaseFramesOnThrow& operator=(const ReleaseFramesOnThrow&) = delete;
  ~ReleaseFramesOnThrow() {
    if (std::uncaught_exceptions() == uncaught_) return;
    for (auto& in : replay_.inbound) {
      in.src = -1;
      in.frame.reset();
    }
  }

 private:
  StepReplay<T>& replay_;
  int uncaught_ = std::uncaught_exceptions();
};

/// The step kernel: runs `replay` from its (phase, step) to the end of
/// that phase, replaying `program` over `buffers` on `arena`'s frames
/// and `pool`'s workers (inline when null) and calling `hooks` as the
/// section comment describes. Returns true once the phase is done
/// (`replay` then names the next phase's first step), false when
/// hooks.begin_step deferred a step (`replay` still names it).
template <typename T, typename Hooks>
bool replay_phase(const StepProgram& program, ParcelBuffers<T>& buffers, WireArena& arena,
                  StepPool* pool, Recorder* obs, Hooks& hooks, StepReplay<T>& replay) {
  constexpr bool kFramable = std::is_trivially_copyable_v<Parcel<T>>;
  const Rank N = program.num_nodes();
  const auto nodes = static_cast<std::size_t>(N);
  const int phase = replay.phase;
  auto& inbound = replay.inbound;
  auto& staged = replay.staged;
  // Every stage below runs over all nodes.
  const auto each_node = [&](auto&& fn) { StepPool::run(pool, nodes, fn); };
  const ReleaseFramesOnThrow<T> release(replay);

  SpanGuard phase_span(obs, "phase", -1, phase);
  // Phase-boundary rearrangement: one pass, same accounting as the
  // layout simulator (phase 1's initial order is counted as given).
  const auto rearrange = [&] {
    if (phase > 1) {
      ++arena.stats().rearrangement_passes;
      arena.stats().parcels_rearranged += N;
    }
    if (!program.rearranges(phase)) return;
    hold_largest_buffer(buffers, replay);
    each_node([&](std::size_t p, int who) {
      const StepProgram::SortKey key = program.sort_key(phase, static_cast<Rank>(p));
      auto& s = replay.scratch[static_cast<std::size_t>(who)];
      stable_counting_sort(buffers[p], s.parcels, s.key_counts, program.num_keys(phase),
                           [&](const Parcel<T>& x) { return key(x.block.dest); });
    });
  };
  if (program.steps_in_phase(phase) == 0) rearrange();

  for (; replay.step <= program.steps_in_phase(phase); ++replay.step) {
    const int step = replay.step;
    if (!hooks.begin_step(phase, step)) return false;
    if (step == 1) rearrange();
    SpanGuard step_span(obs, "step", -1, phase, step);
    const bool framed = kFramable && hooks.framed(phase, step);
    const bool verify_at_seal = !hooks.tampers();
    if (!framed && staged.empty()) staged.resize(nodes);
    const auto message = [&](Rank p) {
      const StepProgram::NodeStep& s = program.step(phase, step, p);
      return StepMessage{phase, step, p, s.partner, 0};
    };
    // Caller: lease, check, size and account, in sender order.
    for (Rank p = 0; p < N; ++p) {
      const StepProgram::NodeStep& s = program.step(phase, step, p);
      if (s.count == 0) continue;
      auto& in = inbound[static_cast<std::size_t>(s.partner)];
      TOREX_CHECK(in.src < 0, "one-port receive violation in the step kernel");
      in.src = p;
      const std::size_t run_bytes = s.count * sizeof(Parcel<T>);
      if (framed) {
        const std::size_t frame_bytes = kFrameV3HeaderBytes +
                                        s.run_count * kRunDescriptorBytes + run_bytes +
                                        kFrameTrailerBytes;
        in.frame.bind(arena, frame_bytes);
        arena.stats().note_message(static_cast<std::int64_t>(s.count),
                                   static_cast<std::int64_t>(s.run_count));
        arena.stats().bytes_encoded += static_cast<std::int64_t>(frame_bytes);
        arena.stats().bytes_copied += static_cast<std::int64_t>(2 * run_bytes);  // gather, splice
      } else {
        staged[static_cast<std::size_t>(s.partner)].reserve(s.count);
      }
      // A receive that does not land in place grows its buffer by the
      // difference between what arrives and what the receiver sent.
      const StepProgram::NodeStep& r = program.step(phase, step, s.partner);
      if (!r.in_place) {
        auto& dst = buffers[static_cast<std::size_t>(s.partner)];
        dst.reserve(dst.size() - r.count + s.count);
      }
    }
    // Workers: gather and seal (or stage locally).
    each_node([&](std::size_t p, int) {
      const StepProgram::NodeStep& s = program.step(phase, step, static_cast<Rank>(p));
      if (s.count == 0) return;
      auto& buf = buffers[p];
      const std::span<const SendRun> runs = program.runs(s);
      auto& in = inbound[static_cast<std::size_t>(s.partner)];
      if constexpr (kFramable) {
        if (framed) {
          encode_multi_run_frame(buf, runs, s.count, phase, step, static_cast<Rank>(p), s.partner,
                                 in.frame.bytes());
          if (verify_at_seal) {
            in.refused = verify_multi_run_frame<T>(in.frame.view(), phase, step,
                                                   static_cast<Rank>(p), s.partner, N, in.view);
          }
          return;
        }
      }
      auto& out = staged[static_cast<std::size_t>(s.partner)];
      for (const SendRun& r : runs) {
        const auto first = buf.begin() + static_cast<std::ptrdiff_t>(r.offset);
        out.insert(out.end(), std::make_move_iterator(first),
                   std::make_move_iterator(first + static_cast<std::ptrdiff_t>(r.count)));
      }
    });
    if constexpr (kFramable) {
      if (framed) {
        if (!verify_at_seal) {
          for (Rank p = 0; p < N; ++p) {
            if (program.step(phase, step, p).count == 0) continue;
            const StepMessage m = message(p);
            hooks.tamper(m, inbound[static_cast<std::size_t>(m.dst)].frame.bytes());
          }
          each_node([&](std::size_t q, int) {
            auto& in = inbound[q];
            if (in.src < 0) return;
            in.refused = verify_multi_run_frame<T>(in.frame.view(), phase, step, in.src,
                                                   static_cast<Rank>(q), N, in.view);
          });
        }
        // Caller: settle in sender order, retransmitting refused frames.
        for (Rank p = 0; p < N; ++p) {
          const StepProgram::NodeStep& s = program.step(phase, step, p);
          if (s.count == 0) continue;
          auto& in = inbound[static_cast<std::size_t>(s.partner)];
          for (StepMessage m = message(p); !hooks.settle(m, in.view, in.refused);) {
            ++m.attempt;
            encode_multi_run_frame(buffers[static_cast<std::size_t>(p)], program.runs(s), s.count,
                                   phase, step, p, s.partner, in.frame.bytes());
            arena.stats().note_message(static_cast<std::int64_t>(s.count),
                                       static_cast<std::int64_t>(s.run_count));
            arena.stats().bytes_encoded += static_cast<std::int64_t>(in.frame.bytes().size());
            arena.stats().bytes_copied += static_cast<std::int64_t>(s.count * sizeof(Parcel<T>));
            hooks.tamper(m, in.frame.bytes());
            in.refused = verify_multi_run_frame<T>(in.frame.view(), phase, step, p, s.partner, N,
                                                   in.view);
          }
        }
      }
    }
    // Workers: compact, then land the receive over the node's own send
    // run (in place) or in the hole that send left.
    each_node([&](std::size_t p, int) {
      const StepProgram::NodeStep& s = program.step(phase, step, static_cast<Rank>(p));
      auto& buf = buffers[p];
      if (s.count > 0 && !s.in_place) erase_runs(buf, program.runs(s));
      auto& in = inbound[p];
      if (in.src < 0) return;
      in.count = framed ? in.view.count() : staged[p].size();
      in.at = s.count > 0 ? program.runs(s).front().offset : buf.size();
      if (s.in_place) {
        TOREX_CHECK(in.count == s.count, "in-place receive must match the send it replaces");
      } else {
        in.at = std::min(in.at, buf.size());
        buf.insert(buf.begin() + static_cast<std::ptrdiff_t>(in.at), in.count, Parcel<T>{});
      }
      Parcel<T>* first = buf.data() + in.at;
      if constexpr (kFramable) {
        if (framed) {
          in.view.scatter(first);
          return;
        }
      }
      auto& local = staged[p];
      std::move(local.begin(), local.end(), first);
      local.clear();
    });
    // Caller: frames go back to the arena, then the receive hooks run.
    for (Rank p = 0; p < N; ++p) {
      auto& in = inbound[static_cast<std::size_t>(p)];
      if (in.src < 0) continue;
      in.src = -1;
      in.frame.reset();
      hooks.received(p, phase, step, buffers[static_cast<std::size_t>(p)].data() + in.at,
                     in.count);
    }
    hooks.step_done(phase, step);
  }
  hooks.phase_done(phase);
  ++replay.phase;
  replay.step = 1;
  return true;
}

/// The one-shot replay: runs `program` over `buffers` (a canonical seed
/// the driver has validated) from (1, 1) to the end in one call, then
/// checks the AAPE postcondition. Its hooks never defer.
template <typename T, typename Hooks>
void replay_step_program(const StepProgram& program, ParcelBuffers<T>& buffers, WireArena& arena,
                         StepPool* pool, Recorder* obs, Hooks& hooks) {
  StepReplay<T> replay;
  begin_replay(program, buffers, pool, replay);
  while (replay.phase <= program.num_phases()) {
    TOREX_CHECK(replay_phase(program, buffers, arena, pool, obs, hooks, replay),
                "a one-shot replay deferred a step");
  }
  check_parcel_postcondition(program.num_nodes(), buffers, pool);
}

}  // namespace detail

// --- Pooled exchange ----------------------------------------------------

/// Options for exchange_payloads_pooled. The buffer layout is part of
/// the StepProgram the exchange replays.
struct WireExchangeOptions {
  /// Optional external frame pool; a private arena is used when null.
  WireArena* arena = nullptr;
  /// Optional worker pool for the step kernel's per-node work; every
  /// stage runs inline on the calling thread when null.
  StepPool* pool = nullptr;
  Recorder* obs = nullptr;
};

/// exchange_payloads over the zero-copy wire: the step kernel replaying
/// `program` on options.pool (inline when null), with every frame
/// verified in place. Under the paper layout in 2D each message is one
/// memcpy. Steady state performs no heap allocation on the wire: frames
/// recycle through the arena. Throws StepProgramMismatchError when
/// `program` was compiled for another schedule.
template <typename T>
ParcelBuffers<T> exchange_payloads_pooled(const SuhShinAape& algo, const StepProgram& program,
                                          ParcelBuffers<T> buffers,
                                          const WireExchangeOptions& options = {}) {
  static_assert(std::is_trivially_copyable_v<Parcel<T>>,
                "pooled exchange requires trivially copyable parcels");
  program.require_compiled_for(algo);
  detail::require_canonical_parcel_seed(program.num_nodes(), buffers, options.pool);
  Recorder* obs = options.obs;
  if (obs != nullptr && !obs->enabled()) obs = nullptr;
  WireArena local_arena;
  WireArena& arena = options.arena != nullptr ? *options.arena : local_arena;
  const WirePoolStats stats_before = arena.stats();
  SpanGuard exchange_span(obs, "exchange");
  detail::StepHooks hooks;
  detail::replay_step_program(program, buffers, arena, options.pool, obs, hooks);
  detail::publish_wire_metrics(obs, wire_stats_delta(arena.stats(), stats_before));
  return buffers;
}

// --- Sealed exchange ---------------------------------------------------

/// exchange_payloads_pooled with end-to-end integrity: every frame may
/// be tampered with in flight by `tamperer` before it is verified. A
/// refused frame is re-encoded from its intact source runs and
/// retransmitted up to options.max_retransmits times — each
/// retransmission costs one fault tick, so transient corruption windows
/// heal under retry — and an exhausted budget raises IntegrityError
/// carrying the report. `report_out`, when non-null, receives the
/// report even on throw.
///
/// The tamperer runs on the calling thread. All of a step's first
/// transmissions are tampered with, in sender order, before any
/// retransmission; each retransmission follows its refusal at once. A
/// tamperer that depends only on its TransferContext and the frame
/// bytes (CorruptionModel::tamperer is one) therefore yields the same
/// buffers, report and wire statistics at any options.pool size.
template <typename T>
ParcelBuffers<T> exchange_payloads_sealed(const SuhShinAape& algo, const StepProgram& program,
                                          ParcelBuffers<T> buffers,
                                          const ParcelTamperer& tamperer = {},
                                          const IntegrityOptions& options = {},
                                          IntegrityReport* report_out = nullptr,
                                          Recorder* obs = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>,
                "sealed exchange requires trivially copyable payloads");
  program.require_compiled_for(algo);
  detail::require_canonical_parcel_seed(program.num_nodes(), buffers, options.pool);
  TOREX_REQUIRE(options.max_retransmits >= 0, "retransmit budget must be non-negative");
  if (obs != nullptr && !obs->enabled()) obs = nullptr;
  SpanGuard exchange_span(obs, "exchange_sealed");
  WireArena local_arena;
  WireArena& arena = options.arena != nullptr ? *options.arena : local_arena;

  // Tamper, verify, retransmit; the report is published on every exit.
  struct Sealer : detail::StepHooks {
    const SuhShinAape& algo;
    const ParcelTamperer& tamperer;
    const IntegrityOptions& options;
    WireArena& arena;
    Recorder* obs;
    IntegrityReport* report_out;
    WirePoolStats stats_before;
    IntegrityReport report;
    std::int64_t tick;
    std::int64_t extra_ticks;  // worst retransmit count of the step

    TransferContext context(const detail::StepMessage& m) const {
      TransferContext ctx;
      ctx.phase = m.phase;
      ctx.step = m.step;
      ctx.src = m.src;
      ctx.dst = m.dst;
      ctx.direction = algo.direction(m.src, m.phase, m.step);
      ctx.hops = algo.hops_per_step(m.phase);
      ctx.tick = tick + m.attempt;
      ctx.attempt = m.attempt;
      return ctx;
    }

    bool tampers() const { return static_cast<bool>(tamperer); }

    void tamper(const detail::StepMessage& m, std::vector<std::byte>& frame) {
      if (tamperer) tamperer(context(m), frame);
    }

    bool settle(const detail::StepMessage& m, const SealedRunFrameView<T>& view,
                const char* refused) {
      if (refused == nullptr) {
        ++report.messages;
        report.parcels += static_cast<std::int64_t>(view.count());
        report.retransmits += m.attempt;
        if (obs != nullptr && m.attempt > 0) {
          obs->instant("retransmit_ok", m.dst, m.phase, m.step, m.attempt);
        }
        extra_ticks = std::max<std::int64_t>(extra_ticks, m.attempt);
        return true;
      }
      ++report.corrupted;
      if (obs != nullptr) obs->instant("corrupted", m.dst, m.phase, m.step, m.attempt);
      const TransferContext ctx = context(m);
      IntegrityViolation violation;
      violation.phase = m.phase;
      violation.step = m.step;
      violation.src = m.src;
      violation.dst = m.dst;
      violation.direction = ctx.direction;
      violation.hops = ctx.hops;
      violation.tick = ctx.tick;
      violation.attempt = m.attempt;
      violation.reason = refused;
      if (report.violations.size() < IntegrityReport::kMaxRecordedViolations) {
        report.violations.push_back(violation);
      }
      if (m.attempt < options.max_retransmits) return false;
      report.retransmits += m.attempt;
      report.fatal = violation;
      report.final_tick = ctx.tick;
      if (obs != nullptr) obs->instant("integrity_fatal", m.dst, m.phase, m.step, m.attempt);
      publish();
      throw IntegrityError(
          "integrity failure: " + violation.describe() + " (retransmit budget exhausted)",
          std::move(report));
    }

    // Retransmissions across node pairs overlap in time: a step consumes
    // 1 + (worst retransmit count) ticks.
    void step_done(int /*phase*/, int /*step*/) {
      tick += 1 + extra_ticks;
      extra_ticks = 0;
    }

    void publish() {
      if (obs != nullptr) {
        MetricsRegistry& m = obs->metrics();
        m.counter("integrity.messages").add(report.messages);
        m.counter("integrity.parcels").add(report.parcels);
        m.counter("integrity.retransmits").add(report.retransmits);
        m.counter("integrity.corrupted").add(report.corrupted);
      }
      detail::publish_wire_metrics(obs, wire_stats_delta(arena.stats(), stats_before));
      if (report_out != nullptr) *report_out = report;
    }
  };
  Sealer sealer{{}, algo, tamperer, options, arena, obs, report_out, arena.stats(), {},
                options.base_tick, 0};
  detail::replay_step_program(program, buffers, arena, options.pool, obs, sealer);
  sealer.report.final_tick = sealer.tick;
  sealer.publish();
  return buffers;
}

/// Runs the schedule over an arbitrary parcel multiset (the Alltoallv
/// generalization): initial[p] may hold any parcels with origin p.
/// Returns the final buffers; every parcel ends on its destination
/// (checked), with no constraint on counts.
template <typename T>
ParcelBuffers<T> exchange_parcels_custom(const SuhShinAape& algo, ParcelBuffers<T> buffers) {
  const Rank N = algo.shape().num_nodes();
  TOREX_REQUIRE(static_cast<Rank>(buffers.size()) == N, "need one buffer per node");
  std::int64_t total = 0;
  for (Rank p = 0; p < N; ++p) {
    for (const auto& parcel : buffers[static_cast<std::size_t>(p)]) {
      TOREX_REQUIRE(parcel.block.origin == p, "parcel origin must match its node");
      TOREX_REQUIRE(parcel.block.dest >= 0 && parcel.block.dest < N,
                    "parcel destination out of range");
      ++total;
    }
  }

  ParcelBuffers<T> inbox(static_cast<std::size_t>(N));
  for (int phase = 1; phase <= algo.num_phases(); ++phase) {
    for (int step = 1; step <= algo.steps_in_phase(phase); ++step) {
      for (Rank p = 0; p < N; ++p) {
        auto& buf = buffers[static_cast<std::size_t>(p)];
        auto split = std::stable_partition(buf.begin(), buf.end(), [&](const Parcel<T>& x) {
          return !algo.should_send(p, phase, step, x.block);
        });
        if (split == buf.end()) continue;
        const Rank q = algo.partner(p, phase, step);
        auto& in = inbox[static_cast<std::size_t>(q)];
        in.insert(in.end(), std::make_move_iterator(split),
                  std::make_move_iterator(buf.end()));
        buf.erase(split, buf.end());
      }
      for (Rank p = 0; p < N; ++p) {
        auto& in = inbox[static_cast<std::size_t>(p)];
        if (in.empty()) continue;
        auto& buf = buffers[static_cast<std::size_t>(p)];
        buf.insert(buf.end(), std::make_move_iterator(in.begin()),
                   std::make_move_iterator(in.end()));
        in.clear();
      }
    }
  }

  std::int64_t delivered = 0;
  for (Rank p = 0; p < N; ++p) {
    for (const auto& parcel : buffers[static_cast<std::size_t>(p)]) {
      TOREX_CHECK(parcel.block.dest == p, "parcel delivered to the wrong node");
      ++delivered;
    }
  }
  TOREX_CHECK(delivered == total, "parcels lost or duplicated");
  return buffers;
}

/// One-to-all personalized scatter: the root holds one payload per
/// node; after running the (same) schedule, node d holds payloads[d].
/// Returns the received payload per node (root keeps its own).
template <typename T>
std::vector<T> scatter_payloads(const SuhShinAape& algo, Rank root, std::vector<T> payloads) {
  const Rank N = algo.shape().num_nodes();
  TOREX_REQUIRE(root >= 0 && root < N, "root out of range");
  TOREX_REQUIRE(static_cast<Rank>(payloads.size()) == N, "need one payload per node");
  ParcelBuffers<T> parcels(static_cast<std::size_t>(N));
  for (Rank d = 0; d < N; ++d) {
    parcels[static_cast<std::size_t>(root)].push_back(
        {Block{root, d}, std::move(payloads[static_cast<std::size_t>(d)])});
  }
  auto delivered = exchange_parcels_custom(algo, std::move(parcels));
  std::vector<T> out(static_cast<std::size_t>(N));
  for (Rank d = 0; d < N; ++d) {
    auto& buf = delivered[static_cast<std::size_t>(d)];
    TOREX_CHECK(buf.size() == 1, "scatter must deliver exactly one payload per node");
    out[static_cast<std::size_t>(d)] = std::move(buf.front().payload);
  }
  return out;
}

/// All-to-one personalized gather: every node contributes one payload;
/// the root ends with all of them, indexed by origin.
template <typename T>
std::vector<T> gather_payloads(const SuhShinAape& algo, Rank root, std::vector<T> payloads) {
  const Rank N = algo.shape().num_nodes();
  TOREX_REQUIRE(root >= 0 && root < N, "root out of range");
  TOREX_REQUIRE(static_cast<Rank>(payloads.size()) == N, "need one payload per node");
  ParcelBuffers<T> parcels(static_cast<std::size_t>(N));
  for (Rank p = 0; p < N; ++p) {
    parcels[static_cast<std::size_t>(p)].push_back(
        {Block{p, root}, std::move(payloads[static_cast<std::size_t>(p)])});
  }
  auto delivered = exchange_parcels_custom(algo, std::move(parcels));
  auto& buf = delivered[static_cast<std::size_t>(root)];
  TOREX_CHECK(static_cast<Rank>(buf.size()) == N, "gather must collect N payloads");
  std::vector<T> out(static_cast<std::size_t>(N));
  for (auto& parcel : buf) {
    out[static_cast<std::size_t>(parcel.block.origin)] = std::move(parcel.payload);
  }
  return out;
}

}  // namespace torex
