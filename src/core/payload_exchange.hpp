// Payload-carrying exchange: the bridge from schedule to application.
//
// The exchange engine moves block *identities*; applications move data.
// This header runs the same schedule over user payloads — each node
// starts with one payload per destination and ends with one payload per
// origin — so examples (matrix transpose, FFT) and downstream users
// exercise exactly the communication pattern the paper schedules, with
// their own element types. One executor moves them: the step kernel
// and its drivers move bare payloads in rows, and the compiled
// StepProgram knows whose payload sits in every slot. Sparse exchanges
// (scatter, gather, §6 padding) run the same schedule over rows of
// default-constructed placeholders, and irregular ones (Alltoallv) over
// rows of buckets: one container of payloads per (origin, dest) pair.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <exception>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/aape.hpp"
#include "core/data_array.hpp"
#include "core/integrity.hpp"
#include "core/step_program.hpp"
#include "core/step_program_cache.hpp"
#include "core/wire_buffer.hpp"
#include "obs/recorder.hpp"
#include "util/assert.hpp"
#include "util/crc32.hpp"
#include "util/step_pool.hpp"

namespace torex {

// --- Wire frames (TOX4, the one frame format) ---------------------------
//
// A frame carries one message's payloads and nothing else: no block
// identity and no run table, because the compiled program already knows
// whose payload sits in every slot and where every receive lands. The
// sender gathers its send runs straight out of its row into the frame —
// one memcpy per run, and a §3.3-contiguous send is a single run — with
// the row untouched, so a refused frame retransmits from intact slots.
// The receiver lands the payload in one piece (one memcpy). The header
// names the program the frame was sealed for (its fingerprint), the
// step, the channel, the parcel count and the element size; verify
// checks every field against what the program expects for that
// (phase, step, src -> dst), both CRCs and the exact size, so a bit
// flip or truncation anywhere, a stale or misrouted frame and a forged
// count are all refused before anything lands. The frame seals the
// payloads' object representation, so framed exchanges need trivially
// copyable payloads.
//
// Frame layout (little-endian):
//   [ 0) magic u32  "TOX4"
//   [ 4) phase u32        [ 8) step u32
//   [12) src u32          [16) dst u32
//   [20) count u32        [24) element size u32
//   [28) program fingerprint u64
//   [36) header crc u32 over bytes [0, 36)
//   [40) count * element size payload bytes, the send runs concatenated
//        in row order
//   [..) frame crc u32 over everything before it

namespace detail {

inline constexpr std::uint32_t kFrameMagic = 0x34584F54u;  // "TOX4"
inline constexpr std::size_t kFrameHeaderCrcAt = 36;
inline constexpr std::size_t kFrameHeaderBytes = 40;
inline constexpr std::size_t kFrameTrailerBytes = 4;

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

}  // namespace detail

/// What a frame's header says, and what verify expects it to say: the
/// program the frame was sealed for, the step, the channel and the
/// parcel count. The element size is the payload type's.
struct FrameHeader {
  std::uint64_t fingerprint = 0;
  int phase = 0;  ///< 1-based schedule coordinates
  int step = 0;
  Rank src = -1;
  Rank dst = -1;
  std::uint32_t count = 0;
};

/// Bytes of a frame carrying `count` payloads of type T.
template <typename T>
std::size_t frame_size(std::uint32_t count) {
  return detail::kFrameHeaderBytes + std::size_t{count} * sizeof(T) + detail::kFrameTrailerBytes;
}

/// Seals one message into `frame`, gathering `runs` of `row` (one
/// memcpy per run, `row` untouched). The runs must hold header.count
/// payloads. `frame` is resized to frame_size<T>(header.count); leased
/// at that capacity, it does not allocate.
template <typename T>
void encode_frame(const T* row, std::span<const SendRun> runs, const FrameHeader& header,
                  std::vector<std::byte>& frame) {
  static_assert(std::is_trivially_copyable_v<T>,
                "framed exchange requires trivially copyable payloads");
  TOREX_REQUIRE(header.phase >= 0 && header.step >= 0 && header.src >= 0 && header.dst >= 0,
                "sealed message metadata must be non-negative");
  frame.clear();
  frame.reserve(frame_size<T>(header.count));
  frame.resize(detail::kFrameHeaderBytes);
  std::byte* h = frame.data();
  wire_write_u32(h + 0, detail::kFrameMagic);
  wire_write_u32(h + 4, static_cast<std::uint32_t>(header.phase));
  wire_write_u32(h + 8, static_cast<std::uint32_t>(header.step));
  wire_write_u32(h + 12, static_cast<std::uint32_t>(header.src));
  wire_write_u32(h + 16, static_cast<std::uint32_t>(header.dst));
  wire_write_u32(h + 20, header.count);
  wire_write_u32(h + 24, static_cast<std::uint32_t>(sizeof(T)));
  wire_write_u64(h + 28, header.fingerprint);
  // Appending each run copies it once, with no zero fill first.
  for (const SendRun& r : runs) {
    const auto* first = reinterpret_cast<const std::byte*>(row + r.offset);
    frame.insert(frame.end(), first, first + std::size_t{r.count} * sizeof(T));
  }
  TOREX_CHECK(frame.size() == frame_size<T>(header.count) - detail::kFrameTrailerBytes,
              "send runs disagree with the parcel count");
  // One streaming pass: the header digest is sampled mid-stream (value()
  // does not consume the accumulator), patched into its slot, and those
  // bytes then feed the same accumulator so the frame digest covers them.
  h = frame.data();
  Crc32 crc;
  crc.update(h, detail::kFrameHeaderCrcAt);
  wire_write_u32(h + detail::kFrameHeaderCrcAt, crc.value());
  const std::size_t end = frame.size();
  crc.update(h + detail::kFrameHeaderCrcAt, end - detail::kFrameHeaderCrcAt);
  frame.resize(end + detail::kFrameTrailerBytes);
  wire_write_u32(frame.data() + end, crc.value());
}

/// Verifies a frame in place against `want`: the exact size, both CRCs
/// and every header field. Returns null when the frame verifies (its
/// payloads then start kFrameHeaderBytes in), otherwise the reason, a
/// string literal naming the first check that failed. Allocates
/// nothing, so step-kernel workers call it.
template <typename T>
const char* verify_frame(WireView wire, const FrameHeader& want) {
  static_assert(std::is_trivially_copyable_v<T>,
                "framed exchange requires trivially copyable payloads");
  if (want.phase < 0 || want.step < 0 || want.src < 0 || want.dst < 0) {
    return "negative message metadata";
  }
  if (wire.size() < detail::kFrameHeaderBytes + detail::kFrameTrailerBytes) {
    return "truncated message header";
  }
  std::size_t offset = 0;
  std::uint32_t magic = 0, phase = 0, step = 0, src = 0, dst = 0, count = 0, size = 0;
  std::uint32_t header_crc = 0;
  std::uint64_t fingerprint = 0;
  wire_get_u32(wire, offset, magic);
  wire_get_u32(wire, offset, phase);
  wire_get_u32(wire, offset, step);
  wire_get_u32(wire, offset, src);
  wire_get_u32(wire, offset, dst);
  wire_get_u32(wire, offset, count);
  wire_get_u32(wire, offset, size);
  wire_get_u64(wire, offset, fingerprint);
  wire_get_u32(wire, offset, header_crc);
  Crc32 crc;
  crc.update(wire.data(), detail::kFrameHeaderCrcAt);
  if (header_crc != crc.value()) return "header checksum mismatch";
  if (magic != detail::kFrameMagic) return "bad magic";
  if (fingerprint != want.fingerprint) return "message sealed for another program";
  if (phase != static_cast<std::uint32_t>(want.phase)) return "message sealed for another phase";
  if (step != static_cast<std::uint32_t>(want.step)) return "message sealed for another step";
  if (src != static_cast<std::uint32_t>(want.src)) return "message sealed by another sender";
  if (dst != static_cast<std::uint32_t>(want.dst)) return "message sealed for another receiver";
  if (size != sizeof(T)) return "element size mismatch";
  if (count != want.count) return "parcel count mismatch";
  if (wire.size() != frame_size<T>(want.count)) return "frame size mismatch";
  const std::size_t end = wire.size() - detail::kFrameTrailerBytes;
  std::uint32_t frame_crc = 0;
  std::size_t trailer_at = end;
  wire_get_u32(wire, trailer_at, frame_crc);
  crc.update(wire.data() + detail::kFrameHeaderCrcAt, end - detail::kFrameHeaderCrcAt);
  if (frame_crc != crc.value()) return "frame checksum mismatch";
  return nullptr;
}

// --- Strided user-buffer views (Träff-style datatypes) ------------------

/// A strided view over caller-owned memory: `count` logical elements,
/// `stride` elements apart (stride 1 is a dense row; a column of a
/// row-major matrix has stride = row length). The exchange seeds its
/// rows straight from these views and scatters results straight back —
/// the caller never materializes a dense staging copy.
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

/// Requires N rows of N payloads each: what every step-kernel driver
/// starts from (row p holds node p's payload for each destination, in
/// destination order).
template <typename T>
void require_rows(Rank N, const std::vector<std::vector<T>>& rows) {
  TOREX_REQUIRE(static_cast<Rank>(rows.size()) == N, "need one row per node");
  for (const auto& row : rows) {
    TOREX_REQUIRE(static_cast<Rank>(row.size()) == N,
                  "each row must hold one payload per destination");
  }
}

/// The pool that may copy payloads of type T: copying runs no user code
/// only for trivially copyable payloads, so other payloads are copied
/// inline, on the calling thread.
template <typename T>
StepPool* copy_pool(StepPool* pool) {
  return std::is_trivially_copyable_v<T> ? pool : nullptr;
}

/// N rows of N default-constructed placeholders. A sparse exchange
/// (scatter, gather, §6 padding) fills only the slots it uses; the
/// schedule forwards the rest like any payload.
template <typename T>
std::vector<std::vector<T>> placeholder_rows(Rank N) {
  std::vector<std::vector<T>> rows(static_cast<std::size_t>(N));
  for (auto& row : rows) row.resize(static_cast<std::size_t>(N));
  return rows;
}

/// Swaps rows[a][b] with rows[b][a] for every pair: N rows in
/// destination order become N rows in origin order, where no schedule
/// ran (a complete journal, or a direct delivery).
template <typename T>
void transpose_rows(std::vector<std::vector<T>>& rows) {
  for (std::size_t a = 0; a < rows.size(); ++a) {
    for (std::size_t b = a + 1; b < rows.size(); ++b) std::swap(rows[a][b], rows[b][a]);
  }
}

}  // namespace detail

/// Copies per-node send rows into the rows an exchange runs in: rows[p]
/// is node p's payload for each destination, in destination order.
/// Every row is allocated on the calling thread; trivially copyable
/// payloads are then copied on `pool`.
template <typename T>
std::vector<std::vector<T>> copy_rows(const std::vector<std::vector<T>>& send,
                                      StepPool* pool = nullptr) {
  std::vector<std::vector<T>> rows(send.size());
  for (std::size_t p = 0; p < rows.size(); ++p) rows[p].reserve(send[p].size());
  StepPool::run(detail::copy_pool<T>(pool), rows.size(), [&](std::size_t p, int) {
    rows[p].assign(send[p].begin(), send[p].end());  // within the reserved capacity
  });
  return rows;
}

/// Seeds the rows of an exchange from per-node strided send views: node
/// p's payload for destination q is send[p].at(q). Every row is
/// allocated on the calling thread; trivially copyable payloads are
/// then copied on `pool`.
template <typename T>
std::vector<std::vector<T>> seed_rows_strided(Rank N,
                                              const std::vector<StridedView<const T>>& send,
                                              StepPool* pool = nullptr) {
  detail::require_strided_views(N, send, "need one send view per node",
                                "send view must cover one element per destination");
  std::vector<std::vector<T>> rows(static_cast<std::size_t>(N));
  for (auto& row : rows) row.reserve(static_cast<std::size_t>(N));
  StepPool::run(detail::copy_pool<T>(pool), rows.size(), [&](std::size_t p, int) {
    const StridedView<const T>& view = send[p];
    for (Rank q = 0; q < N; ++q) rows[p].push_back(view.at(static_cast<std::size_t>(q)));
  });
  return rows;
}

/// Scatters rows that end in `program`'s final slot order into per-node
/// strided receive views: node q's payload from origin o lands at
/// recv[q].at(o), found through the program's final table. Every view
/// is checked before any element is written. Trivially copyable
/// payloads are written on `pool`, so the views must not overlap.
template <typename T>
void scatter_rows_strided(const StepProgram& program, const std::vector<std::vector<T>>& rows,
                          const std::vector<StridedView<T>>& recv, StepPool* pool = nullptr) {
  detail::require_strided_views(program.num_nodes(), recv, "need one receive view per node",
                                "receive view must cover one element per origin");
  StepPool::run(detail::copy_pool<T>(pool), recv.size(), [&](std::size_t q, int) {
    const StridedView<T>& view = recv[q];
    const std::vector<T>& row = rows[q];
    program.for_each_origin(static_cast<Rank>(q), [&](Rank origin, std::uint32_t slot) {
      view.at(static_cast<std::size_t>(origin)) = row[slot];
    });
  });
}

// --- The step kernel ---------------------------------------------------
//
// Every data-moving executor below is a thin driver over one loop that
// replays a compiled StepProgram over N rows of bare payloads — the
// rows the call returns, N slots each, seeded in destination order. The
// program is the payloads' identity: no kernel buffer and no frame holds
// a Block. At each phase boundary every row is rearranged by its
// precomputed slot permutation (the paper's ρ pass, with the §3.3 keys,
// or destination order for the naive layout): a participant gathers the
// row into its scratch row and the two swap. At each step every sending
// node's runs leave as one message; every node receives exactly as many
// payloads as it sent, so its receive lands over its single-run send in
// place, or — after one backward pass closes a multi-run send's gaps —
// in one piece at the first run's offset. Nothing is inserted, erased,
// compared, sorted or looked up by key.
//
// A message either crosses the framed wire — gathered into its sender's
// TOX4 frame, one memcpy per run, verified against the program, and
// landed by its receiver straight from that frame with one memcpy — or,
// for payloads that are not trivially copyable and for steps a driver
// replays locally, moves through its sender's slice of one staging
// buffer the replay keeps, where its receiver finds it through `from`
// as it would a frame. Every message of a step leaves before any
// receive lands, so a refused frame re-encodes from intact source runs,
// and a receive overwrites its node's send only once every message of
// the step has settled.
//
// Frames belong to senders. Each node that sends in a phase leases one
// frame from the arena, sized for the phase's largest message (a
// program constant), at the first framed step a call runs of that
// phase, after that step's begin_step; it reuses the frame at every
// step, and the receiver finds it through the program's `from`. Every
// frame goes back to the arena whenever the call leaves the phase — at
// its end, at a deferral or on a throw — so no replay holds a frame
// between calls. The program's per-step totals carry the arena's
// LayoutStats-style run accounting, so the payload path reports the
// same contiguity evidence as the block-level simulator, at one update
// per step.
//
// The one-port model makes every node's part of a stage independent —
// each node rearranges only its own row, each sender writes only its
// own frame, each node lands only its own receive — so the per-node
// work of a step runs on an optional StepPool (util/step_pool.hpp), as
// bulk-synchronous stages. The pool splits every stage of N nodes into
// the same home ranges, so a node's row and its frame stay on one
// participant for the whole call unless someone stalls:
//
//   caller   begin_step: the driver may defer the step, untouched;
//   caller   the phase's first framed step leases the senders' frames;
//            a local step sizes the staging buffer (grown, never shrunk);
//   caller   the step's wire statistics, from the program's totals;
//   workers  each sender gathers its runs into its frame and seals it
//            (a local step moves them into the sender's staging slice);
//            with no tamper stage, each frame is verified here too;
//   caller   the driver tampers with every first transmission, in
//            sender order (only drivers that tamper);
//   workers  every frame is verified (only drivers that tamper);
//   caller   the driver settles each message in sender order; a refused
//            one is re-encoded, tampered with and verified right there,
//            before the next sender's message settles (only drivers
//            that settle);
//   workers  each node closes its send's gaps, unless it receives in
//            place, then lands its receive from its sender's frame (or
//            staging slice);
//   caller   step_done.
//
// The tamper and settle loops run only for hooks whose type hides
// StepHooks' default, which the kernel decides at compile time. Under
// the default settle a refused frame is a logic error, and the worker
// that verified it raises it; the pool rethrows the lowest sender's, the
// error a settle in sender order raises. What a step sends and delivers
// is a constant of the program (StepProgram::totals), so drivers count
// it there, not node by node. So the caller does O(1) work per step for
// the pooled and journaled drivers, which extend neither loop (a resume
// adds one pass over the re-delivered step's arrivals); torexd's session
// driver adds its settle loop, and its health gate while the gate's view
// is not empty. The phase-boundary permutations and the final pass into
// origin order run on the pool too. Every hook runs on the calling
// thread, in node order, so reports, recorder events and journal records
// come out the same at any pool size; with a null or one-participant
// pool the same stages run inline. Workers never allocate — the caller
// sizes every frame, staging slot and scratch row first — and record
// nothing: the phase and step spans wrap the stages on the caller.
//
// The loop is resumable. A StepReplay holds where a replay stands, the
// next (phase, step), together with the storage the kernel reuses from
// step to step, and replay_phase() runs it from there to the end of
// that phase. The one-shot drivers call it phase after phase within one
// call; torexd's sessions (svc/session_exchange.hpp) keep their
// StepReplay and rows and run one phase per dispatch. A step that
// begin_step defers has mutated nothing — a phase's rearrangement runs
// after its first step's begin_step — so the next call resumes exactly
// there, and no step or rearrangement runs twice.
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
  std::uint32_t count = 0;  ///< payloads carried
  int attempt = 0;          ///< 0: first transmission; >= 1: retransmission
};

/// The default wire is never tampered with, so a frame it refuses is a
/// logic error: the default settle raises it, and so does the worker
/// that verified the frame when a driver keeps that default.
inline void require_verified(const char* refused) {
  TOREX_CHECK(refused == nullptr, std::string("wire frame failed verification: ") + refused);
}

/// The kernel's default hooks. A driver derives from them and hides the
/// members it extends. Every hook runs on the calling thread.
struct StepHooks {
  /// Runs before anything of (phase, step) does, the phase's
  /// rearrangement included when `step` is its first. Returning false
  /// defers the step: replay_phase returns false with the step still
  /// next, and nothing of it has run.
  bool begin_step(int /*phase*/, int /*step*/) { return true; }

  /// Whether (phase, step) crosses the framed wire; when false its
  /// messages move locally. Payloads that are not trivially copyable
  /// always move locally.
  bool framed(int /*phase*/, int /*step*/) const { return true; }

  /// Whether frames pass through tamper() before they are verified.
  /// When false the workers verify each frame as soon as it is sealed.
  /// Read only for drivers that hide tamper().
  bool tampers() const { return false; }

  /// May damage one transmission's frame in flight. All first
  /// transmissions of a step are tampered with, in sender order, before
  /// any is verified; a retransmission right after it is re-encoded.
  void tamper(const StepMessage& /*m*/, std::vector<std::byte>& /*frame*/) {}

  /// Settles one transmission, in sender order: `refused` is null when
  /// the frame verified, else the verifier's reason. Returning false
  /// makes the kernel re-encode the message from its intact source
  /// runs, tamper with it and verify it again (attempt + 1). The default
  /// refuses nothing (see require_verified).
  bool settle(const StepMessage& /*m*/, const char* refused) {
    require_verified(refused);
    return true;
  }

  /// Runs once every receive of (phase, step) landed.
  void step_done(int /*phase*/, int /*step*/) {}
  void phase_done(int /*phase*/) {}
};

/// Whether `Hooks` hides StepHooks' tamper or settle: only then does the
/// kernel run the caller loop that calls it. A hook `Hooks` does not
/// declare still has the type of StepHooks' member.
template <typename Hooks>
inline constexpr bool kHidesTamper =
    !std::is_same_v<decltype(&Hooks::tamper), decltype(&StepHooks::tamper)>;
template <typename Hooks>
inline constexpr bool kHidesSettle =
    !std::is_same_v<decltype(&Hooks::settle), decltype(&StepHooks::settle)>;

/// A replay in progress: the next (phase, step) to run, and the storage
/// the kernel reuses from step to step (see the section comment).
template <typename T>
struct StepReplay {
  /// One node's outbound side: the frame it sends from, leased only
  /// while replay_phase runs one of the node's phases, and the
  /// verifier's verdict on its message of the step in flight.
  struct Outbound {
    PooledFrame frame;
    const char* refused = nullptr;  ///< null once the frame verified
  };

  int phase = 1;  ///< 1-based; num_phases() + 1 once every phase ran
  int step = 1;   ///< 1-based, within `phase`
  std::vector<Outbound> outbound;       // one per node
  /// The local transport: sender p's slice starts at slot p times the
  /// phase's largest message. Grown on first use, never shrunk.
  std::vector<T> staged;
  std::vector<std::vector<T>> scratch;  // one row per participant
};

/// Starts a fresh replay of `program`: sizes the kernel's storage for
/// `pool`'s participants.
template <typename T>
void begin_replay(const StepProgram& program, StepPool* pool, StepReplay<T>& replay) {
  const auto nodes = static_cast<std::size_t>(program.num_nodes());
  replay.outbound.resize(nodes);
  // Sized in place, so payloads that can only be moved replay too.
  replay.scratch.resize(static_cast<std::size_t>(participants(pool)));
  for (auto& row : replay.scratch) row.resize(nodes);
}

/// Returns every frame of a replay to the arena when replay_phase
/// leaves, by any exit — the end of the phase, a deferral or a throw:
/// the replay may outlive the call (a torexd session waits for its next
/// dispatch, and a failed one keeps its state), its frames may not.
template <typename T>
class ReturnFrames {
 public:
  explicit ReturnFrames(StepReplay<T>& replay) : replay_(replay) {}
  ReturnFrames(const ReturnFrames&) = delete;
  ReturnFrames& operator=(const ReturnFrames&) = delete;
  ~ReturnFrames() {
    if (!leased) return;
    for (auto& out : replay_.outbound) out.frame.reset();
  }

  bool leased = false;  ///< set once the phase's frames are leased

 private:
  StepReplay<T>& replay_;
};

/// Adds one framed step's messages to the arena's statistics: the
/// program's totals, at `payload` bytes a parcel (gathered once, landed
/// once).
inline void note_step(WirePoolStats& stats, const StepProgram::StepTotals& t,
                      std::size_t payload) {
  stats.messages += t.messages;
  stats.total_sends += t.messages;
  stats.parcels += t.parcels;
  stats.runs_encoded += t.runs;
  stats.contiguous_sends += t.contiguous;
  stats.gathered_parcels += t.gathered;
  stats.max_runs_per_send = std::max<std::int64_t>(stats.max_runs_per_send, t.max_runs);
  stats.bytes_encoded += static_cast<std::int64_t>(
      std::size_t{t.messages} * (kFrameHeaderBytes + kFrameTrailerBytes) +
      std::size_t{t.parcels} * payload);
  stats.bytes_copied += static_cast<std::int64_t>(2 * std::size_t{t.parcels} * payload);
}

/// The step kernel: runs `replay` from its (phase, step) to the end of
/// that phase, replaying `program` over `rows` on `arena`'s frames and
/// `pool`'s workers (inline when null) and calling `hooks` as the
/// section comment describes. Returns true once the phase is done
/// (`replay` then names the next phase's first step), false when
/// hooks.begin_step deferred a step (`replay` still names it).
template <typename T, typename Hooks>
bool replay_phase(const StepProgram& program, std::vector<std::vector<T>>& rows,
                  WireArena& arena, StepPool* pool, Recorder* obs, Hooks& hooks,
                  StepReplay<T>& replay) {
  constexpr bool kFramable = std::is_trivially_copyable_v<T>;
  const Rank N = program.num_nodes();
  const auto nodes = static_cast<std::size_t>(N);
  const int phase = replay.phase;
  const int steps = program.steps_in_phase(phase);
  auto& outbound = replay.outbound;
  auto& staged = replay.staged;
  const std::size_t slice = program.largest_message(phase);  // staging slots per sender
  // Every stage below runs over all nodes.
  const auto each_node = [&](auto&& fn) { StepPool::run(pool, nodes, fn); };
  ReturnFrames<T> frames(replay);

  SpanGuard phase_span(obs, "phase", -1, phase);
  // Phase-boundary rearrangement: one pass, same accounting as the
  // layout simulator (phase 1's initial order is counted as given).
  const auto rearrange = [&] {
    if (phase > 1) {
      ++arena.stats().rearrangement_passes;
      arena.stats().parcels_rearranged += N;
    }
    if (!program.rearranges(phase)) return;
    each_node([&](std::size_t p, int who) {
      const std::span<const std::uint32_t> perm = program.permutation(phase, static_cast<Rank>(p));
      if (perm.empty()) return;
      auto& row = rows[p];
      auto& into = replay.scratch[static_cast<std::size_t>(who)];
      for (std::size_t i = 0; i < nodes; ++i) into[i] = std::move(row[perm[i]]);
      row.swap(into);
    });
  };
  if (steps == 0) rearrange();
  // One frame per node that sends in the rest of the phase.
  const auto lease_frames = [&] {
    const std::size_t frame_bytes = frame_size<T>(program.largest_message(phase));
    frames.leased = true;
    for (Rank p = 0; p < N; ++p) {
      for (int s = replay.step; s <= steps; ++s) {
        if (program.step(phase, s, p).count == 0) continue;
        outbound[static_cast<std::size_t>(p)].frame.bind(arena, frame_bytes);
        break;
      }
    }
  };

  for (; replay.step <= steps; ++replay.step) {
    const int step = replay.step;
    if (!hooks.begin_step(phase, step)) return false;
    if (step == 1) rearrange();
    SpanGuard step_span(obs, "step", -1, phase, step);
    const bool framed = kFramable && hooks.framed(phase, step);
    const bool verify_at_seal = !(kHidesTamper<Hooks> && hooks.tampers());
    const auto header = [&](Rank p) {
      const StepProgram::NodeStep& s = program.step(phase, step, p);
      return FrameHeader{program.fingerprint(), phase, step, p, s.partner, s.count};
    };
    // A verdict is kept for the driver's settle, or raised right here.
    const auto verdict = [&](std::size_t p, const char* refused) {
      if constexpr (kHidesSettle<Hooks>) {
        outbound[p].refused = refused;
      } else {
        require_verified(refused);
      }
    };
    if (framed) {
      if (!frames.leased) lease_frames();
      note_step(arena.stats(), program.totals(phase, step), sizeof(T));
    } else {
      if (staged.size() < nodes * slice) staged.resize(nodes * slice);
    }
    // Workers: gather and seal (or stage locally).
    each_node([&](std::size_t p, int) {
      const StepProgram::NodeStep& s = program.step(phase, step, static_cast<Rank>(p));
      if (s.count == 0) return;
      auto& row = rows[p];
      const std::span<const SendRun> runs = program.runs(s);
      if constexpr (kFramable) {
        if (framed) {
          const FrameHeader h = header(static_cast<Rank>(p));
          PooledFrame& frame = outbound[p].frame;
          encode_frame(row.data(), runs, h, frame.bytes());
          if (verify_at_seal) verdict(p, verify_frame<T>(frame.view(), h));
          return;
        }
      }
      T* out = staged.data() + p * slice;
      for (const SendRun& r : runs) {
        T* first = row.data() + r.offset;
        out = std::move(first, first + r.count, out);
      }
    });
    if constexpr (kFramable) {
      if (framed) {
        const auto message = [&](Rank p) {
          const StepProgram::NodeStep& s = program.step(phase, step, p);
          return StepMessage{phase, step, p, s.partner, s.count, 0};
        };
        if constexpr (kHidesTamper<Hooks>) {
          if (!verify_at_seal) {
            for (Rank p = 0; p < N; ++p) {
              if (program.step(phase, step, p).count == 0) continue;
              hooks.tamper(message(p), outbound[static_cast<std::size_t>(p)].frame.bytes());
            }
            each_node([&](std::size_t p, int) {
              if (program.step(phase, step, static_cast<Rank>(p)).count == 0) return;
              const FrameHeader h = header(static_cast<Rank>(p));
              verdict(p, verify_frame<T>(outbound[p].frame.view(), h));
            });
          }
        }
        if constexpr (kHidesSettle<Hooks>) {
          // Caller: settle in sender order, retransmitting refused frames.
          for (Rank p = 0; p < N; ++p) {
            const StepProgram::NodeStep& s = program.step(phase, step, p);
            if (s.count == 0) continue;
            auto& out = outbound[static_cast<std::size_t>(p)];
            for (StepMessage m = message(p); !hooks.settle(m, out.refused);) {
              ++m.attempt;
              const FrameHeader h = header(p);
              encode_frame(rows[static_cast<std::size_t>(p)].data(), program.runs(s), h,
                           out.frame.bytes());
              arena.stats().note_message(static_cast<std::int64_t>(s.count),
                                         static_cast<std::int64_t>(s.run_count));
              arena.stats().bytes_encoded +=
                  static_cast<std::int64_t>(out.frame.bytes().size());
              arena.stats().bytes_copied +=
                  static_cast<std::int64_t>(std::size_t{s.count} * sizeof(T));
              hooks.tamper(m, out.frame.bytes());
              out.refused = verify_frame<T>(out.frame.view(), h);
            }
          }
        }
      }
    }
    // Workers: close the send's gaps (unless the receive lands in
    // place), then land the receive at the first run's offset.
    each_node([&](std::size_t q, int) {
      const StepProgram::NodeStep& s = program.step(phase, step, static_cast<Rank>(q));
      if (s.count == 0) return;
      auto& row = rows[q];
      const std::span<const SendRun> runs = program.runs(s);
      if (!s.in_place) close_send_gaps(row.data(), nodes, runs);
      T* first = row.data() + runs.front().offset;
      if constexpr (kFramable) {
        if (framed) {
          std::memcpy(first,
                      outbound[static_cast<std::size_t>(s.from)].frame.bytes().data() +
                          kFrameHeaderBytes,
                      std::size_t{s.count} * sizeof(T));
          return;
        }
      }
      T* from = staged.data() + static_cast<std::size_t>(s.from) * slice;
      std::move(from, from + s.count, first);
    });
    hooks.step_done(phase, step);
  }
  hooks.phase_done(phase);
  ++replay.phase;
  replay.step = 1;
  return true;
}

/// The one-shot replay: runs `program` over `rows` (validated by the
/// driver) from (1, 1) to the end in one call. The rows end in the
/// program's final slot order. Its hooks never defer.
template <typename T, typename Hooks>
void replay_step_program(const StepProgram& program, std::vector<std::vector<T>>& rows,
                         WireArena& arena, StepPool* pool, Recorder* obs, Hooks& hooks,
                         StepReplay<T>& replay) {
  begin_replay(program, pool, replay);
  while (replay.phase <= program.num_phases()) {
    TOREX_CHECK(replay_phase(program, rows, arena, pool, obs, hooks, replay),
                "a one-shot replay deferred a step");
  }
}

/// Puts rows that end in `program`'s final slot order into origin
/// order, through the program's final table: each participant gathers
/// a row into its scratch row and the two swap. Runs on `pool`.
template <typename T>
void put_rows_in_origin_order(const StepProgram& program, std::vector<std::vector<T>>& rows,
                              StepPool* pool, StepReplay<T>& replay, Recorder* obs) {
  SpanGuard permute_span(obs, "permute");
  StepPool::run(pool, rows.size(), [&](std::size_t q, int who) {
    auto& row = rows[q];
    auto& into = replay.scratch[static_cast<std::size_t>(who)];
    program.for_each_origin(static_cast<Rank>(q), [&](Rank origin, std::uint32_t slot) {
      into[static_cast<std::size_t>(origin)] = std::move(row[slot]);
    });
    row.swap(into);
  });
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

namespace detail {

/// exchange_payloads_pooled short of its last pass: `rows` end in the
/// program's final slot order (strided callers scatter from there).
template <typename T>
void run_pooled(const SuhShinAape& algo, const StepProgram& program,
                std::vector<std::vector<T>>& rows, const WireExchangeOptions& options,
                StepReplay<T>& replay) {
  program.require_compiled_for(algo);
  require_rows(program.num_nodes(), rows);
  Recorder* obs = options.obs;
  if (obs != nullptr && !obs->enabled()) obs = nullptr;
  WireArena local_arena;
  WireArena& arena = options.arena != nullptr ? *options.arena : local_arena;
  const WirePoolStats stats_before = arena.stats();
  SpanGuard exchange_span(obs, "exchange");
  StepHooks hooks;
  replay_step_program(program, rows, arena, options.pool, obs, hooks, replay);
  publish_wire_metrics(obs, wire_stats_delta(arena.stats(), stats_before));
}

}  // namespace detail

/// The all-to-all over the zero-copy wire: the step kernel replaying
/// `program` over `rows` on options.pool (inline when null), with every
/// frame verified in place. rows[p] is node p's payload for each
/// destination, in destination order; the same rows come back with
/// rows[q][p] the payload node p sent to q. Under the paper layout in 2D
/// each message is one memcpy. Steady state performs no heap allocation
/// on the wire: frames recycle through the arena. Payloads that are not
/// trivially copyable move through the kernel's local transport
/// instead, with their moves on options.pool's workers. Throws
/// StepProgramMismatchError when `program` was compiled for another
/// schedule.
template <typename T>
std::vector<std::vector<T>> exchange_payloads_pooled(const SuhShinAape& algo,
                                                     const StepProgram& program,
                                                     std::vector<std::vector<T>> rows,
                                                     const WireExchangeOptions& options = {}) {
  detail::StepReplay<T> replay;
  detail::run_pooled(algo, program, rows, options, replay);
  Recorder* obs = options.obs != nullptr && options.obs->enabled() ? options.obs : nullptr;
  detail::put_rows_in_origin_order(program, rows, options.pool, replay, obs);
  return rows;
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
/// rows, report and wire statistics at any options.pool size.
template <typename T>
std::vector<std::vector<T>> exchange_payloads_sealed(const SuhShinAape& algo,
                                                     const StepProgram& program,
                                                     std::vector<std::vector<T>> rows,
                                                     const ParcelTamperer& tamperer = {},
                                                     const IntegrityOptions& options = {},
                                                     IntegrityReport* report_out = nullptr,
                                                     Recorder* obs = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>,
                "sealed exchange requires trivially copyable payloads");
  program.require_compiled_for(algo);
  detail::require_rows(program.num_nodes(), rows);
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

    bool settle(const detail::StepMessage& m, const char* refused) {
      if (refused == nullptr) {
        ++report.messages;
        report.parcels += static_cast<std::int64_t>(m.count);
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
  detail::StepReplay<T> replay;
  detail::replay_step_program(program, rows, arena, options.pool, obs, sealer, replay);
  sealer.report.final_tick = sealer.tick;
  sealer.publish();
  detail::put_rows_in_origin_order(program, rows, options.pool, replay, obs);
  return rows;
}

/// One-to-all personalized scatter: the root holds one payload per
/// node; after running the (same) schedule, node d holds payloads[d].
/// Returns the received payload per node (root keeps its own). One
/// kernel exchange, inline: the root's row holds the payloads and every
/// other slot a placeholder.
template <typename T>
std::vector<T> scatter_payloads(const SuhShinAape& algo, Rank root, std::vector<T> payloads) {
  const Rank N = algo.shape().num_nodes();
  TOREX_REQUIRE(root >= 0 && root < N, "root out of range");
  TOREX_REQUIRE(static_cast<Rank>(payloads.size()) == N, "need one payload per node");
  const auto r = static_cast<std::size_t>(root);
  auto rows = detail::placeholder_rows<T>(N);
  rows[r] = std::move(payloads);
  rows = exchange_payloads_pooled(algo, *step_program_cache().get(algo, LayoutPolicy::kPaper),
                                  std::move(rows));
  std::vector<T> out(static_cast<std::size_t>(N));
  for (std::size_t d = 0; d < out.size(); ++d) out[d] = std::move(rows[d][r]);
  return out;
}

/// All-to-one personalized gather: every node contributes one payload;
/// the root ends with all of them, indexed by origin. One kernel
/// exchange, inline: each node's payload sits in its row's root slot,
/// and every other slot holds a placeholder.
template <typename T>
std::vector<T> gather_payloads(const SuhShinAape& algo, Rank root, std::vector<T> payloads) {
  const Rank N = algo.shape().num_nodes();
  TOREX_REQUIRE(root >= 0 && root < N, "root out of range");
  TOREX_REQUIRE(static_cast<Rank>(payloads.size()) == N, "need one payload per node");
  const auto r = static_cast<std::size_t>(root);
  auto rows = detail::placeholder_rows<T>(N);
  for (std::size_t p = 0; p < rows.size(); ++p) rows[p][r] = std::move(payloads[p]);
  rows = exchange_payloads_pooled(algo, *step_program_cache().get(algo, LayoutPolicy::kPaper),
                                  std::move(rows));
  return std::move(rows[r]);
}

}  // namespace torex
