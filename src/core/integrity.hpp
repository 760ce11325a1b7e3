// Data-integrity layer for payload exchanges: wire primitives, tamper
// hooks, and the detect-and-retransmit protocol's report types.
//
// The schedule proofs elsewhere in this library guarantee *where*
// blocks go; they say nothing about the bytes surviving the trip. This
// module gives payload exchanges an end-to-end check: every message is
// a sealed TOX4 frame (program/step/channel metadata, a header CRC-32 and
// a frame CRC-32, see core/payload_exchange.hpp), a tamper hook lets
// the fault model corrupt the wire bytes in flight, and the receiver
// verifies the frame before anything integrates. A detected corruption
// triggers a bounded retransmit; an exhausted budget raises
// IntegrityError carrying the full report, which the communicator
// escalates into the recovery chain (runtime/recovery.hpp).
//
// Tick semantics: transmission attempt `a` of the message for schedule
// step `s` (0-based, global) happens at tick `base_tick + ticks so
// far + a` — retransmits consume ticks, so a transient corruption
// window heals under retry exactly like a transient channel fault
// heals under backoff.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/wire_buffer.hpp"
#include "topology/torus.hpp"

namespace torex {

class StepPool;

// --- Wire primitives ---------------------------------------------------

/// Little-endian append of a 32-bit word.
inline void wire_put_u32(std::vector<std::byte>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFu));
  }
}

/// Little-endian append of a 64-bit word.
inline void wire_put_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFFu));
  }
}

/// Little-endian read of a 32-bit word; false when the buffer is short.
inline bool wire_get_u32(const std::vector<std::byte>& in, std::size_t& offset,
                         std::uint32_t& v) {
  if (in.size() < offset + 4) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(std::to_integer<std::uint8_t>(in[offset + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  offset += 4;
  return true;
}

/// Little-endian read of a 64-bit word; false when the buffer is short.
inline bool wire_get_u64(const std::vector<std::byte>& in, std::size_t& offset,
                         std::uint64_t& v) {
  if (in.size() < offset + 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(in[offset + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  offset += 8;
  return true;
}

// --- Tamper hook -------------------------------------------------------

/// Everything a tamperer (or any wire observer) knows about one
/// transmission attempt: the schedule coordinates, the directed
/// straight-line route, the fault tick, and which attempt this is
/// (0 = first transmission, >= 1 = retransmit).
struct TransferContext {
  int phase = 0;  ///< 1-based schedule coordinates
  int step = 0;
  Rank src = -1;
  Rank dst = -1;
  Direction direction;  ///< transmit dimension/sign of this step
  int hops = 0;         ///< straight-line hop count of this phase
  std::int64_t tick = 0;
  int attempt = 0;
};

/// In-flight corruption hook: may mutate the wire bytes; returns true
/// when it tampered. An empty std::function means a clean wire.
using ParcelTamperer =
    std::function<bool(const TransferContext&, std::vector<std::byte>&)>;

// --- Protocol configuration and reporting ------------------------------

/// Knobs for the detect-and-retransmit protocol.
struct IntegrityOptions {
  /// Retransmission attempts per message per step after the first
  /// transmission; exhausting them raises IntegrityError.
  int max_retransmits = 3;
  /// Fault tick the first schedule step transmits at.
  std::int64_t base_tick = 0;
  /// Optional external frame pool. When null the exchange uses a
  /// private arena; supplying one lets frames (and the arena's pool /
  /// traffic statistics) survive across exchanges.
  WireArena* arena = nullptr;
  /// Optional worker pool for the step kernel's per-node work; every
  /// stage runs inline on the calling thread when null.
  StepPool* pool = nullptr;
};

/// One detected integrity violation (a seal that failed verification).
struct IntegrityViolation {
  int phase = 0;
  int step = 0;
  Rank src = -1;
  Rank dst = -1;
  Direction direction;
  int hops = 0;
  std::int64_t tick = 0;
  int attempt = 0;      ///< attempt that failed (0 = first transmission)
  std::string reason;   ///< what the verifier rejected

  std::string describe() const;
};

/// Outcome of one sealed exchange: how much was verified, what was
/// caught, and what it cost to correct.
struct IntegrityReport {
  std::int64_t messages = 0;      ///< sealed messages delivered
  std::int64_t parcels = 0;       ///< sealed parcels verified
  std::int64_t corrupted = 0;     ///< deliveries rejected by the verifier
  std::int64_t retransmits = 0;   ///< retransmissions performed
  std::int64_t final_tick = 0;    ///< tick after the last step
  /// First kMaxRecordedViolations violations in schedule order;
  /// `corrupted` counts all of them.
  std::vector<IntegrityViolation> violations;
  /// The violation that exhausted its retransmit budget, when one did.
  std::optional<IntegrityViolation> fatal;

  static constexpr std::size_t kMaxRecordedViolations = 64;

  bool clean() const { return corrupted == 0; }
};

/// Raised when a message exhausts its retransmit budget: the corruption
/// is persistent and the exchange cannot self-correct. Carries the full
/// report so callers can attribute the failure (the communicator uses
/// it to escalate into the recovery chain).
class IntegrityError : public std::runtime_error {
 public:
  IntegrityError(const std::string& what, IntegrityReport report);

  const IntegrityReport& report() const { return report_; }

 private:
  IntegrityReport report_;
};

}  // namespace torex
