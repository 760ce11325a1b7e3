// Runtime telemetry recorder: per-thread lock-free event buffers plus a
// metrics registry, merged into a Telemetry snapshot at exchange end.
//
// Design constraints, in order:
//   * the disabled path must cost one branch per event — every
//     instrumentation site takes a `Recorder*` that is null (or
//     disabled) by default, so benches without telemetry pay nothing;
//   * recording must be lock-free: each thread owns a bounded
//     single-writer buffer (preallocated, no reallocation) and appends
//     with a release store; the merge reads with acquire, so a snapshot
//     can be taken even while a detached (stalled) worker is still
//     writing. A full buffer drops events and counts the drops — the
//     recorder never blocks and never reallocates on the hot path;
//   * Recorder is a shared handle: copies observe the same buffers,
//     metrics, and clock epoch. Runtimes that may outlive their caller
//     (the parallel engine detaches wedged workers) hold a copy, so a
//     late event after the caller destroyed its handle is safe.
//
// Event names must be string literals (or otherwise outlive the
// snapshot); events carry the schedule coordinates (node, phase, step)
// and one integer value, which is all every exporter needs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"

namespace torex {

/// What one telemetry event is.
enum class EventKind : std::uint8_t {
  kBegin,    ///< span open (matched by name at export time)
  kEnd,      ///< span close
  kInstant,  ///< point event (retransmit, escalation)
  kCounter,  ///< sampled counter track value
};

/// One recorded event. `name` must point at static-duration storage.
struct Event {
  const char* name = nullptr;
  std::int64_t ts_ns = 0;   ///< steady-clock ns since the recorder epoch
  std::int64_t value = 0;   ///< counter sample / instant payload
  std::int32_t node = -1;   ///< torus rank; -1 = run-scoped
  std::int32_t phase = 0;   ///< 1-based schedule phase; 0 = not step-scoped
  std::int32_t step = 0;    ///< 1-based step within phase
  EventKind kind = EventKind::kInstant;
};

/// Recorder configuration.
struct ObsOptions {
  /// Disabled recorders accept events but record nothing (and report an
  /// empty snapshot); instrumentation sites treat them like nullptr.
  bool enabled = true;
  /// Bounded per-thread buffer capacity in events; once full, further
  /// events from that thread are dropped (and counted).
  std::size_t events_per_thread = 1 << 16;
};

/// Merged view of one event for consumers (owns the name).
struct TelemetryEvent {
  EventKind kind = EventKind::kInstant;
  std::string name;
  std::int64_t ts_ns = 0;
  std::int64_t value = 0;
  int tid = 0;  ///< recording stream (one per thread per recorder)
  std::int32_t node = -1;
  std::int32_t phase = 0;
  std::int32_t step = 0;
};

/// Everything one run recorded: merged events (sorted by timestamp),
/// drop accounting, and the metrics registry's snapshot.
struct Telemetry {
  std::vector<TelemetryEvent> events;
  int streams = 0;                  ///< per-thread buffers merged
  std::int64_t dropped_events = 0;  ///< events lost to full buffers
  std::int64_t wall_ns = 0;         ///< latest event timestamp
  MetricsSnapshot metrics;
};

/// Shared-handle telemetry recorder. Copy it freely; all copies feed
/// the same snapshot. Thread-safe for concurrent recording.
class Recorder {
 public:
  explicit Recorder(ObsOptions options = {});

  bool enabled() const;

  /// Steady-clock nanoseconds since this recorder's construction.
  std::int64_t now_ns() const;

  void begin(const char* name, std::int32_t node = -1, std::int32_t phase = 0,
             std::int32_t step = 0);
  void end(const char* name, std::int32_t node = -1, std::int32_t phase = 0,
           std::int32_t step = 0);
  void instant(const char* name, std::int32_t node = -1, std::int32_t phase = 0,
               std::int32_t step = 0, std::int64_t value = 0);
  void counter(const char* name, std::int64_t value, std::int32_t node = -1);

  /// The recorder's metrics registry (usable even when disabled, so
  /// instrumentation can hold references unconditionally).
  MetricsRegistry& metrics();

  /// Events dropped so far across all buffers.
  std::int64_t dropped_events() const;

  /// Merges every thread buffer (timestamp-sorted) and the metrics
  /// registry into one snapshot. Safe to call while other threads are
  /// still recording: only events published before the call are seen.
  Telemetry snapshot() const;

 private:
  struct State;
  void record(EventKind kind, const char* name, std::int32_t node, std::int32_t phase,
              std::int32_t step, std::int64_t value);

  std::shared_ptr<State> state_;
};

/// RAII span: begin on construction, end on destruction. A null or
/// disabled recorder makes both ends a no-op (one branch each).
class SpanGuard {
 public:
  SpanGuard() = default;
  SpanGuard(Recorder* recorder, const char* name, std::int32_t node = -1,
            std::int32_t phase = 0, std::int32_t step = 0)
      : recorder_(recorder != nullptr && recorder->enabled() ? recorder : nullptr),
        name_(name),
        node_(node),
        phase_(phase),
        step_(step) {
    if (recorder_ != nullptr) recorder_->begin(name_, node_, phase_, step_);
  }
  ~SpanGuard() {
    if (recorder_ != nullptr) recorder_->end(name_, node_, phase_, step_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  SpanGuard(SpanGuard&& other) noexcept { *this = std::move(other); }
  SpanGuard& operator=(SpanGuard&& other) noexcept {
    if (this != &other) {
      recorder_ = other.recorder_;
      name_ = other.name_;
      node_ = other.node_;
      phase_ = other.phase_;
      step_ = other.step_;
      other.recorder_ = nullptr;
    }
    return *this;
  }

 private:
  Recorder* recorder_ = nullptr;
  const char* name_ = nullptr;
  std::int32_t node_ = -1;
  std::int32_t phase_ = 0;
  std::int32_t step_ = 0;
};

}  // namespace torex
