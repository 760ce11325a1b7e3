// Write-ahead exchange journal and the delta-resume runner.
//
// The Suh-Shin schedule is step-synchronous and does not depend on the
// data, so after every schedule step the set of parcels that already
// sit on their destination is a function of the schedule alone: the
// compiled StepProgram lists each step's arrivals. Progress is a step
// index, not a delivery list. A run appends CRC-32-sealed records to an
// ExchangeJournal — per step, a deliveries record that names the step
// ("every arrival the program lists for it is durable"), then the
// step's commit marker — and a crash between flush and commit loses at
// most the in-memory state of one step. Resume replays the committed
// prefix locally (deterministic, no wire traffic), materializes the
// arrivals of a step that was delivered but not committed from the
// seed, then re-runs only the remaining steps; the re-received seed
// copies of those arrivals are dropped, giving exactly-once
// integration.
//
// Wire format (little-endian, version 2):
//   header:  magic "TOXJ" | version | num_dims | extents... |
//            num_phases | total_steps | program fingerprint (u64) |
//            CRC-32(header bytes)
//   record:  kind | payload_len | payload | CRC-32(kind+len+payload)
//     kind 1 kDeliveries  payload: flat_step   (the step's arrivals are durable)
//     kind 2 kStepCommit  payload: flat_step   (steps [0, flat_step] durable)
//     kind 3 kPhaseCommit payload: phase       (1-based)
// A step with no arrivals writes no deliveries record, and a deliveries
// record names the step after the last commit, once. Only the program
// whose fingerprint the header carries resumes the journal. A torn tail
// (truncated or CRC-damaged *final* record) is dropped on load and
// reported via torn_tail(); damage anywhere earlier is unrecoverable
// corruption and raises JournalError.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/aape.hpp"
#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "obs/recorder.hpp"
#include "util/assert.hpp"

namespace torex {

/// Raised when a journal's bytes are unusable: bad magic, unsupported
/// version, malformed header, out-of-order records, or corruption
/// before the final record.
class JournalError : public std::runtime_error {
 public:
  explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only durable progress of one all-to-all exchange. Value type;
/// encode() returns the exact byte stream flushed so far, decode()
/// rebuilds the in-memory state from a (possibly torn) stream.
class ExchangeJournal {
 public:
  static constexpr std::uint32_t kMagic = 0x4A584F54u;  // "TOXJ" little-endian
  static constexpr std::uint32_t kVersion = 2;
  enum RecordKind : std::uint32_t {
    kDeliveries = 1,
    kStepCommit = 2,
    kPhaseCommit = 3,
  };

  /// Unbound journal: bound() is false and every mutator refuses.
  ExchangeJournal() = default;

  /// Binds a fresh journal to the exchange `program` replays, its stream
  /// reserved at the size of a complete run's records.
  explicit ExchangeJournal(const StepProgram& program);

  bool bound() const { return num_phases_ > 0; }
  const std::vector<std::int32_t>& extents() const { return extents_; }
  int num_phases() const { return num_phases_; }
  std::int64_t total_steps() const { return total_steps_; }
  /// The fingerprint of the program the journal was written for.
  std::uint64_t fingerprint() const { return fingerprint_; }

  /// No progress recorded.
  bool fresh() const { return records_ == 0; }
  std::int64_t records() const { return records_; }

  /// Number of flat schedule steps whose commit record is durable
  /// (commit of 0-based step s implies committed_steps() >= s + 1).
  std::int64_t committed_steps() const { return committed_steps_; }
  /// Number of flat steps whose arrivals are durable: committed_steps(),
  /// plus one when the next step's deliveries record is in the stream
  /// but its commit marker is not (a death between the two).
  std::int64_t delivered_steps() const { return delivered_steps_; }
  /// Highest phase-commit marker seen (0 = none).
  int committed_phase() const { return committed_phase_; }

  /// Every step and every phase is committed.
  bool exchange_complete() const {
    return bound() && committed_steps_ == total_steps_ && committed_phase_ == num_phases_;
  }

  /// Appends one kDeliveries record for `flat_step` (0-based): every
  /// arrival the program lists for that step is durable. The step must
  /// be the one after the last commit; delivering it twice is an error
  /// (exactly-once is the writer's job).
  void deliver_step(std::int64_t flat_step);
  /// Appends a kStepCommit marker; steps must commit in order.
  void commit_step(std::int64_t flat_step);
  /// Appends a kPhaseCommit marker; phases must commit in order.
  void commit_phase(int phase);

  /// The exact byte stream of everything recorded so far.
  const std::vector<std::byte>& encode() const { return bytes_; }

  /// Rebuilds a journal from bytes. A damaged *final* record is dropped
  /// (torn write) and flagged; any earlier damage raises JournalError.
  static ExchangeJournal decode(const std::vector<std::byte>& bytes);

  /// True when decode() dropped a torn tail record.
  bool torn_tail() const { return torn_tail_; }

  void save_file(const std::string& path) const;
  static ExchangeJournal load_file(const std::string& path);

  std::string summary() const;

 private:
  /// Every record: kind, payload length, one u32 payload field, CRC-32.
  static constexpr std::size_t kRecordBytes = 16;

  /// Writes the header of a fresh journal into a stream with room for
  /// `record_bytes` more.
  ExchangeJournal(std::vector<std::int32_t> extents, int num_phases, std::int64_t total_steps,
                  std::uint64_t fingerprint, std::size_t record_bytes);

  void append_record(RecordKind kind, std::uint32_t value);
  /// Bytes of the stream's header.
  std::size_t header_bytes() const { return 4 * (6 + extents_.size()) + 8; }

  std::vector<std::int32_t> extents_;
  int num_phases_ = 0;
  std::int64_t total_steps_ = 0;
  std::uint64_t fingerprint_ = 0;

  std::int64_t committed_steps_ = 0;
  std::int64_t delivered_steps_ = 0;
  int committed_phase_ = 0;
  std::int64_t records_ = 0;
  bool torn_tail_ = false;

  std::vector<std::byte> bytes_;
};

/// Incremental durability sink for one journal file. The first sync()
/// rewrites the file from scratch (truncating any stale or torn
/// on-disk content — important on resume, where the file may still
/// hold a torn tail the loaded journal dropped); every later sync()
/// appends only the bytes recorded since, writing straight out of the
/// journal's own buffer, so a flush costs O(new bytes) instead of
/// O(journal) and copies nothing. A journal whose byte stream shrank
/// (rebound to a new exchange) triggers a fresh rewrite. A sink
/// follows one journal at a time.
class JournalFileSink {
 public:
  explicit JournalFileSink(std::string path) : path_(std::move(path)) {}

  /// Persists everything the journal has recorded so far.
  void sync(const ExchangeJournal& journal);

  const std::string& path() const { return path_; }
  std::int64_t appends() const { return appends_; }
  std::int64_t rewrites() const { return rewrites_; }
  std::int64_t bytes_written() const { return bytes_written_; }

 private:
  std::string path_;
  std::size_t synced_ = 0;
  bool wrote_ = false;
  std::int64_t appends_ = 0;
  std::int64_t rewrites_ = 0;
  std::int64_t bytes_written_ = 0;
};

/// Simulated process death injected into a journaled run: the step's
/// deliveries may or may not have been flushed (after_flush), its
/// commit marker never is. phase == 0 disables.
struct CrashPoint {
  int phase = 0;  ///< 1-based phase to die in; 0 = never
  int step = 1;   ///< 1-based step within the phase
  bool after_flush = true;

  bool armed() const { return phase > 0; }
};

/// Raised by a journaled run when its CrashPoint fires. The journal the
/// caller passed in retains everything flushed before the "death".
class ExchangeCrashError : public std::runtime_error {
 public:
  ExchangeCrashError(int phase, int step, const std::string& what)
      : std::runtime_error(what), phase_(phase), step_(step) {}
  int phase() const { return phase_; }
  int step() const { return step_; }

 private:
  int phase_;
  int step_;
};

/// Raised when a journaled run (or a torexd session) observes its
/// cooperative cancel flag set.
class ExchangeCancelledError : public std::runtime_error {
 public:
  explicit ExchangeCancelledError(const std::string& what) : std::runtime_error(what) {}
};

/// Accounting of one journaled run, fresh or resumed.
struct ResumeReport {
  bool resumed = false;                     ///< journal had prior progress
  std::int64_t committed_steps_at_start = 0;
  int committed_phase_at_start = 0;
  std::int64_t delivered_at_start = 0;      ///< durable parcels on entry (self included)
  std::int64_t materialized = 0;            ///< flushed-uncommitted parcels restored at dests
  std::int64_t replayed_parcels = 0;        ///< parcel moves recomputed locally (no wire)
  std::int64_t sent_parcels = 0;            ///< parcel transmissions on the wire this run
  std::int64_t duplicates_dropped = 0;      ///< re-received already-durable parcels discarded
  std::int64_t journal_flushes = 0;         ///< flush callback invocations

  std::string summary() const;
};

/// Hooks and injections for a journaled run.
struct JournalRunOptions {
  CrashPoint crash;
  /// Cooperative cancel, polled between a step's journal flush and its
  /// commit marker (the worst-case race for the resume path). Throws
  /// ExchangeCancelledError via the runner.
  const std::atomic<bool>* cancel = nullptr;
  /// Durability hook: called after every appended record batch with the
  /// journal in its current (flushed) state. Persist encode() here
  /// (JournalFileSink::sync appends incrementally).
  std::function<void(const ExchangeJournal&)> flush;
  Recorder* obs = nullptr;
  /// Optional external frame pool for the live steps' frames; a private
  /// arena is used when null.
  WireArena* wire = nullptr;
  /// Optional worker pool for the step kernel's per-node work; every
  /// stage runs inline on the calling thread when null. The hooks below
  /// (flush, the journal records) still run on the calling thread.
  StepPool* pool = nullptr;
};

namespace detail {

void throw_journal_cancelled(int phase, int step);

inline void journal_flush(ExchangeJournal& journal, const JournalRunOptions& options,
                          ResumeReport& report) {
  if (options.flush) options.flush(journal);
  ++report.journal_flushes;
}

/// Requires `journal` bound and written for `program`: the same torus,
/// phases, steps and fingerprint.
void require_journal_matches(const StepProgram& program, const ExchangeJournal& journal);

/// A journaled run's opening: binds an unbound journal to `program`,
/// checks a bound one, and starts the report from the journal's durable
/// progress.
void begin_journaled_run(const StepProgram& program, ExchangeJournal& journal,
                         ResumeReport& report);

/// The journal side of the step kernel's hooks, shared by every driver
/// that journals: the journaled exchange below and torexd's sessions
/// (svc/session_exchange.cpp). Steps before report.committed_steps_at_start
/// are already durable and replay locally. A live step whose arrivals
/// are durable already (delivered before a death, never committed)
/// receives their seed copies again: each is dropped, and its
/// materialized copy from `durable` takes its slot. Drivers add the
/// write-ahead sequence (record_arrivals(), their crash and cancel
/// window, commit_step()) in their own step_done.
template <typename T>
struct JournalHooks : StepHooks {
  JournalHooks(const StepProgram& program_in, ExchangeJournal& journal_in,
               ResumeReport& report_in, std::vector<T>* durable_in, Recorder* obs_in)
      : program(program_in), journal(journal_in), report(report_in), durable(durable_in),
        obs(obs_in) {}

  const StepProgram& program;
  ExchangeJournal& journal;
  ResumeReport& report;
  /// The materialized arrivals of the delivered, uncommitted step, in
  /// the program's arrival order; resume only.
  std::vector<T>* durable;
  std::size_t next_durable = 0;  ///< the next copy to take a slot
  Recorder* obs;
  std::int64_t flat_step = 0;  ///< 0-based global index of the step in flight

  bool replaying() const { return flat_step < report.committed_steps_at_start; }
  bool framed(int /*phase*/, int /*step*/) const { return !replaying(); }

  void received(Rank node, int phase, int step, T* first, std::size_t count) {
    if (replaying()) {
      report.replayed_parcels += static_cast<std::int64_t>(count);
      return;
    }
    report.sent_parcels += static_cast<std::int64_t>(count);
    if (flat_step >= journal.delivered_steps()) return;
    // The seed copies of durable deliveries: exactly-once, so each is
    // dropped and its materialized copy takes its slot.
    program.for_each_arrival(phase, step, node, [&](std::uint32_t offset, Rank origin) {
      ++report.duplicates_dropped;
      if (obs != nullptr) {
        obs->instant("duplicate_dropped", node, phase, step, static_cast<std::int64_t>(origin));
      }
      TOREX_CHECK(durable != nullptr && next_durable < durable->size(),
                  "durable parcel re-received without a materialized copy");
      first[offset] = std::move((*durable)[next_durable++]);
    });
  }

  /// Appends the live step's deliveries record; false when the step has
  /// no arrivals or they are durable already (no record is written then).
  bool record_arrivals(int phase, int step) {
    if (flat_step < journal.delivered_steps() || program.totals(phase, step).arrivals == 0) {
      return false;
    }
    journal.deliver_step(flat_step);
    return true;
  }

  /// Appends the live step's commit marker and moves to the next step.
  void commit_step() { journal.commit_step(flat_step++); }
};

}  // namespace detail

/// Runs the schedule over `rows` (row p holds node p's payload for each
/// destination, in destination order) with write-ahead journaling into
/// `journal`: the step kernel replaying `program`. Returns the same rows
/// in origin order (rows[q][p] is what p sent to q). A bound journal
/// with prior progress triggers delta resume: the committed prefix is
/// replayed locally, the arrivals of a step delivered but not committed
/// are materialized from the seed, and only the remaining steps touch
/// the wire; re-received durable parcels are dropped
/// (report.duplicates_dropped). An unbound journal is bound to the
/// program first. Live steps of trivially copyable payloads cross the
/// framed wire; other payloads move locally. Requires T copyable
/// (materialization duplicates payloads on purpose).
template <typename T>
std::vector<std::vector<T>> exchange_payloads_journaled(const SuhShinAape& algo,
                                                        const StepProgram& program,
                                                        std::vector<std::vector<T>> rows,
                                                        ExchangeJournal& journal,
                                                        const JournalRunOptions& options,
                                                        ResumeReport& report) {
  program.require_compiled_for(algo);
  const Rank N = algo.shape().num_nodes();
  detail::require_rows(N, rows);
  detail::begin_journaled_run(program, journal, report);

  Recorder* obs = options.obs;
  if (obs != nullptr && !obs->enabled()) obs = nullptr;
  SpanGuard run_span(obs, "journaled_exchange");

  if (journal.exchange_complete()) {
    // Nothing crosses the wire: the delivered rows are the seed's.
    report.materialized += static_cast<std::int64_t>(N) * (N - 1);
    detail::transpose_rows(rows);
    return rows;
  }
  WireArena local_arena;
  WireArena& arena = options.wire != nullptr ? *options.wire : local_arena;
  const WirePoolStats wire_stats_before = arena.stats();

  // Materialize the arrivals of the step the journal holds delivered but
  // not committed, from the seed: the payload of (origin -> dest) sits
  // in slot dest of origin's row. The copies wait in the program's
  // arrival order, so the rows keep the program's order. The seed copy
  // re-travels the re-run steps exactly as a real sender that never saw
  // the ack would re-send it; when it arrives, it is dropped and the
  // durable copy takes its slot.
  std::vector<T> durable;
  if (journal.delivered_steps() > journal.committed_steps()) {
    const auto [phase, step] = program.coordinates(journal.committed_steps());
    durable.reserve(program.totals(phase, step).arrivals);
    for (Rank dest = 0; dest < N; ++dest) {
      program.for_each_arrival(phase, step, dest, [&](std::uint32_t, Rank origin) {
        durable.push_back(rows[static_cast<std::size_t>(origin)][static_cast<std::size_t>(dest)]);
      });
    }
    report.materialized = static_cast<std::int64_t>(durable.size());
  }

  // Local replay of the committed prefix, duplicate drops, and the
  // write-ahead sequence of every live step.
  struct Journaler : detail::JournalHooks<T> {
    const JournalRunOptions& options;

    // Write-ahead order: deliveries flush before the commit marker, and
    // the cooperative cancel window sits exactly between them.
    void step_done(int phase, int step) {
      if (this->replaying()) {
        ++this->flat_step;  // already durable
        return;
      }
      const bool crash_here = options.crash.armed() && options.crash.phase == phase &&
                              options.crash.step == step;
      if (crash_here && !options.crash.after_flush) {
        throw ExchangeCrashError(phase, step,
                                 "injected crash before journal flush (phase " +
                                     std::to_string(phase) + ", step " + std::to_string(step) +
                                     ")");
      }
      if (this->record_arrivals(phase, step)) {
        detail::journal_flush(this->journal, options, this->report);
        if (this->obs != nullptr) {
          this->obs->instant("journal_flush", -1, phase, step,
                             this->program.totals(phase, step).arrivals);
        }
      }
      if (crash_here) {
        throw ExchangeCrashError(phase, step,
                                 "injected crash after journal flush (phase " +
                                     std::to_string(phase) + ", step " + std::to_string(step) +
                                     ")");
      }
      if (options.cancel != nullptr && options.cancel->load(std::memory_order_relaxed)) {
        detail::throw_journal_cancelled(phase, step);
      }
      this->commit_step();
      detail::journal_flush(this->journal, options, this->report);
    }

    void phase_done(int phase) {
      if (phase <= this->journal.committed_phase()) return;
      this->journal.commit_phase(phase);
      detail::journal_flush(this->journal, options, this->report);
    }
  };
  Journaler hooks{{program, journal, report, &durable, obs}, options};
  detail::StepReplay<T> replay;
  detail::replay_step_program(program, rows, arena, options.pool, obs, hooks, replay);
  TOREX_CHECK(hooks.next_durable == durable.size(),
              "a materialized delivery never met its re-sent seed copy");
  TOREX_CHECK(journal.exchange_complete(), "journal incomplete after a finished exchange");
  if (obs != nullptr) {
    obs->metrics().counter("journal.records").add(journal.records());
    obs->metrics().counter("resume.sent_parcels").add(report.sent_parcels);
    obs->metrics().counter("resume.replayed_parcels").add(report.replayed_parcels);
    obs->metrics().counter("resume.duplicates_dropped").add(report.duplicates_dropped);
    detail::publish_wire_metrics(obs, wire_stats_delta(arena.stats(), wire_stats_before));
  }
  detail::put_rows_in_origin_order(program, rows, options.pool, replay, obs);
  return rows;
}

}  // namespace torex
