#include "runtime/journal.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "core/integrity.hpp"
#include "util/crc32.hpp"

namespace torex {
namespace {

std::uint32_t crc_of(const std::vector<std::byte>& bytes, std::size_t begin, std::size_t end) {
  Crc32 crc;
  crc.update(bytes.data() + begin, end - begin);
  return crc.value();
}

/// Records of a complete run of `program`: every step's commit marker,
/// the deliveries record of each step with arrivals, and every phase's
/// commit marker.
std::size_t complete_run_records(const StepProgram& program) {
  auto records = static_cast<std::size_t>(program.num_phases());
  for (int phase = 1; phase <= program.num_phases(); ++phase) {
    for (int step = 1; step <= program.steps_in_phase(phase); ++step) {
      records += program.totals(phase, step).arrivals > 0 ? 2u : 1u;
    }
  }
  return records;
}

}  // namespace

ExchangeJournal::ExchangeJournal(std::vector<std::int32_t> extents, int num_phases,
                                 std::int64_t total_steps, std::uint64_t fingerprint,
                                 std::size_t record_bytes)
    : extents_(std::move(extents)),
      num_phases_(num_phases),
      total_steps_(total_steps),
      fingerprint_(fingerprint) {
  bytes_.reserve(header_bytes() + record_bytes);
  wire_put_u32(bytes_, kMagic);
  wire_put_u32(bytes_, kVersion);
  wire_put_u32(bytes_, static_cast<std::uint32_t>(extents_.size()));
  for (std::int32_t extent : extents_) {
    wire_put_u32(bytes_, static_cast<std::uint32_t>(extent));
  }
  wire_put_u32(bytes_, static_cast<std::uint32_t>(num_phases_));
  wire_put_u32(bytes_, static_cast<std::uint32_t>(total_steps_));
  wire_put_u64(bytes_, fingerprint_);
  wire_put_u32(bytes_, crc_of(bytes_, 0, bytes_.size()));
}

ExchangeJournal::ExchangeJournal(const StepProgram& program)
    : ExchangeJournal(program.shape().extents(), program.num_phases(), program.total_steps(),
                      program.fingerprint(), complete_run_records(program) * kRecordBytes) {}

void ExchangeJournal::append_record(RecordKind kind, std::uint32_t value) {
  const std::size_t record_begin = bytes_.size();
  wire_put_u32(bytes_, static_cast<std::uint32_t>(kind));
  wire_put_u32(bytes_, 4);
  wire_put_u32(bytes_, value);
  wire_put_u32(bytes_, crc_of(bytes_, record_begin, bytes_.size()));
  ++records_;
}

void ExchangeJournal::deliver_step(std::int64_t flat_step) {
  TOREX_REQUIRE(bound(), "journal is not bound to an exchange");
  TOREX_REQUIRE(flat_step == committed_steps_ && flat_step < total_steps_,
                "deliveries must name the step after the last commit");
  TOREX_CHECK(delivered_steps_ == committed_steps_, "journal delivered the same step twice");
  append_record(kDeliveries, static_cast<std::uint32_t>(flat_step));
  delivered_steps_ = flat_step + 1;
}

void ExchangeJournal::commit_step(std::int64_t flat_step) {
  TOREX_REQUIRE(bound(), "journal is not bound to an exchange");
  TOREX_REQUIRE(flat_step == committed_steps_, "steps must commit in order");
  TOREX_REQUIRE(flat_step < total_steps_, "step commit past the schedule");
  append_record(kStepCommit, static_cast<std::uint32_t>(flat_step));
  committed_steps_ = delivered_steps_ = flat_step + 1;
}

void ExchangeJournal::commit_phase(int phase) {
  TOREX_REQUIRE(bound(), "journal is not bound to an exchange");
  TOREX_REQUIRE(phase == committed_phase_ + 1, "phases must commit in order");
  TOREX_REQUIRE(phase <= num_phases_, "phase commit past the schedule");
  append_record(kPhaseCommit, static_cast<std::uint32_t>(phase));
  committed_phase_ = phase;
}

ExchangeJournal ExchangeJournal::decode(const std::vector<std::byte>& bytes) {
  std::size_t offset = 0;
  std::uint32_t magic = 0, version = 0, num_dims = 0;
  if (!wire_get_u32(bytes, offset, magic) || magic != kMagic) {
    throw JournalError("journal: bad magic (not a TOXJ stream)");
  }
  if (!wire_get_u32(bytes, offset, version) || version != kVersion) {
    throw JournalError("journal: unsupported version " + std::to_string(version));
  }
  if (!wire_get_u32(bytes, offset, num_dims) || num_dims == 0 || num_dims > 16) {
    throw JournalError("journal: malformed dimension count");
  }
  std::vector<std::int32_t> extents;
  for (std::uint32_t d = 0; d < num_dims; ++d) {
    std::uint32_t extent = 0;
    if (!wire_get_u32(bytes, offset, extent) || extent == 0 ||
        extent > static_cast<std::uint32_t>(std::numeric_limits<std::int32_t>::max())) {
      throw JournalError("journal: malformed extent");
    }
    extents.push_back(static_cast<std::int32_t>(extent));
  }
  std::uint32_t num_phases = 0, total_steps = 0, header_crc = 0;
  std::uint64_t fingerprint = 0;
  if (!wire_get_u32(bytes, offset, num_phases) || num_phases == 0 ||
      num_phases > static_cast<std::uint32_t>(std::numeric_limits<int>::max())) {
    throw JournalError("journal: malformed phase count");
  }
  if (!wire_get_u32(bytes, offset, total_steps)) {
    throw JournalError("journal: malformed step count");
  }
  if (!wire_get_u64(bytes, offset, fingerprint)) {
    throw JournalError("journal: malformed program fingerprint");
  }
  const std::size_t header_end = offset;
  if (!wire_get_u32(bytes, offset, header_crc) ||
      header_crc != crc_of(bytes, 0, header_end)) {
    throw JournalError("journal: header checksum mismatch");
  }

  ExchangeJournal journal(std::move(extents), static_cast<int>(num_phases),
                          static_cast<std::int64_t>(total_steps), fingerprint,
                          bytes.size() - offset);
  while (offset < bytes.size()) {
    const std::size_t record_begin = offset;
    std::uint32_t kind = 0, payload_len = 0;
    const bool have_frame = wire_get_u32(bytes, offset, kind) &&
                            wire_get_u32(bytes, offset, payload_len) &&
                            bytes.size() - offset >= std::size_t{payload_len} + 4;
    bool intact = have_frame;
    const std::size_t payload_begin = offset;
    if (have_frame) {
      offset = payload_begin + payload_len;
      std::uint32_t stored_crc = 0;
      const std::size_t record_end = offset;
      intact = wire_get_u32(bytes, offset, stored_crc) &&
               stored_crc == crc_of(bytes, record_begin, record_end);
    }
    if (!intact) {
      // Damage that extends to the end of the stream is a torn final
      // write: drop it. Anything with intact bytes after it cannot be
      // a tail and the journal is corrupt.
      const bool reaches_end =
          !have_frame || record_begin + 8 + std::size_t{payload_len} + 4 >= bytes.size();
      if (reaches_end) {
        journal.torn_tail_ = true;
        break;
      }
      throw JournalError("journal: record checksum mismatch before the final record");
    }

    std::size_t cursor = payload_begin;
    std::uint32_t value = 0;
    if (payload_len != 4 || !wire_get_u32(bytes, cursor, value)) {
      throw JournalError("journal: record payload length mismatch");
    }
    const auto at = static_cast<std::int64_t>(value);
    switch (kind) {
      case kDeliveries:
        if (at != journal.committed_steps_ || at >= journal.total_steps_) {
          throw JournalError("journal: deliveries record for step " + std::to_string(at) +
                             ", not the step after the last commit (" +
                             std::to_string(journal.committed_steps_) + ")");
        }
        if (journal.delivered_steps_ > at) {
          throw JournalError("journal: second deliveries record for step " + std::to_string(at));
        }
        journal.delivered_steps_ = at + 1;
        break;
      case kStepCommit:
        if (at != journal.committed_steps_ || at >= journal.total_steps_) {
          throw JournalError("journal: out-of-order step commit");
        }
        journal.committed_steps_ = journal.delivered_steps_ = at + 1;
        break;
      case kPhaseCommit:
        if (at != journal.committed_phase_ + 1 || at > journal.num_phases_) {
          throw JournalError("journal: out-of-order phase commit");
        }
        journal.committed_phase_ = static_cast<int>(at);
        break;
      default:
        throw JournalError("journal: unknown record kind " + std::to_string(kind));
    }
    ++journal.records_;
    journal.bytes_.insert(journal.bytes_.end(),
                          bytes.begin() + static_cast<std::ptrdiff_t>(record_begin),
                          bytes.begin() + static_cast<std::ptrdiff_t>(offset));
  }
  return journal;
}

void ExchangeJournal::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("journal: cannot open '" + path + "' for writing");
  out.write(reinterpret_cast<const char*>(bytes_.data()),
            static_cast<std::streamsize>(bytes_.size()));
  if (!out) throw std::runtime_error("journal: short write to '" + path + "'");
}

ExchangeJournal ExchangeJournal::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("journal: cannot open '" + path + "' for reading");
  std::vector<std::byte> bytes;
  char chunk[4096];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      bytes.push_back(static_cast<std::byte>(chunk[i]));
    }
  }
  return decode(bytes);
}

std::string ExchangeJournal::summary() const {
  if (!bound()) return "journal: unbound";
  std::ostringstream out;
  out << "journal: ";
  for (std::size_t d = 0; d < extents_.size(); ++d) {
    out << (d == 0 ? "" : "x") << extents_[d];
  }
  out << " torus, " << records_ << " records, " << committed_steps_ << "/" << total_steps_
      << " steps committed, phase " << committed_phase_ << "/" << num_phases_;
  if (delivered_steps_ > committed_steps_) {
    out << ", step " << committed_steps_ << " delivered but not committed";
  }
  if (torn_tail_) out << ", torn tail dropped";
  return out.str();
}

void JournalFileSink::sync(const ExchangeJournal& journal) {
  const std::vector<std::byte>& bytes = journal.encode();
  if (!wrote_ || bytes.size() < synced_) {
    // First sync (or a journal that restarted): rewrite from scratch,
    // truncating whatever the file held — including a torn tail a
    // resumed journal dropped on load.
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("journal: cannot open '" + path_ + "' for writing");
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("journal: short write to '" + path_ + "'");
    ++rewrites_;
    bytes_written_ += static_cast<std::int64_t>(bytes.size());
    synced_ = bytes.size();
    wrote_ = true;
    return;
  }
  if (bytes.size() == synced_) return;  // nothing recorded since last sync
  // Append only the tail, straight from the journal's buffer.
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out) throw std::runtime_error("journal: cannot open '" + path_ + "' for appending");
  out.write(reinterpret_cast<const char*>(bytes.data() + synced_),
            static_cast<std::streamsize>(bytes.size() - synced_));
  if (!out) throw std::runtime_error("journal: short append to '" + path_ + "'");
  ++appends_;
  bytes_written_ += static_cast<std::int64_t>(bytes.size() - synced_);
  synced_ = bytes.size();
}

namespace detail {

void throw_journal_cancelled(int phase, int step) {
  throw ExchangeCancelledError("journaled exchange cancelled between flush and commit (phase " +
                               std::to_string(phase) + ", step " + std::to_string(step) + ")");
}

void require_journal_matches(const StepProgram& program, const ExchangeJournal& journal) {
  TOREX_REQUIRE(journal.bound(), "journal is not bound to an exchange");
  TOREX_REQUIRE(journal.extents() == program.shape().extents(),
                "journal was recorded for a different torus shape");
  TOREX_REQUIRE(journal.num_phases() == program.num_phases() &&
                    journal.total_steps() == program.total_steps(),
                "journal was recorded for a different schedule");
  TOREX_REQUIRE(journal.fingerprint() == program.fingerprint(),
                "journal was recorded by a different program");
}

void begin_journaled_run(const StepProgram& program, ExchangeJournal& journal,
                         ResumeReport& report) {
  if (!journal.bound()) journal = ExchangeJournal(program);
  require_journal_matches(program, journal);
  report = ResumeReport{};
  report.resumed = !journal.fresh();
  report.committed_steps_at_start = journal.committed_steps();
  report.committed_phase_at_start = journal.committed_phase();
  // The self parcels, and every arrival of the durable steps.
  report.delivered_at_start = program.num_nodes();
  for (std::int64_t flat = 0; flat < journal.delivered_steps(); ++flat) {
    const auto [phase, step] = program.coordinates(flat);
    report.delivered_at_start += program.totals(phase, step).arrivals;
  }
}

}  // namespace detail

std::string ResumeReport::summary() const {
  std::ostringstream out;
  out << (resumed ? "resumed" : "fresh") << " run: ";
  if (resumed) {
    out << committed_steps_at_start << " steps committed at start, " << delivered_at_start
        << " parcels already durable, " << materialized << " materialized, "
        << replayed_parcels << " replayed locally, ";
  }
  out << sent_parcels << " parcels sent, " << duplicates_dropped << " duplicates dropped, "
      << journal_flushes << " journal flushes";
  return out.str();
}

}  // namespace torex
