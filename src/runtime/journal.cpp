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

/// Little-endian write of a 32-bit word at `out`, which advances.
void put_u32(std::byte*& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) *out++ = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
}

}  // namespace

ExchangeJournal::ExchangeJournal(const TorusShape& shape, int num_phases,
                                 std::int64_t total_steps)
    : extents_(shape.extents()),
      num_nodes_(shape.num_nodes()),
      num_phases_(num_phases),
      total_steps_(total_steps),
      bitmap_(shape.num_nodes()) {
  TOREX_REQUIRE(num_phases >= 1, "journal needs at least one phase");
  TOREX_REQUIRE(total_steps >= 0, "journal step count must be non-negative");
  for (Rank p = 0; p < num_nodes_; ++p) bitmap_.mark(p, p);  // self-deliveries are free

  wire_put_u32(bytes_, kMagic);
  wire_put_u32(bytes_, kVersion);
  wire_put_u32(bytes_, static_cast<std::uint32_t>(extents_.size()));
  for (std::int32_t extent : extents_) {
    wire_put_u32(bytes_, static_cast<std::uint32_t>(extent));
  }
  wire_put_u32(bytes_, static_cast<std::uint32_t>(num_phases_));
  wire_put_u32(bytes_, static_cast<std::uint32_t>(total_steps_));
  wire_put_u32(bytes_, crc_of(bytes_, 0, bytes_.size()));
}

std::vector<std::pair<Rank, Rank>> ExchangeJournal::uncommitted_deliveries() const {
  // The stream holds only intact records (decode drops a torn tail), so
  // every field read below is in bounds.
  std::vector<std::pair<Rank, Rank>> out;
  std::size_t offset = header_bytes();
  while (offset < bytes_.size()) {
    std::uint32_t kind = 0, payload_len = 0;
    wire_get_u32(bytes_, offset, kind);
    wire_get_u32(bytes_, offset, payload_len);
    const std::size_t next = offset + payload_len + 4;
    std::uint32_t flat_step = 0, count = 0;
    if (kind == kDeliveries && wire_get_u32(bytes_, offset, flat_step) &&
        static_cast<std::int64_t>(flat_step) >= committed_steps_ &&
        wire_get_u32(bytes_, offset, count)) {
      for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t dest = 0, origin = 0;
        wire_get_u32(bytes_, offset, dest);
        wire_get_u32(bytes_, offset, origin);
        out.emplace_back(static_cast<Rank>(dest), static_cast<Rank>(origin));
      }
    }
    offset = next;
  }
  return out;
}

void ExchangeJournal::mark_pair(Rank dest, Rank origin, bool require_new) {
  const bool fresh_mark = bitmap_.mark(dest, origin);
  if (require_new) {
    TOREX_CHECK(fresh_mark, "journal recorded the same delivery twice");
  }
}

void ExchangeJournal::reserve_records(std::size_t bytes) { bytes_.reserve(bytes_.size() + bytes); }

std::byte* ExchangeJournal::open_record(RecordKind kind, std::size_t payload_bytes) {
  const std::size_t record_begin = bytes_.size();
  bytes_.resize(record_begin + kRecordFrameBytes + payload_bytes);
  std::byte* out = bytes_.data() + record_begin;
  put_u32(out, static_cast<std::uint32_t>(kind));
  put_u32(out, static_cast<std::uint32_t>(payload_bytes));
  return out;
}

void ExchangeJournal::seal_record(std::size_t record_begin) {
  std::byte* crc_at = bytes_.data() + bytes_.size() - 4;
  put_u32(crc_at, crc_of(bytes_, record_begin, bytes_.size() - 4));
  ++records_;
}

void ExchangeJournal::append_marker(RecordKind kind, std::uint32_t value) {
  const std::size_t record_begin = bytes_.size();
  std::byte* out = open_record(kind, 4);
  put_u32(out, value);
  seal_record(record_begin);
}

void ExchangeJournal::record_deliveries(std::int64_t flat_step,
                                        const std::vector<std::pair<Rank, Rank>>& pairs) {
  TOREX_REQUIRE(bound(), "journal is not bound to an exchange");
  TOREX_REQUIRE(flat_step >= 0 && flat_step <= total_steps_,
                "delivery record step out of range");
  TOREX_REQUIRE(!pairs.empty(), "delivery record needs at least one pair");
  const std::size_t record_begin = bytes_.size();
  std::byte* out = open_record(kDeliveries, 8 + 8 * pairs.size());
  put_u32(out, static_cast<std::uint32_t>(flat_step));
  put_u32(out, static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [dest, origin] : pairs) {
    const bool in_range = dest >= 0 && dest < num_nodes_ && origin >= 0 && origin < num_nodes_;
    if (!in_range || dest == origin) bytes_.resize(record_begin);  // refused: no bytes
    TOREX_REQUIRE(in_range, "delivery pair out of range");
    TOREX_REQUIRE(dest != origin, "self-deliveries are implicit, never recorded");
    put_u32(out, static_cast<std::uint32_t>(dest));
    put_u32(out, static_cast<std::uint32_t>(origin));
  }
  seal_record(record_begin);
  for (const auto& [dest, origin] : pairs) mark_pair(dest, origin, /*require_new=*/true);
}

void ExchangeJournal::commit_step(std::int64_t flat_step) {
  TOREX_REQUIRE(bound(), "journal is not bound to an exchange");
  TOREX_REQUIRE(flat_step == committed_steps_, "steps must commit in order");
  TOREX_REQUIRE(flat_step < total_steps_, "step commit past the schedule");
  append_marker(kStepCommit, static_cast<std::uint32_t>(flat_step));
  committed_steps_ = flat_step + 1;
}

void ExchangeJournal::commit_phase(int phase) {
  TOREX_REQUIRE(bound(), "journal is not bound to an exchange");
  TOREX_REQUIRE(phase == committed_phase_ + 1, "phases must commit in order");
  TOREX_REQUIRE(phase <= num_phases_, "phase commit past the schedule");
  append_marker(kPhaseCommit, static_cast<std::uint32_t>(phase));
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
  if (!wire_get_u32(bytes, offset, num_phases) || num_phases == 0) {
    throw JournalError("journal: malformed phase count");
  }
  if (!wire_get_u32(bytes, offset, total_steps)) {
    throw JournalError("journal: malformed step count");
  }
  const std::size_t header_end = offset;
  if (!wire_get_u32(bytes, offset, header_crc) ||
      header_crc != crc_of(bytes, 0, header_end)) {
    throw JournalError("journal: header checksum mismatch");
  }

  ExchangeJournal journal(TorusShape(extents), static_cast<int>(num_phases),
                          static_cast<std::int64_t>(total_steps));
  journal.bytes_.reserve(bytes.size());

  while (offset < bytes.size()) {
    const std::size_t record_begin = offset;
    std::uint32_t kind = 0, payload_len = 0;
    const bool have_frame = wire_get_u32(bytes, offset, kind) &&
                            wire_get_u32(bytes, offset, payload_len) &&
                            bytes.size() - offset >= payload_len + 4;
    bool intact = have_frame;
    std::size_t payload_begin = offset;
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
          !have_frame || record_begin + 8 + payload_len + 4 >= bytes.size();
      if (reaches_end) {
        journal.torn_tail_ = true;
        break;
      }
      throw JournalError("journal: record checksum mismatch before the final record");
    }

    std::size_t cursor = payload_begin;
    const std::size_t payload_end = payload_begin + payload_len;
    auto read_field = [&](std::uint32_t& v) {
      return cursor + 4 <= payload_end && wire_get_u32(bytes, cursor, v);
    };
    switch (kind) {
      case kDeliveries: {
        std::uint32_t flat_step = 0, count = 0;
        if (!read_field(flat_step) || !read_field(count) || count == 0 ||
            flat_step > static_cast<std::uint32_t>(journal.total_steps_)) {
          throw JournalError("journal: malformed deliveries record");
        }
        std::vector<std::pair<Rank, Rank>> pairs;
        for (std::uint32_t i = 0; i < count; ++i) {
          std::uint32_t dest = 0, origin = 0;
          if (!read_field(dest) || !read_field(origin) ||
              dest >= static_cast<std::uint32_t>(journal.num_nodes_) ||
              origin >= static_cast<std::uint32_t>(journal.num_nodes_) || dest == origin) {
            throw JournalError("journal: malformed delivery pair");
          }
          pairs.emplace_back(static_cast<Rank>(dest), static_cast<Rank>(origin));
        }
        for (const auto& [dest, origin] : pairs) {
          if (journal.bitmap_.test(dest, origin)) {
            throw JournalError("journal: duplicate delivery record");
          }
          journal.bitmap_.mark(dest, origin);
        }
        break;
      }
      case kStepCommit: {
        std::uint32_t flat_step = 0;
        if (!read_field(flat_step) ||
            static_cast<std::int64_t>(flat_step) != journal.committed_steps_ ||
            static_cast<std::int64_t>(flat_step) >= journal.total_steps_) {
          throw JournalError("journal: out-of-order step commit");
        }
        journal.committed_steps_ = static_cast<std::int64_t>(flat_step) + 1;
        break;
      }
      case kPhaseCommit: {
        std::uint32_t phase = 0;
        if (!read_field(phase) ||
            static_cast<int>(phase) != journal.committed_phase_ + 1 ||
            static_cast<int>(phase) > journal.num_phases_) {
          throw JournalError("journal: out-of-order phase commit");
        }
        journal.committed_phase_ = static_cast<int>(phase);
        break;
      }
      default:
        throw JournalError("journal: unknown record kind " + std::to_string(kind));
    }
    if (cursor != payload_end) {
      throw JournalError("journal: record payload length mismatch");
    }
    ++journal.records_;
    journal.bytes_.insert(journal.bytes_.end(), bytes.begin() + static_cast<std::ptrdiff_t>(record_begin),
                          bytes.begin() + static_cast<std::ptrdiff_t>(payload_end + 4));
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
      << " steps committed, phase " << committed_phase_ << "/" << num_phases_ << ", "
      << bitmap_.delivered() << "/" << bitmap_.expected() << " parcels delivered";
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

void require_journal_matches(const SuhShinAape& algo, const ExchangeJournal& journal) {
  TOREX_REQUIRE(journal.bound(), "journal is not bound to an exchange");
  TOREX_REQUIRE(journal.extents() == algo.shape().extents(),
                "journal was recorded for a different torus shape");
  TOREX_REQUIRE(journal.num_phases() == algo.num_phases() &&
                    journal.total_steps() == algo.total_steps(),
                "journal was recorded for a different schedule");
}

void begin_journaled_run(const SuhShinAape& algo, ExchangeJournal& journal,
                         ResumeReport& report) {
  if (!journal.bound()) {
    journal = ExchangeJournal(algo.shape(), algo.num_phases(), algo.total_steps());
  }
  require_journal_matches(algo, journal);
  report = ResumeReport{};
  report.resumed = !journal.fresh();
  report.committed_steps_at_start = journal.committed_steps();
  report.committed_phase_at_start = journal.committed_phase();
  report.delivered_at_start = journal.delivered_parcels();
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
