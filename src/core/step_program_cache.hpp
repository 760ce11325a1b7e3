// The process's compiled StepPrograms, memoized per schedule.
//
// Compiling a program costs far more than building the schedule it
// comes from (about 0.3 ms on 8x8 and 24 ms on 8x8x8), and a program
// is an immutable value that depends only on the torus shape, the
// pattern convention and the layout. So every TorusCommunicator and
// every torexd SessionManager draws its program from one process-wide
// cache instead of compiling its own: a process pays for each program
// once, however many communicators and service epochs it builds.
//
// The cache holds a handful of programs and evicts the least recently
// used. Programs are handed out as shared_ptr<const StepProgram>, so an
// evicted program stays valid for every caller still holding it. It is
// thread-safe, and concurrent first uses of one key compile it once:
// the first caller compiles while the others wait for its result;
// different keys compile concurrently.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/aape.hpp"
#include "core/data_array.hpp"
#include "core/step_program.hpp"

namespace torex {

/// A bounded, least-recently-used memo of compiled StepPrograms keyed
/// by (shape, pattern convention, layout). See the file comment.
class StepProgramCache {
 public:
  /// Programs kept at once.
  static constexpr std::size_t kCapacity = 8;

  /// The program of `algo` under `layout`, compiled on first use.
  /// Throws what the compile throws; nothing is cached then.
  std::shared_ptr<const StepProgram> get(const SuhShinAape& algo, LayoutPolicy layout);

  /// Programs compiled by this cache so far.
  std::int64_t compiles() const;
  /// Programs currently cached.
  std::size_t size() const;

 private:
  /// One key's program, compiled by its first user under `mu`.
  struct Entry {
    std::mutex mu;
    std::shared_ptr<const StepProgram> program;
  };
  struct Slot {
    TorusShape shape;
    PatternConvention convention;
    LayoutPolicy layout;
    std::shared_ptr<Entry> entry;
    std::uint64_t last_used = 0;
  };

  mutable std::mutex mu_;
  std::vector<Slot> slots_;
  std::uint64_t uses_ = 0;
  std::atomic<std::int64_t> compiles_{0};
};

/// The process-wide cache every communicator and session manager uses.
StepProgramCache& step_program_cache();

}  // namespace torex
