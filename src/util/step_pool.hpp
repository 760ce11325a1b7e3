// A persistent bulk-synchronous worker pool for the step kernel.
//
// In the paper's one-port model all N nodes act in every step at once:
// each sends one message, receives one, and rearranges only its own
// buffer. Every inbox has a single writer, so one stage of a step (say,
// "every sender gathers and seals its frame") splits over threads by
// node with no locking. StepPool runs such a stage: run() hands the
// indices [0, count) to the calling thread and the pool's workers, and
// returns once every index is done — the BSP barrier. The calling
// thread always takes part, so "participants" means the caller plus
// the workers, and a one-participant pool (or a null pool) runs the
// same stage inline.
//
// Home ranges: a stage is split into one contiguous range per
// participant — participant r's home range is [r * count / P,
// (r + 1) * count / P) for the stage's P participants, so the caller
// takes range 0. Each participant drains its own range chunk by chunk
// (about eight chunks a range), then steals chunks from the other
// ranges, in order from the next one on. Every stage of the step kernel
// runs over the same N nodes, so as long as nobody stalls, a node's row
// — its seed copy, every rearrangement, its send and its receive — and
// the frame it sends stay on one core for the whole call, as each node
// keeps its own buffer in the paper's model. Each range has its own
// cursor: the stage's epoch (high 32 bits) and the range's first
// unclaimed index (low 32 bits). The caller resets the cursors before it
// publishes a stage, and a claim is a compare-exchange on a cursor, so a
// worker still working on an earlier stage can never claim an index of
// a later one: the epoch no longer matches, and it goes back to wait.
//
// Contract of a stage:
//  * fn(i, participant) may run on any participant, concurrently with
//    other indices; `participant` in [0, participants()) names the
//    thread, so a stage can index per-participant scratch;
//  * a throw is caught and rethrown on the calling thread once the
//    stage ends; when several indices throw, the lowest index wins (an
//    index above an already-failed one may be skipped);
//  * idle workers and a caller waiting on a stage spin briefly, then
//    block, so an idle pool burns no cores.
//
// The barrier counts finished indices, not workers: a worker that has
// not woken up (or whose core was taken away) when a stage starts holds
// nobody up, and the others steal its range. A worker whose core is
// taken away while it runs a chunk does hold the stage up, until it
// runs again — on a host with fewer free cores than participants, that
// would make every stage as slow as the slowest core. So the pool
// adapts: a stage in which the caller, done with its own share, waited
// longer than that share took (and longer than 200 us) counts as
// stalled, and the next stages run with one worker fewer, down to the
// caller alone; after 64 stages without a stall one more worker is
// tried again. Who runs an index never changes its result, so this
// changes only the timing.
//
// One caller at a time: run() is not re-entrant and must not be called
// from two threads at once (TorusCommunicator's call guard ensures it).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace torex {

class StepPool {
 public:
  /// Starts participants - 1 workers (participants >= 1).
  explicit StepPool(int participants);
  /// Stops and joins every worker.
  ~StepPool();
  StepPool(const StepPool&) = delete;
  StepPool& operator=(const StepPool&) = delete;

  /// The calling thread plus the workers (some of which may be sitting
  /// stages out after a stall).
  int participants() const { return static_cast<int>(workers_.size()) + 1; }

  /// Workers that take part in the next stage: participants() - 1,
  /// fewer after stalled stages (see the file comment).
  int helpers() const { return helpers_.load(std::memory_order_relaxed); }

  /// Runs fn(i, participant) for every i in [0, count) and returns once
  /// all are done; rethrows the lowest failing index's exception. A
  /// null `pool` runs every index inline as participant 0, under the
  /// same exception contract.
  template <typename Fn>
  static void run(StepPool* pool, std::size_t count, Fn&& fn) {
    run_erased(pool, count, &call<std::remove_reference_t<Fn>>, &fn);
  }

 private:
  using Call = void (*)(void* fn, std::size_t index, int participant);

  template <typename Fn>
  static void call(void* fn, std::size_t index, int participant) {
    (*static_cast<Fn*>(fn))(index, participant);
  }

  /// One stage. Two slots alternate by epoch, so a worker still reading
  /// the previous stage's slot never races the caller filling the next.
  struct Stage {
    std::atomic<Call> call{nullptr};
    std::atomic<void*> fn{nullptr};
    std::atomic<std::size_t> count{0};
    std::atomic<std::size_t> ranges{1};  ///< home ranges: the stage's participants
    std::atomic<std::size_t> chunk{1};
  };

  /// One home range's cursor: the stage's epoch (high 32 bits) and the
  /// range's first unclaimed index (low 32 bits). Its own cache line:
  /// its owner claims from it all stage long.
  struct alignas(64) Cursor {
    std::atomic<std::uint64_t> at{0};
  };

  static void run_erased(StepPool* pool, std::size_t count, Call invoke, void* fn);
  /// Drains the current stage: the participant's home range first, then
  /// the others; returns the epoch it found exhausted.
  std::uint32_t work(int participant);
  /// Claims and runs chunks of one range of stage `epoch` until it is
  /// drained; false once the cursor has moved on to a later stage.
  bool drain(std::uint32_t epoch, const Stage& stage, Cursor& cursor, std::size_t end,
             std::size_t chunk, int participant);
  void worker_main(int participant);
  /// Records the exception of `index`, keeping the lowest index's.
  void fail(std::size_t index);
  /// Drops a helper after a stalled stage; adds one back after
  /// kProbeAfter healthy ones. Caller only.
  void adapt(bool stalled);
  /// Stops and joins every started worker.
  void stop();

  Stage stages_[2];
  /// Workers 1..helpers_ claim work; the others sit stages out. Written
  /// by the caller only (adapt), read by the workers.
  std::atomic<int> helpers_;
  int healthy_stages_ = 0;                   // the caller's count since the last change
  /// The last published stage's epoch, written by the caller only;
  /// workers wake when it moves.
  std::atomic<std::uint32_t> published_{0};
  std::unique_ptr<Cursor[]> cursors_;        // one per participant: its home range
  std::atomic<std::size_t> unfinished_{0};   // indices of the stage not yet done
  std::atomic<std::size_t> failed_at_{0};    // lowest failed index + 1 (0: none)
  std::exception_ptr error_;                 // that index's exception
  std::mutex error_mutex_;                   // guards error_ while a stage runs

  bool stopping_ = false;                    // guarded by mutex_
  std::mutex mutex_;                         // guards the blocking waits
  std::condition_variable wake_;             // workers: a new stage, or stop
  std::condition_variable done_;             // caller: the stage's last index finished

  std::vector<std::thread> workers_;         // declared last: started after the state above
};

/// Participants of `pool`; 1 for a null pool (inline).
inline int participants(const StepPool* pool) {
  return pool != nullptr ? pool->participants() : 1;
}

}  // namespace torex
