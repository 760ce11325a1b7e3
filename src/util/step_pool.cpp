#include "util/step_pool.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <utility>

#include "util/assert.hpp"

namespace torex {

namespace {

/// How long an idle worker, or a caller waiting on a stage, spins
/// before it blocks. Long enough to bridge the caller's serial work
/// between the stages of one step; short enough that an idle pool
/// sleeps almost at once.
constexpr auto kSpinFor = std::chrono::microseconds(200);

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// A stage stalled when the caller, done with its own share, waited
/// longer than that share took and longer than this: a helper that
/// lost its core mid-chunk (to another process, or to another virtual
/// machine on the host) holds the whole stage until it runs again.
constexpr auto kStallFloor = std::chrono::microseconds(200);

/// Healthy stages before one more helper is tried.
constexpr int kProbeAfter = 64;

/// Spins until `ready()` or kSpinFor elapses; returns ready().
template <typename Ready>
bool spin_until(Ready&& ready) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinFor;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return ready();
  }
}

std::uint32_t epoch_of(std::uint64_t cursor) {
  return static_cast<std::uint32_t>(cursor >> 32);
}
std::size_t index_of(std::uint64_t cursor) {
  return static_cast<std::size_t>(cursor & 0xFFFFFFFFu);
}

/// First index of home range `r` of a stage of `count` indices split
/// into `ranges` ranges.
std::size_t range_begin(std::size_t r, std::size_t count, std::size_t ranges) {
  return r * count / ranges;
}

}  // namespace

StepPool::StepPool(int participants) : helpers_(participants - 1) {
  TOREX_REQUIRE(participants >= 1, "a step pool needs at least one participant");
  cursors_ = std::make_unique<Cursor[]>(static_cast<std::size_t>(participants));
  workers_.reserve(static_cast<std::size_t>(participants - 1));
  try {
    for (int w = 1; w < participants; ++w) workers_.emplace_back([this, w] { worker_main(w); });
  } catch (...) {
    stop();  // a thread failed to start: join the ones that did
    throw;
  }
}

StepPool::~StepPool() { stop(); }

void StepPool::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void StepPool::run_erased(StepPool* pool, std::size_t count, Call invoke, void* fn) {
  const int helpers = pool != nullptr ? pool->helpers_.load(std::memory_order_relaxed) : 0;
  if (helpers == 0 || count <= 1) {
    // Inline: indices run in order, so the first throw is the lowest.
    if (pool != nullptr && count > 1) pool->adapt(false);
    for (std::size_t i = 0; i < count; ++i) invoke(fn, i, 0);
    return;
  }
  TOREX_REQUIRE(count <= std::numeric_limits<std::uint32_t>::max(), "stage too large");
  StepPool& p = *pool;
  const auto ranges = static_cast<std::size_t>(helpers) + 1;
  const std::uint32_t epoch = p.published_.load() + 1;
  Stage& stage = p.stages_[epoch & 1u];
  stage.call.store(invoke);
  stage.fn.store(fn);
  stage.count.store(count);
  stage.ranges.store(ranges);
  // About eight chunks per range: few claims, and a short tail.
  stage.chunk.store(std::max<std::size_t>(1, count / (8 * ranges)));
  p.failed_at_.store(0);
  p.error_ = nullptr;
  p.unfinished_.store(count);
  // Every cursor names the new stage before the stage is published, so
  // a worker that sees the new epoch finds every range ready.
  for (std::size_t r = 0; r < ranges; ++r) {
    p.cursors_[r].at.store(std::uint64_t{epoch} << 32 | range_begin(r, count, ranges));
  }
  p.published_.store(epoch);
  {
    // Orders the new epoch before any blocked worker's re-check.
    const std::lock_guard<std::mutex> lock(p.mutex_);
  }
  p.wake_.notify_all();
  const auto start = std::chrono::steady_clock::now();
  p.work(0);
  const auto own = std::chrono::steady_clock::now() - start;
  const auto finished = [&p] { return p.unfinished_.load() == 0; };
  if (!spin_until(finished)) {
    std::unique_lock<std::mutex> lock(p.mutex_);
    p.done_.wait(lock, finished);
  }
  const auto waited = std::chrono::steady_clock::now() - start - own;
  p.adapt(waited > kStallFloor && waited > own);
  if (p.error_) std::rethrow_exception(std::exchange(p.error_, nullptr));
}

void StepPool::adapt(bool stalled) {
  const int helpers = helpers_.load(std::memory_order_relaxed);
  if (stalled) {
    helpers_.store(helpers - 1, std::memory_order_relaxed);
    healthy_stages_ = 0;
    return;
  }
  if (helpers == static_cast<int>(workers_.size()) || ++healthy_stages_ < kProbeAfter) return;
  helpers_.store(helpers + 1, std::memory_order_relaxed);
  healthy_stages_ = 0;
}

std::uint32_t StepPool::work(int participant) {
  const std::uint32_t epoch = published_.load();
  const Stage& stage = stages_[epoch & 1u];
  const std::size_t count = stage.count.load();
  const std::size_t ranges = stage.ranges.load();
  const std::size_t chunk = stage.chunk.load();
  // The slot held this stage when it was read unless a later one was
  // published meanwhile (the caller fills the slot again only two
  // stages on). A claim then needs a cursor that still names this
  // stage with indices left, so the stage cannot end, nor the slot
  // change, until the claim's indices finish.
  if (published_.load() != epoch) return epoch;
  const auto self = static_cast<std::size_t>(participant);
  const std::size_t home = self < ranges ? self : 0;
  for (std::size_t k = 0; k < ranges; ++k) {
    const std::size_t r = (home + k) % ranges;
    if (!drain(epoch, stage, cursors_[r], range_begin(r + 1, count, ranges), chunk,
               participant)) {
      break;
    }
  }
  return epoch;
}

bool StepPool::drain(std::uint32_t epoch, const Stage& stage, Cursor& cursor, std::size_t end,
                     std::size_t chunk, int participant) {
  for (;;) {
    // Claim [begin, stop) of the range, while the cursor names `epoch`.
    std::uint64_t at = cursor.at.load();
    std::size_t begin = 0;
    std::size_t stop = 0;
    for (;;) {
      if (epoch_of(at) != epoch) return false;
      begin = index_of(at);
      if (begin >= end) return true;
      stop = std::min(end, begin + chunk);
      if (cursor.at.compare_exchange_weak(at, at + (stop - begin))) break;
    }
    const Call invoke = stage.call.load();
    void* const fn = stage.fn.load();
    for (std::size_t i = begin; i < stop; ++i) {
      const std::size_t failed_at = failed_at_.load(std::memory_order_relaxed);
      if (failed_at != 0 && failed_at <= i) continue;  // a lower index already failed
      try {
        invoke(fn, i, participant);
      } catch (...) {
        fail(i);
      }
    }
    if (unfinished_.fetch_sub(stop - begin) == stop - begin) {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_.notify_one();
    }
  }
}

void StepPool::fail(std::size_t index) {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  const std::size_t failed_at = failed_at_.load(std::memory_order_relaxed);
  if (failed_at != 0 && failed_at <= index + 1) return;
  error_ = std::current_exception();
  failed_at_.store(index + 1, std::memory_order_relaxed);
}

void StepPool::worker_main(int participant) {
  std::uint32_t drained = 0;  // the last epoch this worker found exhausted
  for (;;) {
    const auto fresh = [&] { return published_.load() != drained; };
    if (!spin_until(fresh)) {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || fresh(); });
      if (stopping_) return;
    }
    if (participant > helpers_.load(std::memory_order_relaxed)) {
      drained = published_.load();  // sits this stage out
      continue;
    }
    drained = work(participant);
  }
}

}  // namespace torex
