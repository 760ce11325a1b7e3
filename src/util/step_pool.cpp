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

std::uint32_t epoch_of(std::uint64_t ticket) { return static_cast<std::uint32_t>(ticket >> 32); }
std::size_t index_of(std::uint64_t ticket) {
  return static_cast<std::size_t>(ticket & 0xFFFFFFFFu);
}

}  // namespace

StepPool::StepPool(int participants) : helpers_(participants - 1) {
  TOREX_REQUIRE(participants >= 1, "a step pool needs at least one participant");
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
  const auto participants = static_cast<std::size_t>(helpers) + 1;
  const std::uint32_t epoch = ++p.epoch_;
  Stage& stage = p.stages_[epoch & 1u];
  stage.call.store(invoke);
  stage.fn.store(fn);
  stage.count.store(count);
  // About eight chunks per participant: few claims, and a short tail.
  stage.chunk.store(std::max<std::size_t>(1, count / (8 * participants)));
  p.failed_at_.store(0);
  p.error_ = nullptr;
  p.unfinished_.store(count);
  p.ticket_.store(std::uint64_t{epoch} << 32);
  {
    // Orders the new ticket before any blocked worker's re-check.
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
  for (;;) {
    // Claim [begin, end) of the stage the ticket names. The slot is read
    // before the claim; a successful compare-exchange proves it still
    // held this stage, and it stays put until the claim's indices finish.
    std::uint64_t ticket = ticket_.load();
    const Stage* stage = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    for (;;) {
      stage = &stages_[epoch_of(ticket) & 1u];
      const std::size_t count = stage->count.load();
      begin = index_of(ticket);
      if (begin >= count) return epoch_of(ticket);
      end = std::min(count, begin + stage->chunk.load());
      if (ticket_.compare_exchange_weak(ticket, ticket + (end - begin))) break;
    }
    const Call invoke = stage->call.load();
    void* const fn = stage->fn.load();
    for (std::size_t i = begin; i < end; ++i) {
      const std::size_t failed_at = failed_at_.load(std::memory_order_relaxed);
      if (failed_at != 0 && failed_at <= i) continue;  // a lower index already failed
      try {
        invoke(fn, i, participant);
      } catch (...) {
        fail(i);
      }
    }
    if (unfinished_.fetch_sub(end - begin) == end - begin) {
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
    const auto fresh = [&] { return epoch_of(ticket_.load()) != drained; };
    if (!spin_until(fresh)) {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || fresh(); });
      if (stopping_) return;
    }
    if (participant > helpers_.load(std::memory_order_relaxed)) {
      drained = epoch_of(ticket_.load());  // sits this stage out
      continue;
    }
    drained = work(participant);
  }
}

}  // namespace torex
