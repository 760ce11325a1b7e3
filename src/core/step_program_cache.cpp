#include "core/step_program_cache.hpp"

#include <algorithm>

namespace torex {

std::shared_ptr<const StepProgram> StepProgramCache::get(const SuhShinAape& algo,
                                                         LayoutPolicy layout) {
  std::shared_ptr<Entry> entry;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto hit = std::find_if(slots_.begin(), slots_.end(), [&](const Slot& s) {
      return s.layout == layout && s.convention == algo.convention() && s.shape == algo.shape();
    });
    if (hit != slots_.end()) {
      hit->last_used = ++uses_;
      entry = hit->entry;
    } else {
      if (slots_.size() == kCapacity) {
        slots_.erase(std::min_element(slots_.begin(), slots_.end(),
                                      [](const Slot& a, const Slot& b) {
                                        return a.last_used < b.last_used;
                                      }));
      }
      entry = std::make_shared<Entry>();
      slots_.push_back(Slot{algo.shape(), algo.convention(), layout, entry, ++uses_});
    }
  }
  // Compile outside the cache lock: other keys stay available, and
  // concurrent first users of this key wait here for one compile.
  const std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->program == nullptr) {
    entry->program = std::make_shared<const StepProgram>(algo, layout);
    ++compiles_;
  }
  return entry->program;
}

std::int64_t StepProgramCache::compiles() const {
  return compiles_;
}

std::size_t StepProgramCache::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

StepProgramCache& step_program_cache() {
  static StepProgramCache cache;
  return cache;
}

}  // namespace torex
