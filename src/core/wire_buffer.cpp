#include "core/wire_buffer.hpp"

namespace torex {

WirePoolStats wire_stats_delta(const WirePoolStats& after, const WirePoolStats& before) {
  WirePoolStats d;
  d.acquires = after.acquires - before.acquires;
  d.releases = after.releases - before.releases;
  d.pool_hits = after.pool_hits - before.pool_hits;
  d.pool_misses = after.pool_misses - before.pool_misses;
  d.undersized_hits = after.undersized_hits - before.undersized_hits;
  d.peak_in_use = after.peak_in_use;
  d.messages = after.messages - before.messages;
  d.parcels = after.parcels - before.parcels;
  d.bytes_encoded = after.bytes_encoded - before.bytes_encoded;
  d.bytes_copied = after.bytes_copied - before.bytes_copied;
  d.total_sends = after.total_sends - before.total_sends;
  d.contiguous_sends = after.contiguous_sends - before.contiguous_sends;
  d.gathered_parcels = after.gathered_parcels - before.gathered_parcels;
  d.runs_encoded = after.runs_encoded - before.runs_encoded;
  d.max_runs_per_send = after.max_runs_per_send;
  d.rearrangement_passes = after.rearrangement_passes - before.rearrangement_passes;
  d.parcels_rearranged = after.parcels_rearranged - before.parcels_rearranged;
  return d;
}

std::vector<std::byte> WireArena::acquire(std::size_t size_hint) {
  ++stats_.acquires;
  ++in_use_;
  stats_.peak_in_use = std::max(stats_.peak_in_use, in_use_);
  if (free_.empty()) {
    ++stats_.pool_misses;
    std::vector<std::byte> frame;
    frame.reserve(size_hint);
    return frame;
  }
  ++stats_.pool_hits;
  // Largest-capacity frame sits at the back (release keeps it there),
  // so repeated acquire/release converges on zero reallocation.
  std::vector<std::byte> frame = std::move(free_.back());
  free_.pop_back();
  frame.clear();
  if (frame.capacity() < size_hint) {
    // Grow here, on the thread that leases the frame, so whoever writes
    // the frame (a step-kernel worker) never allocates.
    ++stats_.undersized_hits;
    frame.reserve(size_hint);
  }
  return frame;
}

void WireArena::release(std::vector<std::byte>&& frame) {
  ++stats_.releases;
  --in_use_;
  free_.push_back(std::move(frame));
  // Keep the biggest frame last so acquire() hands it out first.
  if (free_.size() >= 2 &&
      free_[free_.size() - 2].capacity() > free_.back().capacity()) {
    std::swap(free_[free_.size() - 2], free_.back());
  }
}

void WireArena::trim() { free_.clear(); }

}  // namespace torex
