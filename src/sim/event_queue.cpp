#include "sim/event_queue.hpp"

#include <utility>

#include "support/error.hpp"

namespace pfsc::sim {

namespace {

constexpr std::uint32_t kFirstRing = 16;

}  // namespace

ScheduledEvent BinaryHeapQueue::pop() {
  PFSC_ASSERT(!heap_.empty());
  std::pop_heap(heap_.begin(), heap_.end(), EventLater{});
  const ScheduledEvent ev = heap_.back();
  heap_.pop_back();
  return ev;
}

// ---------------------------------------------------------------------------
// LaneQueue
// ---------------------------------------------------------------------------

void LaneQueue::grow(Lane& lane) {
  const std::size_t cap = lane.ring.empty() ? kFirstRing : 2 * lane.ring.size();
  std::vector<ScheduledEvent> ring(cap);
  // Unwrap the full ring into the front of the new one, oldest first.
  for (std::uint32_t k = 0; k < lane.count; ++k) {
    ring[k] = lane.ring[(lane.head + k) & lane.mask];
  }
  lane.ring = std::move(ring);
  lane.head = 0;
  lane.mask = static_cast<std::uint32_t>(cap - 1);
}

void LaneQueue::add_head(std::size_t lane) {
  const ScheduledEvent& ev = lanes_[lane].ring[lanes_[lane].head];
  heads_.push_back({ev.t, ev.seq, static_cast<std::uint32_t>(lane)});
  std::push_heap(heads_.begin(), heads_.end(), HeadLater{});
}

void LaneQueue::sift_front_down() {
  const std::size_t n = heads_.size();
  std::size_t pos = 0;
  const Head h = heads_[pos];
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && HeadLater{}(heads_[child], heads_[child + 1])) ++child;
    if (!HeadLater{}(h, heads_[child])) break;
    heads_[pos] = heads_[child];
    pos = child;
  }
  heads_[pos] = h;
}

}  // namespace pfsc::sim
