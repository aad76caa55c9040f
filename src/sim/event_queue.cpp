#include "sim/event_queue.hpp"

#include "support/error.hpp"

namespace pfsc::sim {

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

void LaneQueue::add_head(std::size_t lane) {
  const ScheduledEvent& ev = lanes_[lane].ring.front();
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
