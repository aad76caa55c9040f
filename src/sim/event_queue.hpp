// The simulation engine's pending-event queue.
//
// The engine dispatches the minimal (t, seq) event on every step (see
// ScheduledEvent for the key). It holds one LaneQueue by value; the
// BinaryHeapQueue below pops in the same order and is both the reference
// that tests and the hold-model benchmark compare the lanes against and
// the lanes' fallback:
//
//  * BinaryHeapQueue — a binary heap over the key: O(log n) per push/pop.
//  * LaneQueue       — FIFO delay lanes. A push carries the delay `dt` it
//    was scheduled with, and events of one delay go to one lane, a
//    sim::Ring. For a fixed dt, t = now + dt never decreases (now
//    never does, and IEEE addition is monotone) and seq always increases,
//    so each lane is already in (t, seq) order and a push is an append. A
//    tiny heap over the non-empty lanes' heads finds the next lane. The
//    engine's traffic is a few dozen constant delays (RPC hops, link and
//    disk service times, and dt = 0 wakeups), so nearly every push is O(1).
//    Pushes at an absolute time, and pushes whose lane is busy with
//    another delay, go to a BinaryHeapQueue fallback: on delays that never
//    repeat the queue is an O(log n) heap.
//
// Determinism: pop() always returns the minimal (t, seq) pending event.
// The lanes-vs-heap property test pins that on random op streams, and
// the engine-level property test checks the dispatch order it implies.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/ring.hpp"
#include "support/units.hpp"

namespace pfsc::sim {

/// A piece of parked work the engine wakes without a coroutine frame: a
/// queued RPC record, an in-order join. wake() runs inside the dispatch,
/// exactly where a resumed coroutine would run.
class Wakeable {
 public:
  Wakeable() = default;
  // The engine and the queues that park a record hold its address.
  Wakeable(const Wakeable&) = delete;
  Wakeable& operator=(const Wakeable&) = delete;

  virtual void wake() = 0;

 protected:
  ~Wakeable() = default;
};

/// What one scheduled event wakes: a suspended coroutine or a Wakeable
/// record, in one tagged word (both are at least 8-byte aligned, so the
/// low bit is free to mark records).
class Wakeup {
 public:
  Wakeup() = default;
  template <typename P>
  Wakeup(std::coroutine_handle<P> h) noexcept
      : bits_(reinterpret_cast<std::uintptr_t>(h.address())) {}
  Wakeup(Wakeable& w) noexcept
      : bits_(reinterpret_cast<std::uintptr_t>(&w) | kRecord) {}

  explicit operator bool() const noexcept { return bits_ != 0; }
  /// True for a coroutine that already ran to completion (never a record).
  bool done() const {
    return (bits_ & kRecord) == 0 && handle().done();
  }
  /// Resume the coroutine, or wake the record.
  void operator()() const {
    if ((bits_ & kRecord) != 0) {
      reinterpret_cast<Wakeable*>(bits_ & ~kRecord)->wake();
    } else {
      handle().resume();
    }
  }

 private:
  static constexpr std::uintptr_t kRecord = 1;
  std::coroutine_handle<> handle() const {
    return std::coroutine_handle<>::from_address(reinterpret_cast<void*>(bits_));
  }
  std::uintptr_t bits_ = 0;
};

/// One scheduled wakeup, ordered by the key (t, seq). `seq` is the
/// engine-wide schedule order (unique, 1-based), so events due at the same
/// time run in the order they were scheduled.
struct ScheduledEvent {
  Seconds t = 0.0;
  std::uint64_t seq = 0;
  Wakeup target;
};
static_assert(sizeof(ScheduledEvent) == 24);

/// Strict weak "pops later" order on the (t, seq) key: the comparator of
/// every min-heap below.
struct EventLater {
  bool operator()(const ScheduledEvent& a, const ScheduledEvent& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};

/// Reference implementation: a binary heap over (t, seq). Both queues
/// share the member names below, so tests and benchmarks template over
/// them; the heap ignores the delay a push carries.
class BinaryHeapQueue {
 public:
  void push(const ScheduledEvent& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), EventLater{});
  }
  void push(const ScheduledEvent& ev, Seconds /*dt*/) { push(ev); }
  /// The minimal pending event, or nullptr when empty. The pointer is
  /// valid until the next push/pop.
  const ScheduledEvent* peek() const {
    return heap_.empty() ? nullptr : &heap_.front();
  }
  /// Remove and return the minimal pending event. Requires !empty().
  ScheduledEvent pop();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  std::vector<ScheduledEvent> heap_;
};

/// FIFO delay lanes over a heap fallback; see file header.
class LaneQueue {
 public:
  static constexpr std::size_t kLanes = 128;

  /// Push `ev`, scheduled `dt` seconds after the caller's current time
  /// (ev.t == now + dt). Every push carrying the same dt must come with a
  /// (t, seq) key above the previous one's, which holds when `now` never
  /// decreases and seq always increases, as in the engine.
  void push(const ScheduledEvent& ev, Seconds dt) {
    const std::uint64_t key = std::bit_cast<std::uint64_t>(dt);
    const std::size_t i = lane_of(key);
    Lane& lane = lanes_[i];
    if (lane.ring.empty()) {
      lane.key = key;
      append(lane, ev);
      add_head(i);
    } else if (lane.key == key) {
      append(lane, ev);
    } else {
      fallback_.push(ev);  // the lane is busy with another delay
    }
  }
  /// Push `ev` at an absolute time: it goes to the fallback heap.
  void push(const ScheduledEvent& ev) { fallback_.push(ev); }

  /// The minimal pending event, or nullptr when empty. The pointer is
  /// valid until the next push/pop.
  const ScheduledEvent* peek() const {
    if (lane_front()) return &lanes_[heads_.front().lane].ring.front();
    return fallback_.peek();
  }
  /// Remove and return the minimal pending event. Requires !empty().
  ScheduledEvent pop() {
    if (!lane_front()) return fallback_.pop();
    const std::uint32_t i = heads_.front().lane;
    Lane& lane = lanes_[i];
    const ScheduledEvent ev = lane.ring.front();
    lane.ring.pop_front();
    --lane_events_;
    if (lane.ring.empty()) {
      std::pop_heap(heads_.begin(), heads_.end(), HeadLater{});
      heads_.pop_back();
    } else {
      const ScheduledEvent& next = lane.ring.front();
      heads_.front() = {next.t, next.seq, i};
      sift_front_down();
    }
    return ev;
  }

  bool empty() const { return size() == 0; }
  std::size_t size() const { return lane_events_ + fallback_.size(); }

  // -- introspection (tests) ---------------------------------------------
  /// Pending events that went to the fallback heap.
  std::size_t fallback_size() const { return fallback_.size(); }
  /// Lane a delay's bit pattern maps to (tests pick colliding delays).
  static std::size_t lane_of(std::uint64_t key) {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> 57);
  }

 private:
  static_assert(kLanes == std::size_t{1} << 7, "lane_of keeps 7 bits");

  /// One delay's events in (t, seq) order.
  struct Lane {
    std::uint64_t key = 0;  // bit pattern of the lane's delay
    Ring<ScheduledEvent> ring;
  };
  /// A non-empty lane, keyed by a copy of its head's (t, seq).
  struct Head {
    Seconds t;
    std::uint64_t seq;
    std::uint32_t lane;
  };
  struct HeadLater {
    bool operator()(const Head& a, const Head& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  void append(Lane& lane, const ScheduledEvent& ev) {
    lane.ring.push_back(ev);
    ++lane_events_;
  }
  /// True when the minimal pending event is a lane head (not the fallback).
  bool lane_front() const {
    if (heads_.empty()) return false;
    const ScheduledEvent* fb = fallback_.peek();
    if (fb == nullptr) return true;
    const Head& h = heads_.front();
    return h.t != fb->t ? h.t < fb->t : h.seq < fb->seq;
  }

  void add_head(std::size_t lane);
  /// Restore the lane heap after the front lane's head moved later.
  void sift_front_down();

  std::array<Lane, kLanes> lanes_;
  std::vector<Head> heads_;  // min-heap over the non-empty lanes
  std::size_t lane_events_ = 0;
  BinaryHeapQueue fallback_;
};

}  // namespace pfsc::sim
