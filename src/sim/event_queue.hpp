// The simulation engine's pending-event queue.
//
// The engine dispatches the minimal (t, seq) event on every step (see
// ScheduledEvent for the key). It holds one LadderQueue by value; the
// BinaryHeapQueue below pops in the same order and stays as the reference
// that tests and the hold-model benchmark compare the ladder against:
//
//  * BinaryHeapQueue — a binary heap over the key: O(log n) per push/pop.
//    The reference implementation; simple, and what the engine shipped
//    with historically.
//  * LadderQueue     — calendar queue (Brown '88) of min-heap buckets with
//    lazy resizing: events hash into `buckets` of `width` simulated
//    seconds each by floor(t / width), a cursor walks the buckets in year
//    order, and each bucket keeps its events as a tiny binary heap. With
//    the width tracking the observed event-time spread (recomputed from
//    the live events at every capacity doubling/halving) buckets hold O(1)
//    events, making push/pop amortised O(1) instead of O(log n). A flat
//    "today" ring short-circuits the calendar for schedule-at-now wakeups
//    (the bulk of a coroutine DES's traffic), which arrive pre-sorted.
//    This is the queue the DES literature recommends once event counts
//    reach the tens of millions a 4,096-rank PLFS run executes.
//
// Determinism: pop() always returns the minimal (t, seq) pending event.
// The heap-vs-ladder property test pins that on random op streams, and
// the engine-level property test checks the dispatch order it implies.
#pragma once

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <vector>

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
/// them.
class BinaryHeapQueue {
 public:
  void push(const ScheduledEvent& ev) {
    heap_.push_back(ev);
    std::push_heap(heap_.begin(), heap_.end(), EventLater{});
  }
  /// The minimal pending event, or nullptr when empty. The pointer is
  /// valid until the next push/pop.
  const ScheduledEvent* peek() {
    return heap_.empty() ? nullptr : &heap_.front();
  }
  /// Remove and return the minimal pending event. Requires !empty().
  ScheduledEvent pop();

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  std::vector<ScheduledEvent> heap_;
};

/// Calendar queue of min-heap buckets; see file header. All operations are
/// amortised O(1) when the bucket width matches the event-time spread,
/// which the lazy resize maintains.
class LadderQueue {
 public:
  LadderQueue();

  void push(const ScheduledEvent& ev);
  /// Non-const: locating the minimum may advance the bucket cursor.
  const ScheduledEvent* peek();
  ScheduledEvent pop();

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  // -- introspection (tests/benchmarks) ---------------------------------
  std::size_t bucket_count() const { return buckets_.size(); }
  double bucket_width() const { return width_; }

 private:
  using Bucket = std::vector<ScheduledEvent>;  // min-heap on (t, seq)

  /// Virtual bucket index of time `t` (the bucket array wraps this by
  /// `mask_`, one wrap per "year"). Placement and the cursor's window test
  /// both use this exact function, so floating-point rounding can never
  /// strand an event between a bucket and its window. Multiplies by the
  /// cached reciprocal: one fewer division on both hot paths.
  std::uint64_t vbucket(Seconds t) const {
    const double q = t * inv_width_;
    // Clamp absurd quotients (huge t over a tiny width) into the final
    // year rather than overflowing the conversion.
    if (q >= 9.0e18) return static_cast<std::uint64_t>(9.0e18);
    return static_cast<std::uint64_t>(q);
  }

  /// Point `cached_` at the bucket holding the global minimum; returns
  /// false when empty. Amortised O(1): the cursor resumes where it left
  /// off, and a full fruitless lap falls back to a direct scan + jump.
  bool locate_min();
  /// Rebuild with `nbuckets` buckets and a width recomputed from the
  /// observed spread of the live events.
  void rebuild(std::size_t nbuckets);
  void maybe_grow();
  void maybe_shrink();

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;         // buckets_.size() - 1 (power of two)
  double width_ = 1.0;           // seconds per bucket
  double inv_width_ = 1.0;       // 1 / width_, kept in lockstep
  std::uint64_t cur_vb_ = 0;     // cursor: current virtual bucket
  std::size_t size_ = 0;         // total pending (calendar + today ring)
  std::size_t cal_size_ = 0;     // events in buckets_
  std::size_t cached_bucket_ = 0;
  bool cache_valid_ = false;
  std::vector<ScheduledEvent> scratch_;  // rebuild staging, reused

  // "Today" ring: events pushed with t <= the last popped time (the
  // schedule-at-now wakeups joins/semaphores/pipes produce constantly).
  // They arrive already sorted — t is pinned to the engine's now and seq
  // grows monotonically — so a flat ring holds them in pop order with no
  // hashing or heap ops at all.
  std::vector<ScheduledEvent> today_;
  std::size_t today_head_ = 0;
  double t_floor_ = 0.0;  // time of the last popped event (monotone)
};

}  // namespace pfsc::sim
