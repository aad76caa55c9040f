// Unit tests for the pending-event queues (sim/event_queue.hpp): the
// engine's delay lanes and the reference heap, the token-based
// cancellation API, and the coroutine-frame arena.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/arena.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "support/rng.hpp"

namespace pfsc::sim {
namespace {

// A dummy resumable frame so queue entries carry a real handle. The queue
// never resumes anything in these tests; it only stores and orders.
std::coroutine_handle<> dummy_handle() {
  return std::noop_coroutine();
}

template <typename Queue>
std::vector<ScheduledEvent> drain(Queue& q) {
  std::vector<ScheduledEvent> out;
  while (!q.empty()) out.push_back(q.pop());
  return out;
}

bool ordered(const std::vector<ScheduledEvent>& evs) {
  for (std::size_t i = 1; i < evs.size(); ++i) {
    if (evs[i - 1].t > evs[i].t) return false;
    if (evs[i - 1].t == evs[i].t && evs[i - 1].seq > evs[i].seq) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Queue-level ordering
// ---------------------------------------------------------------------------

template <typename Queue>
class EveryQueue : public ::testing::Test {};

struct QueueName {
  template <typename Queue>
  static std::string GetName(int) {
    return std::is_same_v<Queue, LaneQueue> ? "lanes" : "binary_heap";
  }
};
using Queues = ::testing::Types<BinaryHeapQueue, LaneQueue>;
TYPED_TEST_SUITE(EveryQueue, Queues, QueueName);

/// Half the delays repeat (lanes), half are fresh draws (mostly fallback).
double draw_delay(Rng& rng, double span) {
  static constexpr double kSet[] = {0.0, 0.125, 1.5, 2.75, 6.0};
  return rng.uniform(2) == 0 ? kSet[rng.uniform(5)]
                             : rng.uniform_double(0.0, span);
}

TYPED_TEST(EveryQueue, PopsInTimeThenSeqOrder) {
  TypeParam q;
  Rng rng(0xE001);
  std::uint64_t seq = 1;
  for (int i = 0; i < 1000; ++i) {
    const double dt = draw_delay(rng, 50.0);
    q.push({dt, seq++, dummy_handle()}, dt);
  }
  EXPECT_EQ(q.size(), 1000u);
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 1000u);
  EXPECT_TRUE(ordered(evs));
}

TYPED_TEST(EveryQueue, SameTimestampIsFifoBySeq) {
  TypeParam q;
  // All at the same instant, half through a lane and half at an absolute
  // time: pop order must be schedule order, exactly.
  for (std::uint64_t seq = 1; seq <= 256; ++seq) {
    if (seq % 2 == 0) {
      q.push({3.25, seq, dummy_handle()}, 3.25);
    } else {
      q.push({3.25, seq, dummy_handle()});
    }
  }
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 256u);
  for (std::uint64_t i = 0; i < 256; ++i) EXPECT_EQ(evs[i].seq, i + 1);
}

TYPED_TEST(EveryQueue, PeekMatchesPopAndInterleavesWithPush) {
  TypeParam q;
  Rng rng(0xE002);
  std::uint64_t seq = 1;
  double now = 0.0;
  std::vector<ScheduledEvent> popped;
  for (int round = 0; round < 2000; ++round) {
    if (q.empty() || rng.uniform(3) != 0) {
      // Engine invariant: never schedule before the current time.
      const double dt = draw_delay(rng, 10.0);
      q.push({now + dt, seq++, dummy_handle()}, dt);
    } else {
      const ScheduledEvent* top = q.peek();
      ASSERT_NE(top, nullptr);
      const ScheduledEvent peeked = *top;  // pop() invalidates the pointer
      const ScheduledEvent ev = q.pop();
      EXPECT_EQ(ev.t, peeked.t);
      EXPECT_EQ(ev.seq, peeked.seq);
      now = ev.t;
      popped.push_back(ev);
    }
  }
  auto rest = drain(q);
  popped.insert(popped.end(), rest.begin(), rest.end());
  EXPECT_TRUE(ordered(popped));
  EXPECT_EQ(q.peek(), nullptr);
}

std::uint64_t bits(double dt) { return std::bit_cast<std::uint64_t>(dt); }

/// Two distinct delays that hash to the same lane.
std::pair<double, double> colliding_delays() {
  const double a = 1.0e-3;
  for (int k = 2;; ++k) {
    const double b = k * 1.0e-3;
    if (LaneQueue::lane_of(bits(b)) == LaneQueue::lane_of(bits(a))) {
      return {a, b};
    }
  }
}

TEST(LaneQueue, SparseFarFutureTailStaysOrdered) {
  // Delays twelve orders of magnitude apart, each in its own lane or the
  // fallback, still pop in time order.
  LaneQueue q;
  std::uint64_t seq = 1;
  for (double dt : {9.0e7, 1.0e-6, 9000.0, 5.0}) {
    q.push({dt, seq++, dummy_handle()}, dt);
  }
  auto evs = drain(q);
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_TRUE(ordered(evs));
  EXPECT_EQ(evs.front().t, 1.0e-6);
  EXPECT_EQ(evs.back().t, 9.0e7);
}

TEST(LaneQueue, ReusableAfterFullDrain) {
  LaneQueue q;
  std::uint64_t seq = 1;
  for (int wave = 0; wave < 3; ++wave) {
    const double base = wave * 1000.0;
    for (int i = 0; i < 100; ++i) {
      const double dt = static_cast<double>(i % 7);
      q.push({base + dt, seq++, dummy_handle()}, dt);
    }
    auto evs = drain(q);
    ASSERT_EQ(evs.size(), 100u);
    EXPECT_TRUE(ordered(evs));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.peek(), nullptr);
  }
}

TEST(LaneQueue, RingWrapsAroundWhileGrowing) {
  // One lane: advance its head, refill until the ring wraps, then overflow
  // it so the doubling copies a wrapped ring.
  LaneQueue q;
  constexpr double dt = 0.5;
  std::uint64_t seq = 1;
  double now = 0.0;
  std::uint64_t next_pop = 1;
  const auto push = [&](int n) {
    for (int i = 0; i < n; ++i) q.push({now + dt, seq++, dummy_handle()}, dt);
  };
  const auto pop = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const ScheduledEvent ev = q.pop();
      ASSERT_EQ(ev.seq, next_pop++);
      now = ev.t;
    }
  };
  push(10);
  pop(7);
  push(13);  // 16 pending, head at 7: the ring is full and wrapped
  EXPECT_EQ(q.size(), 16u);
  push(21);  // grows 16 -> 32 -> 64 from wrapped rings
  pop(20);
  push(40);
  EXPECT_EQ(q.fallback_size(), 0u);
  pop(static_cast<int>(q.size()));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(next_pop, seq);
}

TEST(LaneQueue, DrainedLaneTakesTheNextDelay) {
  const auto [a, b] = colliding_delays();
  LaneQueue q;
  std::uint64_t seq = 1;
  q.push({a, seq++, dummy_handle()}, a);
  q.push({b, seq++, dummy_handle()}, b);  // lane busy with a: fallback
  EXPECT_EQ(q.fallback_size(), 1u);
  drain(q);
  // The drained lane now belongs to b; a collides instead.
  q.push({1.0 + b, seq++, dummy_handle()}, b);
  EXPECT_EQ(q.fallback_size(), 0u);
  q.push({1.0 + a, seq++, dummy_handle()}, a);
  EXPECT_EQ(q.fallback_size(), 1u);
  const auto evs = drain(q);
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].seq, 4u);  // 1 + a < 1 + b
  EXPECT_EQ(evs[1].seq, 3u);
}

TEST(LaneQueue, PlusAndMinusZeroDelaysAreDistinctLanes) {
  // +0.0 and -0.0 compare equal but differ in bits: two lanes, both at now,
  // merged back into schedule order.
  ASSERT_NE(LaneQueue::lane_of(bits(0.0)), LaneQueue::lane_of(bits(-0.0)));
  LaneQueue q;
  std::uint64_t seq = 1;
  double now = 0.0;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 24; ++i) {
      const double dt = i % 3 == 0 ? -0.0 : 0.0;
      q.push({now + dt, seq++, dummy_handle()}, dt);
    }
    EXPECT_EQ(q.fallback_size(), 0u);
    const auto evs = drain(q);
    ASSERT_EQ(evs.size(), 24u);
    for (std::size_t i = 0; i < evs.size(); ++i) {
      EXPECT_EQ(evs[i].seq, seq - 24 + i);
    }
    now += 1.0;
  }
}

// ---------------------------------------------------------------------------
// Token-based cancellation through the Engine
// ---------------------------------------------------------------------------

struct CaptureHandle {
  std::coroutine_handle<>* slot;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { *slot = h; }
  void await_resume() const noexcept {}
};

Task suspend_once_then_count(std::coroutine_handle<>* slot, int* fired) {
  co_await CaptureHandle{slot};
  ++*fired;
}

TEST(EngineCancel, CancelThenRescheduleStillFires) {
  // Regression for the address-keyed cancellation bug: cancelling one
  // wakeup of a frame and then legitimately re-scheduling the same frame
  // must not swallow the new wakeup. The address-keyed implementation
  // matched the tombstone against the *frame*, so the reschedule was
  // skipped and `fired` stayed 0.
  Engine eng;
  std::coroutine_handle<> h;
  int fired = 0;
  eng.spawn(suspend_once_then_count(&h, &fired));
  EXPECT_TRUE(eng.run_until(0.5));  // runs the task up to its suspend
  ASSERT_TRUE(h);

  const WakeToken cancelled = eng.schedule_after(h, 1.0);
  eng.cancel_scheduled(cancelled);
  eng.schedule_after(h, 2.0);
  eng.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 2.0);  // the cancelled 1 s wakeup never advanced time
}

TEST(EngineCancel, CancelledWakeupNeitherAdvancesTimeNorCounts) {
  Engine eng;
  std::coroutine_handle<> h;
  int fired = 0;
  eng.spawn(suspend_once_then_count(&h, &fired));
  (void)eng.run_until(0.0);
  ASSERT_TRUE(h);
  const std::uint64_t executed_before = eng.executed_events();

  const WakeToken tok = eng.schedule_after(h, 4.0);
  eng.cancel_scheduled(tok);
  EXPECT_TRUE(eng.run_until(10.0));  // only a tombstone: drains
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(eng.executed_events(), executed_before);
  EXPECT_EQ(eng.pending_events(), 0u);  // tombstone erased, not retained
  EXPECT_EQ(eng.now(), 0.0);            // never fast-forwarded to 10

  // The frame is still live: a real wakeup works afterwards.
  eng.schedule_after(h, 1.0);
  eng.run();
  EXPECT_EQ(fired, 1);
}

TEST(EngineCancel, RunUntilDrainsLeadingTombstonesBeforeDeciding) {
  // A cancelled wakeup behind a live one: run_until must pop the live
  // event, then treat the remaining tombstone as empty.
  Engine eng;
  std::coroutine_handle<> h;
  int fired = 0;
  eng.spawn(suspend_once_then_count(&h, &fired));
  (void)eng.run_until(0.0);
  ASSERT_TRUE(h);

  const WakeToken late = eng.schedule_after(h, 5.0);
  eng.cancel_scheduled(late);
  eng.schedule_after(h, 1.0);
  EXPECT_TRUE(eng.run_until(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(eng.now(), 1.0);
}

TEST(EngineCancel, NullTokenIsIgnored) {
  Engine eng;
  eng.cancel_scheduled(WakeToken{});  // must be a no-op
  std::coroutine_handle<> h;
  int fired = 0;
  eng.spawn(suspend_once_then_count(&h, &fired));
  (void)eng.run_until(0.0);
  eng.schedule_after(h, 1.0);
  eng.run();
  EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------------
// Frame arena
// ---------------------------------------------------------------------------

Task tick_task(Engine& eng, int* done) {
  co_await eng.delay(1.0e-3);
  ++*done;
}

Co<int> child_value(Engine& eng) {
  co_await eng.delay(1.0e-4);
  co_return 7;
}

Task parent_task(Engine& eng, int* sum) {
  *sum += co_await child_value(eng);
}

TEST(FrameArenaTest, RecyclesFramesAcrossWaves) {
  Engine eng;
  int done = 0;
  for (int wave = 0; wave < 8; ++wave) {
    for (int i = 0; i < 32; ++i) eng.spawn(tick_task(eng, &done));
    eng.run();
  }
  EXPECT_EQ(done, 8 * 32);
  const FrameArena& arena = eng.frame_arena();
  // First wave pays fresh allocations; later waves ride the free lists.
  EXPECT_GT(arena.fresh_allocations(), 0u);
  EXPECT_GT(arena.reused_allocations(), arena.fresh_allocations());
  EXPECT_EQ(arena.outstanding(), 0u);
}

TEST(FrameArenaTest, ChildFramesPoolToo) {
  Engine eng;
  int sum = 0;
  for (int wave = 0; wave < 4; ++wave) {
    for (int i = 0; i < 16; ++i) eng.spawn(parent_task(eng, &sum));
    eng.run();
  }
  EXPECT_EQ(sum, 4 * 16 * 7);
  EXPECT_GT(eng.frame_arena().reused_allocations(), 0u);
  EXPECT_EQ(eng.frame_arena().outstanding(), 0u);
}

Task suspend_forever(std::coroutine_handle<>* slot) {
  co_await CaptureHandle{slot};
}

TEST(FrameArenaTest, TeardownReclaimsUnfinishedRoots) {
  // An engine destroyed with parked coroutines must free their frames back
  // through the arena (ASan in CI watches this test closely).
  std::coroutine_handle<> h;
  {
    Engine eng;
    eng.spawn(suspend_forever(&h));
    (void)eng.run_until(0.0);
    ASSERT_TRUE(h);
    EXPECT_EQ(eng.frame_arena().outstanding(), 1u);
  }  // ~Engine destroys the parked root; ~FrameArena asserts outstanding==0
}

TEST(FrameArenaTest, FramesWithoutAnEngineUseTheGlobalAllocator) {
  // No engine alive: the thread has no current arena, so frame new/delete
  // must fall back to ::operator new/delete and still pair up correctly.
  ASSERT_EQ(FrameArena::exchange_current(nullptr), nullptr);
  std::coroutine_handle<> h;
  int fired = 0;
  {
    Task t = suspend_once_then_count(&h, &fired);
    EXPECT_TRUE(t.valid());
  }  // destroyed unspawned: frame freed via the fallback path
  EXPECT_EQ(fired, 0);
}

TEST(FrameArenaTest, EnginesNestAndRestoreTheCurrentArena) {
  // A new frame lands in the arena of the innermost live engine; once that
  // engine is gone, frames go to the outer engine's arena again.
  std::coroutine_handle<> h;
  Engine outer;
  {
    Engine inner;
    const Task t = suspend_forever(&h);
    EXPECT_EQ(inner.frame_arena().outstanding(), 1u);
    EXPECT_EQ(outer.frame_arena().outstanding(), 0u);
  }
  const Task t = suspend_forever(&h);
  EXPECT_EQ(outer.frame_arena().outstanding(), 1u);
}

}  // namespace
}  // namespace pfsc::sim
