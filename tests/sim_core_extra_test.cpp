// Additional simulation-core coverage: Co<T> payload semantics, zero-delay
// ordering, degenerate synchronisation shapes, and engine statistics.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/link.hpp"
#include "sim/resources.hpp"
#include "sim/task.hpp"

namespace pfsc::sim {
namespace {

Co<std::unique_ptr<int>> make_unique_answer(Engine& eng) {
  co_await eng.delay(0.25);
  co_return std::make_unique<int>(99);
}

TEST(CoPayload, MoveOnlyValuePropagates) {
  Engine eng;
  std::unique_ptr<int> out;
  eng.spawn([](Engine& e, std::unique_ptr<int>& out) -> Task {
    out = co_await make_unique_answer(e);
  }(eng, out));
  eng.run();
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 99);
}

Co<std::vector<int>> make_vector(Engine& eng, int n) {
  co_await eng.delay(0.1);
  std::vector<int> v;
  for (int i = 0; i < n; ++i) v.push_back(i);
  co_return v;
}

TEST(CoPayload, ContainerValuePropagates) {
  Engine eng;
  std::vector<int> out;
  eng.spawn([](Engine& e, std::vector<int>& out) -> Task {
    out = co_await make_vector(e, 5);
  }(eng, out));
  eng.run();
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(CoPayload, NestedCoChain) {
  Engine eng;
  int depth_reached = 0;
  // A chain of Co frames 100 deep: symmetric transfer must not overflow
  // the stack or lose the value.
  struct Chain {
    static Co<int> descend(Engine& eng, int depth) {
      if (depth == 0) {
        co_await eng.delay(0.001);
        co_return 0;
      }
      const int below = co_await descend(eng, depth - 1);
      co_return below + 1;
    }
  };
  eng.spawn([](Engine& e, int& out) -> Task {
    out = co_await Chain::descend(e, 100);
  }(eng, depth_reached));
  eng.run();
  EXPECT_EQ(depth_reached, 100);
}

TEST(ZeroDelay, DoesNotSuspend) {
  Engine eng;
  bool ran = false;
  eng.spawn([](Engine& e, bool& ran) -> Task {
    co_await e.delay(0.0);
    EXPECT_DOUBLE_EQ(e.now(), 0.0);
    ran = true;
  }(eng, ran));
  eng.run();
  EXPECT_TRUE(ran);
}

TEST(Degenerate, EventDoubleTriggerIsNoop) {
  Engine eng;
  Event evt(eng);
  evt.trigger();
  evt.trigger();
  EXPECT_TRUE(evt.fired());
  evt.reset();
  EXPECT_FALSE(evt.fired());
}

TEST(Degenerate, JoinAllOfNothing) {
  Engine eng;
  bool done = false;
  eng.spawn([](bool& done) -> Task {
    co_await join_all({});
    done = true;
  }(done));
  eng.run();
  EXPECT_TRUE(done);
}

TEST(EngineStats, CountsAndClockAdvance) {
  Engine eng;
  EXPECT_EQ(eng.executed_events(), 0u);
  eng.spawn([](Engine& e) -> Task {
    co_await e.delay(1.0);
    co_await e.delay(2.0);
  }(eng));
  eng.run();
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
  EXPECT_EQ(eng.executed_events(), 3u);  // spawn resume + 2 delay resumes
}

TEST(EngineStats, RunUntilThenRunContinues) {
  Engine eng;
  std::vector<double> marks;
  eng.spawn([](Engine& e, std::vector<double>& marks) -> Task {
    for (int i = 0; i < 5; ++i) {
      co_await e.delay(1.0);
      marks.push_back(e.now());
    }
  }(eng, marks));
  EXPECT_FALSE(eng.run_until(2.5));
  EXPECT_EQ(marks.size(), 2u);
  EXPECT_DOUBLE_EQ(eng.now(), 2.5);  // clock parked at the horizon
  eng.run();
  EXPECT_EQ(marks.size(), 5u);
  EXPECT_DOUBLE_EQ(eng.now(), 5.0);
}

TEST(PipeLatency, PerMessageLatencyAdds) {
  Engine eng;
  FifoPipe pipe(eng, 100.0, /*per_message_latency=*/0.5);
  Seconds done_at = 0.0;
  eng.spawn([](FifoPipe& p, Engine& e, Seconds& out) -> Task {
    co_await p.transfer(100);
    out = e.now();
  }(pipe, eng, done_at));
  eng.run();
  EXPECT_DOUBLE_EQ(done_at, 1.5);  // 0.5 latency + 1.0 transfer
}

// -- records: Wakeable work the engine wakes without a frame --------------

struct Log final : Wakeable {
  Engine* eng = nullptr;
  std::vector<std::pair<int, Seconds>>* out = nullptr;
  int id = 0;
  void wake() override { out->emplace_back(id, eng->now()); }
};

TEST(Records, EngineWakesRecordsInKeyOrderAmongCoroutines) {
  Engine eng;
  std::vector<std::pair<int, Seconds>> out;
  Log a, b;
  a.eng = b.eng = &eng;
  a.out = b.out = &out;
  a.id = 1;
  b.id = 2;
  eng.schedule(b, 2.0);
  eng.spawn([](Engine& e, std::vector<std::pair<int, Seconds>>& out) -> Task {
    co_await e.delay(1.0);
    out.emplace_back(0, e.now());
  }(eng, out));
  // Same time as the coroutine's timer, but scheduled first: the timer is
  // only scheduled when the spawn's start wakeup dispatches.
  eng.schedule(a, 1.0);
  const WakeToken cancelled = eng.schedule(a, 1.5);
  eng.cancel_scheduled(cancelled);
  eng.run();
  const std::vector<std::pair<int, Seconds>> want = {{1, 1.0}, {0, 1.0}, {2, 2.0}};
  EXPECT_EQ(out, want);
  EXPECT_EQ(eng.executed_events(), 4u);  // spawn, delay, a, b
}

TEST(Records, ResourceHandsTokensFifoAcrossCoroutinesAndRecords) {
  Engine eng;
  Resource res(eng, 1);
  std::vector<std::pair<int, Seconds>> out;
  Log rec;
  rec.eng = &eng;
  rec.out = &out;
  rec.id = 1;
  ASSERT_TRUE(res.acquire_or_queue(rec));  // token taken at once
  eng.spawn([](Resource& r, Engine& e,
               std::vector<std::pair<int, Seconds>>& out) -> Task {
    co_await r.acquire();  // queued behind nobody: waits for the release
    out.emplace_back(0, e.now());
    co_await e.delay(1.0);
    r.release();
  }(res, eng, out));
  eng.run();
  EXPECT_TRUE(out.empty());  // the record still holds the only token
  EXPECT_EQ(res.queue_length(), 1u);
  res.release();             // hands it to the coroutine...
  EXPECT_FALSE(res.acquire_or_queue(rec));  // ...and queues the record
  eng.run();
  const std::vector<std::pair<int, Seconds>> want = {{0, 0.0}, {1, 1.0}};
  EXPECT_EQ(out, want);
  EXPECT_EQ(res.available(), 0u);  // the record now holds it
}

TEST(Records, StartRunsARootInlineWithoutAnEvent) {
  Engine eng;
  int steps = 0;
  eng.start([](Engine& e, int& steps) -> Task {
    ++steps;
    co_await e.delay(1.0);
    ++steps;
  }(eng, steps));
  EXPECT_EQ(steps, 1);  // ran up to its first suspension already
  EXPECT_EQ(eng.pending_events(), 1u);
  eng.run();
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(eng.executed_events(), 1u);  // only the delay
}

}  // namespace
}  // namespace pfsc::sim
