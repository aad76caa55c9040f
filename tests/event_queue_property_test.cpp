// Property tests for the pluggable event queues: on seeded random
// schedule/cancel workloads, the ladder queue must dispatch exactly the
// (time, seq) sequence the reference binary heap dispatches — first at the
// queue level (raw push/pop op streams), then end to end through the
// Engine with coroutines, delays and token cancellations in the mix. A
// failing case is shrunk to its smallest failing op prefix before being
// reported, so the failure message names a minimal (seed, prefix)
// reproducer, like sched_property_test does for the schedulers.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "support/rng.hpp"

namespace pfsc::sim {
namespace {

// ---------------------------------------------------------------------------
// Queue level: raw op streams
// ---------------------------------------------------------------------------

struct Op {
  bool push = false;
  double dt = 0.0;  // for pushes: offset above the last popped time
};

std::vector<Op> gen_ops(std::uint64_t seed) {
  Rng rng(0xE0E0u ^ (seed * 0x9E3779B97F4A7C15ull));
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(600));
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    op.push = rng.uniform(3) != 0;  // 2:1 push:pop keeps the queue loaded
    if (op.push) {
      switch (rng.uniform(4)) {
        case 0: op.dt = 0.0; break;  // same-timestamp burst: FIFO tiebreak
        case 1: op.dt = rng.uniform_double(0.0, 1.0e-5); break;   // RPC-ish
        case 2: op.dt = rng.uniform_double(0.0, 10.0); break;     // coarse
        default: op.dt = rng.uniform_double(0.0, 1.0e5); break;   // far tail
      }
    }
    ops.push_back(op);
  }
  return ops;
}

/// Replay the first `n` ops against `policy`; pops (plus a final drain)
/// form the trace. Pushed times respect the engine invariant t >= "now"
/// (the last popped time).
std::vector<std::pair<double, std::uint64_t>> replay(EventQueuePolicy policy,
                                                     const std::vector<Op>& ops,
                                                     std::size_t n) {
  auto q = make_event_queue(policy);
  std::vector<std::pair<double, std::uint64_t>> trace;
  std::uint64_t seq = 1;
  double now = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (ops[i].push) {
      q->push({now + ops[i].dt, seq++, std::noop_coroutine()});
    } else if (!q->empty()) {
      const ScheduledEvent ev = q->pop();
      now = ev.t;
      trace.emplace_back(ev.t, ev.seq);
    }
  }
  while (!q->empty()) {
    const ScheduledEvent ev = q->pop();
    trace.emplace_back(ev.t, ev.seq);
  }
  return trace;
}

std::string compare_traces(const std::vector<Op>& ops, std::size_t n) {
  const auto heap = replay(EventQueuePolicy::binary_heap, ops, n);
  const auto ladder = replay(EventQueuePolicy::ladder, ops, n);
  if (heap.size() != ladder.size()) {
    return "trace lengths differ: heap " + std::to_string(heap.size()) +
           " vs ladder " + std::to_string(ladder.size());
  }
  for (std::size_t i = 0; i < heap.size(); ++i) {
    if (heap[i] != ladder[i]) {
      return "dispatch " + std::to_string(i) + " differs: heap (t=" +
             std::to_string(heap[i].first) + ", seq=" +
             std::to_string(heap[i].second) + ") vs ladder (t=" +
             std::to_string(ladder[i].first) + ", seq=" +
             std::to_string(ladder[i].second) + ")";
    }
  }
  return {};
}

TEST(EventQueueProperty, LadderMatchesHeapOnRandomOpStreams) {
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    const std::vector<Op> ops = gen_ops(seed);
    const std::string err = compare_traces(ops, ops.size());
    if (err.empty()) continue;
    // Shrink to the smallest failing prefix; the replay is deterministic,
    // so (seed, prefix length) is an exact reproducer.
    std::size_t n = ops.size();
    std::string shrunk = err;
    for (std::size_t len = 1; len < ops.size(); ++len) {
      const std::string e = compare_traces(ops, len);
      if (!e.empty()) {
        n = len;
        shrunk = e;
        break;
      }
    }
    ADD_FAILURE() << "seed " << seed << " fails with the first " << n
                  << " of " << ops.size() << " ops: " << shrunk;
    return;
  }
}

// ---------------------------------------------------------------------------
// Engine level: coroutines, delays and token cancellations
// ---------------------------------------------------------------------------

struct Fired {
  double at = 0.0;
  int worker = 0;
  int step = 0;
  bool operator==(const Fired&) const = default;
};

/// delay(dt) that also schedules `decoys` extra wakeups for this frame and
/// immediately cancels them — the cancellations must be invisible.
struct NoisyDelay {
  Engine& eng;
  double dt;
  int decoys;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    for (int i = 0; i < decoys; ++i) {
      const WakeToken tok = eng.schedule_after(h, dt * (i + 2));
      eng.cancel_scheduled(tok);
    }
    eng.schedule_after(h, dt);
  }
  void await_resume() const noexcept {}
};

Task worker(Engine& eng, std::vector<double> delays, std::vector<int> decoys,
            int id, std::vector<Fired>* log) {
  for (std::size_t step = 0; step < delays.size(); ++step) {
    co_await NoisyDelay{eng, delays[step], decoys[step]};
    log->push_back({eng.now(), id, static_cast<int>(step)});
  }
}

std::vector<Fired> run_engine_workload(EventQueuePolicy policy,
                                       std::uint64_t seed) {
  Rng rng(0xE1E1u ^ (seed * 0x9E3779B97F4A7C15ull));
  const int workers = 2 + static_cast<int>(rng.uniform(6));
  std::vector<Fired> log;
  Engine eng(policy);
  for (int w = 0; w < workers; ++w) {
    const std::size_t steps = 1 + rng.uniform(40);
    std::vector<double> delays;
    std::vector<int> decoys;
    for (std::size_t s = 0; s < steps; ++s) {
      // Mix zero-delay steps (same-timestamp FIFO) with spread-out ones.
      delays.push_back(rng.uniform(4) == 0
                           ? 0.0
                           : rng.uniform_double(1.0e-6, 0.5));
      decoys.push_back(static_cast<int>(rng.uniform(3)));
    }
    eng.spawn(worker(eng, std::move(delays), std::move(decoys), w, &log));
  }
  eng.run();
  return log;
}

TEST(EventQueueProperty, EnginesDispatchIdenticallyUnderCancellation) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto heap = run_engine_workload(EventQueuePolicy::binary_heap, seed);
    const auto ladder = run_engine_workload(EventQueuePolicy::ladder, seed);
    ASSERT_EQ(heap.size(), ladder.size()) << "seed " << seed;
    for (std::size_t i = 0; i < heap.size(); ++i) {
      ASSERT_EQ(heap[i].at, ladder[i].at)
          << "seed " << seed << " firing " << i << " worker "
          << heap[i].worker << " step " << heap[i].step;
      ASSERT_EQ(heap[i].worker, ladder[i].worker)
          << "seed " << seed << " firing " << i;
      ASSERT_EQ(heap[i].step, ladder[i].step)
          << "seed " << seed << " firing " << i;
    }
  }
}

}  // namespace
}  // namespace pfsc::sim
