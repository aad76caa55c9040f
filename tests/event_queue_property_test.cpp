// Property tests for the pending-event queue on seeded random workloads.
// At the queue level, the delay lanes must pop exactly the (time, seq)
// sequence the reference binary heap pops on raw push/pop op streams that
// mix repeated delays, absolute-time pushes and a burst of more distinct
// delays than there are lanes; a failing case is shrunk to its smallest
// failing op prefix before being reported, so the failure message names a
// minimal (seed, prefix) reproducer, like sched_property_test does for the
// schedulers. At the engine level, with coroutines, delays and token
// cancellations in the mix, the dispatch order is checked against the
// specification the heap encodes: every live wakeup fires once, at its
// time, in strictly increasing (time, seq) order, and no cancelled wakeup
// fires.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
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
  enum Kind { kPop, kDelay, kAt } kind = kPop;
  double dt = 0.0;  // for pushes: offset above the last popped time
};

/// Delays the engine repeats: a lane each, 0 included.
constexpr double kRepeated[] = {0.0, 2.5e-5, 3.2768e-4, 1.7476e-3, 0.25, 7.0};
/// More distinct delays than LaneQueue has lanes.
constexpr std::size_t kDistinct = 200 + LaneQueue::kLanes / 2;

std::vector<Op> gen_ops(std::uint64_t seed) {
  Rng rng(0xE0E0u ^ (seed * 0x9E3779B97F4A7C15ull));
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(600));
  std::vector<Op> ops;
  ops.reserve(n + kDistinct);
  for (std::size_t i = 0; i < n; ++i) {
    Op op;
    switch (rng.uniform(6)) {
      case 0:
      case 1: op.kind = Op::kPop; break;  // 2:1 push:pop keeps it loaded
      case 2:
      case 3:
        op.kind = Op::kDelay;
        op.dt = kRepeated[rng.uniform(std::size(kRepeated))];
        break;
      case 4:
        op.kind = Op::kDelay;  // fresh delay: a lane of its own or fallback
        op.dt = rng.uniform_double(0.0, 10.0);
        break;
      default:
        op.kind = Op::kAt;
        op.dt = rng.uniform(2) == 0 ? rng.uniform_double(0.0, 1.0e-5)
                                    : rng.uniform_double(0.0, 1.0e5);
        break;
    }
    ops.push_back(op);
  }
  // A burst with no pops between: kDistinct distinct delays pending at
  // once, so by pigeonhole some must share a lane and go to the fallback.
  std::vector<Op> burst;
  for (std::size_t k = 0; k < kDistinct; ++k) {
    burst.push_back({Op::kDelay, 1.0e-4 * static_cast<double>(k + 1)});
  }
  for (std::size_t k = burst.size(); k > 1; --k) {
    std::swap(burst[k - 1], burst[rng.uniform(k)]);
  }
  const std::size_t at = rng.uniform(ops.size() + 1);
  ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(at), burst.begin(),
             burst.end());
  return ops;
}

/// Replay the first `n` ops against a fresh `Queue`; pops (plus a final
/// drain) form the trace. Pushed times respect the engine invariant
/// t >= "now" (the last popped time), and a delay push carries its delay.
template <typename Queue>
std::vector<std::pair<double, std::uint64_t>> replay(const std::vector<Op>& ops,
                                                     std::size_t n) {
  Queue q;
  std::vector<std::pair<double, std::uint64_t>> trace;
  std::uint64_t seq = 1;
  double now = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const Op& op = ops[i];
    if (op.kind == Op::kDelay) {
      q.push({now + op.dt, seq++, std::noop_coroutine()}, op.dt);
    } else if (op.kind == Op::kAt) {
      q.push({now + op.dt, seq++, std::noop_coroutine()});
    } else if (!q.empty()) {
      const ScheduledEvent ev = q.pop();
      now = ev.t;
      trace.emplace_back(ev.t, ev.seq);
    }
  }
  while (!q.empty()) {
    const ScheduledEvent ev = q.pop();
    trace.emplace_back(ev.t, ev.seq);
  }
  return trace;
}

std::string compare_traces(const std::vector<Op>& ops, std::size_t n) {
  const auto heap = replay<BinaryHeapQueue>(ops, n);
  const auto lanes = replay<LaneQueue>(ops, n);
  if (heap.size() != lanes.size()) {
    return "trace lengths differ: heap " + std::to_string(heap.size()) +
           " vs lanes " + std::to_string(lanes.size());
  }
  for (std::size_t i = 0; i < heap.size(); ++i) {
    if (heap[i] != lanes[i]) {
      return "dispatch " + std::to_string(i) + " differs: heap (t=" +
             std::to_string(heap[i].first) + ", seq=" +
             std::to_string(heap[i].second) + ") vs lanes (t=" +
             std::to_string(lanes[i].first) + ", seq=" +
             std::to_string(lanes[i].second) + ")";
    }
  }
  return {};
}

TEST(EventQueueProperty, LanesMatchHeapOnRandomOpStreams) {
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

/// One live wakeup: the time it was scheduled for and its engine seq.
struct Wake {
  double t = 0.0;
  std::uint64_t seq = 0;
  auto operator<=>(const Wake&) const = default;
};

/// delay(dt) that also schedules `decoys` extra wakeups for this frame and
/// immediately cancels them — the cancellations must be invisible. Records
/// the live wakeup in `*live` (the worker's log key) and `*scheduled`.
struct NoisyDelay {
  Engine& eng;
  double dt;
  int decoys;
  Wake* live;
  std::map<std::uint64_t, double>* scheduled;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    for (int i = 0; i < decoys; ++i) {
      const WakeToken tok = eng.schedule_after(h, dt * (i + 2));
      eng.cancel_scheduled(tok);
    }
    *live = {eng.now() + dt, eng.schedule_after(h, dt).seq};
    scheduled->emplace(live->seq, live->t);
  }
  void await_resume() const noexcept {}
};

/// Each resume logs (now, seq of the wakeup the worker was waiting on).
Task worker(Engine& eng, std::vector<double> delays, std::vector<int> decoys,
            std::map<std::uint64_t, double>* scheduled, std::vector<Wake>* log) {
  for (std::size_t step = 0; step < delays.size(); ++step) {
    Wake live;
    co_await NoisyDelay{eng, delays[step], decoys[step], &live, scheduled};
    log->push_back({eng.now(), live.seq});
  }
}

/// Run one seeded workload. Workers start inline with Engine::start, so
/// every wakeup the engine dispatches is one a worker scheduled and logs:
/// the log is the engine's complete dispatch sequence.
std::string check_engine_workload(std::uint64_t seed) {
  Rng rng(0xE1E1u ^ (seed * 0x9E3779B97F4A7C15ull));
  const int workers = 2 + static_cast<int>(rng.uniform(6));
  std::map<std::uint64_t, double> scheduled;  // live seq -> due time
  std::vector<Wake> log;
  Engine eng;
  for (int w = 0; w < workers; ++w) {
    const std::size_t steps = 1 + rng.uniform(40);
    std::vector<double> delays;
    std::vector<int> decoys;
    for (std::size_t s = 0; s < steps; ++s) {
      // Mix zero-delay steps (same-timestamp FIFO) with spread-out ones.
      // Odd seeds draw from four delays whose decoys (at 2 dt and 3 dt)
      // share lanes with live wakeups, so non-zero lanes carry tombstones.
      static constexpr double kFixed[] = {0.125, 0.25, 0.375, 0.5};
      if (rng.uniform(4) == 0) {
        delays.push_back(0.0);
      } else if (seed % 2 == 1) {
        delays.push_back(kFixed[rng.uniform(4)]);
      } else {
        delays.push_back(rng.uniform_double(1.0e-6, 0.5));
      }
      decoys.push_back(static_cast<int>(rng.uniform(3)));
    }
    eng.start(worker(eng, std::move(delays), std::move(decoys), &scheduled,
                     &log));
  }
  eng.run();
  // A fired decoy is an extra dispatch, so the counts catch it.
  if (eng.executed_events() != scheduled.size() ||
      log.size() != scheduled.size()) {
    return std::to_string(eng.executed_events()) + " dispatches and " +
           std::to_string(log.size()) + " logged resumes for " +
           std::to_string(scheduled.size()) + " live wakeups";
  }
  for (std::size_t i = 0; i < log.size(); ++i) {
    const auto due = scheduled.find(log[i].seq);
    if (due == scheduled.end() || due->second != log[i].t) {
      return "firing " + std::to_string(i) + " (t=" +
             std::to_string(log[i].t) + ", seq=" +
             std::to_string(log[i].seq) + ") is not a live wakeup at its time";
    }
    if (i > 0 && !(log[i - 1] < log[i])) {
      return "firing " + std::to_string(i) + " (t=" +
             std::to_string(log[i].t) + ", seq=" +
             std::to_string(log[i].seq) + ") does not follow (t=" +
             std::to_string(log[i - 1].t) + ", seq=" +
             std::to_string(log[i - 1].seq) + ")";
    }
  }
  return {};
}

TEST(EventQueueProperty, EngineDispatchesLiveWakeupsInKeyOrderUnderCancellation) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const std::string err = check_engine_workload(seed);
    ASSERT_TRUE(err.empty()) << "seed " << seed << ": " << err;
  }
}

}  // namespace
}  // namespace pfsc::sim
