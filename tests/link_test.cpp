// FairSharePipe semantics: processor sharing with a virtual-time clock.
// Every expected instant below is derived by hand from the PS invariant
// (n in-flight flows each progress at rate * min(1, channels/n)). The
// tests at the end pin the Transfer awaiter's edge cases for both
// policies: the events and instants each wakeup path costs, which are
// what a coroutine per transfer produced.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/link.hpp"
#include "sim/task.hpp"

namespace pfsc::sim {
namespace {

Task flow_at(Engine& eng, LinkModel& link, Seconds start, Bytes bytes,
             std::vector<Seconds>& done) {
  if (start > 0.0) co_await eng.delay(start);
  co_await link.transfer(bytes);
  done.push_back(eng.now());
}

TEST(FairSharePipe, SingleFlowTakesBytesOverRate) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0);  // 100 B/s
  std::vector<Seconds> done;
  eng.spawn(flow_at(eng, pipe, 0.0, 250, done));
  eng.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 2.5, 1e-9);
  EXPECT_EQ(pipe.bytes_moved(), 250u);
  EXPECT_EQ(pipe.transfers(), 1u);
}

TEST(FairSharePipe, ConcurrentFlowsShareSimultaneously) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0);
  std::vector<Seconds> done;
  // Two 100 B flows from t=0: each sees 50 B/s, both finish at 2.0 —
  // unlike FIFO, which would finish them at 1.0 and 2.0.
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
}

TEST(FairSharePipe, StaggeredArrivalRecostsInFlightFlow) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0);
  std::vector<Seconds> done;
  // A: 200 B at t=0. Alone until t=0.5 (50 B moved). B: 100 B at t=0.5;
  // both then run at 50 B/s, so B finishes at 0.5 + 2.0 = 2.5. A has 50 B
  // left and the link to itself: done at 3.0.
  eng.spawn(flow_at(eng, pipe, 0.0, 200, done));
  eng.spawn(flow_at(eng, pipe, 0.5, 100, done));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.5, 1e-9);
  EXPECT_NEAR(done[1], 3.0, 1e-9);
}

TEST(FairSharePipe, ChannelsRaiseTheSharingThreshold) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0, 0.0, 2);
  std::vector<Seconds> done;
  // Two flows fit the two channels: both at full rate, done at 1.0. Four
  // flows: each at 100 * 2/4 = 50 B/s, done at 2.0.
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 1.0, 1e-9);

  done.clear();
  for (int i = 0; i < 4; ++i) eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.run();
  ASSERT_EQ(done.size(), 4u);
  for (const Seconds t : done) EXPECT_NEAR(t - 1.0, 2.0, 1e-9);
}

TEST(FairSharePipe, PerMessageLatencyAddsBeforeService) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0, /*per_message_latency=*/0.5);
  std::vector<Seconds> done;
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 1.5, 1e-9);
}

TEST(FairSharePipe, ProbesReportInstantaneousSharing) {
  Engine eng;
  FairSharePipe pipe(eng, 120.0);
  std::vector<Seconds> done;
  for (int i = 0; i < 3; ++i) eng.spawn(flow_at(eng, pipe, 0.0, 120, done));
  EXPECT_EQ(pipe.active_flows(), 0u);
  EXPECT_DOUBLE_EQ(pipe.flow_rate(), 0.0);
  // Each flow sees 40 B/s; all complete at t=3. Park the clock mid-flight.
  EXPECT_FALSE(eng.run_until(1.5));
  EXPECT_EQ(pipe.active_flows(), 3u);
  EXPECT_DOUBLE_EQ(pipe.flow_rate(), 40.0);
  EXPECT_NEAR(pipe.utilisation(), 1.0, 1e-9);  // saturated so far
  eng.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(pipe.active_flows(), 0u);
  // Busy 3 s of 3 s total.
  EXPECT_NEAR(pipe.utilisation(), 1.0, 1e-9);
}

TEST(FairSharePipe, UtilisationCountsIdleTime) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0);
  std::vector<Seconds> done;
  eng.spawn(flow_at(eng, pipe, 0.0, 100, done));
  eng.spawn([](Engine& e) -> Task { co_await e.delay(4.0); }(eng));
  eng.run();
  EXPECT_NEAR(pipe.utilisation(), 0.25, 1e-9);  // busy 1 s of 4 s
}

TEST(MakeLink, FactorySelectsPolicy) {
  Engine eng;
  auto fifo = make_link(eng, LinkPolicy::fifo, 100.0);
  auto fair = make_link(eng, LinkPolicy::fair_share, 100.0);
  EXPECT_EQ(fifo->policy(), LinkPolicy::fifo);
  EXPECT_EQ(fair->policy(), LinkPolicy::fair_share);
  EXPECT_STREQ(link_policy_name(fifo->policy()), "fifo");
  EXPECT_STREQ(link_policy_name(fair->policy()), "fair_share");
}

TEST(FairSharePipe, ManyFlowsConserveWork) {
  // 10,000 staggered flows through one saturated link: processor sharing
  // is work-conserving, so the last completion lands exactly at
  // total_bytes / rate (all arrivals are inside the busy period).
  Engine eng;
  FairSharePipe pipe(eng, 1.0e6);
  std::vector<Seconds> done;
  constexpr int kFlows = 10000;
  Bytes total = 0;
  for (int i = 0; i < kFlows; ++i) {
    const Bytes bytes = 1000 + static_cast<Bytes>(i % 7) * 100;
    total += bytes;
    // Arrivals spread over the first second; the full drain takes >10 s.
    eng.spawn(flow_at(eng, pipe, 1e-4 * static_cast<double>(i), bytes, done));
  }
  eng.run();
  ASSERT_EQ(done.size(), static_cast<std::size_t>(kFlows));
  EXPECT_EQ(pipe.bytes_moved(), total);
  EXPECT_EQ(pipe.transfers(), static_cast<std::uint64_t>(kFlows));
  const Seconds expect_end = static_cast<double>(total) / 1.0e6;
  EXPECT_NEAR(done.back(), expect_end, 1e-6);
}

// ---------------------------------------------------------------------------
// Transfer awaiter edge cases
// ---------------------------------------------------------------------------

/// (now, executed_events) when a transfer returned to its coroutine.
using Marks = std::vector<std::pair<Seconds, std::uint64_t>>;

Task marked_flow(Engine& eng, LinkModel& link, Seconds start, Bytes bytes,
                 Marks& marks) {
  if (start > 0.0) co_await eng.delay(start);
  co_await link.transfer(bytes);
  marks.emplace_back(eng.now(), eng.executed_events());
}

TEST(FifoPipe, ZeroServiceOnAFreeSlotCompletesWithoutAnEvent) {
  Engine eng;
  FifoPipe pipe(eng, 100.0);
  Marks marks;
  eng.spawn(marked_flow(eng, pipe, 0.0, 0, marks));
  eng.run();
  // The spawn is the only event: no slot wait, no service timer.
  ASSERT_EQ(marks.size(), 1u);
  EXPECT_EQ(marks[0], std::make_pair(0.0, std::uint64_t{1}));
  EXPECT_EQ(eng.executed_events(), 1u);
  EXPECT_EQ(pipe.transfers(), 1u);
  EXPECT_EQ(pipe.active_flows(), 0u);
}

TEST(FifoPipe, ZeroServiceAfterAQueuedHandOffCompletesInline) {
  Engine eng;
  FifoPipe pipe(eng, 100.0);
  Marks marks;
  eng.spawn(marked_flow(eng, pipe, 0.0, 100, marks));  // holds [0, 1]
  eng.spawn(marked_flow(eng, pipe, 0.0, 0, marks));    // queues behind it
  eng.run();
  // Events: two spawns, the first service end at t=1, then the slot
  // hand-off; the zero-byte transfer finishes inside that hand-off.
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_EQ(marks[0], std::make_pair(1.0, std::uint64_t{3}));
  EXPECT_EQ(marks[1], std::make_pair(1.0, std::uint64_t{4}));
  EXPECT_EQ(eng.executed_events(), 4u);
  EXPECT_EQ(pipe.transfers(), 2u);
  EXPECT_EQ(pipe.active_flows(), 0u);
}

TEST(FifoPipe, QueuedTransfersKeepArrivalOrderAndTimes) {
  Engine eng;
  FifoPipe pipe(eng, 100.0, /*per_message_latency=*/0.25);
  Marks marks;
  for (int i = 0; i < 3; ++i) eng.spawn(marked_flow(eng, pipe, 0.0, 100, marks));
  eng.run();
  // Each transfer holds the slot for 1.25 s; every hand-off is one event
  // and every service end another.
  ASSERT_EQ(marks.size(), 3u);
  EXPECT_EQ(marks[0], std::make_pair(1.25, std::uint64_t{4}));
  EXPECT_EQ(marks[1], std::make_pair(2.5, std::uint64_t{6}));
  EXPECT_EQ(marks[2], std::make_pair(3.75, std::uint64_t{8}));
  EXPECT_EQ(pipe.bytes_moved(), 300u);
}

TEST(FairSharePipe, PerMessageLatencyKeepsSharedCompletionTimes) {
  Engine eng;
  FairSharePipe pipe(eng, 100.0, /*per_message_latency=*/0.5);
  Marks marks;
  // A (100 B, t=0) joins at 0.5 and runs alone until B (100 B, t=0.25)
  // joins at 0.75: A has 75 B left. Both then run at 50 B/s: A finishes
  // at 0.75 + 1.5 = 2.25 with B at 75 B; B's last 25 B alone take 0.25 s.
  eng.spawn(marked_flow(eng, pipe, 0.0, 100, marks));
  eng.spawn(marked_flow(eng, pipe, 0.25, 100, marks));
  eng.run();
  ASSERT_EQ(marks.size(), 2u);
  EXPECT_NEAR(marks[0].first, 2.25, 1e-9);
  EXPECT_NEAR(marks[1].first, 2.5, 1e-9);
  EXPECT_EQ(marks[0].second, 8u);
  EXPECT_EQ(marks[1].second, 10u);
  EXPECT_EQ(eng.executed_events(), 10u);
  EXPECT_EQ(pipe.bytes_moved(), 200u);
  EXPECT_EQ(pipe.active_flows(), 0u);
}

TEST(LinkUtilisation, CountsOnlyElapsedServiceOnEveryPolicy) {
  // Two back-to-back 1 s transfers: the link is busy from 0 to 2, so at
  // every instant inside that window it has been busy all along.
  for (const LinkPolicy policy : {LinkPolicy::fifo, LinkPolicy::fair_share}) {
    Engine eng;
    const auto link = make_link(eng, policy, 100.0);
    Marks marks;
    eng.spawn(marked_flow(eng, *link, 0.0, 100, marks));
    eng.spawn(marked_flow(eng, *link, 0.0, 100, marks));
    eng.spawn([](Engine& e) -> Task { co_await e.delay(4.0); }(eng));
    for (const Seconds t : {0.5, 1.0, 1.5, 2.0}) {
      EXPECT_FALSE(eng.run_until(t));
      EXPECT_NEAR(link->utilisation(), 1.0, 1e-9)
          << link_policy_name(policy) << " at t=" << t;
    }
    EXPECT_FALSE(eng.run_until(3.0));
    EXPECT_NEAR(link->utilisation(), 2.0 / 3.0, 1e-9) << link_policy_name(policy);
    eng.run();
    EXPECT_NEAR(link->utilisation(), 0.5, 1e-9) << link_policy_name(policy);
  }
}

TEST(LinkUtilisation, FifoChannelsCountEachLaneElapsed) {
  Engine eng;
  FifoPipe pipe(eng, 100.0, 0.0, /*channels=*/2);
  Marks marks;
  eng.spawn(marked_flow(eng, pipe, 0.0, 100, marks));   // lane 1: [0, 1]
  eng.spawn(marked_flow(eng, pipe, 0.5, 100, marks));   // lane 2: [0.5, 1.5]
  EXPECT_FALSE(eng.run_until(1.0));
  // 1 s + 0.5 s busy over 2 lanes x 1 s.
  EXPECT_NEAR(pipe.utilisation(), 0.75, 1e-9);
  eng.run();
  EXPECT_NEAR(pipe.utilisation(), 2.0 / 3.0, 1e-9);  // 2 s over 2 x 1.5 s
}

}  // namespace
}  // namespace pfsc::sim
