// Unit tests for the per-OSS request schedulers (lustre::sched): policy
// semantics driven directly through an engine, the make_scheduler factory,
// byte accounting, and the end-to-end path through FileSystem/Client
// (including the telemetry probe pack).
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lustre/client.hpp"
#include "lustre/sched/fifo.hpp"
#include "lustre/sched/job_fair.hpp"
#include "lustre/sched/scheduler.hpp"
#include "lustre/sched/token_bucket.hpp"
#include "support/stats.hpp"
#include "trace/telemetry.hpp"

namespace pfsc::lustre::sched {
namespace {

/// One request through a scheduler: admit, hold a service slot for
/// `service` seconds, complete. Appends its tag to `order` at grant time.
sim::Task request(sim::Engine& eng, Scheduler& s, JobId job, Bytes bytes,
                  Seconds service, std::vector<int>& order, int tag) {
  co_await s.admit(job, bytes);
  order.push_back(tag);
  if (service > 0.0) co_await eng.delay(service);
  s.complete(job, bytes);
}

/// Runs `check` at t=0 AFTER every earlier-spawned task has started
/// (same-timestamp events dispatch in schedule order), so tests can
/// observe the instantaneous grant state without advancing time.
sim::Task at_time_zero(std::function<void()> check) {
  check();
  co_return;
}

TEST(SchedFactory, BuildsEveryPolicyAndNamesThem) {
  sim::Engine eng;
  for (const SchedPolicy p : {SchedPolicy::fifo, SchedPolicy::job_fair,
                              SchedPolicy::token_bucket}) {
    const auto s = make_scheduler(eng, p);
    EXPECT_EQ(s->policy(), p);
    EXPECT_NO_THROW(s->check_invariants());
  }
  EXPECT_STREQ(sched_policy_name(SchedPolicy::fifo), "fifo");
  EXPECT_STREQ(sched_policy_name(SchedPolicy::job_fair), "job_fair");
  EXPECT_STREQ(sched_policy_name(SchedPolicy::token_bucket), "token_bucket");
}

TEST(SchedFactory, RejectsBadTuning) {
  sim::Engine eng;
  SchedTuning bad;
  bad.quantum = 0;
  EXPECT_THROW(make_scheduler(eng, SchedPolicy::job_fair, bad), UsageError);
  bad = SchedTuning{};
  bad.service_slots = 0;
  EXPECT_THROW(make_scheduler(eng, SchedPolicy::job_fair, bad), UsageError);
  bad = SchedTuning{};
  bad.job_rate = 0.0;
  EXPECT_THROW(make_scheduler(eng, SchedPolicy::token_bucket, bad), UsageError);
  bad = SchedTuning{};
  bad.bucket_depth = 0;
  EXPECT_THROW(make_scheduler(eng, SchedPolicy::token_bucket, bad), UsageError);
  // FIFO has no tuning constraints: the degenerate tuning is fine.
  bad.quantum = 0;
  EXPECT_NO_THROW(make_scheduler(eng, SchedPolicy::fifo, bad));
}

TEST(SchedAccounting, CompleteWithoutAdmitThrows) {
  sim::Engine eng;
  FifoSched s(eng, SchedTuning{});
  EXPECT_THROW(s.complete(0, 100), SimulationError);
}

TEST(SchedAccounting, JainIndex) {
  EXPECT_DOUBLE_EQ(jain_index({}), 1.0);
  const std::vector<double> equal{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(jain_index(equal), 1.0);
  const std::vector<double> one_hog{1.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(jain_index(one_hog), 0.25);
  const std::vector<double> skew{3.0, 1.0};
  EXPECT_DOUBLE_EQ(jain_index(skew), 16.0 / 20.0);
}

TEST(FifoSched, GrantsInstantlyInArrivalOrder) {
  sim::Engine eng;
  FifoSched s(eng, SchedTuning{});
  std::vector<int> order;
  // All submitted at t=0; service 1ms each, far more than any slot cap —
  // fifo must not queue anything.
  for (int i = 0; i < 8; ++i) {
    eng.spawn(request(eng, s, /*job=*/static_cast<JobId>(i % 2), 1_MiB, 1.0e-3,
                      order, i));
  }
  eng.spawn(at_time_zero([&s] {
    EXPECT_EQ(s.in_service(), 8u);  // every admit granted synchronously
    EXPECT_EQ(s.queue_depth(), 0u);
  }));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(s.submitted_bytes(), 8 * 1_MiB);
  EXPECT_EQ(s.admitted_bytes(), 8 * 1_MiB);
  EXPECT_EQ(s.served_bytes(), 8 * 1_MiB);
  EXPECT_EQ(s.served_bytes(0), 4 * 1_MiB);
  EXPECT_EQ(s.served_bytes(1), 4 * 1_MiB);
  EXPECT_EQ(s.served_bytes(99), 0u);
  EXPECT_NO_THROW(s.check_invariants());
}

TEST(JobFairSched, EqualisesBytesAcrossUnequalJobs) {
  sim::Engine eng;
  SchedTuning t;
  t.quantum = 1_MiB;
  t.service_slots = 1;
  JobFairSched s(eng, t);
  std::vector<int> order;
  // Job 0 floods 12 requests, job 1 submits 4; equal service times.
  for (int i = 0; i < 12; ++i) {
    eng.spawn(request(eng, s, 0, 1_MiB, 1.0e-3, order, 0));
  }
  for (int i = 0; i < 4; ++i) {
    eng.spawn(request(eng, s, 1, 1_MiB, 1.0e-3, order, 1));
  }
  eng.run();
  ASSERT_EQ(order.size(), 16u);
  // While both jobs are backlogged, equal request sizes mean equal byte
  // shares, so the grant counts can never drift more than a quantum's
  // worth (2 grants) apart; job 0 drains the rest after job 1 finishes.
  int c0 = 0;
  int c1 = 0;
  for (const int tag : order) {
    tag == 0 ? ++c0 : ++c1;
    if (c0 < 12 && c1 < 4) {
      EXPECT_LE(c0 > c1 ? c0 - c1 : c1 - c0, 2)
          << "after " << (c0 + c1) << " grants";
    }
  }
  EXPECT_EQ(s.served_bytes(0), 12 * 1_MiB);
  EXPECT_EQ(s.served_bytes(1), 4 * 1_MiB);
  EXPECT_EQ(s.queue_depth(), 0u);
  EXPECT_EQ(s.in_service(), 0u);
  EXPECT_EQ(s.backlogged_jobs(), 0u);
  EXPECT_NO_THROW(s.check_invariants());
}

TEST(JobFairSched, DeficitCoversUnequalRequestSizes) {
  sim::Engine eng;
  SchedTuning t;
  t.quantum = 4_MiB;
  t.service_slots = 1;
  JobFairSched s(eng, t);
  std::vector<int> order;
  // Job 0 sends 4 MiB requests, job 1 sends 1 MiB requests: per DRR the
  // byte shares equalise, so job 1 gets ~4 grants per job-0 grant.
  for (int i = 0; i < 4; ++i) eng.spawn(request(eng, s, 0, 4_MiB, 1.0e-3, order, 0));
  for (int i = 0; i < 16; ++i) eng.spawn(request(eng, s, 1, 1_MiB, 1.0e-3, order, 1));
  eng.run();
  ASSERT_EQ(order.size(), 20u);
  // Over the backlogged prefix (both jobs pending: first 16 grants cover
  // 3 job-0 and 12 job-1 on a byte-fair split), the byte gap between the
  // jobs can never exceed quantum + one max request.
  Bytes job0 = 0;
  Bytes job1 = 0;
  int seen0 = 0;
  int seen1 = 0;
  for (const int tag : order) {
    if (tag == 0) { job0 += 4_MiB; ++seen0; } else { job1 += 1_MiB; ++seen1; }
    if (seen0 < 4 && seen1 < 16) {
      const Bytes gap = job0 > job1 ? job0 - job1 : job1 - job0;
      EXPECT_LE(gap, t.quantum + 4_MiB);
    }
  }
  EXPECT_EQ(job0, 16_MiB);
  EXPECT_EQ(job1, 16_MiB);
}

std::uint64_t run_uncontended(SchedPolicy policy) {
  sim::Engine eng;
  SchedTuning t;
  t.service_slots = 8;
  const auto s = make_scheduler(eng, policy, t);
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.spawn(request(eng, *s, static_cast<JobId>(i), 1_MiB, 0.0, order, i));
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(s->served_bytes(), 4_MiB);
  return eng.executed_events();
}

TEST(JobFairSched, FastPathGrantsWithoutBacklog) {
  // Uncontended admits grant synchronously: the whole run costs exactly as
  // many engine events as the zero-overhead FIFO baseline.
  EXPECT_EQ(run_uncontended(SchedPolicy::job_fair),
            run_uncontended(SchedPolicy::fifo));
}

TEST(JobFairSched, SlotCapHoldsAndBacklogDrainsOnComplete) {
  sim::Engine eng;
  SchedTuning t;
  t.service_slots = 2;
  JobFairSched s(eng, t);
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    eng.spawn(request(eng, s, 0, 1_MiB, 1.0e-3, order, i));
  }
  eng.spawn(at_time_zero([&s] {
    EXPECT_EQ(s.in_service(), 2u);
    EXPECT_EQ(s.queue_depth(), 4u);
    EXPECT_NO_THROW(s.check_invariants());
  }));
  eng.run();
  EXPECT_EQ(order.size(), 6u);
  EXPECT_EQ(s.served_bytes(), 6_MiB);
  EXPECT_EQ(s.in_service(), 0u);
}

TEST(JobFairSched, QueueAreaIsTheTimeWeightedDepth) {
  // One service slot, held on [0, 2) by a request granted at once. A
  // queues at t=0 and B at t=1; A is granted at 2 and B at 3. The depth
  // is 1 on [0,1), 2 on [1,2) and 1 on [2,3): 4 request-seconds over 3 s.
  sim::Engine eng;
  SchedTuning t;
  t.service_slots = 1;
  JobFairSched s(eng, t);
  std::vector<int> order;
  eng.spawn(request(eng, s, 0, 1_MiB, 2.0, order, 0));
  eng.spawn(request(eng, s, 1, 1_MiB, 1.0, order, 1));
  eng.spawn([](sim::Engine& eng, Scheduler& s,
               std::vector<int>& order) -> sim::Task {
    co_await eng.delay(1.0);
    co_await s.admit(2, 1_MiB);
    order.push_back(2);
    s.complete(2, 1_MiB);
  }(eng, s, order));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  const QueueArea& q = s.queue_area();
  EXPECT_TRUE(q.seen);
  EXPECT_EQ(q.first, 0.0);
  EXPECT_EQ(q.last, 3.0);
  EXPECT_DOUBLE_EQ(q.area, 4.0);
  EXPECT_DOUBLE_EQ(q.area / (q.last - q.first), 4.0 / 3.0);
}

/// (now, executed_events) at each grant, in grant order.
using Marks = std::vector<std::pair<Seconds, std::uint64_t>>;

sim::Task marked_request(sim::Engine& eng, Scheduler& s, JobId job,
                         Bytes bytes, Seconds service, Marks& marks) {
  co_await s.admit(job, bytes);
  marks.emplace_back(eng.now(), eng.executed_events());
  if (service > 0.0) co_await eng.delay(service);
  s.complete(job, bytes);
}

TEST(JobFairSched, ParkedGrantsResumeAtTheirGrantEvent) {
  // One service slot: the first request grants at the co_await, the
  // parked two each resume from the grant that a completion schedules.
  sim::Engine eng;
  SchedTuning t;
  t.service_slots = 1;
  t.quantum = 1_MiB;
  JobFairSched s(eng, t);
  Marks marks;
  eng.spawn(marked_request(eng, s, 1, 1_MiB, 1.0, marks));
  eng.spawn(marked_request(eng, s, 1, 1_MiB, 1.0, marks));
  eng.spawn(marked_request(eng, s, 2, 1_MiB, 1.0, marks));
  eng.run();
  // Events: three spawns; per service end, the completion's grant.
  EXPECT_EQ(marks, (Marks{{0.0, 1}, {1.0, 5}, {2.0, 7}}));
  EXPECT_EQ(eng.executed_events(), 8u);
  EXPECT_EQ(s.served_bytes(1), 2_MiB);
  EXPECT_EQ(s.served_bytes(2), 1_MiB);
}

TEST(TokenBucketSched, ParkedGrantsResumeAtTheirGrantEvent) {
  // 100 B/s into a 100 B bucket: the first request empties it, each
  // parked one waits 1 s for its refill timer, whose drain schedules it.
  sim::Engine eng;
  SchedTuning t;
  t.job_rate = 100.0;
  t.bucket_depth = 100;
  TokenBucketSched s(eng, t);
  Marks marks;
  for (int i = 0; i < 3; ++i) eng.spawn(marked_request(eng, s, 0, 100, 0.0, marks));
  eng.run();
  // Events: three spawns; per parked grant, the timer's spawn, its
  // delay and the scheduled grant.
  EXPECT_EQ(marks, (Marks{{0.0, 1}, {1.0, 6}, {2.0, 9}}));
  EXPECT_EQ(eng.executed_events(), 9u);
  EXPECT_EQ(s.served_bytes(), 300u);
}

TEST(TokenBucketSched, BurstThenSustainedRate) {
  sim::Engine eng;
  SchedTuning t;
  t.job_rate = mb_per_sec(100.0);  // 1e8 B/s
  t.bucket_depth = 4_MiB;
  TokenBucketSched s(eng, t);
  std::vector<int> order;
  // 12 MiB of demand against a 4 MiB bucket at 100 MB/s: the first 4 MiB
  // burst grants at t=0, the rest is paced at the refill rate.
  for (int i = 0; i < 12; ++i) {
    eng.spawn(request(eng, s, 0, 1_MiB, 0.0, order, i));
  }
  eng.spawn(at_time_zero([&order] {
    EXPECT_EQ(order.size(), 4u);  // burst allowance
  }));
  eng.run();
  EXPECT_EQ(order.size(), 12u);
  EXPECT_EQ(s.served_bytes(), 12_MiB);
  // 8 MiB of debt at 1e8 B/s: the drain takes ~0.084s.
  const double expect = 8.0 * 1024.0 * 1024.0 / 1.0e8;
  EXPECT_NEAR(eng.now(), expect, 1.0e-3);
  EXPECT_NO_THROW(s.check_invariants());
}

TEST(TokenBucketSched, OversizedRequestGrantsViaDebt) {
  sim::Engine eng;
  SchedTuning t;
  t.job_rate = mb_per_sec(100.0);
  t.bucket_depth = 2_MiB;
  TokenBucketSched s(eng, t);
  std::vector<int> order;
  // 8 MiB > depth: needs only a full bucket, then drives tokens to -6 MiB.
  eng.spawn(request(eng, s, 0, 8_MiB, 0.0, order, 0));
  // The next 1 MiB request must wait for the debt plus its own need.
  eng.spawn(request(eng, s, 0, 1_MiB, 0.0, order, 1));
  eng.spawn(at_time_zero([&order] {
    EXPECT_EQ(order, (std::vector<int>{0}));
  }));
  eng.run();
  EXPECT_EQ(order.size(), 2u);
  const double expect = 7.0 * 1024.0 * 1024.0 / 1.0e8;  // -6 MiB -> +1 MiB
  EXPECT_NEAR(eng.now(), expect, 1.0e-3);
}

TEST(TokenBucketSched, JobsAreIndependent) {
  sim::Engine eng;
  SchedTuning t;
  t.job_rate = mb_per_sec(100.0);
  t.bucket_depth = 1_MiB;
  TokenBucketSched s(eng, t);
  std::vector<int> order;
  // Job 0 exhausts its bucket; job 1's first request still grants at once.
  eng.spawn(request(eng, s, 0, 1_MiB, 0.0, order, 0));
  eng.spawn(request(eng, s, 0, 1_MiB, 0.0, order, 0));
  eng.spawn(request(eng, s, 1, 1_MiB, 0.0, order, 1));
  eng.spawn(at_time_zero([&order] {
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
  }));
  eng.run();
  EXPECT_EQ(s.served_bytes(0), 2_MiB);
  EXPECT_EQ(s.served_bytes(1), 1_MiB);
}

TEST(TokenBucketSched, FifoWithinOneJob) {
  sim::Engine eng;
  SchedTuning t;
  t.job_rate = mb_per_sec(100.0);
  t.bucket_depth = 4_MiB;
  TokenBucketSched s(eng, t);
  std::vector<int> order;
  eng.spawn(request(eng, s, 0, 4_MiB, 0.0, order, 0));  // drains the bucket
  eng.spawn(request(eng, s, 0, 4_MiB, 0.0, order, 1));  // queues
  eng.spawn(request(eng, s, 0, 1_MiB, 0.0, order, 2));  // must NOT overtake
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// -- end-to-end: the scheduler inside FileSystem/Client -------------------

sim::Task write_file(lustre::Client& client, std::string path, Bytes bytes) {
  lustre::StripeSettings settings;
  settings.stripe_count = 1;
  auto file = co_await client.create(std::move(path), settings);
  PFSC_ASSERT(file.ok());
  const auto err = co_await client.write(file.value, 0, bytes);
  EXPECT_EQ(err, lustre::Errno::ok);
}

void run_two_job_write(SchedPolicy policy) {
  sim::Engine eng;
  hw::PlatformParams params = hw::tiny_test_platform();
  params.oss_sched_policy = policy;
  params.oss_sched.job_rate = mb_per_sec(50.0);
  lustre::FileSystem fs(eng, params, /*seed=*/7);

  lustre::Client a(fs, "a");
  lustre::Client b(fs, "b");
  a.set_job(0);
  b.set_job(1);
  EXPECT_EQ(a.job(), 0u);
  EXPECT_EQ(b.job(), 1u);

  trace::Sampler sampler(eng, 1.0e-3);
  const std::size_t first = sampler.add_instruments(
      trace::sched_instruments(fs, {0, 1}), fs.liveness());
  // Sample until both jobs' bytes have been served.
  sampler.watch([&fs] {
    Bytes served = 0;
    for (const auto& [job, bytes] : fs.sched_served_by_job()) served += bytes;
    return served < 16_MiB;
  });
  sampler.start();

  eng.spawn(write_file(a, "/a.dat", 8_MiB));
  eng.spawn(write_file(b, "/b.dat", 8_MiB));
  eng.run();

  // Work conservation through the real data path: every written byte went
  // admit -> link -> disk -> complete on some OSS scheduler.
  Bytes served = 0;
  for (const auto& [job, bytes] : fs.sched_served_by_job()) served += bytes;
  EXPECT_EQ(served, 16_MiB);
  EXPECT_EQ(fs.sched_served_by_job().at(0), 8_MiB);
  EXPECT_EQ(fs.sched_served_by_job().at(1), 8_MiB);
  EXPECT_EQ(fs.sched_queue_depth(), 0u);
  EXPECT_EQ(fs.sched_in_service(), 0u);
  EXPECT_DOUBLE_EQ(fs.sched_jain(), 1.0);
  for (std::uint32_t oss = 0; oss < params.oss_count; ++oss) {
    EXPECT_NO_THROW(fs.oss_sched(oss).check_invariants());
    EXPECT_EQ(fs.oss_sched(oss).policy(), policy);
  }

  // The probe pack registered queue/inflight/jain plus one series per job.
  const auto& series = sampler.series();
  ASSERT_GE(series.size(), first + 5);
  EXPECT_EQ(series[first].name, "sched_queue");
  EXPECT_EQ(series[first + 1].name, "sched_inflight");
  EXPECT_EQ(series[first + 2].name, "sched_jain");
  EXPECT_EQ(series[first + 3].name, "job0_bytes");
  EXPECT_EQ(series[first + 4].name, "job1_bytes");
  EXPECT_DOUBLE_EQ(series[first + 3].value.back(), 8.0 * 1024.0 * 1024.0);
}

TEST(SchedEndToEnd, FifoThroughFileSystem) { run_two_job_write(SchedPolicy::fifo); }
TEST(SchedEndToEnd, JobFairThroughFileSystem) {
  run_two_job_write(SchedPolicy::job_fair);
}
TEST(SchedEndToEnd, TokenBucketThroughFileSystem) {
  run_two_job_write(SchedPolicy::token_bucket);
}

TEST(SchedEndToEnd, SchedForOstMapsLikeOssPipes) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), /*seed=*/1);
  const auto& p = fs.params();
  for (OstIndex ost = 0; ost < p.ost_count; ++ost) {
    EXPECT_EQ(&fs.sched_for_ost(ost), &fs.oss_sched(ost % p.oss_count));
  }
  EXPECT_THROW(fs.sched_for_ost(p.ost_count), UsageError);
  EXPECT_THROW(fs.oss_sched(p.oss_count), UsageError);
}

}  // namespace
}  // namespace pfsc::lustre::sched
