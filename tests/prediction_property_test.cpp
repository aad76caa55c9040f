// End-to-end property: the paper's equations predict what the simulated
// file system actually does, across the stripe-request sweep — the core
// validity claim of the reproduction, asserted as a test rather than a
// bench table.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace pfsc {
namespace {

class PredictionSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PredictionSweep, MeasuredCensusTracksEquations) {
  const std::uint32_t r = GetParam();
  const unsigned jobs = 4;
  RunningStats inuse;
  RunningStats load;
  Rng seeder(0xCAFE + r);
  for (int rep = 0; rep < 3; ++rep) {
    // Small jobs: the census depends only on layout.
    harness::Scenario spec =
        harness::Scenario::multi(static_cast<int>(jobs), 16);
    spec.ior.segment_count = 2;
    spec.ior.hints.driver = mpiio::Driver::ad_lustre;
    spec.ior.hints.striping_factor = r;
    spec.ior.hints.striping_unit = 128_MiB;
    const auto res = harness::run_scenario(spec, seeder.next_u64());
    for (const auto& job : res.per_job) {
      ASSERT_EQ(job.err, lustre::Errno::ok);
      ASSERT_TRUE(job.verified);
    }
    inuse.add(res.contention.d_inuse);
    load.add(res.contention.d_load);
  }
  const double pred_inuse = core::d_inuse_uniform(r, jobs, 480);
  const double pred_load = core::d_load(r, jobs, 480);
  // Variance of D_inuse over random placement is modest; 3 repetitions
  // should land within ~6% of the expectation.
  EXPECT_NEAR(inuse.mean(), pred_inuse, pred_inuse * 0.06) << "R=" << r;
  EXPECT_NEAR(load.mean(), pred_load, pred_load * 0.06) << "R=" << r;
}

INSTANTIATE_TEST_SUITE_P(StripeSweep, PredictionSweep,
                         ::testing::Values(16u, 64u, 128u, 160u));

TEST(PredictionPlfs, BackendLoadTracksEq6) {
  for (int procs : {128, 512}) {
    harness::Scenario spec;
    spec.nprocs = procs;
    spec.ior.segment_count = 2;
    spec.ior.hints.driver = mpiio::Driver::ad_plfs;
    const auto res =
        harness::run_scenario(spec, 0xFACE + static_cast<unsigned>(procs));
    ASSERT_EQ(res.per_job.front().err, lustre::Errno::ok);
    const double pred = core::plfs_d_load(static_cast<unsigned>(procs), 480);
    EXPECT_NEAR(res.contention.d_load, pred, pred * 0.08) << procs << " procs";
  }
}

TEST(PredictionSlowdown, OrderStatisticsBeatMeanLoadAtFullScale) {
  // Measure the actual 4-job slowdown at the paper's configuration
  // (1,024-proc jobs, R=160) and check which predictor is closer: the
  // slowest-OST model or the mean load. This only holds at full scale —
  // small jobs are aggregator-bound, not worst-OST-bound — which is itself
  // part of the claim (see EXPERIMENTS.md E4).
  harness::Scenario solo;
  solo.nprocs = 1024;  // full Table II workload: the effect is volume-driven
  solo.ior.hints.driver = mpiio::Driver::ad_lustre;
  solo.ior.hints.striping_factor = 160;
  solo.ior.hints.striping_unit = 128_MiB;
  const double solo_bw =
      harness::run_scenario(solo, 0xBEEF).per_job.front().write_mbps;

  harness::Scenario multi = harness::Scenario::multi(4, 1024);
  multi.ior.hints = solo.ior.hints;
  const auto res = harness::run_scenario(multi, 0xBEEF);
  const double measured_slowdown = solo_bw / res.metric;

  const double mean_load = core::d_load(160, 4, 480);                    // 1.66
  const double order_stat = core::predicted_job_slowdown(480, 4, 160);   // ~4.0
  // The mean-load prediction is a strict *underestimate* of what
  // synchronous jobs experience (the paper measured x3.44); the
  // slowest-OST prediction is an upper bound (the busiest target carries
  // only part of each job's data). The measurement must land between them.
  EXPECT_GT(measured_slowdown, mean_load * 1.05);
  EXPECT_LT(measured_slowdown, order_stat * 1.10);
}

}  // namespace
}  // namespace pfsc
