#include <gtest/gtest.h>

#include <algorithm>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "ior/ior.hpp"
#include "plfs/plfs.hpp"

namespace pfsc::ior {
namespace {

using lustre::Errno;

Config small_config(mpiio::Driver driver) {
  Config cfg;
  cfg.block_size = 1_MiB;
  cfg.transfer_size = 256_KiB;
  cfg.segment_count = 2;
  cfg.hints.driver = driver;
  cfg.hints.striping_factor = 4;
  cfg.hints.striping_unit = 1_MiB;
  return cfg;
}

TEST(Ior, ConfigValidation) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 1);
  mpi::Runtime rt(fs, 2, 4);
  Config bad = small_config(mpiio::Driver::ad_lustre);
  bad.transfer_size = 300'000;  // does not divide block size
  EXPECT_THROW(IorJob(rt.world(), fs, bad), UsageError);
}

TEST(Ior, WritePhaseProducesVerifiedFile) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 5);
  mpi::Runtime rt(fs, 8, 4);
  const Result res = run_ior(rt, small_config(mpiio::Driver::ad_lustre));
  EXPECT_EQ(res.err, Errno::ok);
  EXPECT_TRUE(res.verified);
  EXPECT_EQ(res.total_bytes, 8u * 2u * 1_MiB);
  EXPECT_GT(res.write_mbps, 0.0);
  EXPECT_GT(res.write_time, 0.0);
  // The file really covers the whole extent.
  const lustre::Inode* node = fs.find("/ior.dat");
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->written.covers(0, res.total_bytes));
}

TEST(Ior, ReadPhaseAfterWrite) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 5);
  mpi::Runtime rt(fs, 4, 4);
  Config cfg = small_config(mpiio::Driver::ad_lustre);
  cfg.read_file = true;
  const Result res = run_ior(rt, cfg);
  EXPECT_EQ(res.err, Errno::ok);
  EXPECT_GT(res.read_mbps, 0.0);
  EXPECT_GT(res.read_time, 0.0);
}

TEST(Ior, IndependentModeWorks) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 5);
  mpi::Runtime rt(fs, 4, 4);
  Config cfg = small_config(mpiio::Driver::ad_lustre);
  cfg.use_collective = false;
  const Result res = run_ior(rt, cfg);
  EXPECT_EQ(res.err, Errno::ok);
  EXPECT_TRUE(res.verified);
}

TEST(Ior, PlfsDriverEndToEnd) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 5);
  mpi::Runtime rt(fs, 8, 4);
  plfs::Plfs plfs(fs);
  Config cfg = small_config(mpiio::Driver::ad_plfs);
  const Result res = run_ior(rt, cfg, &plfs);
  EXPECT_EQ(res.err, Errno::ok);
  EXPECT_TRUE(res.verified);
  // PLFS created one data file per rank.
  EXPECT_EQ(plfs.backend_data_files("/ior.dat").size(), 8u);
}

TEST(Ior, MoreStripesIsFasterOnQuietSystem) {
  // The Figure 1 effect in miniature: stripe count 1 vs 8 on the tiny
  // platform (8 OSTs).
  auto bw = [](std::uint32_t stripes) {
    sim::Engine eng;
    lustre::FileSystem fs(eng, hw::tiny_test_platform(), 5);
    mpi::Runtime rt(fs, 8, 4);
    Config cfg = small_config(mpiio::Driver::ad_lustre);
    cfg.block_size = 4_MiB;
    cfg.transfer_size = 1_MiB;
    cfg.segment_count = 8;
    cfg.hints.striping_factor = stripes;
    const Result res = run_ior(rt, cfg);
    PFSC_ASSERT(res.err == Errno::ok);
    return res.write_mbps;
  };
  const double bw1 = bw(1);
  const double bw8 = bw(8);
  EXPECT_GT(bw8, bw1 * 1.5);
}

TEST(Probe, SingleWriterBaseline) {
  harness::Scenario spec = harness::Scenario::probe(1, 16_MiB);
  spec.platform = hw::tiny_test_platform();
  const auto obs = harness::run_scenario(spec, 3);
  ASSERT_EQ(obs.per_job.size(), 1u);
  EXPECT_GT(obs.metric, 0.0);
  EXPECT_EQ(obs.metric, obs.per_job.front().write_mbps);
}

TEST(Probe, TelemetryReturnsBandwidthTimeline) {
  harness::Scenario spec = harness::Scenario::probe(2, 16_MiB);
  spec.platform = hw::tiny_test_platform();
  spec.telemetry_interval = 0.01;
  const auto obs = harness::run_scenario(spec, 3);
  ASSERT_GT(obs.bandwidth.size(), 0u);
  EXPECT_GT(*std::max_element(obs.bandwidth.value.begin(),
                              obs.bandwidth.value.end()),
            0.0);
}

TEST(Probe, TelemetryTimelineCoversTheWholeRun) {
  // 300,000 ticks: the harness sampler stops with the job, not at a tick
  // budget, so the timeline reaches the end.
  harness::Scenario spec = harness::Scenario::probe(2, 16_MiB);
  spec.platform = hw::tiny_test_platform();
  const Seconds write_time =
      harness::run_scenario(spec, 3).per_job.front().write_time;
  ASSERT_GT(write_time, 0.0);
  spec.telemetry_interval = write_time / 300000.0;
  const auto obs = harness::run_scenario(spec, 3);
  ASSERT_GT(obs.bandwidth.size(), 0u);
  EXPECT_GE(obs.bandwidth.at.back(), write_time);
}

TEST(Probe, ContentionDegradesPerProcessBandwidth) {
  auto mean_bw = [](std::uint32_t writers) {
    // 64 MiB each: long enough to reach steady state.
    harness::Scenario spec = harness::Scenario::probe(writers, 64_MiB);
    spec.platform = hw::tiny_test_platform();
    return harness::run_scenario(spec, 3).metric;
  };
  const double bw1 = mean_bw(1);
  const double bw4 = mean_bw(4);
  // Sharing one OST among 4 writers must cost more than 4x per process
  // (ideal 1/n plus seek thrash).
  EXPECT_LT(bw4, bw1 / 4.0 * 1.05);
  EXPECT_GT(bw4, 0.0);
}

TEST(Harness, MultiJobRunsAllJobs) {
  harness::Scenario spec =
      harness::Scenario::multi(2, 4, small_config(mpiio::Driver::ad_lustre));
  spec.platform = hw::tiny_test_platform();
  spec.procs_per_node = 4;
  const auto res = harness::run_scenario(spec, 11);
  ASSERT_EQ(res.per_job.size(), 2u);
  for (const auto& job : res.per_job) {
    EXPECT_EQ(job.err, Errno::ok);
    EXPECT_TRUE(job.verified);
    EXPECT_GT(job.write_mbps, 0.0);
  }
  EXPECT_NEAR(res.total_mbps, res.per_job[0].write_mbps + res.per_job[1].write_mbps,
              1e-9);
  // Census: two files, each with 4 stripes.
  EXPECT_DOUBLE_EQ(res.contention.d_req, 8.0);
  EXPECT_GE(res.contention.d_inuse, 4.0);
  EXPECT_LE(res.contention.d_inuse, 8.0);
}

TEST(Harness, ContendedJobsSlowerThanSolo) {
  ior::Config cfg = small_config(mpiio::Driver::ad_lustre);
  cfg.block_size = 4_MiB;
  cfg.transfer_size = 1_MiB;
  cfg.segment_count = 4;
  cfg.hints.striping_factor = 8;  // all OSTs of the tiny platform

  harness::Scenario solo;
  solo.platform = hw::tiny_test_platform();
  solo.nprocs = 4;
  solo.procs_per_node = 4;
  solo.ior = cfg;
  const double solo_bw =
      harness::run_scenario(solo, 13).per_job.front().write_mbps;

  harness::Scenario multi = solo;
  multi.jobs = 3;
  const auto res = harness::run_scenario(multi, 13);
  for (const auto& job : res.per_job) {
    EXPECT_LT(job.write_mbps, solo_bw);
  }
}

TEST(Harness, RunnerComputesCi) {
  harness::Scenario spec = harness::Scenario::probe(2, 8_MiB);
  spec.platform = hw::tiny_test_platform();
  harness::RunPlan plan;
  plan.repetitions(5).base_seed(17);
  const auto set = harness::ParallelRunner(1).run(spec, plan);
  ASSERT_EQ(set.size(), 1u);
  const auto& pt = set.point(0);
  EXPECT_EQ(pt.samples.size(), 5u);
  EXPECT_GE(pt.ci.upper, pt.ci.mean);
  EXPECT_LE(pt.ci.lower, pt.ci.mean);
}

TEST(Harness, PlfsRunReportsBackendCensus) {
  harness::Scenario spec;
  spec.platform = hw::tiny_test_platform();
  spec.nprocs = 8;
  spec.procs_per_node = 4;
  spec.ior = small_config(mpiio::Driver::ad_plfs);
  const auto res = harness::run_scenario(spec, 19);
  EXPECT_EQ(res.per_job.front().err, Errno::ok);
  // 8 data files x 2 stripes = 16 stripe placements.
  EXPECT_DOUBLE_EQ(res.contention.d_req, 16.0);
  EXPECT_GT(res.contention.d_load, 1.0);  // 16 stripes on 8 OSTs must collide
}

}  // namespace
}  // namespace pfsc::ior
