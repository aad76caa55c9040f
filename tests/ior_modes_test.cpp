// Tests for the extended IOR modes (file-per-process, reorder-tasks reads)
// and the background-noise injector.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "ior/ior.hpp"
#include "plfs/plfs.hpp"

namespace pfsc::ior {
namespace {

using lustre::Errno;

Config small(mpiio::Driver driver) {
  Config cfg;
  cfg.block_size = 1_MiB;
  cfg.transfer_size = 256_KiB;
  cfg.segment_count = 2;
  cfg.hints.driver = driver;
  cfg.hints.striping_factor = 4;
  cfg.hints.striping_unit = 1_MiB;
  return cfg;
}

TEST(IorFpp, CreatesOneFilePerRank) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 9);
  mpi::Runtime rt(fs, 4, 4);
  Config cfg = small(mpiio::Driver::ad_lustre);
  cfg.file_per_process = true;
  const Result res = run_ior(rt, cfg);
  EXPECT_EQ(res.err, Errno::ok);
  EXPECT_TRUE(res.verified);
  for (int r = 0; r < 4; ++r) {
    const lustre::Inode* node = fs.find("/ior.dat." + std::to_string(r));
    ASSERT_NE(node, nullptr) << "rank " << r;
    EXPECT_EQ(node->size, 2u * 1_MiB);
    EXPECT_TRUE(node->written.covers(0, 2u * 1_MiB));
  }
  EXPECT_EQ(fs.find("/ior.dat"), nullptr);  // no shared file in -F mode
}

TEST(IorFpp, ReadBackWorks) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 9);
  mpi::Runtime rt(fs, 4, 4);
  Config cfg = small(mpiio::Driver::ad_lustre);
  cfg.file_per_process = true;
  cfg.read_file = true;
  const Result res = run_ior(rt, cfg);
  EXPECT_EQ(res.err, Errno::ok);
  EXPECT_GT(res.read_mbps, 0.0);
}

TEST(IorFpp, WorksWithPlfs) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 9);
  mpi::Runtime rt(fs, 4, 4);
  plfs::Plfs plfs(fs);
  Config cfg = small(mpiio::Driver::ad_plfs);
  cfg.file_per_process = true;
  const Result res = run_ior(rt, cfg, &plfs);
  EXPECT_EQ(res.err, Errno::ok);
  EXPECT_TRUE(res.verified);
  // Four containers, one per rank.
  for (int r = 0; r < 4; ++r) {
    EXPECT_TRUE(plfs.is_container("/ior.dat." + std::to_string(r)));
  }
}

TEST(IorReorder, ShiftedReadsSucceedAndCoverForeignData) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 9);
  mpi::Runtime rt(fs, 4, 4);
  Config cfg = small(mpiio::Driver::ad_lustre);
  cfg.read_file = true;
  cfg.reorder_tasks = 1;  // rank r reads rank (r+1)'s blocks
  cfg.use_collective = false;  // independent reads hit read_at directly
  const Result res = run_ior(rt, cfg);
  EXPECT_EQ(res.err, Errno::ok);
  EXPECT_GT(res.read_mbps, 0.0);
}

TEST(IorReorder, ShiftWrapsAround) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 9);
  mpi::Runtime rt(fs, 4, 4);
  Config cfg = small(mpiio::Driver::ad_lustre);
  cfg.read_file = true;
  cfg.reorder_tasks = 7;  // 7 mod 4 = 3
  const Result res = run_ior(rt, cfg);
  EXPECT_EQ(res.err, Errno::ok);
}

TEST(Noise, BackgroundWritersConsumeBandwidth) {
  auto run = [](unsigned writers) {
    harness::Scenario spec;
    spec.platform = hw::tiny_test_platform();
    spec.nprocs = 8;
    spec.procs_per_node = 4;
    spec.ior = small(mpiio::Driver::ad_lustre);
    spec.ior.hints.striping_factor = 8;
    spec.ior.block_size = 4_MiB;
    spec.ior.transfer_size = 1_MiB;
    spec.ior.segment_count = 8;
    spec.add_noise(writers, 64_MiB);
    const auto res = harness::run_scenario(spec, 123).per_job.front();
    PFSC_ASSERT(res.err == lustre::Errno::ok);
    return res.write_mbps;
  };
  const double quiet = run(0);
  const double noisy = run(6);
  EXPECT_LT(noisy, quiet);
  EXPECT_GT(noisy, 0.0);
}

TEST(Noise, WritersActuallyWriteData) {
  harness::Scenario s = harness::Scenario::probe(1, 1_MiB);
  s.platform = hw::tiny_test_platform();
  s.add_noise(3, 8_MiB);
  s.trace.mode = trace::TraceMode::summary;
  const auto obs = harness::run_scenario(s, 5);
  for (std::uint32_t w = 0; w < 3; ++w) {
    const auto it =
        obs.trace_summary.job_bytes.find(lustre::sched::kNoiseJobBase + w);
    ASSERT_NE(it, obs.trace_summary.job_bytes.end()) << "noise writer " << w;
    EXPECT_EQ(it->second, 8_MiB) << "noise writer " << w;
  }
}

}  // namespace
}  // namespace pfsc::ior
