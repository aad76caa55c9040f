// Parked-work budget of the RPC data path.
//
// Runs the reduced Fig. 3 quartet of alloc_gate_test (4 jobs x 64 ranks,
// ad_lustre, 160 x 128 MiB stripes, 1 MiB RPCs) and bounds the most
// coroutine frames ever live at once. A queued extent or RPC is a small
// record (DESIGN.md §10, "parked-work budget"): a frame exists only for an
// RPC that holds one of its client's rpc slots, plus the ranks', rounds'
// and servers' own coroutines. Parking a coroutine stack per queued
// extent again fails this gate: the peak is 14,982 frames here when every
// extent and RPC is a Task, 2,520 with records. Frame counts do not depend
// on the machine.
//
// The second gate counts frames created per RPC (DESIGN.md §10, "RPC data
// path: one frame per RPC"): every hop of a bulk RPC is an awaiter inside
// the one serve() frame, so one client writing 1 MiB at a time costs
// serve() plus write()'s own frame. A coroutine per link hop, per
// admission or per server half costs 7 frames per RPC (8 with a node NIC)
// and fails it.
//
// The third gate bounds what ranks hold before they start (DESIGN.md §10,
// "Idle footprint"): a rank whose job has not arrived is a RankStart
// record, so a fleet of jobs that never overlap needs the frames of one
// job, not a rank-main frame per rank from t = 0.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "hw/platform.hpp"
#include "lustre/client.hpp"

namespace pfsc::harness {
namespace {

TEST(FrameGate, ReducedQuartetParksRecordsNotFrames) {
  Scenario s = Scenario::multi(4, 64);
  s.ior.hints.driver = mpiio::Driver::ad_lustre;
  s.ior.hints.striping_factor = 160;
  s.ior.hints.striping_unit = 128_MiB;

  const Observation obs = run_scenario(s, 1);
  for (const auto& job : obs.per_job) ASSERT_EQ(job.err, lustre::Errno::ok);
  RecordProperty("peak_frames", std::to_string(obs.peak_frames));
  EXPECT_GT(obs.peak_frames, 0u);
  EXPECT_LE(obs.peak_frames, 4000u) << "coroutine frames live at the peak";
}

/// `jobs` four-rank IOR jobs under /fleet/ (so the ranks also wait for
/// the setup directories), job k arriving at k seconds.
Scenario spaced_fleet(int jobs) {
  std::vector<JobSpec> list;
  for (int k = 0; k < jobs; ++k) {
    JobSpec j;
    j.job_id = static_cast<lustre::sched::JobId>(k + 1);
    j.nprocs = 4;
    j.arrival = static_cast<Seconds>(k);
    j.ior.block_size = 1_MiB;
    j.ior.transfer_size = 1_MiB;
    j.ior.segment_count = 1;
    j.ior.hints.driver = mpiio::Driver::ad_lustre;
    j.ior.hints.striping_factor = 2;
    j.ior.test_file = "/fleet/ior." + std::to_string(k + 1);
    list.push_back(j);
  }
  return Scenario::from_jobs(std::move(list));
}

TEST(FrameGate, RankThatHasNotArrivedHoldsNoFrame) {
  const Observation one = run_scenario(spaced_fleet(1), 1);
  const Observation fleet = run_scenario(spaced_fleet(32), 1);
  ASSERT_EQ(fleet.per_job.size(), 32u);
  for (const auto& job : fleet.per_job) {
    ASSERT_EQ(job.err, lustre::Errno::ok);
    ASSERT_LT(job.write_time, 0.5) << "jobs arriving 1 s apart overlap";
  }
  RecordProperty("peak_frames", std::to_string(fleet.peak_frames));
  RecordProperty("carved_frame_bytes", std::to_string(fleet.carved_frame_bytes));
  // A rank-main frame per rank from t = 0 puts the fleet 124 frames over
  // one job's peak (634 against 510), and it carves them.
  EXPECT_LE(fleet.peak_frames, one.peak_frames) << "frames live at the peak";
  EXPECT_LE(fleet.carved_frame_bytes, one.carved_frame_bytes)
      << "frame bytes carved from the heap";
}

constexpr std::uint64_t kRpcs = 4096;

struct Totals {
  std::uint64_t frames = 0;  // coroutine frames created
  std::uint64_t events = 0;  // engine events executed
};

/// One client on lscratchc writes kRpcs x 1 MiB, one write() at a time;
/// returns what the writes cost, the file's create excluded.
Totals one_client_writes(bool node_nic) {
  sim::Engine eng;
  const hw::PlatformParams params = hw::cab_lscratchc();
  lustre::FileSystem fs(eng, params, 1);
  std::unique_ptr<sim::LinkModel> nic;
  if (node_nic) nic = sim::make_link(eng, params.link_policy, params.node_nic_bw);
  lustre::Client client(fs, "c0", nic.get());
  Totals out;
  eng.spawn([](sim::Engine& eng, lustre::Client& c, Totals& out) -> sim::Task {
    const auto file = co_await c.create("/f", lustre::StripeSettings{});
    PFSC_ASSERT(file.ok());
    const sim::FrameArena& arena = eng.frame_arena();
    const auto frames = [&arena] {
      return arena.fresh_allocations() + arena.reused_allocations();
    };
    const std::uint64_t frames0 = frames();
    const std::uint64_t events0 = eng.executed_events();
    for (std::uint64_t i = 0; i < kRpcs; ++i) {
      const lustre::Errno e = co_await c.write(file.value, i * 1_MiB, 1_MiB);
      PFSC_ASSERT(e == lustre::Errno::ok);
    }
    out.frames = frames() - frames0;
    out.events = eng.executed_events() - events0;
  }(eng, client, out));
  eng.run();
  EXPECT_EQ(client.bytes_written(), kRpcs * 1_MiB);
  return out;
}

void expect_one_frame_per_rpc(bool node_nic, std::uint64_t events_per_rpc) {
  const Totals t = one_client_writes(node_nic);
  const double frames_per_rpc =
      static_cast<double>(t.frames) / static_cast<double>(kRpcs);
  ::testing::Test::RecordProperty("frames_per_rpc", std::to_string(frames_per_rpc));
  EXPECT_LE(frames_per_rpc, 2.5) << "coroutine frames created per 1 MiB RPC";
  // Awaiters move no wakeup: the events are the frame-per-hop path's.
  EXPECT_EQ(t.events, events_per_rpc * kRpcs);
}

TEST(FrameGate, OneFramePerRpcPlusTheWriteItself) {
  expect_one_frame_per_rpc(/*node_nic=*/false, /*events_per_rpc=*/10);
}

TEST(FrameGate, NodeNicHopAddsNoFrame) {
  expect_one_frame_per_rpc(/*node_nic=*/true, /*events_per_rpc=*/11);
}

}  // namespace
}  // namespace pfsc::harness
