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
#include <gtest/gtest.h>

#include <memory>
#include <string>

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
