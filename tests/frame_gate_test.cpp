// Parked-work budget of the RPC data path.
//
// Runs the reduced Fig. 3 quartet of alloc_gate_test (4 jobs x 64 ranks,
// ad_lustre, 160 x 128 MiB stripes, 1 MiB RPCs) and bounds the most
// coroutine frames ever live at once. A queued extent or RPC is a small
// record (DESIGN.md §10, "parked-work budget"): a frame exists only for an
// RPC that holds one of its client's rpc slots, plus the ranks', rounds'
// and servers' own coroutines. Parking a coroutine stack per queued
// extent again fails this gate: the peak is 14,982 frames here when every
// extent and RPC is a Task, 2,568 with records. Frame counts do not depend
// on the machine.
#include <gtest/gtest.h>

#include <string>

#include "harness/scenario.hpp"

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

}  // namespace
}  // namespace pfsc::harness
