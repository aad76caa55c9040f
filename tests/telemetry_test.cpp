// Tests for the telemetry sampler: tick cadence, probe packs, bandwidth
// differentiation, CSV export and lifetime bounds.
#include <gtest/gtest.h>

#include "lustre/client.hpp"
#include "trace/telemetry.hpp"

namespace pfsc::trace {
namespace {

TEST(Sampler, TicksAtInterval) {
  sim::Engine eng;
  Sampler sampler(eng, 1.0);
  int calls = 0;
  sampler.add_probe("calls", [&] { return static_cast<double>(++calls); });
  sampler.watch([&] { return calls < 5; });
  sampler.start();
  eng.run();
  const Series& s = sampler.series(0);
  ASSERT_EQ(s.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(s.at[i], static_cast<double>(i));
  }
  EXPECT_EQ(calls, 5);
}

TEST(Sampler, WatchPredicateStopsSampling) {
  sim::Engine eng;
  Sampler sampler(eng, 1.0);
  int remaining = 3;
  sampler.add_probe("x", [] { return 0.0; });
  sampler.watch([&] { return --remaining > 0; });
  sampler.start();
  eng.run();
  EXPECT_EQ(sampler.series(0).size(), 3u);
}

// The watch is how sampling ends: here it reads state another process
// changes, and the sampler ends at the first tick after the change.
TEST(Sampler, StopEndsEarly) {
  sim::Engine eng;
  Sampler sampler(eng, 1.0);
  sampler.add_probe("x", [] { return 1.0; });
  bool working = true;
  sampler.watch([&] { return working; });
  sampler.start();
  eng.spawn([](sim::Engine& e, bool& w) -> sim::Task {
    co_await e.delay(2.5);
    w = false;
  }(eng, working));
  eng.run();
  EXPECT_EQ(sampler.series(0).size(), 4u);  // t = 0, 1, 2, 3
}

TEST(Sampler, RegistrationAfterStartRejected) {
  sim::Engine eng;
  Sampler sampler(eng, 1.0);
  sampler.add_probe("x", [] { return 0.0; });
  sampler.watch([] { return false; });
  sampler.start();
  EXPECT_THROW(sampler.add_probe("y", [] { return 0.0; }), UsageError);
  EXPECT_THROW(sampler.start(), UsageError);
  eng.run();
}

TEST(Sampler, BandwidthTimelineDifferentiates) {
  Series cumulative;
  cumulative.name = "bytes";
  cumulative.at = {0.0, 1.0, 2.0, 3.0};
  cumulative.value = {0.0, 1e6, 3e6, 3e6};
  const Series bw = Sampler::bandwidth_timeline(cumulative);
  ASSERT_EQ(bw.size(), 3u);
  EXPECT_DOUBLE_EQ(bw.value[0], 1.0);  // 1 MB in 1 s
  EXPECT_DOUBLE_EQ(bw.value[1], 2.0);
  EXPECT_DOUBLE_EQ(bw.value[2], 0.0);
  EXPECT_EQ(bw.name, "bytes_mbps");
}

TEST(Sampler, CsvHasHeaderAndRows) {
  // Every tick reaches the counters CSV through the engine's recorder.
  sim::Engine eng;
  Recorder rec(1024, cat_bit(Cat::sampler));
  eng.set_recorder(&rec);
  Sampler sampler(eng, 1.0);
  sampler.add_probe("a", [] { return 1.5; });
  sampler.add_probe("b", [] { return 2.5; });
  sampler.watch([&eng] { return eng.now() < 1.0; });  // ticks at t = 0, 1
  sampler.start();
  eng.run();
  const std::string csv = export_counters_csv(rec);
  EXPECT_EQ(csv.rfind("time,track,name,value\n", 0), 0u);
  EXPECT_NE(csv.find("0,sampler,a,1.5\n"), std::string::npos);
  EXPECT_NE(csv.find("0,sampler,b,2.5\n"), std::string::npos);
  EXPECT_NE(csv.find("1,sampler,a,1.5\n"), std::string::npos);
  EXPECT_NE(csv.find("1,sampler,b,2.5\n"), std::string::npos);
}

TEST(Sampler, ObservesRealWorkload) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 3);
  lustre::Client client(fs, "c");
  Sampler sampler(eng, 0.05);
  const auto bytes_idx = sampler.add_instruments(
      trace::total_bytes_instruments(fs), fs.liveness());
  bool writing = true;
  sampler.watch([&] { return writing; });
  sampler.start();
  eng.spawn([](lustre::Client& c, bool& writing) -> sim::Task {
    auto f = co_await c.create("/f", lustre::StripeSettings{1, 1_MiB, 0});
    PFSC_ASSERT(f.ok());
    for (int i = 0; i < 32; ++i) {
      PFSC_ASSERT(co_await c.write(f.value, static_cast<Bytes>(i) * 1_MiB, 1_MiB) ==
                  lustre::Errno::ok);
    }
    writing = false;
  }(client, writing));
  eng.run();
  const Series& bytes = sampler.series(bytes_idx);
  ASSERT_GE(bytes.size(), 3u);
  // Monotone non-decreasing cumulative counter ending at 32 MiB.
  for (std::size_t i = 1; i < bytes.size(); ++i) {
    EXPECT_GE(bytes.value[i], bytes.value[i - 1]);
  }
  EXPECT_DOUBLE_EQ(bytes.value.back(), static_cast<double>(32_MiB));
  // The derived bandwidth timeline has positive mass.
  const Series bw = Sampler::bandwidth_timeline(bytes);
  double peak = 0.0;
  for (double v : bw.value) peak = std::max(peak, v);
  EXPECT_GT(peak, 0.0);
}

TEST(Sampler, LinkProbePacksCoverBothPolicies) {
  for (const auto policy :
       {sim::LinkPolicy::fifo, sim::LinkPolicy::fair_share}) {
    sim::Engine eng;
    auto params = hw::tiny_test_platform();
    params.link_policy = policy;
    lustre::FileSystem fs(eng, params, 3);
    lustre::Client client(fs, "c");
    // Each 4 MiB OSS transfer lasts ~5 ms on the tiny platform; sample
    // well below that so ticks land inside in-flight windows.
    Sampler sampler(eng, 0.5e-3);
    const auto fabric_idx = sampler.add_instruments(
        trace::link_instruments("fabric", fs.fabric()), fs.liveness());
    const auto oss_idx = sampler.add_instruments(
        trace::link_instruments("oss0", fs.oss_pipe(0)), fs.liveness());
    bool writing = true;
    sampler.watch([&] { return writing; });
    sampler.start();
    eng.spawn([](lustre::Client& c, bool& writing) -> sim::Task {
      auto f = co_await c.create("/f", lustre::StripeSettings{1, 1_MiB, 0});
      PFSC_ASSERT(f.ok());
      PFSC_ASSERT(co_await c.write(f.value, 0, 16_MiB) == lustre::Errno::ok);
      writing = false;
    }(client, writing));
    eng.run();
    // Three series each, in registration order: flows, flow_mbps, util.
    EXPECT_EQ(sampler.series(fabric_idx).name, "fabric_flows");
    EXPECT_EQ(sampler.series(fabric_idx + 1).name, "fabric_flow_mbps");
    EXPECT_EQ(sampler.series(fabric_idx + 2).name, "fabric_util");
    EXPECT_EQ(sampler.series(oss_idx).name, "oss0_flows");
    // The workload must have been visible on every registered series: a
    // positive flow count and flow rate at some tick, and a utilisation
    // that ends positive and never exceeds 1.
    const char* what = link_policy_name(policy);
    double max_flows = 0.0;
    double max_rate = 0.0;
    for (std::size_t i = 0; i < sampler.series(oss_idx).size(); ++i) {
      max_flows = std::max(max_flows, sampler.series(oss_idx).value[i]);
      max_rate = std::max(max_rate, sampler.series(oss_idx + 1).value[i]);
    }
    EXPECT_GE(max_flows, 1.0) << what;
    EXPECT_GT(max_rate, 0.0) << what;
    const auto& util = sampler.series(oss_idx + 2).value;
    ASSERT_FALSE(util.empty());
    EXPECT_GT(util.back(), 0.0) << what;
    for (double u : util) EXPECT_LE(u, 1.0 + 1e-12) << what;
  }
}

}  // namespace
}  // namespace pfsc::trace
