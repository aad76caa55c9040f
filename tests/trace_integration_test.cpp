// End-to-end behaviour of the event-driven trace subsystem: every
// instrumented layer emits spans into an attached Recorder, the harness
// wires --trace through Scenario, tracing off is bit-for-bit invisible,
// and traced runs stay deterministic across ParallelRunner thread counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "lustre/client.hpp"
#include "lustre/fs.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"
#include "trace/telemetry.hpp"

namespace pfsc {
namespace {

using harness::Observation;
using harness::RunPlan;
using harness::Scenario;

std::size_t spans_in(const trace::Recorder& rec, trace::Cat cat) {
  std::size_t n = 0;
  for (const trace::Event& e : rec.events()) {
    if (e.cat == cat && (e.kind == trace::EventKind::span_begin ||
                         e.kind == trace::EventKind::span_end)) {
      ++n;
    }
  }
  return n;
}

TEST(TraceIntegration, EveryLayerEmitsSpans) {
  sim::Engine eng;
  // Small engine batch so dispatch spans show up in a short run.
  trace::Recorder rec(std::size_t{1} << 20, trace::kAllCats,
                      /*engine_sample_every=*/4);
  eng.set_recorder(&rec);
  lustre::FileSystem fs(eng, hw::cab_lscratchc(), /*seed=*/1);
  lustre::Client client(fs, "c0");

  eng.spawn([](lustre::FileSystem&, lustre::Client& c) -> sim::Task {
    lustre::StripeSettings settings;
    settings.stripe_count = 4;
    settings.stripe_size = 1_MiB;
    auto file = co_await c.create("/traced", settings);
    PFSC_ASSERT(file.ok());
    const auto e = co_await c.write(file.value, 0, 8_MiB);
    PFSC_ASSERT(e == lustre::Errno::ok);
  }(fs, client));
  eng.run();

  EXPECT_GE(spans_in(rec, trace::Cat::engine), 2u);
  EXPECT_GE(spans_in(rec, trace::Cat::link), 2u);
  EXPECT_GE(spans_in(rec, trace::Cat::disk), 2u);
  EXPECT_GE(spans_in(rec, trace::Cat::client), 2u);
  EXPECT_GE(spans_in(rec, trace::Cat::sched), 2u);

  // Events arrive in dispatch order, so per-track times are monotonic.
  std::vector<Seconds> last(rec.tracks().size(), -1.0);
  for (const trace::Event& e : rec.events()) {
    EXPECT_GE(e.t, last[e.track]);
    last[e.track] = e.t;
  }
  EXPECT_EQ(rec.dropped(), 0u);
}

Scenario small_multi() {
  Scenario s = Scenario::multi(2, 4);
  s.procs_per_node = 2;
  s.ior.block_size = 2_MiB;
  s.ior.transfer_size = 1_MiB;
  s.ior.segment_count = 2;
  s.ior.hints.striping_factor = 4;
  return s;
}

TEST(TraceIntegration, ScenarioFullTraceCoversAllLayers) {
  Scenario s = small_multi();
  s.trace.mode = trace::TraceMode::full;
  s.telemetry_interval = 0.5;
  const Observation obs = run_scenario(s, /*seed=*/3);
  EXPECT_TRUE(obs.traced);
  ASSERT_FALSE(obs.trace_json.empty());
  for (const char* cat : {"\"cat\":\"engine\"", "\"cat\":\"link\"",
                          "\"cat\":\"disk\"", "\"cat\":\"client\"",
                          "\"cat\":\"sched\"", "\"cat\":\"sampler\""}) {
    EXPECT_NE(obs.trace_json.find(cat), std::string::npos) << cat;
  }
  EXPECT_NE(obs.trace_json.find("write_rpc"), std::string::npos);
  EXPECT_EQ(obs.trace_summary.dropped_events, 0u);
}

TEST(TraceIntegration, PlfsWorkloadEmitsPlfsSpans) {
  Scenario s = Scenario::plfs_ior();
  s.nprocs = 4;
  s.procs_per_node = 2;
  s.ior.block_size = 1_MiB;
  s.ior.transfer_size = 1_MiB;
  s.ior.segment_count = 2;
  s.trace.mode = trace::TraceMode::full;
  const Observation obs = run_scenario(s, /*seed=*/3);
  EXPECT_TRUE(obs.traced);
  EXPECT_NE(obs.trace_json.find("\"cat\":\"plfs\""), std::string::npos);
}

TEST(TraceIntegration, SummaryMatchesSchedulerAccounting) {
  Scenario s = small_multi();
  s.trace.mode = trace::TraceMode::summary;
  const Observation obs = run_scenario(s, /*seed=*/5);
  EXPECT_TRUE(obs.traced);
  // Summary mode records no full-trace JSON.
  EXPECT_TRUE(obs.trace_json.empty());
  // Each job pushed nprocs * block_size * segment_count bytes through the
  // OSS schedulers; the summary reads FileSystem::sched_* directly.
  const Bytes expected = static_cast<Bytes>(s.nprocs) * s.ior.block_size *
                         s.ior.segment_count;
  ASSERT_EQ(obs.trace_summary.job_bytes.size(), 2u);
  for (const auto& [job, bytes] : obs.trace_summary.job_bytes) {
    EXPECT_EQ(bytes, expected) << "job " << job;
  }
  EXPECT_NEAR(obs.trace_summary.jain, 1.0, 1e-12);
  EXPECT_EQ(obs.trace_summary.ost_bytes.size(),
            s.platform.ost_count);
  Bytes on_disks = 0;
  for (const Bytes b : obs.trace_summary.ost_bytes) on_disks += b;
  EXPECT_EQ(on_disks, 2 * expected);
}

TEST(TraceIntegration, SummaryQueueDepthDoesNotDependOnTheBuffer) {
  // Two service slots per OSS under job_fair, so requests really queue. The
  // schedulers integrate their own depth, so a buffer that keeps only 64
  // events gives the same mean as an unbounded one.
  Scenario s = small_multi();
  s.platform.oss_sched_policy = lustre::sched::SchedPolicy::job_fair;
  s.platform.oss_sched.service_slots = 2;
  s.trace.mode = trace::TraceMode::full;
  const Observation whole = run_scenario(s, /*seed=*/5);
  ASSERT_EQ(whole.trace_summary.dropped_events, 0u);
  s.trace.capacity = 64;
  const Observation prefix = run_scenario(s, /*seed=*/5);
  ASSERT_GT(prefix.trace_summary.dropped_events, 0u);
  EXPECT_GT(whole.trace_summary.mean_queue_depth, 0.0);
  EXPECT_EQ(prefix.trace_summary.mean_queue_depth,
            whole.trace_summary.mean_queue_depth);
  // The time-weighted mean of the recorded `queue` counters, summed over
  // the OSS tracks of this run's unbounded buffer.
  EXPECT_NEAR(whole.trace_summary.mean_queue_depth, 5.6049733390902308,
              1e-12 * 5.6049733390902308);
}

TEST(TraceIntegration, FifoSummaryShowsTheWaitInTheDiskQueues) {
  // FIFO grants inside the submitting instant, so the OSS queues never
  // hold a request over time; the waiting happens in the disk elevators.
  Scenario s = small_multi();
  s.trace.mode = trace::TraceMode::summary;
  for (const std::uint64_t seed : {5u, 13u}) {
    const Observation obs = run_scenario(s, seed);
    EXPECT_EQ(obs.trace_summary.mean_queue_depth, 0.0) << "seed " << seed;
    EXPECT_GT(obs.trace_summary.mean_disk_queue_depth, 0.0) << "seed " << seed;
  }
}

TEST(TraceIntegration, TracingOffIsInvisible) {
  const Scenario off = small_multi();
  Scenario full = small_multi();
  full.trace.mode = trace::TraceMode::full;
  full.telemetry_interval = 0.5;

  const Observation obs_off = run_scenario(off, /*seed=*/7);
  const Observation obs_full = run_scenario(full, /*seed=*/7);

  EXPECT_FALSE(obs_off.traced);
  EXPECT_TRUE(obs_off.trace_json.empty());
  // Bit-for-bit: identical timings and metrics with and without tracing.
  EXPECT_EQ(obs_off.metric, obs_full.metric);
  EXPECT_EQ(obs_off.total_mbps, obs_full.total_mbps);
  ASSERT_EQ(obs_off.per_job.size(), obs_full.per_job.size());
  for (std::size_t j = 0; j < obs_off.per_job.size(); ++j) {
    EXPECT_EQ(obs_off.per_job[j].write_time, obs_full.per_job[j].write_time);
    EXPECT_EQ(obs_off.per_job[j].write_mbps, obs_full.per_job[j].write_mbps);
  }
}

TEST(TraceIntegration, TraceIdenticalAcrossRunnerThreadCounts) {
  Scenario s = small_multi();
  s.trace.mode = trace::TraceMode::full;
  RunPlan plan;
  plan.repetitions(4);
  const auto one = harness::ParallelRunner(1).run(s, plan);
  const auto eight = harness::ParallelRunner(8).run(s, plan);
  ASSERT_EQ(one.point(0).reps.size(), 4u);
  ASSERT_EQ(eight.point(0).reps.size(), 4u);
  for (std::size_t rep = 0; rep < 4; ++rep) {
    const Observation& a = one.point(0).reps[rep];
    const Observation& b = eight.point(0).reps[rep];
    ASSERT_FALSE(a.trace_json.empty());
    // Byte-identical trace output regardless of worker-thread count.
    EXPECT_EQ(a.trace_json, b.trace_json) << "rep " << rep;
    EXPECT_EQ(a.metric, b.metric);
  }
}

TEST(TraceIntegration, CategoryMaskDropsOnlyTheMaskedLayer) {
  // A category mask that leaves out Cat::engine records every other layer
  // in full, with nothing dropped and no engine spans.
  Scenario s = small_multi();
  s.trace.mode = trace::TraceMode::full;
  s.trace.categories = trace::kAllCats & ~trace::cat_bit(trace::Cat::engine);
  const Observation obs = run_scenario(s, /*seed=*/13);
  ASSERT_FALSE(obs.trace_json.empty());
  EXPECT_EQ(obs.trace_summary.dropped_events, 0u);
  for (const char* cat : {"\"cat\":\"link\"", "\"cat\":\"disk\"",
                          "\"cat\":\"client\"", "\"cat\":\"sched\""}) {
    EXPECT_NE(obs.trace_json.find(cat), std::string::npos) << cat;
  }
  EXPECT_EQ(obs.trace_json.find("\"name\":\"dispatch\""), std::string::npos);
}

/// FNV-1a over the bytes, for pinning an exporter's output compactly.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(TraceIntegration, FullTraceBytesArePinned) {
  // The exact bytes run_scenario exports for a small traced quartet-style
  // run: name-sorted tracks, async ids numbered by first appearance, and
  // the counters CSV written through --trace_out. Any change to the
  // exporters or to what the layers record shows up here.
  ior::Config cfg;
  cfg.block_size = 2_MiB;
  cfg.segment_count = 4;
  cfg.hints.striping_factor = 4;
  Scenario s = Scenario::multi(2, 16, cfg);
  s.trace.mode = trace::TraceMode::full;
  s.telemetry_interval = 0.01;
  s.trace.out = ::testing::TempDir() + "trace_pin_{seed}.csv";
  const Observation obs = run_scenario(s, /*seed=*/17);
  std::ifstream in(trace::resolve_trace_path(s.trace.out, 17),
                   std::ios::binary);
  std::ostringstream csv;
  csv << in.rdbuf();

  EXPECT_EQ(obs.trace_summary.dropped_events, 0u);
  EXPECT_EQ(obs.trace_json.size(), 930582u);
  EXPECT_EQ(fnv1a(obs.trace_json), 12314053825395504786ull);
  EXPECT_EQ(csv.str().size(), 143299u);
  EXPECT_EQ(fnv1a(csv.str()), 2791614697388237533ull);
}

// The three legacy single-route shapes, pinned the same way: a Fig. 2
// probe with background noise, one IOR job at "/" with noise, and one
// ad_plfs job. Their exported bytes depend on every event each run makes,
// so any change to how a lone job or the probe is started shows up here.
struct TracePin {
  std::size_t size;
  std::uint64_t hash;
};

TracePin full_trace_pin(Scenario s, std::uint64_t seed) {
  s.trace.mode = trace::TraceMode::full;
  const Observation obs = run_scenario(s, seed);
  EXPECT_EQ(obs.trace_summary.dropped_events, 0u);
  return {obs.trace_json.size(), fnv1a(obs.trace_json)};
}

TEST(TraceIntegration, ProbeTraceBytesArePinned) {
  Scenario s = Scenario::probe(4, 4_MiB);
  s.add_noise(2, 16_MiB);
  const TracePin pin = full_trace_pin(s, /*seed=*/23);
  EXPECT_EQ(pin.size, 154804u);
  EXPECT_EQ(pin.hash, 15874259520775555259ull);
}

TEST(TraceIntegration, SingleJobTraceBytesArePinned) {
  ior::Config cfg;
  cfg.segment_count = 2;
  cfg.hints.striping_factor = 8;
  Scenario s = Scenario::single_ior(cfg);
  s.nprocs = 16;
  s.add_noise(3, 16_MiB);
  s.telemetry_interval = 0.01;
  const TracePin pin = full_trace_pin(s, /*seed=*/29);
  EXPECT_EQ(pin.size, 628813u);
  EXPECT_EQ(pin.hash, 10635939910084507276ull);
}

TEST(TraceIntegration, PlfsJobTraceBytesArePinned) {
  ior::Config cfg;
  cfg.segment_count = 2;
  Scenario s = Scenario::plfs_ior(cfg);
  s.nprocs = 16;
  s.telemetry_interval = 0.01;
  const TracePin pin = full_trace_pin(s, /*seed=*/31);
  EXPECT_EQ(pin.size, 573020u);
  EXPECT_EQ(pin.hash, 9082173965740537563ull);
}

TEST(TraceIntegration, ValidateRejectsInconsistentTraceConfig) {
  Scenario s = small_multi();
  s.trace.out = "trace.json";  // out without a mode
  EXPECT_THROW(s.validate(), UsageError);

  Scenario p = Scenario::probe(2, 4_MiB);
  p.trace.mode = trace::TraceMode::full;
  p.telemetry_interval = 0.01;  // the probe hosts the sampler too
  EXPECT_NO_THROW(p.validate());
  const Observation probe = run_scenario(p, 3);
  EXPECT_NE(probe.trace_json.find("fabric_util"), std::string::npos);

  Scenario neg = small_multi();
  neg.trace.mode = trace::TraceMode::full;
  neg.telemetry_interval = -1.0;
  EXPECT_THROW(neg.validate(), UsageError);
}

TEST(TraceIntegration, EnvironmentOverrideEnablesTracing) {
  ::setenv("PFSC_TRACE", "summary", 1);
  const Observation obs = run_scenario(small_multi(), /*seed=*/11);
  ::unsetenv("PFSC_TRACE");
  EXPECT_TRUE(obs.traced);
  EXPECT_TRUE(obs.trace_json.empty());  // summary: no JSON
  EXPECT_FALSE(obs.trace_summary.job_bytes.empty());

  ::setenv("PFSC_TRACE", "nonsense", 1);
  EXPECT_THROW(run_scenario(small_multi(), 11), UsageError);
  ::unsetenv("PFSC_TRACE");

  // PFSC_TRACE_INTERVAL sets telemetry_interval, the run's one sampler,
  // when the environment turns tracing on; an interval set in code wins.
  ::setenv("PFSC_TRACE_INTERVAL", "0.001", 1);
  ::setenv("PFSC_TRACE", "summary", 1);
  const Observation sampled = run_scenario(small_multi(), 11);
  Scenario coded = small_multi();
  coded.telemetry_interval = 0.002;
  const Observation kept = run_scenario(coded, 11);
  ::unsetenv("PFSC_TRACE");
  // Without PFSC_TRACE the interval alone changes nothing.
  const Observation quiet = run_scenario(small_multi(), 11);
  ::unsetenv("PFSC_TRACE_INTERVAL");
  ASSERT_GE(sampled.bandwidth.size(), 2u);
  EXPECT_DOUBLE_EQ(sampled.bandwidth.at[0], 0.001);
  ASSERT_GE(kept.bandwidth.size(), 2u);
  EXPECT_DOUBLE_EQ(kept.bandwidth.at[0], 0.002);
  EXPECT_FALSE(quiet.traced);
  EXPECT_EQ(quiet.bandwidth.size(), 0u);
}

TEST(SamplerStop, WatchLeavesNoPendingWakeup) {
  sim::Engine eng;
  trace::Sampler sampler(eng, /*interval=*/1.0);
  sampler.add_probe("one", [] { return 1.0; });
  bool working = true;
  sampler.watch([&working] { return working; });
  sampler.start();
  eng.spawn([](sim::Engine& e, bool& w) -> sim::Task {
    co_await e.delay(2.5);
    w = false;
  }(eng, working));
  eng.run();
  // Ticks at t=0,1,2,3; the t=3 tick sees the work done and arms no
  // further wakeup, so the engine drains there instead of ticking on.
  EXPECT_EQ(sampler.series(0).size(), 4u);
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);
}

TEST(ProbeLifetime, LivenessTokenExpiresWithFileSystem) {
  sim::Engine eng;
  std::weak_ptr<const void> token;
  {
    lustre::FileSystem fs(eng, hw::cab_lscratchc(), /*seed=*/1);
    token = fs.liveness();
    EXPECT_FALSE(token.expired());
  }
  EXPECT_TRUE(token.expired());
}

}  // namespace
}  // namespace pfsc
