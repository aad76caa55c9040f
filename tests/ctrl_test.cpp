// Control-plane tests: PFL size-class layouts, the runtime setters the
// controller calls (set_pfl / set_placement / Scheduler::set_tuning), the
// t=0 create-burst demand fix, and the adaptive Controller end-to-end
// through the harness — including the contract that --ctrl off constructs
// nothing and leaves every report untouched.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ctrl/controller.hpp"
#include "harness/scenario.hpp"
#include "hw/platform.hpp"
#include "lustre/client.hpp"
#include "lustre/fs.hpp"
#include "lustre/pfl.hpp"
#include "replay/analytics.hpp"
#include "sim/task.hpp"

namespace pfsc {
namespace {

// -- PflSpec -----------------------------------------------------------------

lustre::PflSpec small_medium_wide() {
  lustre::PflSpec spec;
  spec.classes = {{16_MiB, 1}, {256_MiB, 2}};
  spec.wide = 8;
  return spec;
}

TEST(PflSpec, ChoosesBySizeClass) {
  const lustre::PflSpec spec = small_medium_wide();
  EXPECT_FALSE(spec.empty());
  EXPECT_EQ(spec.choose(1_MiB), 1u);
  EXPECT_EQ(spec.choose(16_MiB), 1u);   // boundary is inclusive
  EXPECT_EQ(spec.choose(17_MiB), 2u);
  EXPECT_EQ(spec.choose(256_MiB), 2u);
  EXPECT_EQ(spec.choose(1_GiB), 8u);    // beyond every class: wide
}

TEST(PflSpec, EmptySpecIsEmpty) {
  const lustre::PflSpec spec;
  EXPECT_TRUE(spec.empty());
  EXPECT_EQ(spec.choose(1_GiB), 0u);  // 0 = platform default
}

TEST(PflSpec, ValidateRejectsBadTables) {
  lustre::PflSpec spec = small_medium_wide();
  EXPECT_NO_THROW(spec.validate());
  spec.classes[1].up_to = 1_MiB;  // not ascending
  EXPECT_THROW(spec.validate(), UsageError);
  spec = small_medium_wide();
  spec.classes[0].stripe_count = 0;  // a class must pick a real width
  EXPECT_THROW(spec.validate(), UsageError);
}

// -- FileSystem runtime setters ---------------------------------------------

TEST(CtrlFs, PflShapesDefaultedCreates) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 1);
  fs.set_pfl(small_medium_wide());
  lustre::Client client(fs, "c");
  eng.spawn([](lustre::FileSystem& fs, lustre::Client& c) -> sim::Task {
    // Defaulted stripe count + a size hint: the PFL table decides.
    lustre::StripeSettings small{0, 1_MiB};
    small.size_hint = 8_MiB;
    auto f = co_await c.create("/small", small);
    PFSC_ASSERT(f.ok());
    EXPECT_EQ(fs.inode(f.value).layout.stripe_count(), 1u);

    lustre::StripeSettings big{0, 1_MiB};
    big.size_hint = 1_GiB;
    f = co_await c.create("/big", big);
    PFSC_ASSERT(f.ok());
    EXPECT_EQ(fs.inode(f.value).layout.stripe_count(), 8u);

    // An explicit stripe count always wins over the table.
    lustre::StripeSettings pinned{3, 1_MiB};
    pinned.size_hint = 1_GiB;
    f = co_await c.create("/pinned", pinned);
    PFSC_ASSERT(f.ok());
    EXPECT_EQ(fs.inode(f.value).layout.stripe_count(), 3u);

    // No size hint: the platform default applies, as before PFL existed.
    f = co_await c.create("/unhinted", lustre::StripeSettings{0, 1_MiB});
    PFSC_ASSERT(f.ok());
    EXPECT_EQ(fs.inode(f.value).layout.stripe_count(),
              fs.params().default_stripe_count);
  }(fs, client));
  eng.run();
}

TEST(CtrlFs, SetPflValidates) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 1);
  lustre::PflSpec bad = small_medium_wide();
  bad.classes[0].stripe_count = 0;
  EXPECT_THROW(fs.set_pfl(bad), UsageError);
}

TEST(CtrlFs, SetPlacementAffectsLaterAllocations) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 7);
  fs.set_placement(lustre::PlacementKind::load_aware);
  lustre::Client client(fs, "c");
  eng.spawn([](lustre::FileSystem& fs, lustre::Client& c) -> sim::Task {
    for (int i = 0; i < 16; ++i) {
      auto f = co_await c.create("/f" + std::to_string(i),
                                 lustre::StripeSettings{1, 1_MiB});
      PFSC_ASSERT(f.ok());
    }
    // 16 single-stripe files over 8 OSTs under least-demand placement:
    // perfectly level.
    for (const std::uint64_t n : fs.objects_per_ost()) EXPECT_EQ(n, 2u);
  }(fs, client));
  eng.run();
}

// Regression for the t=0 create-burst demand bug: creates that overlap the
// same MDS service window must see each other's demand increments, or
// least-demand placement sees an all-zero table and stacks the whole burst
// onto the same OSTs. All 16 creates below are issued at t=0, well inside
// one mds_create_time, so this only balances if demand is charged *before*
// the MDS wait.
TEST(CtrlFs, SimultaneousCreatesSeeEachOthersDemand) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 7);
  fs.set_placement(lustre::PlacementKind::load_aware);
  lustre::Client client(fs, "c");
  for (int i = 0; i < 16; ++i) {
    eng.spawn([](lustre::Client& c, int i) -> sim::Task {
      auto f = co_await c.create("/burst" + std::to_string(i),
                                 lustre::StripeSettings{1, 1_MiB});
      PFSC_ASSERT(f.ok());
    }(client, i));
  }
  eng.run();
  for (const std::uint64_t n : fs.objects_per_ost()) EXPECT_EQ(n, 2u);
}

// -- Controller --------------------------------------------------------------

sim::Task finish_at(sim::Engine& eng, Seconds t, bool* done) {
  co_await eng.delay(t);
  *done = true;
}

TEST(Controller, TicksUntilTheRunEndsPastAHundredThousandTicks) {
  // The watch predicate is the controller's only stop condition: a run
  // needing 150,000 ticks gets all of them, not a truncated prefix.
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 1);
  ctrl::CtrlConfig cfg;
  cfg.mode = ctrl::CtrlMode::qos;
  cfg.interval = 1.0e-6;
  ctrl::Controller controller(eng, cfg, fs);
  bool done = false;
  eng.spawn(finish_at(eng, 0.15, &done));
  controller.watch([&done] { return !done; });
  controller.start();
  eng.run();
  EXPECT_TRUE(done);
  EXPECT_GT(controller.ticks(), 100000u);
  EXPECT_GE(static_cast<double>(controller.ticks() + 1) * cfg.interval,
            0.15 - 1.0e-9);
}

TEST(Controller, RejectsBadConfig) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 1);
  ctrl::CtrlConfig cfg;
  cfg.mode = ctrl::CtrlMode::off;  // off means "construct nothing"
  EXPECT_THROW(ctrl::Controller(eng, cfg, fs), UsageError);
  cfg.mode = ctrl::CtrlMode::pfl;
  cfg.interval = 0.0;
  EXPECT_THROW(ctrl::Controller(eng, cfg, fs), UsageError);
}

TEST(Controller, QosTightenHalvesEveryOssTuning) {
  // A jain_low above the index's maximum of 1.0 reads every tick as
  // unfair, so the first tick tightens and nothing restores.
  sim::Engine eng;
  hw::PlatformParams p = hw::tiny_test_platform();
  p.oss_sched_policy = lustre::sched::SchedPolicy::job_fair;
  lustre::FileSystem fs(eng, p, 1);
  ctrl::CtrlConfig cfg;
  cfg.mode = ctrl::CtrlMode::qos;
  cfg.interval = 0.001;
  cfg.jain_low = 1.01;
  cfg.jain_high = 1.01;
  ctrl::Controller controller(eng, cfg, fs);
  bool done = false;
  eng.spawn(finish_at(eng, 0.005, &done));
  controller.watch([&done] { return !done; });
  controller.start();
  eng.run();
  ASSERT_EQ(controller.actions().size(), 1u);
  EXPECT_EQ(controller.actions().front().endpoint, "oss_sched");
  EXPECT_EQ(controller.actions().front().rule, "qos_tighten");
  ASSERT_EQ(fs.params().oss_count, 2u);
  for (std::uint32_t oss = 0; oss < fs.params().oss_count; ++oss) {
    const lustre::sched::SchedTuning& t = fs.oss_sched(oss).tuning();
    EXPECT_EQ(t.quantum, 2_MiB) << "oss " << oss;
    EXPECT_EQ(t.service_slots, 32u) << "oss " << oss;
    EXPECT_EQ(t.job_rate, mb_per_sec(75.0)) << "oss " << oss;
    EXPECT_EQ(t.bucket_depth, 8_MiB) << "oss " << oss;
  }
}

/// A staggered fleet long enough for the controller to see both the calm
/// single-job phase and the multi-job storm.
harness::Scenario storm_fleet() {
  std::vector<harness::JobSpec> jobs;
  for (int j = 0; j < 3; ++j) {
    harness::JobSpec spec;
    spec.kind = harness::JobKind::ior;
    spec.job_id = static_cast<std::uint32_t>(j);
    spec.nprocs = 16;
    spec.arrival = j == 0 ? 0.0 : 0.02 * j;
    spec.ior.segment_count = 4;
    spec.ior.hints.driver = mpiio::Driver::ad_lustre;
    spec.ior.hints.striping_unit = 1_MiB;  // striping_factor stays 0: PFL
    spec.ior.test_file = "/fleet/storm.dat." + std::to_string(j);
    jobs.push_back(spec);
  }
  harness::Scenario s = harness::Scenario::from_jobs(std::move(jobs));
  s.procs_per_node = 16;
  s.ctrl.mode = ctrl::CtrlMode::pfl;
  s.ctrl.interval = 0.005;
  s.ctrl.cooldown = 0.01;
  return s;
}

TEST(Controller, PflRuleArmsCalmThenDetectsStorm) {
  const harness::Observation obs = harness::run_scenario(storm_fleet(), 0xC791);
  EXPECT_EQ(obs.ctrl_mode, ctrl::CtrlMode::pfl);
  ASSERT_FALSE(obs.ctrl_actions.empty());
  // The calm baseline is armed synchronously at start, before any create.
  EXPECT_EQ(obs.ctrl_actions.front().rule, "pfl_calm");
  EXPECT_EQ(obs.ctrl_actions.front().at, 0.0);
  bool saw_storm = false;
  for (const ctrl::CtrlAction& a : obs.ctrl_actions) {
    if (a.rule == "pfl_storm") saw_storm = true;
  }
  EXPECT_TRUE(saw_storm) << "3 overlapping jobs never read as a storm";
}

// Regression for the inert-cooldown bug: act() used to record timestamps
// under per-action rule names ("pfl_storm", "pfl_calm", ...) while
// in_cooldown() queried family keys ("pfl", ...), so the keys never
// matched and the storm re-divide path could retune on every tick. Each
// endpoint is driven by exactly one rule family, so grouping by endpoint
// groups by family: two actions on the same endpoint must never be closer
// than the configured cooldown.
TEST(Controller, CooldownSpacesSameFamilyActions) {
  harness::Scenario s = storm_fleet();
  // Wider than the natural calm->storm gap (~0.045s at this seed), so the
  // cooldown must actually delay the storm action for the run to pass.
  s.ctrl.cooldown = 0.1;
  const harness::Observation obs = harness::run_scenario(s, 0xC791);
  ASSERT_GE(obs.ctrl_actions.size(), 2u);
  std::map<std::string, Seconds> last;
  std::size_t same_family_pairs = 0;
  for (const ctrl::CtrlAction& a : obs.ctrl_actions) {
    const auto it = last.find(a.endpoint);
    if (it != last.end()) {
      ++same_family_pairs;
      EXPECT_GE(a.at - it->second, s.ctrl.cooldown)
          << a.rule << " at t=" << a.at << " only "
          << a.at - it->second << "s after the previous "
          << a.endpoint << " action";
    }
    last[a.endpoint] = a.at;
  }
  // The run must actually exercise the spacing, not pass vacuously.
  EXPECT_GT(same_family_pairs, 0u);
}

/// FNV-1a over the bytes, for pinning a report compactly.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// The decisions of a --ctrl full run under job_fair, in which the pfl,
// qos and placement rule families all act, and the fleet report they
// produce. A fourth job arrives during the storm, so its file takes the
// storm layout, and four service slots per OSS make the halved tuning
// bind: the report changes if any rule's setter does not take effect.
TEST(Controller, FullModeDecisionsArePinned) {
  harness::Scenario s = storm_fleet();
  harness::JobSpec late = s.job_list.back();
  late.job_id = 3;
  late.arrival = 0.1;
  late.ior.test_file = "/fleet/storm.dat.3";
  s.job_list.push_back(late);
  s.platform.oss_sched_policy = lustre::sched::SchedPolicy::job_fair;
  s.platform.oss_sched.service_slots = 4;
  s.ctrl.mode = ctrl::CtrlMode::full;
  const harness::Observation obs = harness::run_scenario(s, 0xC791);
  const std::vector<ctrl::CtrlAction> want = {
      {0, "pfl", "pfl_calm", "wide layouts for new files"},
      {0.0050000000000000001, "placement", "rebalance",
       "load_aware placement: imbalance 12"},
      {0.044999999999999998, "pfl", "pfl_storm",
       "narrow layouts: 160 stripes for 2 writers"},
      {0.044999999999999998, "oss_sched", "qos_tighten",
       "tightened: jain 0.64 < 0.85"},
      {0.11000000000000003, "oss_sched", "qos_restore",
       "restored baseline: jain 0.952435 > 0.95"},
      {0.12500000000000003, "pfl", "pfl_storm",
       "re-divided: 120 stripes for 4 writers"},
      {0.12500000000000003, "oss_sched", "qos_tighten",
       "tightened: jain 0.751366 < 0.85"},
      {0.22000000000000011, "oss_sched", "qos_restore",
       "restored baseline: jain 0.951167 > 0.95"},
      {0.67000000000000048, "pfl", "pfl_storm",
       "re-divided: 160 stripes for 3 writers"},
      {0.71500000000000052, "pfl", "pfl_calm", "wide layouts for new files"},
  };
  ASSERT_EQ(obs.ctrl_actions.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const ctrl::CtrlAction& got = obs.ctrl_actions[i];
    EXPECT_EQ(got.at, want[i].at) << "action " << i;
    EXPECT_EQ(got.endpoint, want[i].endpoint) << "action " << i;
    EXPECT_EQ(got.rule, want[i].rule) << "action " << i;
    EXPECT_EQ(got.detail, want[i].detail) << "action " << i;
  }
  const std::string json = replay::analyze_fleet(obs, s.platform).to_json();
  EXPECT_EQ(json.size(), 2255u);
  EXPECT_EQ(fnv1a(json), 3317413160237193925ull);
}

// Regression for the storm spec that dropped the calm 256 MiB class: on
// cab_lscratchc a 2-writer storm striped 16-256 MiB files over 160 OSTs
// instead of the calm 40. A storm may only narrow a layout.
TEST(Controller, StormNeverStripesAClassWiderThanCalm) {
  const hw::PlatformParams p = hw::cab_lscratchc();
  const lustre::PflSpec calm = ctrl::calm_spec(p);
  for (std::size_t writers = 1; writers <= 16; ++writers) {
    const lustre::PflSpec storm = ctrl::storm_spec(p, writers);
    storm.validate();
    for (const Bytes size : {1_MiB, 16_MiB, 64_MiB, 256_MiB, 1_GiB, 64_GiB}) {
      EXPECT_LE(storm.choose(size), calm.choose(size))
          << writers << " writers, " << size << " bytes";
    }
  }
  EXPECT_EQ(ctrl::storm_spec(p, 2).choose(64_MiB), 40u);
  EXPECT_EQ(ctrl::storm_spec(p, 16).choose(64_MiB), 30u);
}

TEST(Controller, FleetReportCarriesAdaptationBlock) {
  const harness::Scenario s = storm_fleet();
  const harness::Observation obs = harness::run_scenario(s, 0xC791);
  const replay::FleetReport report = replay::analyze_fleet(obs, s.platform);
  EXPECT_TRUE(report.has_adaptation);
  EXPECT_EQ(report.ctrl_mode, "pfl");
  EXPECT_EQ(report.adaptations.size(), obs.ctrl_actions.size());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"adaptation\":{\"mode\":\"pfl\""), std::string::npos);
  EXPECT_NE(report.format_table().find("adaptation: mode pfl"),
            std::string::npos);
}

// The null contract: --ctrl off constructs no controller, adds no engine
// events, records no trace track, and emits no adaptation block — reports
// are indistinguishable from a build that predates the control plane.
TEST(Controller, OffModeIsInvisible) {
  harness::Scenario s = storm_fleet();
  s.ctrl = ctrl::CtrlConfig{};  // mode = off
  s.trace.mode = trace::TraceMode::full;
  const harness::Observation obs = harness::run_scenario(s, 0xC792);
  EXPECT_EQ(obs.ctrl_mode, ctrl::CtrlMode::off);
  EXPECT_TRUE(obs.ctrl_actions.empty());
  ASSERT_FALSE(obs.trace_json.empty());
  EXPECT_EQ(obs.trace_json.find("\"ctrl\""), std::string::npos);

  const replay::FleetReport report = replay::analyze_fleet(obs, s.platform);
  EXPECT_FALSE(report.has_adaptation);
  EXPECT_EQ(report.to_json().find("adaptation"), std::string::npos);
  EXPECT_EQ(report.format_table().find("adaptation"), std::string::npos);
}

// Controlled runs export their decisions on a dedicated "ctrl" track.
TEST(Controller, TraceCarriesCtrlTrack) {
  harness::Scenario s = storm_fleet();
  s.trace.mode = trace::TraceMode::full;
  const harness::Observation obs = harness::run_scenario(s, 0xC792);
  ASSERT_FALSE(obs.trace_json.empty());
  EXPECT_NE(obs.trace_json.find("\"ctrl\""), std::string::npos);
  EXPECT_NE(obs.trace_json.find("pfl_calm"), std::string::npos);
}

// -- Scenario validation -----------------------------------------------------

TEST(CtrlScenario, ValidateRejectsBadCtrlConfig) {
  harness::Scenario s = storm_fleet();
  s.ctrl.interval = 0.0;
  EXPECT_THROW(s.validate(), UsageError);
  s = storm_fleet();
  s.ctrl.cooldown = -1.0;
  EXPECT_THROW(s.validate(), UsageError);
  s = storm_fleet();
  s.ctrl.jain_low = 0.9;
  s.ctrl.jain_high = 0.8;
  EXPECT_THROW(s.validate(), UsageError);
  s = storm_fleet();
  s.ctrl.storm_jobs = 0;
  EXPECT_THROW(s.validate(), UsageError);
}

TEST(CtrlScenario, ValidateRejectsDegenerateSchedTuning) {
  harness::Scenario s;
  s.platform.oss_sched.quantum = 0;
  EXPECT_THROW(s.validate(), UsageError);
  s = harness::Scenario{};
  s.platform.oss_sched.service_slots = 0;
  EXPECT_THROW(s.validate(), UsageError);
}

TEST(CtrlScenario, ProbeWorkloadRunsUnderController) {
  harness::Scenario s = harness::Scenario::probe(2, 8_MiB);
  s.platform = hw::tiny_test_platform();
  s.ctrl.mode = ctrl::CtrlMode::full;
  s.ctrl.interval = 0.01;
  const harness::Observation obs = harness::run_scenario(s, 4);
  EXPECT_EQ(obs.ctrl_mode, ctrl::CtrlMode::full);
  ASSERT_EQ(obs.per_job.size(), 2u);
  for (const ior::Result& r : obs.per_job) EXPECT_GT(r.write_mbps, 0.0);
}

}  // namespace
}  // namespace pfsc
