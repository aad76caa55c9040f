// Control-plane tests: the TuningBus endpoint registry, PFL size-class
// layouts, the runtime setters they drive (set_pfl / set_placement /
// set_dir_stripe_now), the t=0 create-burst demand fix, and the adaptive
// Controller end-to-end through the harness — including the contract that
// --ctrl off constructs nothing and leaves every report untouched.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "ctrl/controller.hpp"
#include "ctrl/retunable.hpp"
#include "harness/scenario.hpp"
#include "lustre/client.hpp"
#include "lustre/fs.hpp"
#include "lustre/pfl.hpp"
#include "replay/analytics.hpp"
#include "sim/task.hpp"

namespace pfsc {
namespace {

// -- TuningBus ---------------------------------------------------------------

TEST(TuningBus, AttachFindApplyDetach) {
  ctrl::TuningBus bus;
  lustre::PlacementKind got = lustre::PlacementKind::uniform_random;
  ctrl::Endpoint<lustre::PlacementKind> ep(
      "placement", [&](const lustre::PlacementKind& k) { got = k; });
  bus.attach("placement", ep);
  EXPECT_EQ(bus.size(), 1u);
  EXPECT_EQ(bus.find("placement"), &ep);
  EXPECT_EQ(bus.find("nope"), nullptr);

  bus.apply("placement", ctrl::TuneValue(lustre::PlacementKind::load_aware));
  EXPECT_EQ(got, lustre::PlacementKind::load_aware);

  bus.detach("placement");
  EXPECT_EQ(bus.size(), 0u);
  EXPECT_EQ(bus.find("placement"), nullptr);
}

TEST(TuningBus, DuplicateNameRejected) {
  ctrl::TuningBus bus;
  ctrl::Endpoint<lustre::PlacementKind> a("p", [](const auto&) {});
  ctrl::Endpoint<lustre::PlacementKind> b("p", [](const auto&) {});
  bus.attach("p", a);
  EXPECT_THROW(bus.attach("p", b), UsageError);
}

TEST(TuningBus, UnknownEndpointRejected) {
  ctrl::TuningBus bus;
  EXPECT_THROW(
      bus.apply("ghost", ctrl::TuneValue(lustre::PlacementKind::load_aware)),
      UsageError);
}

TEST(TuningBus, WrongValueTypeRejectedWithoutSideEffects) {
  ctrl::TuningBus bus;
  int applies = 0;
  ctrl::Endpoint<lustre::PlacementKind> ep(
      "placement", [&](const lustre::PlacementKind&) { ++applies; });
  bus.attach("placement", ep);
  EXPECT_THROW(
      bus.apply("placement", ctrl::TuneValue(lustre::sched::SchedTuning{})),
      UsageError);
  EXPECT_EQ(applies, 0);
}

TEST(TuningBus, EndpointNamesSorted) {
  ctrl::TuningBus bus;
  ctrl::Endpoint<lustre::PlacementKind> a("z", [](const auto&) {});
  ctrl::Endpoint<lustre::PlacementKind> b("a", [](const auto&) {});
  bus.attach("z", a);
  bus.attach("a", b);
  EXPECT_EQ(bus.endpoints(), (std::vector<std::string>{"a", "z"}));
}

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

TEST(CtrlFs, SetDirStripeNow) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 1);
  lustre::Client client(fs, "c");
  eng.spawn([](lustre::FileSystem& fs, lustre::Client& c) -> sim::Task {
    auto d = co_await c.mkdir("/wide");
    PFSC_ASSERT(d.ok());
    EXPECT_EQ(fs.set_dir_stripe_now("/wide", lustre::StripeSettings{4, 1_MiB}),
              lustre::Errno::ok);
    auto f = co_await c.create("/wide/f", lustre::StripeSettings{});
    PFSC_ASSERT(f.ok());
    EXPECT_EQ(fs.inode(f.value).layout.stripe_count(), 4u);

    EXPECT_EQ(fs.set_dir_stripe_now("/missing",
                                    lustre::StripeSettings{1, 1_MiB}),
              lustre::Errno::enoent);
    EXPECT_EQ(fs.set_dir_stripe_now("/wide/f",
                                    lustre::StripeSettings{1, 1_MiB}),
              lustre::Errno::enotdir);
  }(fs, client));
  eng.run();
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

TEST(Controller, ExposesAllEndpoints) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 1);
  ctrl::CtrlConfig cfg;
  cfg.mode = ctrl::CtrlMode::full;
  ctrl::Controller controller(eng, cfg, fs);
  EXPECT_EQ(controller.bus().endpoints(),
            (std::vector<std::string>{"dir_default", "oss_sched", "pfl",
                                      "placement"}));
}

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

TEST(Controller, BusAppliesSchedTuningToEveryOss) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 1);
  ctrl::CtrlConfig cfg;
  cfg.mode = ctrl::CtrlMode::qos;
  ctrl::Controller controller(eng, cfg, fs);
  lustre::sched::SchedTuning t;
  t.quantum = 1_MiB;
  t.service_slots = 3;
  controller.bus().apply("oss_sched", ctrl::TuneValue(t));
  for (std::uint32_t oss = 0; oss < fs.params().oss_count; ++oss) {
    EXPECT_EQ(fs.oss_sched(oss).tuning().quantum, 1_MiB) << "oss " << oss;
    EXPECT_EQ(fs.oss_sched(oss).tuning().service_slots, 3u) << "oss " << oss;
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
