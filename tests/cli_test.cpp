// FlagTable / strict-parsing behaviour: bad values must throw UsageError
// (never the silent std::atoi zero the old CLI had), every flag has exactly
// one spelling, and the scenario flag table must actually drive
// Scenario/RunPlan fields.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "harness/cli.hpp"
#include "replay/replay_cli.hpp"

namespace pfsc::harness::cli {
namespace {

std::vector<char*> argv_of(std::vector<std::string>& args) {
  std::vector<char*> out;
  out.reserve(args.size());
  for (auto& a : args) out.push_back(a.data());
  return out;
}

TEST(CliParse, StrictIntegers) {
  EXPECT_EQ(parse_int("--x", "42"), 42);
  EXPECT_EQ(parse_int("--x", "-7"), -7);
  EXPECT_THROW(parse_int("--x", ""), UsageError);
  EXPECT_THROW(parse_int("--x", "abc"), UsageError);
  EXPECT_THROW(parse_int("--x", "12abc"), UsageError);  // trailing garbage
  EXPECT_THROW(parse_int("--x", "1.5"), UsageError);
  EXPECT_THROW(parse_uint("--x", "-1"), UsageError);
}

TEST(CliParse, StrictDoubles) {
  EXPECT_DOUBLE_EQ(parse_double("--x", "0.25"), 0.25);
  EXPECT_THROW(parse_double("--x", "0.25s"), UsageError);
  EXPECT_THROW(parse_double("--x", ""), UsageError);
}

TEST(CliParse, ByteSuffixes) {
  EXPECT_EQ(parse_bytes("--x", "512"), 512u);
  EXPECT_EQ(parse_bytes("--x", "4K"), 4_KiB);
  EXPECT_EQ(parse_bytes("--x", "64M"), 64_MiB);
  EXPECT_EQ(parse_bytes("--x", "64MB"), 64_MiB);
  EXPECT_EQ(parse_bytes("--x", "64MiB"), 64_MiB);
  EXPECT_EQ(parse_bytes("--x", "2G"), 2_GiB);
  EXPECT_EQ(parse_bytes("--x", "1T"), 1024_GiB);
  EXPECT_EQ(parse_bytes("--x", "128B"), 128u);
  EXPECT_THROW(parse_bytes("--x", "64Q"), UsageError);
  EXPECT_THROW(parse_bytes("--x", "64Mx"), UsageError);
  EXPECT_THROW(parse_bytes("--x", "M"), UsageError);
  EXPECT_THROW(parse_bytes("--x", ""), UsageError);
}

TEST(CliTable, BindsTypedTargets) {
  int count = 0;
  Bytes size = 0;
  FlagTable table;
  table.bind("--count", count, "how many");
  table.bind_bytes("--size", size, "how big");

  std::vector<std::string> args = {"prog", "--count", "3", "--size", "2M"};
  auto argv = argv_of(args);
  table.parse(static_cast<int>(argv.size()), argv.data(), 1);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(size, 2_MiB);
}

TEST(CliTable, RejectsUnknownFlagAndMissingValue) {
  int count = 0;
  FlagTable table;
  table.bind("--count", count, "how many");

  std::vector<std::string> unknown = {"prog", "--bogus", "1"};
  auto argv1 = argv_of(unknown);
  EXPECT_THROW(table.parse(static_cast<int>(argv1.size()), argv1.data(), 1),
               UsageError);

  std::vector<std::string> missing = {"prog", "--count"};
  auto argv2 = argv_of(missing);
  EXPECT_THROW(table.parse(static_cast<int>(argv2.size()), argv2.data(), 1),
               UsageError);

  std::vector<std::string> garbage = {"prog", "--count", "12x"};
  auto argv3 = argv_of(garbage);
  EXPECT_THROW(table.parse(static_cast<int>(argv3.size()), argv3.data(), 1),
               UsageError);
  EXPECT_EQ(count, 0);
}

TEST(CliTable, DuplicateFlagRejected) {
  int a = 0;
  int b = 0;
  FlagTable table;
  table.bind("--x", a, "first");
  EXPECT_THROW(table.bind("--x", b, "second"), UsageError);
}

TEST(CliScenarioFlags, DrivesScenarioAndPlan) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  JobOptions jobs;
  FlagTable table = scenario_flags(scenario, plan, threads);
  add_job_flags(table, jobs);

  std::vector<std::string> args = {
      "prog",
      "--nprocs",          "256",
      "--procs_per_node",  "8",
      "--striping_factor", "16",
      "--striping_unit",   "4M",
      "--noise_writers",   "6",
      "--repetitions",     "5",
      "--base_seed",       "99",
      "--threads",         "4"};
  auto argv = argv_of(args);
  table.parse(static_cast<int>(argv.size()), argv.data(), 1);

  EXPECT_EQ(scenario.nprocs, 256);
  EXPECT_EQ(scenario.procs_per_node, 8);
  EXPECT_EQ(scenario.ior.hints.striping_factor, 16u);
  EXPECT_EQ(scenario.ior.hints.striping_unit, 4_MiB);
  EXPECT_EQ(jobs.noise_writers, 6u);
  EXPECT_EQ(plan.reps(), 5u);
  EXPECT_EQ(plan.seed(), 99u);
  EXPECT_EQ(threads, 4u);
}

// pfsc_cli's probe mode: `probe --writers 4 --noise_writers 2` builds four
// probe writers followed by two 256 MiB noise jobs.
TEST(CliJobFlags, ProbeWithNoiseBuildsTheJobList) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  JobOptions jobs;
  jobs.probe = true;
  FlagTable table = scenario_flags(scenario, plan, threads);
  add_job_flags(table, jobs);
  std::vector<std::string> args = {"prog", "--writers", "4",
                                   "--noise_writers", "2"};
  auto argv = argv_of(args);
  table.parse(static_cast<int>(argv.size()), argv.data(), 1);
  jobs.apply(scenario);

  ASSERT_EQ(scenario.job_list.size(), 6u);
  for (std::uint32_t w = 0; w < 4; ++w) {
    EXPECT_EQ(scenario.job_list[w].kind, JobKind::probe_writer);
    EXPECT_EQ(scenario.job_list[w].job_id, w);
    EXPECT_EQ(scenario.job_list[w].bytes, 64_MiB);
  }
  for (std::uint32_t i = 0; i < 2; ++i) {
    const JobSpec& noise = scenario.job_list[4 + i];
    EXPECT_EQ(noise.kind, JobKind::noise);
    EXPECT_EQ(noise.job_id, 65536u + i);
    EXPECT_EQ(noise.bytes, 256_MiB);
  }
  EXPECT_NO_THROW(scenario.validate());

  // Without the probe mode the writers flag builds nothing and the noise
  // follows the lazy IOR job; zero probe writers is an error.
  Scenario ior;
  JobOptions noisy;
  noisy.noise_writers = 1;
  noisy.apply(ior);
  ASSERT_EQ(ior.job_list.size(), 2u);
  EXPECT_EQ(ior.job_list[0].kind, JobKind::ior);
  EXPECT_EQ(ior.job_list[1].kind, JobKind::noise);
  JobOptions none;
  none.probe = true;
  none.writers = 0;
  Scenario probe;
  EXPECT_THROW(none.apply(probe), UsageError);
}

TEST(CliScenarioFlags, HintsStringRejectsUnknownKey) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);

  std::vector<std::string> good = {"prog", "--hints",
                                   "striping_factor=8;romio_cb_write=disable"};
  auto argv1 = argv_of(good);
  table.parse(static_cast<int>(argv1.size()), argv1.data(), 1);
  EXPECT_EQ(scenario.ior.hints.striping_factor, 8u);

  std::vector<std::string> bad = {"prog", "--hints", "no_such_hint=1"};
  auto argv2 = argv_of(bad);
  EXPECT_THROW(table.parse(static_cast<int>(argv2.size()), argv2.data(), 1),
               UsageError);
}

TEST(CliEnumFlags, LinkPolicyParsesOrListsChoices) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);

  std::vector<std::string> good = {"prog", "--link_policy", "fair_share"};
  auto argv1 = argv_of(good);
  table.parse(static_cast<int>(argv1.size()), argv1.data(), 1);
  EXPECT_EQ(scenario.platform.link_policy, sim::LinkPolicy::fair_share);

  std::vector<std::string> back = {"prog", "--link_policy", "fifo"};
  auto argv2 = argv_of(back);
  table.parse(static_cast<int>(argv2.size()), argv2.data(), 1);
  EXPECT_EQ(scenario.platform.link_policy, sim::LinkPolicy::fifo);

  // An unknown name is a UsageError whose message lists every valid
  // choice — never a silently kept default.
  std::vector<std::string> bad = {"prog", "--link_policy", "weighted"};
  auto argv3 = argv_of(bad);
  try {
    table.parse(static_cast<int>(argv3.size()), argv3.data(), 1);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fifo"), std::string::npos) << msg;
    EXPECT_NE(msg.find("fair_share"), std::string::npos) << msg;
    EXPECT_NE(msg.find("weighted"), std::string::npos) << msg;
  }
  EXPECT_EQ(scenario.platform.link_policy, sim::LinkPolicy::fifo);
}

TEST(CliEnumFlags, SchedPolicyParsesOrListsChoices) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);

  using lustre::sched::SchedPolicy;
  std::vector<std::string> good = {"prog", "--sched_policy", "job_fair"};
  auto argv1 = argv_of(good);
  table.parse(static_cast<int>(argv1.size()), argv1.data(), 1);
  EXPECT_EQ(scenario.platform.oss_sched_policy, SchedPolicy::job_fair);

  std::vector<std::string> bucket = {"prog", "--sched_policy", "token_bucket"};
  auto argv2 = argv_of(bucket);
  table.parse(static_cast<int>(argv2.size()), argv2.data(), 1);
  EXPECT_EQ(scenario.platform.oss_sched_policy, SchedPolicy::token_bucket);
  scenario.platform.oss_sched_policy = SchedPolicy::fifo;

  std::vector<std::string> bad = {"prog", "--sched_policy", "drr"};
  auto argv3 = argv_of(bad);
  try {
    table.parse(static_cast<int>(argv3.size()), argv3.data(), 1);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("fifo"), std::string::npos) << msg;
    EXPECT_NE(msg.find("job_fair"), std::string::npos) << msg;
    EXPECT_NE(msg.find("token_bucket"), std::string::npos) << msg;
  }
  EXPECT_EQ(scenario.platform.oss_sched_policy, SchedPolicy::fifo);
}

TEST(CliEnumFlags, PlacementParsesOrListsChoices) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);

  using lustre::PlacementKind;
  std::vector<std::string> good = {"prog", "--placement", "load_aware"};
  auto argv1 = argv_of(good);
  table.parse(static_cast<int>(argv1.size()), argv1.data(), 1);
  EXPECT_EQ(scenario.platform.ost_placement, PlacementKind::load_aware);

  std::vector<std::string> via = {"prog", "--placement", "node_affine"};
  auto argv2 = argv_of(via);
  table.parse(static_cast<int>(argv2.size()), argv2.data(), 1);
  EXPECT_EQ(scenario.platform.ost_placement, PlacementKind::node_affine);

  std::vector<std::string> bad = {"prog", "--placement", "striped"};
  auto argv3 = argv_of(bad);
  try {
    table.parse(static_cast<int>(argv3.size()), argv3.data(), 1);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("uniform_random"), std::string::npos) << msg;
    EXPECT_NE(msg.find("round_robin"), std::string::npos) << msg;
    EXPECT_NE(msg.find("load_aware"), std::string::npos) << msg;
    EXPECT_NE(msg.find("node_affine"), std::string::npos) << msg;
  }
  EXPECT_EQ(scenario.platform.ost_placement, PlacementKind::node_affine);
}

TEST(CliEnumFlags, AdmissionFlagsParseStrictly) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);

  using harness::AdmissionPolicy;
  std::vector<std::string> good = {"prog", "--admission", "threshold",
                                   "--admit_dload", "1.5",
                                   "--admit_min_stripes", "4"};
  auto argv1 = argv_of(good);
  table.parse(static_cast<int>(argv1.size()), argv1.data(), 1);
  EXPECT_EQ(scenario.admission.policy, AdmissionPolicy::threshold);
  EXPECT_EQ(scenario.admission.max_dload, 1.5);
  EXPECT_EQ(scenario.admission.min_stripes, 4u);

  // 'inf' disables the limit without switching the policy back.
  std::vector<std::string> inf = {"prog", "--admit_dload", "inf"};
  auto argv2 = argv_of(inf);
  table.parse(static_cast<int>(argv2.size()), argv2.data(), 1);
  EXPECT_TRUE(std::isinf(scenario.admission.max_dload));

  std::vector<std::string> bad = {"prog", "--admission", "never"};
  auto argv3 = argv_of(bad);
  try {
    table.parse(static_cast<int>(argv3.size()), argv3.data(), 1);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("always"), std::string::npos) << msg;
    EXPECT_NE(msg.find("threshold"), std::string::npos) << msg;
    EXPECT_NE(msg.find("detune"), std::string::npos) << msg;
  }

  std::vector<std::string> zero = {"prog", "--admit_min_stripes", "0"};
  auto argv4 = argv_of(zero);
  EXPECT_THROW(
      table.parse(static_cast<int>(argv4.size()), argv4.data(), 1),
      UsageError);
}

TEST(CliEnumFlags, EventQueueFlagIsRejectedAsUnknown) {
  // The engine runs one queue; the old queue-policy flag and its dashed
  // spelling are rejected as unknown flags, never silently ignored.
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);
  for (const char* flag : {"--event_queue", "--event-queue"}) {
    std::vector<std::string> args = {"prog", flag, "ladder"};
    auto argv = argv_of(args);
    try {
      table.parse(static_cast<int>(argv.size()), argv.data(), 1);
      FAIL() << "expected UsageError for " << flag;
    } catch (const UsageError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unknown flag"), std::string::npos) << msg;
    }
  }
}

TEST(CliEnumFlags, SimDomainsFlagIsRejectedAsUnknown) {
  // --sim_domains and its dashed alias no longer exist: both spellings are
  // rejected as unknown flags, never silently ignored.
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);
  for (const char* flag : {"--sim_domains", "--sim-domains"}) {
    std::vector<std::string> args = {"prog", flag, "4"};
    auto argv = argv_of(args);
    try {
      table.parse(static_cast<int>(argv.size()), argv.data(), 1);
      FAIL() << "expected UsageError for " << flag;
    } catch (const UsageError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unknown flag"), std::string::npos) << msg;
    }
  }
  EXPECT_EQ(table.usage().find("sim_domains"), std::string::npos);
  EXPECT_EQ(table.usage().find("sim-domains"), std::string::npos);
}

TEST(CliEnumFlags, SchedTuningFlagsDriveTheTuningStruct) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);

  std::vector<std::string> args = {
      "prog", "--sched_quantum", "2M", "--sched_slots", "16",
      "--sched_job_rate_mbps", "250", "--sched_bucket_depth", "32M"};
  auto argv = argv_of(args);
  table.parse(static_cast<int>(argv.size()), argv.data(), 1);
  EXPECT_EQ(scenario.platform.oss_sched.quantum, 2_MiB);
  EXPECT_EQ(scenario.platform.oss_sched.service_slots, 16u);
  EXPECT_DOUBLE_EQ(scenario.platform.oss_sched.job_rate, mb_per_sec(250.0));
  EXPECT_EQ(scenario.platform.oss_sched.bucket_depth, 32_MiB);
}

TEST(CliEnumFlags, SchedTuningFlagsRejectDegenerateValuesByName) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);

  // Zero / negative tuning values would wedge a scheduler (a zero quantum
  // never makes progress); the parse itself rejects them and the message
  // names the flag, not just the field.
  const std::pair<const char*, const char*> bad[] = {
      {"--sched_quantum", "0"},
      {"--sched_slots", "0"},
      {"--sched_job_rate_mbps", "0"},
      {"--sched_job_rate_mbps", "-3"},
      {"--sched_bucket_depth", "0"},
  };
  for (const auto& [flag, value] : bad) {
    std::vector<std::string> args = {"prog", flag, value};
    auto argv = argv_of(args);
    try {
      table.parse(static_cast<int>(argv.size()), argv.data(), 1);
      FAIL() << flag << "=" << value;
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
  // No partial writes: everything still at the platform defaults.
  const hw::PlatformParams defaults;
  EXPECT_EQ(scenario.platform.oss_sched.quantum, defaults.oss_sched.quantum);
  EXPECT_EQ(scenario.platform.oss_sched.service_slots,
            defaults.oss_sched.service_slots);
}

TEST(CliEnumFlags, CtrlFlagsDriveTheControllerConfig) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);

  EXPECT_EQ(scenario.ctrl.mode, ctrl::CtrlMode::off);  // default: off

  std::vector<std::string> args = {"prog",     "--ctrl",          "pfl",
                                   "--ctrl_interval", "0.05",
                                   "--ctrl_cooldown", "0.2"};
  auto argv = argv_of(args);
  table.parse(static_cast<int>(argv.size()), argv.data(), 1);
  EXPECT_EQ(scenario.ctrl.mode, ctrl::CtrlMode::pfl);
  EXPECT_DOUBLE_EQ(scenario.ctrl.interval, 0.05);
  EXPECT_DOUBLE_EQ(scenario.ctrl.cooldown, 0.2);

  for (const char* mode : {"qos", "full", "off"}) {
    std::vector<std::string> one = {"prog", "--ctrl", mode};
    auto argv1 = argv_of(one);
    table.parse(static_cast<int>(argv1.size()), argv1.data(), 1);
  }
  EXPECT_EQ(scenario.ctrl.mode, ctrl::CtrlMode::off);

  // Unknown mode: strict error listing the valid choices.
  std::vector<std::string> bad = {"prog", "--ctrl", "adaptive"};
  auto argv2 = argv_of(bad);
  try {
    table.parse(static_cast<int>(argv2.size()), argv2.data(), 1);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--ctrl"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pfl"), std::string::npos) << msg;
    EXPECT_NE(msg.find("full"), std::string::npos) << msg;
  }

  // Degenerate periods are parse errors naming the flag.
  for (const auto& [flag, value] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"--ctrl_interval", "0"},
           {"--ctrl_interval", "-1"},
           {"--ctrl_cooldown", "-0.5"}}) {
    std::vector<std::string> args2 = {"prog", flag, value};
    auto argv3 = argv_of(args2);
    try {
      table.parse(static_cast<int>(argv3.size()), argv3.data(), 1);
      FAIL() << flag << "=" << value;
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }

  // The flags are documented.
  EXPECT_NE(table.usage().find("--ctrl"), std::string::npos);
  EXPECT_NE(table.usage().find("--ctrl_interval"), std::string::npos);
}

TEST(CliTraceFlags, ParseStrictlyAndDriveTraceConfig) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);

  std::vector<std::string> args = {"prog",        "--trace",          "full",
                                   "--trace_out", "run.{seed}.json",
                                   "--telemetry_interval", "0.25"};
  auto argv = argv_of(args);
  table.parse(static_cast<int>(argv.size()), argv.data(), 1);
  EXPECT_EQ(scenario.trace.mode, trace::TraceMode::full);
  EXPECT_EQ(scenario.trace.out, "run.{seed}.json");
  EXPECT_DOUBLE_EQ(scenario.telemetry_interval, 0.25);

  std::vector<std::string> summary = {"prog", "--trace", "summary"};
  auto argv2 = argv_of(summary);
  table.parse(static_cast<int>(argv2.size()), argv2.data(), 1);
  EXPECT_EQ(scenario.trace.mode, trace::TraceMode::summary);

  // Unknown mode: strict error listing the valid choices, no silent default.
  std::vector<std::string> bad = {"prog", "--trace", "everything"};
  auto argv3 = argv_of(bad);
  try {
    table.parse(static_cast<int>(argv3.size()), argv3.data(), 1);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("off"), std::string::npos) << msg;
    EXPECT_NE(msg.find("summary"), std::string::npos) << msg;
    EXPECT_NE(msg.find("full"), std::string::npos) << msg;
  }
  EXPECT_EQ(scenario.trace.mode, trace::TraceMode::summary);

  // A garbage interval is an error too (never a silent zero).
  std::vector<std::string> bad2 = {"prog", "--telemetry_interval", "fast"};
  auto argv4 = argv_of(bad2);
  EXPECT_THROW(table.parse(static_cast<int>(argv4.size()), argv4.data(), 1),
               UsageError);
}

TEST(CliTraceFlags, TraceIntervalFlagIsRejectedAsUnknown) {
  // A run has one sampler, set by --telemetry_interval: the old trace
  // sampler's flag fails as an unknown flag, never silently ignored.
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);
  std::vector<std::string> args = {"prog", "--trace_interval", "0.01"};
  auto argv = argv_of(args);
  try {
    table.parse(static_cast<int>(argv.size()), argv.data(), 1);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown flag"), std::string::npos) << msg;
  }
  EXPECT_EQ(table.usage().find("trace_interval"), std::string::npos);
}

// --replay / --fleet flags register on top of scenario_flags (the pfsc_cli
// arrangement) and resolve into the scenario's job list via apply().
FlagTable replay_table(Scenario& scenario, RunPlan& plan, unsigned& threads,
                       replay::ReplayOptions& opts) {
  FlagTable table = scenario_flags(scenario, plan, threads);
  replay::add_replay_flags(table, opts);
  return table;
}

TEST(CliReplayFlags, ParseFieldNamedSpellings) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  replay::ReplayOptions opts;
  FlagTable table = replay_table(scenario, plan, threads, opts);

  std::vector<std::string> args = {"prog", "--replay", "day.joblog"};
  auto argv = argv_of(args);
  table.parse(static_cast<int>(argv.size()), argv.data(), 1);
  EXPECT_EQ(opts.replay_log, "day.joblog");
  EXPECT_TRUE(opts.active());

  replay::ReplayOptions fleet_opts;
  Scenario s2;
  RunPlan p2;
  FlagTable table2 = replay_table(s2, p2, threads, fleet_opts);
  std::vector<std::string> fleet_args = {
      "prog",        "--fleet",      "12",          "--fleet_mix",
      "ior:2,plfs",  "--fleet_seed", "9",           "--fleet_span",
      "30"};
  auto argv2 = argv_of(fleet_args);
  table2.parse(static_cast<int>(argv2.size()), argv2.data(), 1);
  EXPECT_TRUE(fleet_opts.fleet_requested);
  EXPECT_EQ(fleet_opts.fleet.jobs, 12u);
  EXPECT_EQ(fleet_opts.fleet.mix, "ior:2,plfs");
  EXPECT_EQ(fleet_opts.fleet.seed, 9u);
  EXPECT_DOUBLE_EQ(fleet_opts.fleet.span, 30.0);
}

TEST(CliReplayFlags, RemovedSpellingsAreRejectedAsUnknown) {
  // Every flag has one spelling, named after its field: the old
  // alternatives fail as unknown flags instead of resolving.
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  replay::ReplayOptions opts;
  FlagTable table = replay_table(scenario, plan, threads, opts);
  for (const char* flag :
       {"--ppn", "--stripes", "--link-policy", "--sched-policy",
        "--oss_sched_policy", "--ost_placement", "--reps", "--seed",
        "--replay_log", "--fleet_jobs", "--fleet-mix", "--fleet-span"}) {
    std::vector<std::string> args = {"prog", flag, "1"};
    auto argv = argv_of(args);
    try {
      table.parse(static_cast<int>(argv.size()), argv.data(), 1);
      FAIL() << "expected UsageError for " << flag;
    } catch (const UsageError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("unknown flag"), std::string::npos) << msg;
    }
    EXPECT_EQ(table.usage().find(std::string(flag) + " "), std::string::npos)
        << flag;
  }
}

TEST(CliReplayFlags, FleetParsesStrictly) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  replay::ReplayOptions opts;
  FlagTable table = replay_table(scenario, plan, threads, opts);

  std::vector<std::string> zero = {"prog", "--fleet", "0"};
  auto argv1 = argv_of(zero);
  EXPECT_THROW(table.parse(static_cast<int>(argv1.size()), argv1.data(), 1),
               UsageError);

  std::vector<std::string> garbage = {"prog", "--fleet", "many"};
  auto argv2 = argv_of(garbage);
  EXPECT_THROW(table.parse(static_cast<int>(argv2.size()), argv2.data(), 1),
               UsageError);
}

TEST(CliReplayFlags, FleetMixUnknownTemplateListsChoices) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  replay::ReplayOptions opts;
  FlagTable table = replay_table(scenario, plan, threads, opts);

  // The typo fails at the flag, before any run starts, and the message
  // enumerates every valid template — consistent with --link_policy.
  std::vector<std::string> bad = {"prog", "--fleet_mix", "ior:2,bogus"};
  auto argv = argv_of(bad);
  try {
    table.parse(static_cast<int>(argv.size()), argv.data(), 1);
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown template 'bogus'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ior"), std::string::npos) << msg;
    EXPECT_NE(msg.find("checkpoint"), std::string::npos) << msg;
    EXPECT_NE(msg.find("plfs"), std::string::npos) << msg;
    EXPECT_NE(msg.find("mdstorm"), std::string::npos) << msg;
  }
  EXPECT_EQ(opts.fleet.mix, replay::FleetConfig{}.mix);  // default kept
}

TEST(CliReplayFlags, ReplayAndFleetAreMutuallyExclusive) {
  replay::ReplayOptions opts;
  opts.replay_log = "day.joblog";
  opts.fleet_requested = true;
  Scenario scenario;
  EXPECT_THROW(opts.apply(scenario), UsageError);
}

TEST(CliReplayFlags, ApplyResolvesIntoTheJobList) {
  const std::string path = testing::TempDir() + "cli_mini.joblog";
  {
    std::ofstream out(path);
    out << "#PFSC-JOBLOG v1\n"
        << "meta ppn=8\n"
        << "job id=1 kind=ior arrival=0 nprocs=4 block=4M transfer=1M "
           "segments=1 collective=1 write=1 read=0 fpp=0 reorder=0 "
           "stripes=2 stripe_size=1M driver=ad_lustre file=/cli.dat\n";
  }
  replay::ReplayOptions opts;
  opts.replay_log = path;
  Scenario scenario;
  opts.apply(scenario);
  ASSERT_EQ(scenario.job_list.size(), 1u);
  EXPECT_EQ(scenario.procs_per_node, 8);  // meta ppn wins
  EXPECT_EQ(scenario.job_list.front().ior.test_file, "/cli.dat");
  std::remove(path.c_str());

  replay::ReplayOptions fleet_opts;
  fleet_opts.fleet_requested = true;
  fleet_opts.fleet.jobs = 6;
  Scenario s2;
  fleet_opts.apply(s2);
  EXPECT_EQ(s2.job_list.size(), 6u);
}

TEST(CliReplayFlags, UsageListsReplayFlags) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  replay::ReplayOptions opts;
  FlagTable table = replay_table(scenario, plan, threads, opts);
  const std::string usage = table.usage();
  EXPECT_NE(usage.find("--replay"), std::string::npos);
  EXPECT_NE(usage.find("--fleet"), std::string::npos);
  EXPECT_NE(usage.find("--fleet_mix"), std::string::npos);
  EXPECT_NE(usage.find("checkpoint"), std::string::npos);  // template names
}

TEST(CliScenarioFlags, UsageListsFieldNames) {
  Scenario scenario;
  RunPlan plan;
  unsigned threads = 0;
  FlagTable table = scenario_flags(scenario, plan, threads);
  const std::string usage = table.usage();
  EXPECT_NE(usage.find("--nprocs"), std::string::npos);
  EXPECT_NE(usage.find("--striping_factor"), std::string::npos);
  EXPECT_EQ(usage.find("alias"), std::string::npos);
  EXPECT_NE(usage.find("--threads"), std::string::npos);
}

}  // namespace
}  // namespace pfsc::harness::cli
