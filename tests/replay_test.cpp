// Replay subsystem: joblog parsing/emission, Scenario lowering, and the
// bit-for-bit guarantee that replaying a log reproduces the hand-built
// scenario it describes.
//
// The parser tests pin the strictness contract (diagnostics carry
// origin:line and the offending field; malformed logs never half-parse)
// and round-trip canonicality (emit . parse == identity on emitted text).
// The golden test replays the bundled Fig. 3 quartet log and requires
// exact (==, not near) per-job bandwidth equality with the lazy
// Scenario::multi it was recorded from, plus pinned absolute numbers.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "replay/fleet.hpp"
#include "replay/log.hpp"

#ifndef PFSC_DATA_DIR
#define PFSC_DATA_DIR "data"
#endif

namespace pfsc::replay {
namespace {

using harness::JobKind;
using harness::JobSpec;
using harness::Scenario;

/// A log exercising every kind and every per-kind field.
JobLog sample_log() {
  JobLog log;
  log.procs_per_node = 8;
  JobSpec a;
  a.kind = JobKind::ior;
  a.job_id = 1;
  a.app = "vasp";
  a.nprocs = 16;
  a.ior.block_size = 4_MiB;
  a.ior.transfer_size = 1_MiB;
  a.ior.segment_count = 4;
  a.ior.hints.driver = mpiio::Driver::ad_lustre;
  a.ior.hints.striping_factor = 8;
  a.ior.hints.striping_unit = 1_MiB;
  a.ior.test_file = "/a.dat";
  a.ior.job_id = 1;
  JobSpec b;
  b.kind = JobKind::plfs;
  b.job_id = 2;
  b.arrival = 0.5;
  b.nprocs = 8;
  b.ior.segment_count = 2;
  b.ior.hints.driver = mpiio::Driver::ad_plfs;
  b.ior.test_file = "/b.dat";
  b.ior.job_id = 2;
  JobSpec c;
  c.kind = JobKind::probe_writer;
  c.job_id = 3;
  c.arrival = 1.25;
  c.nprocs = 2;
  c.bytes = 16_MiB;
  c.transfer_size = 1_MiB;
  c.target_ost = 7;
  JobSpec d;
  d.kind = JobKind::noise;
  d.job_id = lustre::sched::kNoiseJobBase;
  d.bytes = 64_MiB;
  d.transfer_size = 2_MiB;
  d.stripes = 3;
  d.stripe_size = 2_MiB;
  log.jobs = {a, b, c, d};
  return log;
}

// -- round trips ------------------------------------------------------------

TEST(JobLogRoundTrip, EmitParseEmitIsIdentity) {
  const JobLog log = sample_log();
  const std::string text = emit_joblog(log);
  const JobLog reparsed = parse_joblog(text, "<rt>");
  EXPECT_EQ(emit_joblog(reparsed), text);
  EXPECT_EQ(reparsed.procs_per_node, 8);
  ASSERT_EQ(reparsed.jobs.size(), 4u);
  EXPECT_EQ(reparsed.jobs[0].app, "vasp");
  EXPECT_EQ(reparsed.jobs[1].ior.hints.driver, mpiio::Driver::ad_plfs);
  EXPECT_EQ(reparsed.jobs[2].target_ost, 7);
  EXPECT_EQ(reparsed.jobs[3].stripes, 3u);
}

TEST(JobLogRoundTrip, ScenarioLoweringRoundTrips) {
  const JobLog log = sample_log();
  const Scenario s = to_scenario(log);
  EXPECT_EQ(s.procs_per_node, 8);
  EXPECT_EQ(s.job_list.size(), log.jobs.size());
  const JobLog back = from_scenario(s);
  EXPECT_EQ(emit_joblog(back), emit_joblog(log));
}

TEST(JobLogRoundTrip, LegacyMultiExportsAndReplays) {
  // A lazy multi scenario exports its expanded job list, so the log
  // replays as an explicit list.
  ior::Config cfg;
  cfg.segment_count = 2;
  cfg.hints.driver = mpiio::Driver::ad_lustre;
  cfg.hints.striping_factor = 4;
  cfg.hints.striping_unit = 1_MiB;
  Scenario legacy = Scenario::multi(3, 8, cfg);
  const JobLog log = from_scenario(legacy);
  ASSERT_EQ(log.jobs.size(), 3u);
  EXPECT_EQ(log.jobs[2].ior.test_file, "/ior.dat.2");
  EXPECT_EQ(log.jobs[2].job_id, 2u);

  const auto direct = harness::run_scenario(legacy, 99);
  const auto replayed = harness::run_scenario(to_scenario(log), 99);
  ASSERT_EQ(direct.per_job.size(), replayed.per_job.size());
  for (std::size_t j = 0; j < direct.per_job.size(); ++j) {
    EXPECT_EQ(direct.per_job[j].write_mbps, replayed.per_job[j].write_mbps);
  }
}

TEST(JobLogRoundTrip, ParsesItsOwnDoubleFormat) {
  JobLog log = sample_log();
  log.jobs[1].arrival = 0.1 + 0.2;  // 0.30000000000000004
  log.jobs[2].arrival = 1e-9;
  const JobLog reparsed = parse_joblog(emit_joblog(log), "<rt>");
  EXPECT_EQ(reparsed.jobs[1].arrival, log.jobs[1].arrival);
  EXPECT_EQ(reparsed.jobs[2].arrival, log.jobs[2].arrival);
}

// -- strict parsing ---------------------------------------------------------

void expect_parse_error(const std::string& text, const std::string& needle) {
  try {
    parse_joblog(text, "log");
    FAIL() << "expected UsageError containing '" << needle << "'";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(JobLogParse, RejectsMissingHeader) {
  expect_parse_error("job id=0 kind=ior\n", "log:1: expected header");
  expect_parse_error("", "expected header");
}

TEST(JobLogParse, DiagnosticsCarryLineAndField) {
  const std::string head = "#PFSC-JOBLOG v1\n";
  expect_parse_error(head + "job id=0 kind=ior block=4Q\n",
                     "log:2: field 'block'");
  expect_parse_error(head + "\njob id=0 kind=ior segments=x\n",
                     "log:3: field 'segments'");
  expect_parse_error(head + "job id=0 kind=ior collective=yes\n",
                     "field 'collective': expected 0 or 1");
  expect_parse_error(head + "job id=0 kind=warp\n",
                     "field 'kind': expected one of: ior, plfs, probe, noise");
  expect_parse_error(head + "job id=0 kind=ior driver=ad_warp\n",
                     "field 'driver': expected one of: ad_ufs, ad_lustre");
  expect_parse_error(head + "job id=0 kind=ior arrival=-1\n",
                     "field 'arrival': must be non-negative");
}

TEST(JobLogParse, RejectsStructuralMistakes) {
  const std::string head = "#PFSC-JOBLOG v1\n";
  expect_parse_error(head + "job kind=ior\n", "missing required field 'id'");
  expect_parse_error(head + "job id=0\n", "missing required field 'kind'");
  expect_parse_error(head + "job id=0 kind=ior nprocs=4 nprocs=8\n",
                     "duplicate field 'nprocs'");
  expect_parse_error(head + "job id=0 kind=ior banana\n",
                     "expected key=value");
  expect_parse_error(head + "jobs id=0 kind=ior\n", "expected 'job'");
  expect_parse_error(head + "meta ppn=0\n", "field 'ppn': must be positive");
  expect_parse_error(head + "meta frobs=1\n", "unknown meta key");
  expect_parse_error(head + "job id=0 kind=ior\nmeta ppn=4\n",
                     "meta line must precede job lines");
  expect_parse_error(head + "meta ppn=4\nmeta ppn=8\n", "duplicate meta line");
}

TEST(JobLogParse, RejectsKindInappropriateFields) {
  const std::string head = "#PFSC-JOBLOG v1\n";
  // probe jobs have no IOR access pattern...
  expect_parse_error(head + "job id=0 kind=probe segments=4\n",
                     "field 'segments': unknown or not valid for kind=probe");
  // ...noise jobs occupy no ranks...
  expect_parse_error(head + "job id=0 kind=noise nprocs=4\n",
                     "field 'nprocs': unknown or not valid for kind=noise");
  // ...and plfs jobs cannot re-route their driver.
  expect_parse_error(head + "job id=0 kind=plfs driver=ad_lustre\n",
                     "field 'driver': unknown or not valid for kind=plfs");
}

TEST(JobLogParse, RejectsDuplicateJobIds) {
  EXPECT_THROW(
      to_scenario(parse_joblog("#PFSC-JOBLOG v1\n"
                               "job id=3 kind=ior\n"
                               "job id=3 kind=ior file=/other.dat\n",
                               "log")),
      UsageError);
}

TEST(JobLogParse, AcceptsCommentsAndBlankLines) {
  const JobLog log = parse_joblog(
      "#PFSC-JOBLOG v1\n"
      "# a fleet of one\n"
      "\n"
      "meta ppn=4\n"
      "job id=0 kind=ior app=solo\n",
      "log");
  EXPECT_EQ(log.procs_per_node, 4);
  ASSERT_EQ(log.jobs.size(), 1u);
  EXPECT_EQ(log.jobs[0].display_app(), "solo");
}

// -- bundled-log goldens ----------------------------------------------------

TEST(ReplayGolden, Fig3QuartetMatchesHandBuiltExactly) {
  const JobLog log =
      load_joblog(std::string(PFSC_DATA_DIR) + "/fig3_quartet.joblog");
  ASSERT_EQ(log.jobs.size(), 4u);

  ior::Config cfg;
  cfg.segment_count = 10;
  cfg.hints.driver = mpiio::Driver::ad_lustre;
  cfg.hints.striping_factor = 16;
  cfg.hints.striping_unit = 4_MiB;
  Scenario hand = Scenario::multi(4, 32, cfg);
  hand.procs_per_node = 16;

  const auto replayed = harness::run_scenario(to_scenario(log), 0xF3D0);
  const auto built = harness::run_scenario(hand, 0xF3D0);
  // Exact equality: the replayed quartet is bit-for-bit the legacy
  // four-job desugaring...
  ASSERT_EQ(replayed.per_job.size(), 4u);
  ASSERT_EQ(built.per_job.size(), 4u);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(replayed.per_job[j].err, lustre::Errno::ok);
    EXPECT_EQ(replayed.per_job[j].write_mbps, built.per_job[j].write_mbps);
  }
  // ...and the numbers themselves are pinned, like the other goldens.
  const double golden[4] = {
      826.69842165621571,
      827.73487650397442,
      828.70417787485655,
      825.15311617913835,
  };
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(replayed.per_job[j].write_mbps, golden[j]) << "job " << j;
  }
}

TEST(ReplayGolden, DayMixRunsEveryKind) {
  const JobLog log =
      load_joblog(std::string(PFSC_DATA_DIR) + "/day_mix.joblog");
  const auto obs = harness::run_scenario(to_scenario(log), 7);
  // 4 rank jobs + 1 noise job; staggered arrivals take the free-running
  // path and still finish every job.
  ASSERT_EQ(obs.jobs.size(), 5u);
  ASSERT_EQ(obs.per_job.size(), 4u);
  for (const auto& r : obs.per_job) {
    EXPECT_EQ(r.err, lustre::Errno::ok);
    EXPECT_GT(r.write_mbps, 0.0);
  }
  EXPECT_GT(obs.total_mbps, 0.0);
  // Determinism: same log, same seed, same numbers.
  const auto again = harness::run_scenario(to_scenario(log), 7);
  for (std::size_t j = 0; j < obs.per_job.size(); ++j) {
    EXPECT_EQ(obs.per_job[j].write_mbps, again.per_job[j].write_mbps);
  }
}

// -- job-list execution semantics -------------------------------------------

TEST(JobListExec, ExplicitListMatchesLegacyDesugaring) {
  // from_jobs(list) where list == the lazy multi expansion must reproduce
  // the lazy run exactly (same event sequence, same numbers).
  ior::Config cfg;
  cfg.segment_count = 2;
  cfg.hints.driver = mpiio::Driver::ad_lustre;
  cfg.hints.striping_factor = 4;
  cfg.hints.striping_unit = 1_MiB;
  Scenario legacy = Scenario::multi(2, 8, cfg);
  Scenario list = Scenario::from_jobs(legacy.jobs_desugared());
  list.procs_per_node = legacy.procs_per_node;

  const auto a = harness::run_scenario(legacy, 11);
  const auto b = harness::run_scenario(list, 11);
  ASSERT_EQ(a.per_job.size(), b.per_job.size());
  for (std::size_t j = 0; j < a.per_job.size(); ++j) {
    EXPECT_EQ(a.per_job[j].write_mbps, b.per_job[j].write_mbps);
  }
  EXPECT_EQ(a.total_mbps, b.total_mbps);
}

TEST(JobListExec, AddNoiseAppendsNoiseJobs) {
  // add_noise expands a lazy scenario and appends JobKind::noise entries
  // with ids kNoiseJobBase + i: the same jobs as a list built by hand.
  ior::Config cfg;
  cfg.segment_count = 2;
  Scenario helper = Scenario::single_ior(cfg);
  helper.nprocs = 8;
  helper.add_noise(0, 16_MiB);
  EXPECT_TRUE(helper.job_list.empty());  // no writers: still lazy
  helper.add_noise(2, 16_MiB);

  std::vector<JobSpec> list = Scenario::single_ior(cfg).jobs_desugared();
  list.front().nprocs = 8;
  for (std::uint32_t w = 0; w < 2; ++w) {
    JobSpec n;
    n.kind = JobKind::noise;
    n.job_id = lustre::sched::kNoiseJobBase + w;
    n.bytes = 16_MiB;
    list.push_back(n);
  }
  const Scenario by_hand = Scenario::from_jobs(list);
  EXPECT_EQ(emit_joblog(from_scenario(helper)),
            emit_joblog(from_scenario(by_hand)));

  const auto a = harness::run_scenario(helper, 5);
  const auto b = harness::run_scenario(by_hand, 5);
  EXPECT_EQ(a.per_job.front().write_mbps, b.per_job.front().write_mbps);
  ASSERT_EQ(a.jobs.size(), 3u);
  EXPECT_EQ(a.jobs[1].job_id, lustre::sched::kNoiseJobBase);
  EXPECT_EQ(a.jobs[2].job_id, lustre::sched::kNoiseJobBase + 1);
}

TEST(ScenarioShape, LazyShapeRule) {
  ior::Config cfg;
  cfg.test_file = "/shape.dat";
  cfg.job_id = 7;

  // One job keeps the configured file name and JobId.
  const auto one = Scenario::single_ior(cfg).jobs_desugared();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].kind, JobKind::ior);
  EXPECT_EQ(one[0].ior.test_file, "/shape.dat");
  EXPECT_EQ(one[0].job_id, 7u);
  EXPECT_EQ(one[0].ior.job_id, 7u);
  EXPECT_EQ(one[0].nprocs, 1024);

  // More jobs suffix the file name with the job index, which is the JobId.
  const auto three = Scenario::multi(3, 16, cfg).jobs_desugared();
  ASSERT_EQ(three.size(), 3u);
  for (std::uint32_t k = 0; k < 3; ++k) {
    EXPECT_EQ(three[k].kind, JobKind::ior);
    EXPECT_EQ(three[k].ior.test_file, "/shape.dat." + std::to_string(k));
    EXPECT_EQ(three[k].job_id, k);
    EXPECT_EQ(three[k].ior.job_id, k);
    EXPECT_EQ(three[k].nprocs, 16);
  }

  // The driver picks the kind: ad_plfs jobs are JobKind::plfs.
  const auto plfs = Scenario::plfs_ior(cfg).jobs_desugared();
  ASSERT_EQ(plfs.size(), 1u);
  EXPECT_EQ(plfs[0].kind, JobKind::plfs);
  cfg.hints.driver = mpiio::Driver::ad_plfs;
  for (const JobSpec& j : Scenario::multi(2, 8, cfg).jobs_desugared()) {
    EXPECT_EQ(j.kind, JobKind::plfs);
  }
}

TEST(ScenarioShape, ProbeBuildsProbeWriterEntries) {
  const Scenario s = Scenario::probe(3, 4_MiB);
  ASSERT_EQ(s.job_list.size(), 3u);
  for (std::uint32_t w = 0; w < 3; ++w) {
    EXPECT_EQ(s.job_list[w].kind, JobKind::probe_writer);
    EXPECT_EQ(s.job_list[w].job_id, w);
    EXPECT_EQ(s.job_list[w].nprocs, 1);
    EXPECT_EQ(s.job_list[w].bytes, 4_MiB);
    EXPECT_EQ(s.job_list[w].target_ost, -1);
  }
  EXPECT_NO_THROW(s.validate());
}

TEST(JobListExec, TotalMbpsUniformAcrossWorkloads) {
  // Satellite fix: total_mbps and per_job populated for *every* workload.
  ior::Config cfg;
  cfg.segment_count = 2;
  Scenario single = Scenario::single_ior(cfg);
  single.nprocs = 8;
  const auto s = harness::run_scenario(single, 3);
  ASSERT_EQ(s.per_job.size(), 1u);
  EXPECT_EQ(s.total_mbps, s.metric);
  EXPECT_GT(s.total_mbps, 0.0);

  const auto p = harness::run_scenario(Scenario::probe(4, 8_MiB), 3);
  ASSERT_EQ(p.per_job.size(), 4u);
  double sum = 0.0;
  for (const auto& r : p.per_job) sum += r.write_mbps;
  EXPECT_EQ(p.total_mbps, sum);
  EXPECT_GT(p.total_mbps, 0.0);
}

TEST(JobListExec, StaggeredArrivalDelaysTheLateJob) {
  // Two identical jobs; the second arrives after the first finishes. Both
  // must see (near-)solo bandwidth, unlike the synchronized pair.
  ior::Config cfg;
  cfg.segment_count = 2;
  cfg.hints.driver = mpiio::Driver::ad_lustre;
  cfg.hints.striping_factor = 4;
  cfg.hints.striping_unit = 1_MiB;
  Scenario sync = Scenario::multi(2, 8, cfg);

  Scenario staggered = Scenario::from_jobs(sync.jobs_desugared());
  staggered.job_list[1].arrival = 3600.0;  // well past job 0's finish

  const auto base = harness::run_scenario(sync, 21);
  const auto lone = harness::run_scenario(staggered, 21);
  ASSERT_EQ(lone.per_job.size(), 2u);
  // Staggered jobs beat the contended synchronized pair.
  EXPECT_GT(lone.per_job[0].write_mbps, base.per_job[0].write_mbps);
  EXPECT_GT(lone.per_job[1].write_mbps, base.per_job[1].write_mbps);
  // And within ~1% of each other (both effectively solo).
  EXPECT_NEAR(lone.per_job[1].write_mbps / lone.per_job[0].write_mbps, 1.0,
              0.01);
}

TEST(JobListExec, ObservationEchoesTheJobList) {
  Scenario s = Scenario::probe(2, 4_MiB);
  const auto obs = harness::run_scenario(s, 1);
  ASSERT_EQ(obs.jobs.size(), 2u);
  EXPECT_EQ(obs.jobs[0].kind, JobKind::probe_writer);
  EXPECT_EQ(obs.jobs[1].job_id, 1u);
}

TEST(JobListExec, ValidatesJobLists) {
  // Duplicate ids.
  {
    JobSpec a, b;
    a.job_id = b.job_id = 4;
    EXPECT_THROW(
        harness::run_scenario(Scenario::from_jobs({a, b}), 1), UsageError);
  }
  // Noise-only lists have no ranks to run.
  {
    JobSpec n;
    n.kind = JobKind::noise;
    EXPECT_THROW(harness::run_scenario(Scenario::from_jobs({n}), 1),
                 UsageError);
  }
  // kind=ior routed through ad_plfs must use kind=plfs.
  {
    JobSpec j;
    j.ior.hints.driver = mpiio::Driver::ad_plfs;
    EXPECT_THROW(harness::run_scenario(Scenario::from_jobs({j}), 1),
                 UsageError);
  }
}

TEST(JobListExec, RejectsJobsThatNeverArriveOrMoveNothing) {
  // Each line parses, but its run would report NaN or 0 MB/s and exit 0.
  const std::string head = "#PFSC-JOBLOG v1\njob id=0 kind=ior nprocs=4 ";
  const std::pair<std::string, std::string> cases[] = {
      {"arrival=inf", "JobSpec[0]: arrival must be finite"},
      {"arrival=1e300",
       "JobSpec[0]: arrival is too late for the simulated clock to resolve "
       "1 ns"},
      {"block=0", "IOR: block size must be positive"},
      {"write=0 read=0", "IOR: write and read phases are both off"},
  };
  for (const auto& [fields, needle] : cases) {
    try {
      Scenario s = to_scenario(parse_joblog(head + fields + "\n", "log"));
      s.platform = hw::tiny_test_platform();
      harness::run_scenario(s, 1);
      ADD_FAILURE() << fields << ": expected UsageError";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << fields << ": " << e.what();
    }
  }
  // A generated fleet's span becomes every arrival: NaN and inf are
  // named at the generator, not later as one job's arrival.
  for (const Seconds span : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    FleetConfig cfg;
    cfg.jobs = 2;
    cfg.span = span;
    try {
      generate_fleet(cfg);
      ADD_FAILURE() << "span " << span << ": expected UsageError";
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "fleet: span must be finite and non-negative"),
                std::string::npos)
          << "span " << span << ": " << e.what();
    }
  }
}

TEST(JobListExec, ReadOfAFileNobodyWroteReportsEnoent) {
  // A read-only job of a missing file reports ENOENT and the run finishes:
  // alone at "/", in a subdirectory (a setup task makes the parents), and
  // beside a writer in a free-running two-job fleet.
  auto reader = [](lustre::sched::JobId id, std::string path) {
    JobSpec j;
    j.job_id = id;
    j.nprocs = 4;
    j.ior.segment_count = 2;
    j.ior.write_file = false;
    j.ior.read_file = true;
    j.ior.test_file = std::move(path);
    return j;
  };
  JobSpec writer = reader(2, "/fleet/written.dat");
  writer.ior.write_file = true;
  writer.ior.read_file = false;
  writer.arrival = 0.5;
  const std::vector<std::vector<JobSpec>> lists = {
      {reader(1, "/missing.dat")},
      {reader(1, "/sub/dir/missing.dat")},
      {reader(1, "/fleet/missing.dat"), writer},
  };
  for (const auto& list : lists) {
    Scenario s = Scenario::from_jobs(list);
    s.platform = hw::tiny_test_platform();
    const auto obs = harness::run_scenario(s, 9);
    ASSERT_EQ(obs.per_job.size(), list.size());
    EXPECT_EQ(obs.per_job[0].err, lustre::Errno::enoent)
        << list[0].ior.test_file;
    if (list.size() > 1) {
      EXPECT_EQ(obs.per_job[1].err, lustre::Errno::ok);
      EXPECT_GT(obs.contention.d_inuse, 0.0);
    }
  }
}

}  // namespace
}  // namespace pfsc::replay
