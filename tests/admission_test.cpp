// Admission controller: the default stays bit-for-bit invisible, the
// threshold/detune policies honour the Eq. 1-6 load prediction, and the
// decisions are deterministic at any --threads count.
//
// The golden tests replay the bundled Fig. 3 quartet and a 200-job
// synthetic fleet under `always` and require byte-identical analytics
// reports to an ungated run (plus the quartet's pinned absolute numbers).
// Fuzz tests drive the controller directly with seeded random
// arrival/service sequences and check the queue invariants: no job lost,
// arrival order preserved, and no release while the predicted load
// exceeds the limit (unless the system was idle).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "harness/admission.hpp"
#include "harness/runner.hpp"
#include "harness/scenario.hpp"
#include "replay/analytics.hpp"
#include "replay/fleet.hpp"
#include "replay/log.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"

#ifndef PFSC_DATA_DIR
#define PFSC_DATA_DIR "data"
#endif

namespace pfsc::harness {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

Scenario quartet_scenario() {
  const replay::JobLog log =
      replay::load_joblog(std::string(PFSC_DATA_DIR) + "/fig3_quartet.joblog");
  return replay::to_scenario(log);
}

Scenario fleet_scenario(unsigned jobs, Seconds span) {
  replay::FleetConfig cfg;
  cfg.jobs = jobs;
  cfg.seed = 11;
  cfg.span = span;
  return replay::to_scenario(replay::generate_fleet(cfg));
}

// -- goldens: `always` is bit-for-bit the ungated run -----------------------

TEST(AdmissionGolden, AlwaysQuartetKeepsPinnedNumbers) {
  Scenario s = quartet_scenario();
  ASSERT_EQ(s.admission.policy, AdmissionPolicy::always);  // the default
  const Observation obs = run_scenario(s, 0xF3D0);
  ASSERT_EQ(obs.per_job.size(), 4u);
  EXPECT_TRUE(obs.admissions.empty());
  // The same pinned goldens as ReplayGolden.Fig3QuartetMatchesHandBuiltExactly:
  // the admission hooks must not perturb a single event.
  const double golden[4] = {
      826.69842165621571,
      827.73487650397442,
      828.70417787485655,
      825.15311617913835,
  };
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(obs.per_job[j].write_mbps, golden[j]) << "job " << j;
  }
}

TEST(AdmissionGolden, AlwaysFleet200ReportBytesUnchanged) {
  Scenario plain = fleet_scenario(200, 60.0);
  Scenario gated = plain;
  gated.admission.policy = AdmissionPolicy::always;  // explicit == default
  const Observation a = run_scenario(plain, 7);
  const Observation b = run_scenario(gated, 7);
  const replay::FleetReport ra = replay::analyze_fleet(a, plain.platform);
  const replay::FleetReport rb = replay::analyze_fleet(b, gated.platform);
  EXPECT_EQ(ra.to_json(), rb.to_json());
  EXPECT_EQ(ra.format_table(), rb.format_table());
  EXPECT_FALSE(ra.has_admission);
  EXPECT_FALSE(rb.has_admission);
}

TEST(AdmissionGolden, ThresholdInfinityEqualsAlwaysPerJob) {
  Scenario plain = fleet_scenario(120, 5.0);
  Scenario gated = plain;
  gated.admission.policy = AdmissionPolicy::threshold;
  gated.admission.max_dload = kInf;
  const Observation a = run_scenario(plain, 7);
  const Observation b = run_scenario(gated, 7);
  ASSERT_EQ(a.per_job.size(), b.per_job.size());
  for (std::size_t j = 0; j < a.per_job.size(); ++j) {
    EXPECT_EQ(a.per_job[j].write_mbps, b.per_job[j].write_mbps) << "job " << j;
    EXPECT_EQ(a.per_job[j].write_time, b.per_job[j].write_time) << "job " << j;
  }
  // An infinite limit never queues or detunes: one record per job, all
  // admitted with zero wait.
  ASSERT_EQ(b.admissions.size(), b.per_job.size());
  for (const AdmissionRecord& rec : b.admissions) {
    EXPECT_EQ(rec.action, AdmissionAction::admitted);
    EXPECT_EQ(rec.wait(), 0.0);
  }
}

// -- policies act on the model ----------------------------------------------

TEST(AdmissionPolicyTest, ThresholdDelaysOverlappingJobs) {
  Scenario s = fleet_scenario(120, 5.0);
  s.admission.policy = AdmissionPolicy::threshold;
  s.admission.max_dload = 1.2;
  const Observation obs = run_scenario(s, 7);
  ASSERT_EQ(obs.admissions.size(), obs.per_job.size());
  unsigned delayed = 0;
  for (const AdmissionRecord& rec : obs.admissions) {
    if (rec.action == AdmissionAction::delayed) {
      ++delayed;
      EXPECT_GT(rec.wait(), 0.0);
    }
    // The release invariant: either the prediction fit, or the system was
    // idle (a job is never held back by an empty machine).
    EXPECT_TRUE(rec.predicted_dload <= s.admission.max_dload + 1e-9 ||
                rec.running_before == 0)
        << "job " << rec.job_id << " released at D_load "
        << rec.predicted_dload << " with " << rec.running_before
        << " running";
  }
  EXPECT_GT(delayed, 0u);

  // The analytics surface the decisions.
  const replay::FleetReport report = replay::analyze_fleet(obs, s.platform);
  EXPECT_TRUE(report.has_admission);
  EXPECT_EQ(report.delayed, delayed);
  EXPECT_GT(report.total_admit_wait, 0.0);
  EXPECT_NE(report.format_table().find("admission:"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"admission\""), std::string::npos);
}

TEST(AdmissionPolicyTest, DetuneReducesStripesInsteadOfWaiting) {
  Scenario s = fleet_scenario(120, 5.0);
  s.admission.policy = AdmissionPolicy::detune;
  s.admission.max_dload = 1.2;
  s.admission.min_stripes = 2;
  const Observation obs = run_scenario(s, 7);
  ASSERT_EQ(obs.admissions.size(), obs.per_job.size());
  unsigned detuned = 0;
  for (const AdmissionRecord& rec : obs.admissions) {
    EXPECT_NE(rec.action, AdmissionAction::delayed);  // detune never waits
    EXPECT_EQ(rec.wait(), 0.0);
    if (rec.action == AdmissionAction::detuned) {
      ++detuned;
      EXPECT_LT(rec.stripes_after, rec.stripes_before);
      EXPECT_GE(rec.stripes_after,
                std::min(s.admission.min_stripes, rec.stripes_before));
    }
  }
  EXPECT_GT(detuned, 0u);
}

TEST(AdmissionPolicyTest, DecisionsIdenticalAcrossRunnerThreads) {
  Scenario s = fleet_scenario(60, 5.0);
  s.admission.policy = AdmissionPolicy::threshold;
  s.admission.max_dload = 1.2;
  harness::RunPlan plan;
  plan.repetitions(2);
  const harness::RunSet one = harness::ParallelRunner(1).run(s, plan);
  const harness::RunSet four = harness::ParallelRunner(4).run(s, plan);
  for (std::size_t rep = 0; rep < 2; ++rep) {
    const Observation& a = one.point(0).reps[rep];
    const Observation& b = four.point(0).reps[rep];
    EXPECT_EQ(replay::analyze_fleet(a, s.platform).to_json(),
              replay::analyze_fleet(b, s.platform).to_json());
    ASSERT_FALSE(a.admissions.empty());
    ASSERT_EQ(a.admissions.size(), b.admissions.size());
    for (std::size_t i = 0; i < a.admissions.size(); ++i) {
      EXPECT_EQ(a.admissions[i].job_id, b.admissions[i].job_id);
      EXPECT_EQ(a.admissions[i].action, b.admissions[i].action);
      EXPECT_EQ(a.admissions[i].released, b.admissions[i].released);
      EXPECT_EQ(a.admissions[i].predicted_dload,
                b.admissions[i].predicted_dload);
    }
  }
}

// -- controller-level fuzz ---------------------------------------------------

struct FuzzJob {
  JobSpec spec;
  Seconds service = 0.0;
};

std::vector<FuzzJob> gen_fuzz(std::uint64_t seed, std::uint32_t ost_count) {
  Rng rng(0xAD317u ^ (seed * 0x9E3779B97F4A7C15ull));
  std::vector<FuzzJob> jobs;
  const std::size_t n = 2 + static_cast<std::size_t>(rng.uniform(30));
  Seconds arrival = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    FuzzJob f;
    f.spec.job_id = static_cast<lustre::sched::JobId>(i + 1);
    arrival += rng.uniform_double(0.0, 0.5);
    f.spec.arrival = arrival;
    const std::uint64_t roll = rng.uniform(10);
    if (roll < 6) {
      f.spec.kind = JobKind::ior;
      f.spec.nprocs = 1 + static_cast<int>(rng.uniform(32));
      f.spec.ior.hints.driver = mpiio::Driver::ad_lustre;
      f.spec.ior.hints.striping_factor =
          1 + static_cast<std::uint32_t>(rng.uniform(ost_count));
      f.spec.ior.file_per_process = rng.uniform(4) == 0;
    } else if (roll < 8) {
      f.spec.kind = JobKind::plfs;
      f.spec.nprocs = 1 + static_cast<int>(rng.uniform(16));
      f.spec.ior.hints.driver = mpiio::Driver::ad_plfs;
    } else if (roll == 8) {
      f.spec.kind = JobKind::probe_writer;
      f.spec.nprocs = 1 + static_cast<int>(rng.uniform(4));
    } else {
      f.spec.kind = JobKind::noise;
      f.spec.stripes = 1 + static_cast<std::uint32_t>(rng.uniform(4));
    }
    f.service = 0.01 + rng.uniform_double(0.0, 2.0);
    jobs.push_back(std::move(f));
  }
  return jobs;
}

sim::Task fuzz_driver(sim::Engine& eng, AdmissionController& ac,
                      const FuzzJob& f) {
  if (f.spec.arrival > 0.0) co_await eng.delay(f.spec.arrival);
  (void)co_await ac.admit(f.spec);
  co_await eng.delay(f.service);
  ac.finished(f.spec);
}

void run_fuzz(AdmissionPolicy policy, double limit, std::uint64_t seed) {
  hw::PlatformParams platform = hw::tiny_test_platform();
  const std::vector<FuzzJob> jobs = gen_fuzz(seed, platform.ost_count);

  sim::Engine eng;
  AdmissionConfig cfg;
  cfg.policy = policy;
  cfg.max_dload = limit;
  AdmissionController ac(eng, cfg, platform);
  for (const FuzzJob& f : jobs) eng.spawn(fuzz_driver(eng, ac, f));
  eng.run();

  // No job lost, none stuck in the queue, every running job retired.
  EXPECT_EQ(ac.queued_jobs(), 0u) << "seed " << seed;
  EXPECT_EQ(ac.running_jobs(), 0u) << "seed " << seed;
  const std::vector<AdmissionRecord>& recs = ac.records();
  ASSERT_EQ(recs.size(), jobs.size()) << "seed " << seed;
  std::map<lustre::sched::JobId, const AdmissionRecord*> by_id;
  for (const AdmissionRecord& rec : recs) {
    EXPECT_TRUE(by_id.emplace(rec.job_id, &rec).second)
        << "duplicate record for job " << rec.job_id << " seed " << seed;
  }
  for (const FuzzJob& f : jobs) {
    ASSERT_TRUE(by_id.count(f.spec.job_id))
        << "job " << f.spec.job_id << " lost, seed " << seed;
    const AdmissionRecord& rec = *by_id[f.spec.job_id];
    EXPECT_EQ(rec.arrival, f.spec.arrival) << "seed " << seed;
    EXPECT_GE(rec.released, rec.arrival) << "seed " << seed;
    // Arrival order is preserved: a job never overtakes an earlier one.
    for (const FuzzJob& g : jobs) {
      const AdmissionRecord& other = *by_id[g.spec.job_id];
      if (g.spec.arrival < f.spec.arrival) {
        EXPECT_LE(other.released, rec.released)
            << "job " << g.spec.job_id << " overtaken by " << f.spec.job_id
            << ", seed " << seed;
      }
    }
    // Never released into a predicted overload (unless the machine was
    // idle, which must always admit to avoid deadlock).
    if (policy == AdmissionPolicy::threshold) {
      EXPECT_TRUE(rec.predicted_dload <= limit + 1e-9 ||
                  rec.running_before == 0)
          << "job " << rec.job_id << " at D_load " << rec.predicted_dload
          << " with " << rec.running_before << " running, seed " << seed;
      EXPECT_EQ(rec.stripes_after, rec.stripes_before) << "seed " << seed;
    }
    if (policy == AdmissionPolicy::detune) {
      EXPECT_EQ(rec.wait(), 0.0) << "seed " << seed;
      EXPECT_LE(rec.stripes_after, rec.stripes_before) << "seed " << seed;
    }
  }
}

TEST(AdmissionFuzz, ThresholdQueueInvariantsHoldAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    run_fuzz(AdmissionPolicy::threshold, 1.1, seed);
  }
}

TEST(AdmissionFuzz, ThresholdInfinityNeverWaits) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    hw::PlatformParams platform = hw::tiny_test_platform();
    const std::vector<FuzzJob> jobs = gen_fuzz(seed, platform.ost_count);
    sim::Engine eng;
    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::threshold;
    cfg.max_dload = kInf;
    AdmissionController ac(eng, cfg, platform);
    for (const FuzzJob& f : jobs) eng.spawn(fuzz_driver(eng, ac, f));
    eng.run();
    for (const AdmissionRecord& rec : ac.records()) {
      EXPECT_EQ(rec.action, AdmissionAction::admitted);
      EXPECT_EQ(rec.wait(), 0.0);
    }
  }
}

TEST(AdmissionFuzz, DetuneInvariantsHoldAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    run_fuzz(AdmissionPolicy::detune, 1.1, seed);
  }
}

// -- config validation -------------------------------------------------------

TEST(AdmissionConfigTest, ScenarioValidateRejectsBadLimits) {
  Scenario s = fleet_scenario(5, 0.0);
  s.admission.max_dload = 0.0;
  EXPECT_THROW(s.validate(), UsageError);
  s.admission.max_dload = 1.5;
  s.admission.min_stripes = 0;
  EXPECT_THROW(s.validate(), UsageError);
  s.admission.min_stripes = 1;
  EXPECT_NO_THROW(s.validate());
}

TEST(AdmissionConfigTest, JobRequestsMatchTheJobShapes) {
  const hw::PlatformParams p = hw::tiny_test_platform();
  JobSpec ior_job;
  ior_job.kind = JobKind::ior;
  ior_job.ior.hints.driver = mpiio::Driver::ad_lustre;
  ior_job.ior.hints.striping_factor = 4;
  EXPECT_EQ(AdmissionController::job_requests(ior_job, p),
            std::vector<double>({4.0}));
  EXPECT_EQ(AdmissionController::job_requests(ior_job, p, 2),
            std::vector<double>({2.0}));

  ior_job.nprocs = 3;
  ior_job.ior.file_per_process = true;
  EXPECT_EQ(AdmissionController::job_requests(ior_job, p),
            std::vector<double>({4.0, 4.0, 4.0}));

  JobSpec plfs_job;
  plfs_job.kind = JobKind::plfs;
  plfs_job.nprocs = 2;
  EXPECT_EQ(AdmissionController::job_requests(plfs_job, p),
            std::vector<double>({2.0, 2.0}));

  JobSpec probe;
  probe.kind = JobKind::probe_writer;
  probe.nprocs = 2;
  EXPECT_EQ(AdmissionController::job_requests(probe, p),
            std::vector<double>({1.0, 1.0}));

  JobSpec noise;
  noise.kind = JobKind::noise;
  noise.stripes = 3;
  EXPECT_EQ(AdmissionController::job_requests(noise, p),
            std::vector<double>({3.0}));
}

}  // namespace
}  // namespace pfsc::harness
