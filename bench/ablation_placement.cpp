// Ablation: acting on the contention model instead of just predicting it.
//
// Part A isolates the MDS placement policies (uniform_random vs
// round_robin vs load_aware vs node_affine) on a churning metadata
// workload: a stream of creates interleaved with unlinks and an OST
// failure/restore cycle, measuring the live per-OST object counts the MDS
// leaves behind. uniform_random's binomial tail and round_robin's
// blindness to the restored OST's deficit both leave hot OSTs;
// load_aware's greedy least-loaded choice keeps the spread within one
// object of flat. The exit status asserts load_aware's max per-OST load
// is no worse than either baseline (and strictly better than random).
//
// Part B reruns four tuned IOR jobs (16-wide stripes on the full 480-OST
// Cab platform, arrivals 0.1 s apart so earlier layouts are on the MDS
// books when later ones are placed) under each placement and reports
// per-job bandwidth plus the max per-OST byte load from the trace
// summary: with load_aware the four layouts never share an OST, so no
// OST serves two jobs' bytes.
//
// Part C turns on the harness::AdmissionController for a replayed
// 200-job fleet compressed into a 5-second arrival window (heavy
// overlap): `threshold` delays release while the Eq. 1-6 prediction is
// over 1.2x, trading queue wait for lower per-job slowdown; `detune`
// shrinks stripe counts instead and pays nothing in wait. The assertions
// are the paper's trade-off, not a point value: mean slowdown drops under
// threshold, total wait is positive, and detune detunes without delaying.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "harness/runner.hpp"
#include "replay/analytics.hpp"
#include "replay/fleet.hpp"
#include "support/stats.hpp"

namespace {

using namespace pfsc;

bool check(bool ok, const char* what) {
  if (!ok) std::printf("FAIL: %s\n", what);
  return ok;
}

// -- Part A: placement micro (MDS state only) ------------------------------

struct PlacementLoad {
  std::uint64_t max_objects = 0;
  std::uint64_t min_objects = 0;
  double mean_objects = 0.0;
};

/// `creates` 8-stripe files with every third file unlinked behind the
/// stream and one OST failed for the middle third of it; returns the live
/// per-OST object spread the MDS left behind.
sim::Task churn_driver(lustre::Client& client, lustre::FileSystem& fs,
                       int creates) {
  lustre::StripeSettings settings;
  settings.stripe_count = 8;
  settings.stripe_size = 1_MiB;
  const auto dir = co_await client.mkdir("/churn");
  PFSC_ASSERT(dir.ok());
  for (int i = 0; i < creates; ++i) {
    if (i == creates / 3) fs.fail_ost(0);
    if (i == 2 * creates / 3) fs.restore_ost(0);
    const std::string path = "/churn/f" + std::to_string(i);
    const auto file = co_await client.create(path, settings);
    PFSC_ASSERT(file.ok());
    if (i % 3 == 2) {
      const lustre::Errno rc =
          co_await client.unlink("/churn/f" + std::to_string(i - 1));
      PFSC_ASSERT(rc == lustre::Errno::ok);
    }
  }
}

PlacementLoad run_churn(lustre::PlacementKind kind, int creates) {
  hw::PlatformParams p = hw::cab_lscratchc();
  p.ost_placement = kind;
  sim::Engine eng;
  lustre::FileSystem fs(eng, p, /*seed=*/17);
  lustre::Client client(fs, "mds-churn");
  eng.spawn(churn_driver(client, fs, creates));
  eng.run();

  const std::vector<std::uint64_t> objects = fs.objects_per_ost();
  PlacementLoad load;
  load.max_objects = *std::max_element(objects.begin(), objects.end());
  load.min_objects = *std::min_element(objects.begin(), objects.end());
  double sum = 0.0;
  for (const std::uint64_t n : objects) sum += static_cast<double>(n);
  load.mean_objects = sum / static_cast<double>(objects.size());
  return load;
}

// -- Part B: four contending jobs, narrow stripes --------------------------

struct QuartetResult {
  double total_mbps = 0.0;
  double jain = 1.0;
  Bytes max_ost_bytes = 0;
};

QuartetResult run_quartet(lustre::PlacementKind kind, int nprocs) {
  // Staggered arrivals keep the four creates ordered in simulated time, so
  // a demand-aware MDS actually has earlier layouts on the books when it
  // places the later ones (simultaneous creates all see an empty system).
  std::vector<harness::JobSpec> jobs;
  for (int j = 0; j < 4; ++j) {
    harness::JobSpec spec;
    spec.kind = harness::JobKind::ior;
    spec.job_id = static_cast<std::uint32_t>(j);
    spec.nprocs = nprocs;
    spec.arrival = 0.1 * j;
    spec.ior.hints.driver = mpiio::Driver::ad_lustre;
    spec.ior.hints.striping_factor = 16;
    spec.ior.hints.striping_unit = 4_MiB;
    spec.ior.test_file = "/abl/placement.dat." + std::to_string(j);
    jobs.push_back(spec);
  }
  harness::Scenario s = harness::Scenario::from_jobs(std::move(jobs));
  s.procs_per_node = 16;
  s.platform.ost_placement = kind;
  s.trace.mode = trace::TraceMode::summary;
  const auto obs = harness::run_scenario(s, 0x91A);

  QuartetResult r;
  std::vector<double> per_job;
  for (const auto& job : obs.per_job) {
    PFSC_ASSERT(job.err == lustre::Errno::ok);
    per_job.push_back(job.write_mbps);
  }
  r.total_mbps = obs.total_mbps;
  r.jain = jain_index(per_job);
  for (const Bytes bytes : obs.trace_summary.ost_bytes) {
    r.max_ost_bytes = std::max(r.max_ost_bytes, bytes);
  }
  return r;
}

// -- Part C: admission-controlled fleet ------------------------------------

struct FleetOutcome {
  replay::FleetReport report;
  double mean_slowdown = 0.0;
};

FleetOutcome fleet_outcome(harness::AdmissionPolicy policy, double limit,
                           unsigned jobs) {
  replay::FleetConfig cfg;
  cfg.jobs = jobs;
  cfg.seed = 11;
  cfg.span = 5.0;  // compress arrivals so predictions actually trip
  harness::Scenario s = replay::to_scenario(replay::generate_fleet(cfg));
  s.admission.policy = policy;
  s.admission.max_dload = limit;
  const auto obs = harness::run_scenario(s, 0xF1EE7);

  FleetOutcome out;
  out.report = replay::analyze_fleet(obs, s.platform);
  for (const replay::JobStats& js : out.report.jobs) {
    out.mean_slowdown += js.slowdown;
  }
  out.mean_slowdown /= static_cast<double>(out.report.jobs.size());
  return out;
}

}  // namespace

int main() {
  bench::banner("Ablation",
                "MDS placement policies + model-driven admission control");
  const bool quick = std::getenv("PFSC_QUICK") != nullptr;
  bool pass = true;

  using lustre::PlacementKind;
  const PlacementKind kKinds[] = {
      PlacementKind::uniform_random, PlacementKind::round_robin,
      PlacementKind::load_aware, PlacementKind::node_affine};

  // -- Part A ------------------------------------------------------------
  const int creates = quick ? 300 : 1200;
  std::printf("\nPart A — %d 8-stripe creates on %u OSTs, every third file\n"
              "unlinked, OST 0 failed for the middle third. Live per-OST\n"
              "object counts left on the MDS:\n\n",
              creates, hw::cab_lscratchc().ost_count);
  TextTable table({"placement", "max", "mean", "min", "spread"});
  std::vector<PlacementLoad> loads;
  for (const PlacementKind kind : kKinds) {
    const PlacementLoad load = run_churn(kind, creates);
    loads.push_back(load);
    table.cell(lustre::placement_kind_name(kind))
        .cell(std::to_string(load.max_objects))
        .cell(fmt_double(load.mean_objects, 1))
        .cell(std::to_string(load.min_objects))
        .cell(std::to_string(load.max_objects - load.min_objects));
    table.end_row();
  }
  table.print("Live objects per OST after the churn stream");

  const PlacementLoad& rand_load = loads[0];
  const PlacementLoad& rr_load = loads[1];
  const PlacementLoad& la_load = loads[2];
  pass &= check(la_load.max_objects < rand_load.max_objects,
                "load_aware max per-OST load strictly below uniform_random");
  pass &= check(la_load.max_objects <= rr_load.max_objects,
                "load_aware max per-OST load no worse than round_robin");
  pass &= check(la_load.max_objects - la_load.min_objects <= 1,
                "load_aware keeps live demand within one object of flat");

  // -- Part B ------------------------------------------------------------
  const int nprocs = quick ? 64 : 256;
  std::printf("\nPart B — four tuned IOR jobs (%d ranks each, 16-wide\n"
              "stripes on 480 OSTs) arriving 0.1 s apart, per placement\n"
              "policy:\n\n",
              nprocs);
  TextTable fig({"placement", "total MB/s", "jain", "max OST GiB"});
  std::vector<QuartetResult> quartets;
  for (const PlacementKind kind : kKinds) {
    const QuartetResult r = run_quartet(kind, nprocs);
    quartets.push_back(r);
    fig.cell(lustre::placement_kind_name(kind))
        .cell(fmt_double(r.total_mbps, 0))
        .cell(fmt_double(r.jain, 4))
        .cell(fmt_double(static_cast<double>(r.max_ost_bytes) /
                             static_cast<double>(1_GiB),
                         2));
    fig.end_row();
  }
  fig.print("Four-job contention under each placement");
  pass &= check(quartets[2].max_ost_bytes <= quartets[0].max_ost_bytes,
                "load_aware max per-OST bytes <= uniform_random (no overlap)");
  pass &= check(quartets[2].jain >= quartets[0].jain - 1e-9,
                "load_aware at least as fair as uniform_random");

  // -- Part C ------------------------------------------------------------
  // 200 jobs are needed to push 480 OSTs past the 1.2x prediction even in
  // quick mode — an 80-job fleet never trips the gate on this platform.
  const unsigned fleet_jobs = 200;
  const double limit = 1.2;
  std::printf("\nPart C — %u-job fleet over a 5 s arrival window; admission\n"
              "policies at a %.1fx predicted-D_load limit:\n\n",
              fleet_jobs, limit);
  const FleetOutcome always =
      fleet_outcome(harness::AdmissionPolicy::always, limit, fleet_jobs);
  const FleetOutcome threshold =
      fleet_outcome(harness::AdmissionPolicy::threshold, limit, fleet_jobs);
  const FleetOutcome detune =
      fleet_outcome(harness::AdmissionPolicy::detune, limit, fleet_jobs);

  TextTable adm({"admission", "mean slowdown", "jain", "delayed", "detuned",
                 "total wait (s)"});
  const struct {
    const char* name;
    const FleetOutcome* out;
  } rows[] = {{"always", &always}, {"threshold", &threshold},
              {"detune", &detune}};
  for (const auto& row : rows) {
    adm.cell(row.name)
        .cell(fmt_double(row.out->mean_slowdown, 3))
        .cell(fmt_double(row.out->report.jain_fairness, 4))
        .cell(std::to_string(row.out->report.delayed))
        .cell(std::to_string(row.out->report.detuned))
        .cell(fmt_double(row.out->report.total_admit_wait, 2));
    adm.end_row();
  }
  adm.print("Fleet outcomes per admission policy");

  pass &= check(!always.report.has_admission,
                "always leaves no admission records (ungated baseline)");
  pass &= check(threshold.report.delayed > 0,
                "threshold delays at least one overlapping job");
  pass &= check(threshold.report.total_admit_wait > 0.0,
                "threshold pays for the gating in queue wait");
  pass &= check(threshold.mean_slowdown < always.mean_slowdown,
                "threshold reduces mean per-job slowdown vs always");
  pass &= check(detune.report.detuned > 0,
                "detune shrinks at least one overlapping layout");
  pass &= check(detune.report.total_admit_wait == 0.0,
                "detune never delays (stripe reduction instead of wait)");

  std::printf("\n%s\n", pass ? "ABLATION PASS" : "ABLATION FAIL");
  return pass ? 0 : 1;
}
