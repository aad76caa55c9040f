// pfsc_cli — a command-line driver for the simulator, so experiments can be
// scripted without writing C++. Hints travel in MPI_Info textual form.
//
//   pfsc_cli ior    --nprocs 1024 --hints "driver=ad_lustre;striping_factor=160;striping_unit=134217728" --repetitions 3
//   pfsc_cli multi  --jobs 4 --nprocs 1024 --striping_factor 64
//   pfsc_cli probe  --writers 8
//   pfsc_cli plfs   --nprocs 512
//   pfsc_cli metrics --dtotal 480 --striping_factor 160 --jobs 10
//   pfsc_cli advise --dtotal 480 --jobs 4 --budget 1.25
//   pfsc_cli health --jobs 4 --striping_factor 64    (run jobs, then report)
//   pfsc_cli replay --replay data/fig3_quartet.joblog --report report.json
//   pfsc_cli fleet  --fleet 200 --fleet_mix ior:4,checkpoint:2 --fleet_seed 7
//
// The flag surface is the Scenario/RunPlan field set itself (see
// harness::cli::scenario_flags): each flag is named after the field it
// sets, and every value is parsed strictly — garbage input is an error,
// never a silent zero. --threads runs repetitions across a worker pool
// without changing any result.
#include <cstdio>
#include <fstream>
#include <string>

#include "core/fs_report.hpp"
#include "core/metrics.hpp"
#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "replay/analytics.hpp"
#include "replay/replay_cli.hpp"
#include "support/table.hpp"
#include "trace/export.hpp"

using namespace pfsc;

namespace {

int usage(const harness::cli::FlagTable& table) {
  std::fprintf(stderr,
               "usage: pfsc_cli "
               "<ior|multi|probe|plfs|metrics|advise|health|replay|fleet> "
               "[options]\n%s",
               table.usage().c_str());
  return 2;
}

/// Print the first repetition's trace roll-up (and where the trace went)
/// when the run carried a recorder (--trace summary/full).
void print_trace(const harness::Scenario& scenario,
                 const harness::Observation& obs) {
  if (!obs.traced) return;
  std::fputs(obs.trace_summary.format().c_str(), stdout);
  if (!scenario.trace.out.empty()) {
    std::printf("trace written to %s\n",
                trace::resolve_trace_path(scenario.trace.out, obs.seed).c_str());
  }
}

int ior_mode(const harness::Scenario& scenario, const harness::RunPlan& plan,
             unsigned threads) {
  const auto set = harness::ParallelRunner(threads).run(scenario, plan);
  const auto& point = set.point(0);
  TextTable table({"rep", "write MB/s", "verified", "time s"});
  for (std::size_t rep = 0; rep < point.reps.size(); ++rep) {
    const auto& res = point.reps[rep].per_job.front();
    if (res.err != lustre::Errno::ok) {
      std::fprintf(stderr, "run failed: %s\n", lustre::errno_name(res.err));
      return 1;
    }
    table.cell(fmt_int(static_cast<long long>(rep + 1)))
        .cell(fmt_double(res.write_mbps, 0))
        .cell(res.verified ? "yes" : "NO")
        .cell(fmt_double(res.write_time, 1));
    table.end_row();
  }
  table.print(scenario.ior.hints.driver == mpiio::Driver::ad_plfs
                  ? "IOR through ad_plfs"
                  : "IOR");
  std::printf("mean %.0f MB/s over %u rep(s)\n", point.ci.mean, plan.reps());
  print_trace(scenario, point.reps.front());
  return 0;
}

int multi_mode(const harness::Scenario& scenario,
               const harness::RunPlan& plan, unsigned threads,
               unsigned dtotal) {
  const auto set = harness::ParallelRunner(threads).run(scenario, plan);
  const auto& res = set.point(0).reps.front();
  TextTable table({"job", "write MB/s"});
  for (std::size_t j = 0; j < res.per_job.size(); ++j) {
    table.cell(fmt_int(static_cast<long long>(j + 1)))
        .cell(fmt_double(res.per_job[j].write_mbps, 0));
    table.end_row();
  }
  table.print("Contending jobs");
  const unsigned stripes = scenario.ior.hints.striping_factor;
  const auto jobs = static_cast<unsigned>(scenario.jobs);
  std::printf("total %.0f MB/s; Dinuse %.0f (Eq.2: %.1f); Dload %.2f (Eq.4: %.2f)\n",
              res.total_mbps, res.contention.d_inuse,
              core::d_inuse_uniform(stripes, jobs, dtotal),
              res.contention.d_load, core::d_load(stripes, jobs, dtotal));
  print_trace(scenario, res);
  return 0;
}

int probe_mode(const harness::Scenario& scenario,
               const harness::RunPlan& plan, unsigned threads) {
  const auto set = harness::ParallelRunner(threads).run(scenario, plan);
  const auto& point = set.point(0);
  const auto& writers = point.reps.front().per_job;
  TextTable table({"writer", "MB/s"});
  for (std::size_t w = 0; w < writers.size(); ++w) {
    table.cell(fmt_int(static_cast<long long>(w)))
        .cell(fmt_double(writers[w].write_mbps, 1));
    table.end_row();
  }
  table.print("Single-OST contention probe");
  std::printf("mean per-process %.1f MB/s over %u rep(s)\n", point.ci.mean,
              plan.reps());
  print_trace(scenario, point.reps.front());
  return 0;
}

int metrics_mode(const harness::Scenario& scenario, unsigned dtotal) {
  const unsigned stripes = scenario.ior.hints.striping_factor;
  TextTable table({"jobs", "Dinuse", "Dreq", "Dload", "busiest OST",
                   "job slowdown"});
  for (const auto& pt :
       core::contention_table(stripes, static_cast<unsigned>(scenario.jobs),
                              dtotal)) {
    table.cell(fmt_int(pt.jobs))
        .cell(fmt_double(pt.d_inuse, 2))
        .cell(fmt_int(static_cast<long long>(pt.d_req)))
        .cell(fmt_double(pt.d_load, 2))
        .cell(fmt_double(core::expected_max_occupancy(dtotal, pt.jobs, stripes,
                                                      dtotal), 2))
        .cell(fmt_double(core::predicted_job_slowdown(dtotal, pt.jobs,
                                                      stripes), 2));
    table.end_row();
  }
  char caption[128];
  std::snprintf(caption, sizeof caption,
                "Contention metrics: D_total=%u, R=%u", dtotal, stripes);
  table.print(caption);
  return 0;
}

int health_mode(const harness::Scenario& scenario,
                const harness::RunPlan& plan) {
  // Run a contended layout, then print the operator's health report.
  sim::Engine eng;
  lustre::FileSystem fs(eng, scenario.platform, plan.seed());
  eng.spawn([](lustre::FileSystem& fs, const harness::Scenario& s) -> sim::Task {
    for (int j = 0; j < s.jobs; ++j) {
      auto r = co_await fs.create(
          "/job" + std::to_string(j),
          lustre::StripeSettings{s.ior.hints.striping_factor,
                                 s.ior.hints.striping_unit, -1});
      PFSC_ASSERT(r.ok());
    }
  }(fs, scenario));
  eng.run();
  std::fputs(core::format_health_report(core::collect_health_report(fs)).c_str(),
             stdout);
  return 0;
}

/// replay / fleet modes: run the job list once, analyse it, print the
/// ranked per-application table, optionally write JSON (--report) and the
/// canonical joblog (--emit_log, handy for turning a fleet into a fixture).
int fleet_mode(const harness::Scenario& scenario,
               const harness::RunPlan& plan, unsigned threads,
               const std::string& report_path,
               const std::string& emit_path) {
  if (!emit_path.empty()) {
    std::ofstream out(emit_path, std::ios::binary | std::ios::trunc);
    PFSC_REQUIRE(out.good(), "cannot open --emit_log path " + emit_path);
    out << replay::emit_joblog(replay::from_scenario(scenario));
    PFSC_REQUIRE(out.good(), "failed writing " + emit_path);
    std::printf("joblog written to %s\n", emit_path.c_str());
  }
  const auto set = harness::ParallelRunner(threads).run(scenario, plan);
  const auto& obs = set.point(0).reps.front();
  const replay::FleetReport report =
      replay::analyze_fleet(obs, scenario.platform);
  std::fputs(report.format_table().c_str(), stdout);
  if (!report_path.empty()) {
    std::ofstream out(report_path, std::ios::binary | std::ios::trunc);
    PFSC_REQUIRE(out.good(), "cannot open --report path " + report_path);
    out << report.to_json() << "\n";
    PFSC_REQUIRE(out.good(), "failed writing " + report_path);
    std::printf("report written to %s\n", report_path.c_str());
  }
  print_trace(scenario, obs);
  return 0;
}

int advise_mode(const harness::Scenario& scenario, unsigned dtotal,
                double budget) {
  const auto jobs = static_cast<unsigned>(scenario.jobs);
  const auto advice = core::advise_stripe_count(dtotal, jobs, budget, 160);
  if (advice.recommended_stripes == 0) {
    std::printf("No stripe count satisfies load budget %.2f with %d jobs on "
                "%u OSTs.\n", budget, scenario.jobs, dtotal);
    return 1;
  }
  std::printf("Request %u stripes per job: predicted load %.2f, %.0f OSTs in "
              "use, expected job slowdown %.2fx.\n",
              advice.recommended_stripes, advice.predicted_load,
              advice.predicted_inuse,
              core::predicted_job_slowdown(dtotal, jobs,
                                           advice.recommended_stripes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  harness::Scenario scenario;
  harness::RunPlan plan;
  unsigned threads = 0;
  unsigned dtotal = 480;
  double budget = 1.25;

  harness::cli::JobOptions jopts;
  replay::ReplayOptions ropts;
  std::string report_path;
  std::string emit_path;

  harness::cli::FlagTable table =
      harness::cli::scenario_flags(scenario, plan, threads);
  harness::cli::add_job_flags(table, jopts);
  table.bind("--dtotal", dtotal, "total OSTs for the analytic modes");
  table.bind("--budget", budget, "load budget for advise mode");
  replay::add_replay_flags(table, ropts);
  table.bind("--report", report_path,
             "write the fleet analytics report as JSON to this path");
  table.bind("--emit_log", emit_path,
             "write the scenario's canonical joblog to this path");

  if (argc < 2) return usage(table);
  const std::string mode = argv[1];

  // Mode presets, applied before the flags so any flag can override them.
  if (mode == "plfs") {
    scenario.ior.hints.driver = mpiio::Driver::ad_plfs;
  } else if (mode == "probe") {
    jopts.probe = true;
  } else if (mode == "replay" || mode == "fleet") {
    // Job specs carry their own layouts; no tuned-baseline override.
  } else {
    // Every mode but ior is about contention between the paper's four jobs.
    if (mode != "ior") scenario.jobs = 4;
    // The tuned layout of Section IV is the CLI's baseline.
    scenario.ior.hints.driver = mpiio::Driver::ad_lustre;
    scenario.ior.hints.striping_factor = 160;
    scenario.ior.hints.striping_unit = 128_MiB;
  }

  try {
    table.parse(argc, argv, 2);
    if (mode == "replay" || mode == "fleet") {
      if (mode == "replay" && ropts.replay_log.empty()) {
        throw UsageError("replay mode needs --replay <log>");
      }
      if (mode == "fleet") ropts.fleet_requested = true;
    }
    ropts.apply(scenario);  // --replay/--fleet also compose with other modes
    jopts.apply(scenario);
    if (mode == "replay" || mode == "fleet") {
      return fleet_mode(scenario, plan, threads, report_path, emit_path);
    }
    if (mode == "ior" || mode == "plfs") {
      return ior_mode(scenario, plan, threads);
    }
    if (mode == "multi") return multi_mode(scenario, plan, threads, dtotal);
    if (mode == "probe") return probe_mode(scenario, plan, threads);
    if (mode == "metrics") return metrics_mode(scenario, dtotal);
    if (mode == "advise") return advise_mode(scenario, dtotal, budget);
    if (mode == "health") return health_mode(scenario, plan);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage(table);
}
