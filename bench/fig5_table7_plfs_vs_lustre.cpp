// Reproduces Figure 5 and Table VII: IOR write bandwidth at 16..4,096
// processes through the tuned ad_lustre driver (160 x 128 MiB) vs the
// ad_plfs driver (backend files on file-system-default 2 x 1 MiB stripes),
// with five-repetition means and 95% confidence intervals.
//
// Paper shape: PLFS wins at small/medium scale, peaks around 512 ranks,
// then collapses — by 4,096 ranks it is ~5x slower than tuned Lustre (and
// slower than even untuned installations), because its n files x 2 stripes
// self-contend the OSTs (Eq. 5-6 predict load 17.06).
//
// Seed design: SeedMode::per_rep pairs every plan point on the same random
// draws (common random numbers), so each repetition compares Lustre and
// PLFS on an identically-placed file system.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/metrics.hpp"
#include "harness/runner.hpp"

int main() {
  using namespace pfsc;
  bench::banner("Figure 5 / Table VII", "IOR through ad_lustre vs ad_plfs, 16..4096 procs");
  const unsigned reps = bench::repetitions(5);
  const harness::ParallelRunner runner(bench::threads());
  std::printf("repetitions per point: %u, worker threads: %u\n\n", reps,
              runner.threads());

  struct PaperRow {
    int procs;
    double lustre, plfs;
  };
  const PaperRow paper[] = {
      {16, 403.75, 752.96},     {32, 404.71, 727.33},
      {64, 857.35, 1776.70},    {128, 1987.51, 3814.62},
      {256, 4354.98, 7126.88},  {512, 8985.14, 10723.42},
      {1024, 13859.58, 8575.13}, {2048, 16200.16, 5696.41},
      {4096, 16917.11, 3069.05},
  };
  std::vector<double> procs_values;
  for (const auto& p : paper) procs_values.push_back(p.procs);

  harness::Scenario base;
  harness::RunPlan plan;
  plan.sweep("driver", {0, 1},
             [](harness::Scenario& s, double v) {
               if (v == 0) {  // tuned Lustre
                 s.ior.hints.driver = mpiio::Driver::ad_lustre;
                 s.ior.hints.striping_factor = 160;
                 s.ior.hints.striping_unit = 128_MiB;
               } else {  // PLFS: backend files keep the default layout
                 s.ior.hints = mpiio::Hints{};
                 s.ior.hints.driver = mpiio::Driver::ad_plfs;
               }
             })
      .sweep_nprocs(procs_values)
      .repetitions(reps)
      .base_seed(0xF5'0000)
      .seed_mode(harness::RunPlan::SeedMode::per_rep);
  const auto set = runner.run(base, plan);

  // Points expand driver-major (last axis fastest): lustre block first.
  const std::size_t n = procs_values.size();
  TextTable table({"procs", "lustre MB/s (95% CI)", "paper", "plfs MB/s (95% CI)",
                   "paper ", "plfs load (Eq.6)"});
  FigureSeries fig("procs", {"lustre", "plfs"});
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p = paper[i];
    const auto& lustre_pt = set.point(i);
    const auto& plfs_pt = set.point(n + i);
    for (const auto& obs : lustre_pt.reps) {
      const ior::Result& res = obs.per_job.front();
      PFSC_ASSERT(res.err == lustre::Errno::ok && res.verified);
    }
    for (const auto& obs : plfs_pt.reps) {
      const ior::Result& res = obs.per_job.front();
      PFSC_ASSERT(res.err == lustre::Errno::ok && res.verified);
    }
    table.cell(fmt_int(p.procs))
        .cell(bench::fmt_ci(lustre_pt.ci))
        .cell(fmt_double(p.lustre, 0))
        .cell(bench::fmt_ci(plfs_pt.ci))
        .cell(fmt_double(p.plfs, 0))
        .cell(fmt_double(core::plfs_d_load(static_cast<unsigned>(p.procs), 480), 2));
    table.end_row();
    fig.add_point(p.procs, {lustre_pt.ci.mean, plfs_pt.ci.mean});
  }
  table.print("Table VII: IOR write bandwidth through Lustre and PLFS");
  fig.print("Figure 5 series");

  std::printf("Shape checks: PLFS should win at small scale, peak mid-scale,\n"
              "then fall below ad_lustre as its self-contention load (last\n"
              "column) grows towards 17 tasks per OST at 4,096 ranks.\n");
  return 0;
}
