// Reproduces Figure 2: per-process bandwidth when 1..16 writers contend a
// single OST (each writing its own 1-stripe file pinned to the same target
// via the stripe_offset hint), against the ideal-scaling band derived from
// the single-writer 95% confidence interval scaled by 1/n.
//
// The paper's observation: up to ~3 writers stay near the band; beyond
// that, contention pushes per-process bandwidth well below ideal.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "harness/runner.hpp"

int main() {
  using namespace pfsc;
  bench::banner("Figure 2", "Per-process bandwidth on one contended OST");
  const unsigned reps = bench::repetitions(5);
  const harness::ParallelRunner runner(bench::threads());
  std::printf("repetitions per point: %u, worker threads: %u\n\n", reps,
              runner.threads());

  std::vector<double> writer_counts;
  for (std::uint32_t n = 1; n <= 16; ++n) writer_counts.push_back(n);
  harness::RunPlan plan;
  plan.sweep("writers", writer_counts, [](harness::Scenario& s, double n) {
        s.job_list =
            harness::Scenario::probe(static_cast<std::uint32_t>(n), 64_MiB)
                .job_list;
        // lscratchc is a shared-user system: light random background load
        // gives the single-writer runs the natural variance the paper's
        // ideal band is built from.
        s.add_noise(12, 256_MiB, 8);
      })
      .repetitions(reps)
      .base_seed(0xF2'0000);
  const auto set = runner.run(harness::Scenario{}, plan);

  const ConfidenceInterval solo = set.point(0).ci;
  std::printf("Single writer: %s MB/s — the ideal band below is this CI / n\n\n",
              bench::fmt_ci(solo, 1).c_str());

  TextTable table({"writers", "ideal lower", "ideal upper", "measured",
                   "vs ideal mid"});
  FigureSeries fig("writers", {"measured", "ideal-lo", "ideal-hi"});
  for (const auto& point : set.points()) {
    const double n = point.coords[0];
    const double lo = solo.lower / n;
    const double hi = solo.upper / n;
    table.cell(fmt_int(static_cast<long long>(n)))
        .cell(fmt_double(lo, 1))
        .cell(fmt_double(hi, 1))
        .cell(fmt_double(point.ci.mean, 1))
        .cell(fmt_double(point.ci.mean / ((lo + hi) / 2.0) * 100.0, 0) + "%");
    table.end_row();
    fig.add_point(n, {point.ci.mean, lo, hi});
  }
  table.print("Per-process bandwidth (MB/s) vs contended writers on one OST");
  fig.print("Figure 2 series");

  std::printf("Expected shape: within/near the band for <= 3 writers, then\n"
              "diverging below it (the paper's \"three simultaneous tasks or\n"
              "more ... noticeable performance overhead\").\n");
  return 0;
}
