// Reproduces Figure 3: four identical IOR executions (1,024 processes
// each, tuned 160 x 128 MiB layout) running simultaneously, over five
// repetitions. The paper measures ~4,500 MB/s per task — a 3.44x drop from
// the solo optimum of 15,609 MB/s.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "harness/runner.hpp"

int main() {
  using namespace pfsc;
  bench::banner("Figure 3", "Four contending tuned IOR tasks, five repetitions");
  const unsigned reps = bench::repetitions(5);
  const harness::ParallelRunner runner(bench::threads());

  // Solo reference for the reduction factor.
  harness::Scenario solo_spec;
  solo_spec.ior.hints.driver = mpiio::Driver::ad_lustre;
  solo_spec.ior.hints.striping_factor = 160;
  solo_spec.ior.hints.striping_unit = 128_MiB;
  const double solo =
      harness::run_scenario(solo_spec, 0xF3).per_job.front().write_mbps;
  std::printf("Solo tuned job: %.0f MB/s (paper: 15,609 MB/s)\n\n", solo);

  harness::Scenario multi = harness::Scenario::multi(4, 1024, solo_spec.ior);
  harness::RunPlan plan;
  plan.repetitions(reps).base_seed(0xF3F3);
  const auto set = runner.run(multi, plan);

  TextTable table({"repetition", "task 1", "task 2", "task 3", "task 4",
                   "mean", "total"});
  RunningStats all_tasks;
  const auto& point = set.point(0);
  for (std::size_t rep = 0; rep < point.reps.size(); ++rep) {
    const auto& obs = point.reps[rep];
    std::vector<std::string> row{fmt_int(static_cast<long long>(rep + 1))};
    for (const auto& job : obs.per_job) {
      PFSC_ASSERT(job.err == lustre::Errno::ok && job.verified);
      row.push_back(fmt_double(job.write_mbps, 0));
      all_tasks.add(job.write_mbps);
    }
    row.push_back(fmt_double(obs.metric, 0));
    row.push_back(fmt_double(obs.total_mbps, 0));
    table.add_row(std::move(row));
  }
  table.print("Per-task write bandwidth (MB/s), four simultaneous tasks");

  std::printf("Mean per task: %.0f MB/s (paper: ~4,500 MB/s)\n", all_tasks.mean());
  std::printf("Reduction from solo optimum: %s (paper: x3.44)\n",
              bench::fmt_ratio(solo, all_tasks.mean()).c_str());
  return 0;
}
