// Extension experiment (not a paper artefact): PLFS read-back performance.
//
// The paper cites Polte et al. [23] for PLFS's read story: "due to the
// increased number of file streams, they report an increased read bandwidth
// when the data is being read back on the same number of nodes used to
// write the file". This bench checks whether that claim survives on the
// simulated lscratchc across scales: N-1 write then N-1 read through
// ad_lustre (tuned) vs ad_plfs, plus the reordered-read variant (IOR -C)
// that defeats any rank-local locality.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "harness/runner.hpp"

int main() {
  using namespace pfsc;
  bench::banner("Extension: PLFS read-back",
                "write + read-back bandwidth, ad_lustre vs ad_plfs");
  const unsigned reps = bench::repetitions(3);
  const harness::ParallelRunner runner(bench::threads());
  std::printf("repetitions per point: %u, worker threads: %u\n\n", reps,
              runner.threads());

  harness::Scenario base;
  base.ior.read_file = true;
  base.ior.segment_count = 25;  // keep read phases brisk

  harness::RunPlan plan;
  plan.sweep_nprocs({64, 256, 1024});
  plan.sweep("driver", {0, 1}, [](harness::Scenario& s, double v) {
    if (v == 0) {
      s.ior.hints.driver = mpiio::Driver::ad_lustre;
      s.ior.hints.striping_factor = 160;
      s.ior.hints.striping_unit = 128_MiB;
    } else {
      s.ior.hints = mpiio::Hints{};
      s.ior.hints.driver = mpiio::Driver::ad_plfs;
    }
  });
  // Axes apply in declaration order, so nprocs is set by the time the
  // reorder axis computes its shift.
  plan.sweep("reorder", {0, 1}, [](harness::Scenario& s, double v) {
    s.ior.reorder_tasks = v != 0 ? s.nprocs / 2 : 0;
  });
  plan.repetitions(reps).base_seed(0xEEAD);
  const auto set = runner.run(base, plan);

  TextTable table({"procs", "driver", "write MB/s", "read MB/s",
                   "read (reordered) MB/s"});
  FigureSeries fig("procs", {"lustre read", "plfs read"});
  const double procs_values[] = {64, 256, 1024};
  for (std::size_t p = 0; p < 3; ++p) {
    double read_by_driver[2] = {0.0, 0.0};
    for (std::size_t d = 0; d < 2; ++d) {
      const auto& plain = set.point((p * 2 + d) * 2 + 0);
      const auto& reordered = set.point((p * 2 + d) * 2 + 1);
      RunningStats write_bw;
      RunningStats read_bw;
      RunningStats reread_bw;
      for (const auto& obs : plain.reps) {
        const ior::Result& res = obs.per_job.front();
        PFSC_ASSERT(res.err == lustre::Errno::ok);
        write_bw.add(res.write_mbps);
        read_bw.add(res.read_mbps);
      }
      for (const auto& obs : reordered.reps) {
        const ior::Result& res = obs.per_job.front();
        PFSC_ASSERT(res.err == lustre::Errno::ok);
        reread_bw.add(res.read_mbps);
      }
      table.cell(fmt_int(static_cast<long long>(procs_values[p])))
          .cell(d == 0 ? "ad_lustre" : "ad_plfs")
          .cell(fmt_double(write_bw.mean(), 0))
          .cell(fmt_double(read_bw.mean(), 0))
          .cell(fmt_double(reread_bw.mean(), 0));
      table.end_row();
      read_by_driver[d] = read_bw.mean();
    }
    fig.add_point(procs_values[p], {read_by_driver[0], read_by_driver[1]});
  }
  table.print("Write + read-back bandwidth");
  fig.print("Read-back series");

  std::printf("Expected: PLFS reads benefit from its many independent\n"
              "backend streams at small scale (the Polte et al. effect) and\n"
              "suffer the same self-contention as writes at large scale;\n"
              "reordered reads change little (the index merge already\n"
              "decouples readers from writers).\n");
  return 0;
}
