// Auto-tuning example: the exhaustive parameter search of Section IV as a
// reusable tool. Sweeps stripe count x stripe size for a user-described
// workload on a chosen platform, reports the optimum, and then shows what
// the contention metrics say that optimum does to a *shared* system —
// the paper's warning about "auto tuning without consideration for the QoS
// of a shared file system".
//
// Usage: autotune_sweep [nprocs] (default 256)
#include <cstdio>
#include <vector>

#include "core/metrics.hpp"
#include "harness/cli.hpp"
#include "harness/runner.hpp"
#include "support/table.hpp"

using namespace pfsc;

int main(int argc, char** argv) {
  int nprocs = 256;
  if (argc > 1) {
    try {
      nprocs = static_cast<int>(harness::cli::parse_int("nprocs", argv[1]));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\nusage: autotune_sweep [nprocs]\n",
                   e.what());
      return 2;
    }
  }
  PFSC_REQUIRE(nprocs >= 1, "autotune_sweep: bad process count");

  std::printf("Auto-tuning IOR (Table II workload) for %d processes on "
              "simulated lscratchc\n\n", nprocs);

  const std::vector<double> counts{2, 8, 32, 64, 128, 160};
  const std::vector<double> sizes{static_cast<double>(1_MiB),
                                  static_cast<double>(32_MiB),
                                  static_cast<double>(128_MiB)};

  harness::Scenario base;
  base.nprocs = nprocs;
  base.ior.hints.driver = mpiio::Driver::ad_lustre;
  harness::RunPlan plan;
  plan.sweep_striping_factor(counts).sweep_striping_unit(sizes).base_seed(0xA0);
  const auto set = harness::ParallelRunner().run(base, plan);

  TextTable table({"stripes", "1 MiB", "32 MiB", "128 MiB"});
  double best = 0.0;
  std::uint32_t best_count = 0;
  Bytes best_size = 0;
  for (std::size_t c = 0; c < counts.size(); ++c) {
    std::vector<std::string> row{fmt_int(static_cast<long long>(counts[c]))};
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const auto& point = set.point(c * sizes.size() + s);
      const ior::Result& res = point.reps[0].per_job.front();
      PFSC_ASSERT(res.err == lustre::Errno::ok);
      const double bw = res.write_mbps;
      row.push_back(fmt_double(bw, 0));
      if (bw > best) {
        best = bw;
        best_count = static_cast<std::uint32_t>(point.coords[0]);
        best_size = static_cast<Bytes>(point.coords[1]);
      }
    }
    table.add_row(std::move(row));
  }
  table.print("Write bandwidth (MB/s)");

  std::printf("Optimum: %u stripes x %s -> %.0f MB/s\n\n", best_count,
              format_bytes(best_size).c_str(), best);

  std::printf("...but on a shared system, if everyone adopts this optimum:\n");
  TextTable qos({"concurrent jobs", "OSTs in use", "mean OST load"});
  for (unsigned n = 1; n <= 8; ++n) {
    qos.cell(fmt_int(n))
        .cell(fmt_double(core::d_inuse_uniform(best_count, n, 480), 1))
        .cell(fmt_double(core::d_load(best_count, n, 480), 2));
    qos.end_row();
  }
  qos.print("");

  for (double budget : {1.1, 1.5, 2.0}) {
    const auto advice = core::advise_stripe_count(480.0, 4, budget, 160);
    std::printf("With 4 jobs and a load budget of %.1f, request <= %u stripes "
                "(load %.2f).\n", budget, advice.recommended_stripes,
                advice.predicted_load);
  }
  return 0;
}
