// Reproduces Table VIII: stripe-collision statistics of the PLFS backend
// directory for five 512-process experiments. Each run creates 512 data
// files of 2 default stripes; the table lists, per experiment, the number
// of OSTs used by exactly (k+1) data files ("k collisions"), the measured
// D_inuse / D_load, the achieved bandwidth — and the Eq. 5/6 predictions
// plus the binomial expectation of each histogram row.
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "core/metrics.hpp"
#include "harness/runner.hpp"

int main() {
  using namespace pfsc;
  bench::banner("Table VIII", "PLFS backend collisions at 512 processes, 5 experiments");
  const unsigned reps = bench::repetitions(5);
  const int procs = 512;

  harness::Scenario spec = harness::Scenario::plfs_ior();
  spec.nprocs = procs;
  harness::RunPlan plan;
  plan.repetitions(reps).base_seed(0x7AB8);
  const auto set = harness::ParallelRunner(bench::threads()).run(spec, plan);

  std::vector<core::ObservedContention> obs;
  std::vector<double> bws;
  for (const auto& rep : set.point(0).reps) {
    const ior::Result& res = rep.per_job.front();
    PFSC_ASSERT(res.err == lustre::Errno::ok);
    obs.push_back(rep.contention);
    bws.push_back(res.write_mbps);
  }

  std::size_t max_k = 0;
  for (const auto& o : obs) max_k = std::max(max_k, o.histogram.size());
  const auto expect = core::occupancy_expectation(480, static_cast<unsigned>(procs), 2);

  std::vector<std::string> header{"Collisions"};
  for (unsigned e = 1; e <= reps; ++e) header.push_back("Exp " + std::to_string(e));
  header.push_back("E[binomial]");
  TextTable table(header);
  for (std::size_t k = 1; k < max_k; ++k) {
    std::vector<std::string> row{fmt_int(static_cast<long long>(k - 1))};
    for (const auto& o : obs) {
      row.push_back(fmt_int(k < o.histogram.size() ? o.histogram[k] : 0));
    }
    row.push_back(fmt_double(k < expect.size() ? expect[k] : 0.0, 1));
    table.add_row(std::move(row));
  }
  {
    std::vector<std::string> row{"Dinuse"};
    for (const auto& o : obs) row.push_back(fmt_double(o.d_inuse, 0));
    row.push_back(fmt_double(core::plfs_d_inuse(procs, 480), 1));
    table.add_row(std::move(row));
  }
  {
    std::vector<std::string> row{"Dload"};
    for (const auto& o : obs) row.push_back(fmt_double(o.d_load, 2));
    row.push_back(fmt_double(core::plfs_d_load(procs, 480), 2));
    table.add_row(std::move(row));
  }
  {
    std::vector<std::string> row{"BW (MB/s)"};
    for (double bw : bws) row.push_back(fmt_double(bw, 0));
    row.push_back("-");
    table.add_row(std::move(row));
  }
  table.print("Table VIII: PLFS backend stripe collisions, 512 processes\n"
              "(paper: Dinuse 418-433, Dload 2.36-2.45, BW 9768-12063 MB/s)");

  std::printf("Eq. 5/6 prediction at 512 ranks: Dinuse %.1f, Dload %.2f "
              "(paper quotes 2.4)\n",
              pfsc::core::plfs_d_inuse(procs, 480),
              pfsc::core::plfs_d_load(procs, 480));
  return 0;
}
