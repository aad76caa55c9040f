// PLFS adoption study: should this application use PLFS?
//
// Section VI's conclusion as a tool: "the benefits PLFS may have on an
// application can be calculated based on the scale at which it will be run,
// as well as on the number of OSTs available". For a range of job sizes
// this example (a) predicts PLFS's backend OST load with Eq. 5/6, (b) runs
// the workload through ad_lustre, ad_ufs and ad_plfs, and (c) reports which
// driver wins — including the read-back path, PLFS's original selling
// point.
#include <cstdio>
#include <vector>

#include "core/metrics.hpp"
#include "harness/scenario.hpp"
#include "support/table.hpp"

using namespace pfsc;

namespace {

ior::Result run_driver(int nprocs, mpiio::Driver driver, bool read_back) {
  harness::Scenario spec = driver == mpiio::Driver::ad_plfs
                               ? harness::Scenario::plfs_ior()
                               : harness::Scenario::single_ior();
  spec.nprocs = nprocs;
  spec.ior.read_file = read_back;
  spec.ior.hints.driver = driver;
  if (driver == mpiio::Driver::ad_lustre) {
    spec.ior.hints.striping_factor = 160;
    spec.ior.hints.striping_unit = 128_MiB;
  }
  // Shrink the workload so the read phase keeps the example snappy.
  spec.ior.segment_count = 25;
  return harness::run_scenario(spec, 99).per_job.front();
}

}  // namespace

int main() {
  std::printf("PLFS adoption study on simulated lscratchc (480 OSTs)\n\n");

  std::printf("Step 1 — predict PLFS self-contention with Eq. 5/6:\n");
  TextTable pred({"ranks", "backend files", "Dinuse", "Dload", "verdict"});
  for (unsigned n : {64u, 256u, 512u, 1024u, 2048u, 4096u}) {
    const double load = core::plfs_d_load(n, 480);
    pred.cell(fmt_int(n))
        .cell(fmt_int(n))
        .cell(fmt_double(core::plfs_d_inuse(n, 480), 1))
        .cell(fmt_double(load, 2))
        .cell(load < 3.0 ? "OK (load < 3)" : "self-contended");
    pred.end_row();
  }
  pred.print("");
  std::printf("The paper's rule of thumb: load ~3 (about %u ranks here) is "
              "where PLFS stops paying.\n\n",
              core::plfs_cores_at_load(480, 3.0));

  std::printf("Step 2 — measure write + read-back at two scales:\n");
  TextTable meas({"ranks", "driver", "write MB/s", "read MB/s"});
  for (int n : {256, 2048}) {
    for (auto driver : {mpiio::Driver::ad_ufs, mpiio::Driver::ad_lustre,
                        mpiio::Driver::ad_plfs}) {
      const auto res = run_driver(n, driver, /*read_back=*/true);
      PFSC_ASSERT(res.err == lustre::Errno::ok);
      meas.cell(fmt_int(n))
          .cell(mpiio::driver_name(driver))
          .cell(fmt_double(res.write_mbps, 0))
          .cell(fmt_double(res.read_mbps, 0));
      meas.end_row();
    }
  }
  meas.print("");

  std::printf("Expected: PLFS ahead of both MPI-IO drivers at 256 ranks,\n"
              "behind the tuned ad_lustre (and possibly even ad_ufs) at 2048.\n");
  return 0;
}
