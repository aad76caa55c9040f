// Ablation study over the design choices DESIGN.md calls out: what happens
// to key experiment points when individual model/middleware mechanisms are
// disabled or varied. Not a paper artefact — this documents which
// mechanisms each reproduced result depends on.
//
//  A. OST allocation policy (uniform random vs round-robin) — collision
//     statistics under 4 contending jobs.
//  B. Collective buffering on/off — tuned shared-file write at 256 procs.
//  C. Write-behind window 0 / 64 MiB / 256 MiB — same workload.
//  D. Elevator batch 1 vs 8 — one OST under 8 contending writers.
//  E. Contention amplification off — the PLFS collapse point disappears.
//  F. Data sieving on/off — independent strided reads.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "harness/scenario.hpp"

using namespace pfsc;

namespace {

void ablation_alloc_policy() {
  std::printf("A. OST allocation policy (4 jobs x 256 procs, R=64)\n");
  for (auto policy : {lustre::PlacementKind::uniform_random,
                      lustre::PlacementKind::round_robin}) {
    sim::Engine eng;
    hw::PlatformParams params = hw::cab_lscratchc();
    params.ost_placement = policy;
    lustre::FileSystem fs(eng, params, 11);
    mpi::Runtime rt(fs, 4 * 256, 16);
    // Four jobs each create a file with R=64; no data needed for the census.
    std::vector<lustre::InodeId> files;
    eng.spawn([](lustre::FileSystem& fs, std::vector<lustre::InodeId>& files)
                  -> sim::Task {
      for (int j = 0; j < 4; ++j) {
        auto r = co_await fs.create("/job" + std::to_string(j),
                                    lustre::StripeSettings{64, 128_MiB, -1});
        PFSC_ASSERT(r.ok());
        files.push_back(r.value);
      }
    }(fs, files));
    eng.run();
    const auto obs = core::observe(fs.ost_occupancy(files));
    std::printf("   %-15s Dinuse %5.0f  Dload %.3f  (Eq.2 predicts %.1f/%.2f "
                "for random)\n",
                policy == lustre::PlacementKind::uniform_random ? "uniform_random"
                                                                : "round_robin",
                obs.d_inuse, obs.d_load, core::d_inuse_uniform(64, 4, 480),
                core::d_load(64, 4, 480));
  }
  std::printf("   -> round-robin eliminates collisions entirely; the paper's\n"
              "      binomial statistics require the random policy.\n\n");
}

double tuned_run(bool collective_buffering, Bytes dirty_window) {
  harness::Scenario spec;
  spec.nprocs = 256;
  spec.ior.hints.driver = mpiio::Driver::ad_lustre;
  spec.ior.hints.striping_factor = 160;
  spec.ior.hints.striping_unit = 128_MiB;
  spec.ior.hints.romio_cb_write = collective_buffering;
  spec.ior.hints.dirty_window = dirty_window;
  const auto res = harness::run_scenario(spec, 21).per_job.front();
  PFSC_ASSERT(res.err == lustre::Errno::ok);
  return res.write_mbps;
}

void ablation_collective_buffering() {
  std::printf("B. Collective buffering (256 procs, tuned layout)\n");
  std::printf("   two-phase ON :  %8.0f MB/s\n", tuned_run(true, 256_MiB));
  std::printf("   two-phase OFF:  %8.0f MB/s\n", tuned_run(false, 256_MiB));
  std::printf("   -> without aggregation every rank writes strided 1 MiB\n"
              "      pieces itself; RPC overheads multiply.\n\n");
}

void ablation_write_behind() {
  std::printf("C. Client write-behind window (256 procs, tuned layout)\n");
  for (Bytes window : {Bytes{0}, Bytes{64_MiB}, Bytes{256_MiB}}) {
    std::printf("   window %7s: %8.0f MB/s\n",
                window == 0 ? "off" : format_bytes(window).c_str(),
                tuned_run(true, window));
  }
  std::printf("   -> the lookahead lets successive collectives overlap and\n"
              "      keeps distant OSTs busy (see DESIGN.md section 5).\n\n");
}

void ablation_elevator_batch() {
  std::printf("D. Elevator batch (one OST, 8 contending writers)\n");
  for (std::uint32_t batch : {1u, 8u}) {
    harness::Scenario spec = harness::Scenario::probe(8, 32_MiB);
    spec.platform.ost_disk.batch = batch;
    const double mean = harness::run_scenario(spec, 31).metric;
    std::printf("   batch %u: per-process %6.1f MB/s\n", batch, mean);
  }
  std::printf("   -> batching amortises stream-switch seeks; real block\n"
              "      schedulers do the same.\n\n");
}

void ablation_contention_amplification() {
  std::printf("E. Contention amplification (PLFS at 2048 procs)\n");
  for (bool amplified : {true, false}) {
    harness::Scenario spec;
    spec.nprocs = 2048;
    spec.ior.hints.driver = mpiio::Driver::ad_plfs;
    if (!amplified) {
      spec.platform.ost_disk.contention_alpha = 0.0;
      spec.platform.ost_disk.contention_quad_alpha = 0.0;
    }
    const auto res = harness::run_scenario(spec, 41);
    std::printf("   amplification %-3s: %8.0f MB/s (backend load %.2f)\n",
                amplified ? "on" : "off", res.per_job.front().write_mbps,
                res.contention.d_load);
  }
  std::printf("   -> without the hot-stream seek amplification the PLFS\n"
              "      collapse of Table VII cannot be reproduced: plain seek\n"
              "      costs are too small at 480-way parallelism.\n\n");
}

void ablation_data_sieving() {
  std::printf("F. Data sieving (independent strided reads, 64 procs)\n");
  for (bool ds : {true, false}) {
    harness::Scenario spec;
    spec.nprocs = 64;
    spec.ior.read_file = true;
    spec.ior.use_collective = false;
    spec.ior.segment_count = 25;
    spec.ior.hints.driver = mpiio::Driver::ad_lustre;
    spec.ior.hints.striping_factor = 64;
    spec.ior.hints.striping_unit = 1_MiB;
    spec.ior.hints.romio_ds_read = ds;
    const auto res = harness::run_scenario(spec, 51).per_job.front();
    PFSC_ASSERT(res.err == lustre::Errno::ok);
    std::printf("   sieving %-3s: read %8.0f MB/s\n", ds ? "on" : "off",
                res.read_mbps);
  }
  std::printf("   -> these requests are already contiguous 1 MiB reads, so\n"
              "      sieving's window amplification (4 MiB fetched per 1 MiB\n"
              "      wanted) is pure loss; it pays only for ragged,\n"
              "      hole-riddled access patterns.\n\n");
}

void ablation_noise() {
  std::printf("G. Background noise (tuned 256-proc write on a busy system)\n");
  for (unsigned writers : {0u, 8u, 32u}) {
    harness::Scenario spec;
    spec.nprocs = 256;
    spec.ior.hints.driver = mpiio::Driver::ad_lustre;
    spec.ior.hints.striping_factor = 160;
    spec.ior.hints.striping_unit = 128_MiB;
    spec.add_noise(writers, 512_MiB);
    const auto res = harness::run_scenario(spec, 61).per_job.front();
    std::printf("   %2u background writers: %8.0f MB/s\n", writers,
                res.write_mbps);
  }
  std::printf("   -> the shared-system variance the paper mentions.\n");
}

}  // namespace

int main() {
  bench::banner("Ablations", "which mechanisms the reproduced results depend on");
  ablation_alloc_policy();
  ablation_collective_buffering();
  ablation_write_behind();
  ablation_elevator_batch();
  ablation_contention_amplification();
  ablation_data_sieving();
  ablation_noise();
  return 0;
}
