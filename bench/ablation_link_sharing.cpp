// Ablation: FIFO store-and-forward vs fair-share (processor-sharing) link
// model, holding everything else fixed.
//
// Part A isolates the link layer with a Figure-2-style single-OST probe on
// a platform variant whose only bottleneck is the 600 MB/s OSS front end
// (disk, NIC, fabric and per-process ceilings pushed out of the way; one
// bulk RPC per writer). Under processor sharing each of n writers must see
// rate/n simultaneously; the FIFO server instead drains whole transfers in
// arrival order, so writer k measures rate/k and the mean lands at
// rate*H_n/n — far outside the fair-share band. The exit status asserts
// both halves of that prediction.
//
// Part B reruns the Figure-3 four-contending-jobs experiment (full Cab
// platform, disks and all) under both policies, reporting how much of the
// headline contention number survives the change of link model.
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "harness/runner.hpp"

namespace {

using namespace pfsc;

/// Everything fast except the OSS front end: the link is the experiment.
hw::PlatformParams link_bound_platform(sim::LinkPolicy policy) {
  hw::PlatformParams p = hw::cab_lscratchc();
  p.name = "link-bound";
  p.link_policy = policy;
  p.per_process_bw = mb_per_sec(1.0e6);
  p.node_nic_bw = mb_per_sec(1.0e6);
  p.fabric_bw = mb_per_sec(1.0e6);
  p.rpc_latency = 0.0;
  p.max_rpc_size = 64_MiB;  // one bulk transfer per writer
  p.ost_disk.sequential_bw = mb_per_sec(1.0e6);
  p.ost_disk.seek_time = 0.0;
  p.ost_disk.per_request_overhead = 0.0;
  p.ost_disk.contention_alpha = 0.0;
  p.ost_disk.contention_quad_alpha = 0.0;
  return p;
}

/// Mean per-process probe bandwidth with `writers` contenders on OST 0.
double probe_mean_mbps(sim::LinkPolicy policy, std::uint32_t writers) {
  std::vector<harness::JobSpec> list(writers);
  for (std::uint32_t w = 0; w < writers; ++w) {
    list[w].kind = harness::JobKind::probe_writer;
    list[w].job_id = w;
    list[w].bytes = 64_MiB;
    list[w].transfer_size = 64_MiB;  // single buffered write per rank
    list[w].target_ost = 0;
  }
  harness::Scenario s = harness::Scenario::from_jobs(std::move(list));
  s.platform = link_bound_platform(policy);
  s.procs_per_node = 1;
  return harness::run_scenario(s, /*seed=*/1).metric;
}

bool check(bool ok, const char* what) {
  if (!ok) std::printf("FAIL: %s\n", what);
  return ok;
}

}  // namespace

int main() {
  bench::banner("Ablation", "FIFO vs fair-share link model");
  const bool quick = std::getenv("PFSC_QUICK") != nullptr;
  bool pass = true;

  // -- Part A: link-bound Figure-2-style probe ---------------------------
  const double rate = to_mbps(link_bound_platform(sim::LinkPolicy::fifo).oss_bw);
  std::printf("\nPart A — single-OST probe, OSS link (%.0f MB/s) the only\n"
              "bottleneck, one 64 MiB bulk transfer per writer.\n\n",
              rate);
  TextTable table({"writers", "ideal rate/n", "fifo mean", "fifo vs ideal",
                   "fair mean", "fair vs ideal"});
  double fifo_worst = 0.0;
  double fair_worst = 0.0;
  for (const std::uint32_t n : {1u, 2u, 4u, 8u}) {
    const double ideal = rate / static_cast<double>(n);
    const double fifo = probe_mean_mbps(sim::LinkPolicy::fifo, n);
    const double fair = probe_mean_mbps(sim::LinkPolicy::fair_share, n);
    const double fifo_dev = std::abs(fifo - ideal) / ideal;
    const double fair_dev = std::abs(fair - ideal) / ideal;
    fifo_worst = std::max(fifo_worst, fifo_dev);
    fair_worst = std::max(fair_worst, fair_dev);
    table.cell(fmt_int(n))
        .cell(fmt_double(ideal, 1))
        .cell(fmt_double(fifo, 1))
        .cell(fmt_double(fifo_dev * 100.0, 1) + "%")
        .cell(fmt_double(fair, 1))
        .cell(fmt_double(fair_dev * 100.0, 1) + "%");
    table.end_row();
  }
  table.print("Mean per-process bandwidth (MB/s) vs contending writers");
  std::printf("Worst deviation from ideal rate/n: fifo %.1f%%, fair_share %.1f%%\n",
              fifo_worst * 100.0, fair_worst * 100.0);
  pass &= check(fair_worst <= 0.10,
                "fair_share mean per-process bandwidth within 10% of rate/n");
  pass &= check(fifo_worst > 0.10,
                "fifo diverges by more than 10% (expected: it serialises)");

  // -- Part B: Figure 3 under both policies ------------------------------
  const int nprocs = quick ? 256 : 1024;
  std::printf("\nPart B — four contending tuned IOR jobs (%d ranks each) on\n"
              "the full Cab platform under both policies.\n\n", nprocs);
  harness::Scenario multi = harness::Scenario::multi(4, nprocs);
  multi.ior.hints.driver = mpiio::Driver::ad_lustre;
  multi.ior.hints.striping_factor = 160;
  multi.ior.hints.striping_unit = 128_MiB;

  TextTable fig3({"policy", "solo", "job 1", "job 2", "job 3", "job 4",
                  "mean", "reduction"});
  std::vector<double> means;
  for (const auto policy :
       {sim::LinkPolicy::fifo, sim::LinkPolicy::fair_share}) {
    multi.platform.link_policy = policy;
    harness::Scenario solo = multi;
    solo.jobs = 1;
    const double solo_mbps =
        harness::run_scenario(solo, 0xAB1).per_job.front().write_mbps;
    const auto obs = harness::run_scenario(multi, 0xAB3);
    fig3.cell(sim::link_policy_name(policy)).cell(fmt_double(solo_mbps, 0));
    for (const auto& job : obs.per_job) {
      PFSC_ASSERT(job.err == lustre::Errno::ok && job.verified);
      fig3.cell(fmt_double(job.write_mbps, 0));
    }
    fig3.cell(fmt_double(obs.metric, 0))
        .cell(bench::fmt_ratio(solo_mbps, obs.metric));
    fig3.end_row();
    means.push_back(obs.metric);
  }
  fig3.print("Per-job write bandwidth (MB/s), four simultaneous tasks");
  const double divergence = std::abs(means[1] - means[0]) / means[0];
  std::printf("Mean per-job bandwidth divergence between policies: %.1f%%\n",
              divergence * 100.0);
  std::printf("(The headline contention effect is disk- and topology-driven,\n"
              "so it must survive the link-model swap largely intact.)\n");

  std::printf("\n%s\n", pass ? "ABLATION PASS" : "ABLATION FAIL");
  return pass ? 0 : 1;
}
