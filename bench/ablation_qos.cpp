// Ablation: OSS request scheduling policies (fifo vs job_fair vs
// token_bucket), holding the data path underneath fixed.
//
// Part A isolates the scheduler on a link-bound single-OSS platform with
// deliberately asymmetric jobs: job 0 runs three writer processes, job 1
// runs one, all streaming to the same OST. FIFO serves per *request*, so
// job 0's extra ranks buy it ~3x the bytes (Jain over jobs ~0.8);
// deficit round robin serves per *job*, so both jobs get equal byte
// shares (Jain ~1) at the same total throughput; the token bucket caps
// both jobs at job_rate, buying isolation by giving up work conservation.
// The exit status asserts all three signatures.
//
// Part B reruns the Figure-3 four-contending-jobs experiment (full Cab
// platform, disks and all) under the three policies: per-job bandwidth,
// total bandwidth and the Jain index per policy. The paper's four jobs
// are identical, so FIFO is already nearly fair — the assertion that
// matters is that job_fair keeps Jain >= 0.99 while total bandwidth stays
// within 5% of FIFO (fairness without a throughput bill), and that a
// token bucket sized to 60% of a job's FIFO share actually binds.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "harness/runner.hpp"
#include "support/stats.hpp"

namespace {

using namespace pfsc;

/// Everything fast except one 600 MB/s OSS front end: the scheduler and
/// the link are the experiment.
hw::PlatformParams sched_bound_platform(lustre::sched::SchedPolicy policy) {
  hw::PlatformParams p = hw::cab_lscratchc();
  p.name = "sched-bound";
  p.oss_sched_policy = policy;
  p.oss_count = 1;
  p.ost_count = 1;
  p.per_process_bw = mb_per_sec(1.0e6);
  p.node_nic_bw = mb_per_sec(1.0e6);
  p.fabric_bw = mb_per_sec(1.0e6);
  p.rpc_latency = 0.0;
  p.ost_disk.sequential_bw = mb_per_sec(1.0e6);
  p.ost_disk.seek_time = 0.0;
  p.ost_disk.per_request_overhead = 0.0;
  p.ost_disk.contention_alpha = 0.0;
  p.ost_disk.contention_quad_alpha = 0.0;
  // Small service window so the backlog waits where the policy can
  // reorder it; one max-size RPC per deficit round.
  p.oss_sched.service_slots = 4;
  p.oss_sched.quantum = p.max_rpc_size;
  p.oss_sched.job_rate = mb_per_sec(150.0);
  p.oss_sched.bucket_depth = 16_MiB;
  return p;
}

sim::Task stream_writer(lustre::Client& client, std::string path, Bytes total) {
  lustre::StripeSettings settings;
  settings.stripe_count = 1;
  settings.stripe_size = 1_MiB;
  settings.stripe_offset = 0;
  auto file = co_await client.create(std::move(path), settings);
  PFSC_ASSERT(file.ok());
  (void)co_await client.write(file.value, 0, total);
}

struct MicroResult {
  double job0_mb = 0.0;   // bytes served for job 0 (three writers), MB
  double job1_mb = 0.0;   // bytes served for job 1 (one writer), MB
  double jain = 1.0;      // over the two jobs' served bytes
};

/// Three job-0 writers vs one job-1 writer on one OSS for `horizon`
/// simulated seconds; returns per-job served bytes from the scheduler.
MicroResult run_micro(lustre::sched::SchedPolicy policy, Seconds horizon) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, sched_bound_platform(policy), /*seed=*/1);
  std::vector<std::unique_ptr<lustre::Client>> clients;
  for (int i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<lustre::Client>(
        fs, std::string("w").append(std::to_string(i))));
    clients.back()->set_job(i < 3 ? 0 : 1);
    eng.spawn(stream_writer(*clients.back(), "/f" + std::to_string(i), 1_GiB));
  }
  eng.run_until(horizon);

  MicroResult r;
  const auto served = fs.sched_served_by_job();
  r.job0_mb = static_cast<double>(served.count(0) ? served.at(0) : 0) / 1.0e6;
  r.job1_mb = static_cast<double>(served.count(1) ? served.at(1) : 0) / 1.0e6;
  r.jain = fs.sched_jain();
  return r;
}

bool check(bool ok, const char* what) {
  if (!ok) std::printf("FAIL: %s\n", what);
  return ok;
}

}  // namespace

int main() {
  bench::banner("Ablation", "OSS request scheduling: fifo vs job_fair vs token_bucket");
  const bool quick = std::getenv("PFSC_QUICK") != nullptr;
  bool pass = true;

  using lustre::sched::SchedPolicy;
  const SchedPolicy kPolicies[] = {SchedPolicy::fifo, SchedPolicy::job_fair,
                                   SchedPolicy::token_bucket};

  // -- Part A: asymmetric jobs on one scheduler-bound OSS ----------------
  const Seconds horizon = 0.25;
  const hw::PlatformParams micro = sched_bound_platform(SchedPolicy::fifo);
  std::printf("\nPart A — job 0 (3 writers) vs job 1 (1 writer) on one\n"
              "%.0f MB/s OSS for %.2fs; token bucket caps each job at\n"
              "%.0f MB/s (+%s burst).\n\n",
              to_mbps(micro.oss_bw), horizon,
              to_mbps(micro.oss_sched.job_rate),
              format_bytes(micro.oss_sched.bucket_depth).c_str());
  TextTable table({"policy", "job 0 (MB)", "job 1 (MB)", "total", "jain"});
  std::vector<MicroResult> micro_results;
  for (const SchedPolicy policy : kPolicies) {
    const MicroResult r = run_micro(policy, horizon);
    micro_results.push_back(r);
    table.cell(lustre::sched::sched_policy_name(policy))
        .cell(fmt_double(r.job0_mb, 1))
        .cell(fmt_double(r.job1_mb, 1))
        .cell(fmt_double(r.job0_mb + r.job1_mb, 1))
        .cell(fmt_double(r.jain, 4));
    table.end_row();
  }
  table.print("Per-job served bytes under asymmetric demand");

  const MicroResult& fifo_r = micro_results[0];
  const MicroResult& fair_r = micro_results[1];
  const MicroResult& tbf_r = micro_results[2];
  pass &= check(fifo_r.jain < 0.95,
                "fifo skews toward the job with more ranks (jain < 0.95)");
  pass &= check(fair_r.jain >= 0.99, "job_fair equalises byte shares (jain >= 0.99)");
  const double fair_total = fair_r.job0_mb + fair_r.job1_mb;
  const double fifo_total = fifo_r.job0_mb + fifo_r.job1_mb;
  pass &= check(std::abs(fair_total - fifo_total) / fifo_total <= 0.05,
                "job_fair total within 5% of fifo (work conserving)");
  const double cap_mb =
      to_mbps(micro.oss_sched.job_rate) * horizon +
      static_cast<double>(micro.oss_sched.bucket_depth) / 1.0e6 +
      static_cast<double>(micro.max_rpc_size) / 1.0e6;
  pass &= check(tbf_r.job0_mb <= cap_mb && tbf_r.job1_mb <= cap_mb,
                "token_bucket holds both jobs under rate*T + burst");

  // -- Part B: Figure 3 under the three policies -------------------------
  const int nprocs = quick ? 256 : 1024;
  std::printf("\nPart B — four contending tuned IOR jobs (%d ranks each) on\n"
              "the full Cab platform under each scheduling policy.\n\n", nprocs);
  harness::Scenario multi = harness::Scenario::multi(4, nprocs);
  multi.ior.hints.driver = mpiio::Driver::ad_lustre;
  multi.ior.hints.striping_factor = 160;
  multi.ior.hints.striping_unit = 128_MiB;

  harness::Scenario solo = multi;
  solo.jobs = 1;
  const double solo_mbps =
      harness::run_scenario(solo, 0xAB5).per_job.front().write_mbps;

  TextTable fig3({"policy", "job 1", "job 2", "job 3", "job 4", "total",
                  "jain", "reduction"});
  double total_fifo = 0.0;
  double total_fair = 0.0;
  double jain_fair = 0.0;
  double tbf_cap_mbps = 0.0;
  double tbf_worst_job = 0.0;
  for (const SchedPolicy policy : kPolicies) {
    multi.platform.oss_sched_policy = policy;
    if (policy == SchedPolicy::token_bucket) {
      // Size the cap to 60% of a job's FIFO share so it visibly binds:
      // per-OSS rate = 60% of (total / jobs / oss_count).
      tbf_cap_mbps = 0.6 * total_fifo / 4.0;
      multi.platform.oss_sched.job_rate = mb_per_sec(
          tbf_cap_mbps / static_cast<double>(multi.platform.oss_count));
    }
    const auto obs = harness::run_scenario(multi, 0xAB7);
    std::vector<double> per_job;
    fig3.cell(lustre::sched::sched_policy_name(policy));
    for (const auto& job : obs.per_job) {
      PFSC_ASSERT(job.err == lustre::Errno::ok && job.verified);
      per_job.push_back(job.write_mbps);
      fig3.cell(fmt_double(job.write_mbps, 0));
    }
    const double jain = jain_index(per_job);
    fig3.cell(fmt_double(obs.total_mbps, 0))
        .cell(fmt_double(jain, 4))
        .cell(bench::fmt_ratio(solo_mbps, obs.metric));
    fig3.end_row();
    if (policy == SchedPolicy::fifo) total_fifo = obs.total_mbps;
    if (policy == SchedPolicy::job_fair) {
      total_fair = obs.total_mbps;
      jain_fair = jain;
    }
    if (policy == SchedPolicy::token_bucket) {
      tbf_worst_job = *std::max_element(per_job.begin(), per_job.end());
    }
  }
  fig3.print("Per-job write bandwidth (MB/s), four simultaneous tasks");
  std::printf("solo baseline: %.0f MB/s; token bucket cap: %.0f MB/s per job\n",
              solo_mbps, tbf_cap_mbps);

  pass &= check(jain_fair >= 0.99, "job_fair jain >= 0.99 on the Fig. 3 quartet");
  pass &= check(std::abs(total_fair - total_fifo) / total_fifo <= 0.05,
                "job_fair total bandwidth within 5% of fifo");
  // Burst allowance: the bucket depth amortised over the run is small, so
  // 10% headroom over the configured cap is generous.
  pass &= check(tbf_worst_job <= tbf_cap_mbps * 1.10,
                "token_bucket holds every job under its configured cap");
  // The cap must actually throttle: every job well below its FIFO share.
  // (It lands far below the cap itself, not just below the FIFO share: the
  // collective phases idle the buckets between bursts, and the forfeited
  // refill — capped at bucket_depth — is the price of strict isolation.)
  pass &= check(tbf_worst_job <= 0.8 * total_fifo / 4.0,
                "token_bucket visibly throttles (<= 80% of a FIFO share)");

  std::printf("\n%s\n", pass ? "ABLATION PASS" : "ABLATION FAIL");
  return pass ? 0 : 1;
}
