// Unified scenario description for the experiment harness.
//
// A Scenario says *what to run*. The primitive is the **job list**: a
// Scenario is a vector of JobSpec — each an application (an IOR job, a
// PLFS-backed IOR job, a single-OST probe writer, or a background noise
// writer) with its own JobId, configuration and arrival offset.
// `run_scenario(scenario, seed)` builds a fresh engine + file system +
// runtime from the seed, runs every job to completion, and returns an
// Observation. Fresh-state-per-run keeps repetitions independent, exactly
// like resubmitting a batch job — and is what lets ParallelRunner execute
// plan points on concurrent threads with bit-identical per-seed results.
//
// A Scenario whose `job_list` is empty is lazy: `jobs_desugared()` turns
// it into `jobs` IOR jobs of `nprocs` ranks each, all configured by `ior`
// (kind plfs exactly when ior.hints.driver is ad_plfs). One job keeps
// ior.test_file and ior.job_id; with more, job k gets test_file + ".k"
// and JobId k. The factories `single_ior`, `plfs_ior` and `multi` build
// lazy scenarios; `probe` and `from_jobs` build explicit lists (as do
// `replay::to_scenario` and the fleet generator), and `add_noise` appends
// background writers to either.
//
// Every list runs through one executor (DESIGN.md §11). How a run starts
// follows from the list alone:
//   - each rank-carrying job is its own MPI application, except that the
//     probe writers of a synchronised list (all arrivals 0) form one;
//   - a synchronised list with more than one application, or whose job
//     files need parent directories made first, barriers the world and
//     comm-splits it by application (the paper's simultaneous submission);
//   - otherwise each application runs on its own communicator, starting
//     after its arrival offset.
// The golden and trace-pin tests pin the event sequences this produces.
//
// Sweeps and repetitions over a Scenario are described by harness::RunPlan
// (run_plan.hpp) and executed by harness::ParallelRunner (runner.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/metrics.hpp"
#include "ctrl/controller.hpp"
#include "harness/admission.hpp"
#include "hw/platform.hpp"
#include "ior/ior.hpp"
#include "trace/telemetry.hpp"

namespace pfsc::harness {

// ---------------------------------------------------------------------------
// JobSpec: one application in a scenario's job list.
// ---------------------------------------------------------------------------

enum class JobKind : std::uint8_t {
  ior,           // IOR through MPI-IO (ad_lustre / ad_generic)
  plfs,          // IOR through ad_plfs (N data files of 2 stripes each)
  probe_writer,  // Fig. 2-style writers streaming to one pinned OST
  noise,         // background writer outside the MPI world (default layout)
};

const char* job_kind_name(JobKind k);

struct JobSpec {
  JobKind kind = JobKind::ior;
  /// Scheduler tag for every RPC this job issues; must be unique within a
  /// scenario so per-job QoS and the fleet analytics can tell jobs apart.
  lustre::sched::JobId job_id = lustre::sched::kDefaultJob;
  /// Application label for fleet reports ("ior", "checkpoint", ...).
  /// Empty: the kind name.
  std::string app;
  /// Simulated-time offset at which the job starts. All-zero arrivals mean
  /// a synchronised start (the paper's simultaneous-submission design; see
  /// the header comment for when the world barriers and splits); any
  /// positive arrival makes the whole scenario free-running — each job
  /// begins at its own offset with no cross-job barrier.
  Seconds arrival = 0.0;

  // -- ior / plfs --------------------------------------------------------
  int nprocs = 1;    // ranks (ior/plfs) or writers (probe_writer)
  ior::Config ior;   // ignored by probe_writer/noise

  // -- probe_writer / noise payload --------------------------------------
  Bytes bytes = 64_MiB;          // per writer
  Bytes transfer_size = 1_MiB;
  std::uint32_t stripes = 2;     // noise layout (background users rarely tune)
  Bytes stripe_size = 1_MiB;
  /// probe_writer: OST every writer pins via stripe_offset. -1 derives it
  /// from the run seed (the historical probe behaviour: noise sometimes
  /// lands on it, which is where Figure 2's variance band comes from).
  std::int32_t target_ost = -1;

  /// Throws UsageError when the fields are inconsistent for the kind.
  /// `index` names the offending list slot in the message.
  void validate(std::size_t index) const;

  const char* kind_name() const { return job_kind_name(kind); }
  /// Label for reports: `app` when set, else the kind name.
  const std::string& display_app() const;
};

// ---------------------------------------------------------------------------
// Scenario: what to run.
// ---------------------------------------------------------------------------

struct Scenario {
  /// The job list. Empty: the lazy IOR shape below, expanded by
  /// `jobs_desugared()`. Non-empty: authoritative (`jobs`, `nprocs` and
  /// `ior` are ignored).
  std::vector<JobSpec> job_list;

  // -- lazy IOR shape (ignored when job_list is non-empty) ----------------
  int nprocs = 1024;  // ranks per job
  int jobs = 1;       // simultaneous IOR jobs
  ior::Config ior;

  // -- environment ---------------------------------------------------------
  int procs_per_node = 16;
  hw::PlatformParams platform = hw::cab_lscratchc();

  /// Model-driven admission control (admission.hpp). The default `always`
  /// is bit-for-bit invisible: no controller is built and jobs start
  /// exactly as before.
  AdmissionConfig admission;

  /// Online adaptive tuning (ctrl/controller.hpp). The default mode `off`
  /// is bit-for-bit invisible: no Controller is constructed and zero
  /// engine events are added.
  ctrl::CtrlConfig ctrl;

  /// > 0: attach the run's one trace::Sampler at this interval and return
  /// the aggregate-bandwidth timeline in Observation::bandwidth. A traced
  /// run also samples the fabric and scheduler instrument packs, and the
  /// sampler mirrors every tick into the trace.
  Seconds telemetry_interval = 0.0;

  /// Event tracing (trace::Recorder attached to the run's engine).
  /// mode off (the default) is bit-for-bit invisible: no recorder exists
  /// and every instrumentation hook is a single null-pointer test.
  /// Overridable per run through the PFSC_TRACE and PFSC_TRACE_OUT
  /// environment variables, and PFSC_TRACE_INTERVAL sets
  /// telemetry_interval (all only consulted when this field is off, and
  /// the interval only when telemetry_interval is 0, so code wins over
  /// environment).
  trace::TraceConfig trace;

  // -- factories -----------------------------------------------------------
  /// One IOR job through MPI-IO configured by `cfg`.
  static Scenario single_ior(ior::Config cfg = {});
  /// One IOR job through ad_plfs (forces hints.driver).
  static Scenario plfs_ior(ior::Config cfg = {});
  /// `jobs` simultaneous IOR executions of `nprocs` ranks each.
  static Scenario multi(int jobs, int nprocs, ior::Config cfg = {});
  /// `writers` (>= 1) single-OST probe writers of `bytes_per_writer`
  /// each: JobKind::probe_writer entries with JobIds 0 .. writers-1.
  static Scenario probe(std::uint32_t writers, Bytes bytes_per_writer = 64_MiB);
  /// Explicit job-list scenario (replay / fleet generation).
  static Scenario from_jobs(std::vector<JobSpec> list);

  /// Append `writers` background noise jobs (JobKind::noise, JobIds
  /// kNoiseJobBase + i) after the existing jobs, each streaming `bytes`
  /// into its own default-layout file of `stripes` stripes. A lazy
  /// scenario is expanded into its job list first; zero writers is a
  /// no-op.
  void add_noise(unsigned writers, Bytes bytes, std::uint32_t stripes = 2);

  /// The scenario's job list: `job_list` when non-empty (with each IOR
  /// job's ior.job_id set to its JobId), else the lazy IOR shape.
  std::vector<JobSpec> jobs_desugared() const;

  /// Throws UsageError when the fields are inconsistent (e.g. zero jobs
  /// or ranks, or a job list with duplicate JobIds).
  void validate() const;
};

// ---------------------------------------------------------------------------
// Observation: everything one scenario run measured.
// ---------------------------------------------------------------------------
struct Observation {
  std::uint64_t seed = 0;

  /// The job list that ran (desugared), in spawn order — what fleet
  /// analytics joins per_job results against.
  std::vector<JobSpec> jobs;

  /// One result per rank-carrying job (ior/plfs/probe_writer), in job-list
  /// order (a single IOR run is a one-entry list; a probe job reports the
  /// sum of its writers' MB/s and the slowest writer's time).
  std::vector<ior::Result> per_job;
  /// Sum of the per-job headline metrics.
  double total_mbps = 0.0;
  /// Per-OST occupancy census over every ior/plfs job's data files (PLFS
  /// jobs count their backend data files; probe writers none).
  core::ObservedContention contention;
  /// Aggregate-bandwidth timeline when telemetry_interval > 0.
  trace::Series bandwidth;

  /// Admission decisions in release order (empty when scenario.admission is
  /// `always` — the controller is never constructed then).
  std::vector<AdmissionRecord> admissions;

  /// The mode the adaptive controller ran in (off: no controller existed).
  ctrl::CtrlMode ctrl_mode = ctrl::CtrlMode::off;
  /// Adaptive-tuning decisions in decision order (empty when ctrl_mode is
  /// off — the Controller is never constructed then).
  std::vector<ctrl::CtrlAction> ctrl_actions;

  // -- event tracing (scenario.trace.mode != off) -------------------------
  /// True when the run carried a trace::Recorder.
  bool traced = false;
  /// Per-run roll-up (per-job/per-OST bytes, Jain, mean queue depth);
  /// numbers match FileSystem::sched_* exactly.
  trace::RunSummary trace_summary;
  /// Chrome trace_event JSON (full mode only; empty otherwise).
  std::string trace_json;

  /// The scenario's headline number: the mean over jobs of each job's write
  /// (or, for a read-only job, read) MB/s. A list of only probe writers
  /// reports the Welford mean (support/stats.hpp mean_of) the Fig. 2
  /// goldens were pinned with; every other list sum / n.
  double metric = 0.0;

  /// The most coroutine frames live at once (FrameArena high-water mark):
  /// the simulator's parked-work footprint, not a simulated quantity.
  std::uint64_t peak_frames = 0;
  /// Bytes the frame arena carved from the system allocator (its size
  /// classes, headers included). The arena keeps every frame it carves,
  /// so this is what coroutine frames hold until the run ends.
  std::uint64_t carved_frame_bytes = 0;
};

/// Run one scenario to completion on a fresh deterministic simulation.
Observation run_scenario(const Scenario& scenario, std::uint64_t seed);

}  // namespace pfsc::harness
