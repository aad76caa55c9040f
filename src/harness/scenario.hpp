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
// The closed `Workload` enum survives as sugar: the enum plus the
// single-job fields describe the four historical shapes, and
// `jobs_desugared()` turns them into the equivalent job list. The factory
// helpers (`Scenario::single_ior`, `::plfs_ior`, `::multi`, `::probe`)
// construct those shapes; `Scenario::from_jobs` builds an explicit
// job-list scenario (what `replay::to_scenario` and the fleet generator
// produce).
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
// Desugared legacy shapes therefore replay their historical event
// sequences bit for bit (pinned by the golden and trace-pin tests).
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
// Background noise (alias).
//
// A NoiseSpec with `writers == n` desugars to n JobKind::noise entries with
// JobIds kNoiseJobBase + i appended to the job list (see jobs_desugared()).
// ---------------------------------------------------------------------------
struct NoiseSpec {
  unsigned writers = 0;
  Bytes bytes_per_writer = 256_MiB;
  Bytes transfer_size = 1_MiB;
  std::uint32_t stripes = 2;  // background users rarely tune
  Bytes stripe_size = 1_MiB;
};

// ---------------------------------------------------------------------------
// Scenario: what to run.
// ---------------------------------------------------------------------------

enum class Workload {
  ior,    // one IOR job through MPI-IO (Fig. 1 sweep points, Fig. 5 curves)
  plfs,   // IOR through ad_plfs with a backend collision census (Tables VIII/IX)
  multi,  // N simultaneous IOR jobs in one MPI world via comm_split (Figs. 3/4)
  probe,  // single-OST contention probe (Fig. 2)
  jobs,   // explicit job list (replay / synthetic fleets)
};

const char* workload_name(Workload w);

struct Scenario {
  /// Legacy-shape selector; ignored (reported as Workload::jobs) whenever
  /// `job_list` is non-empty.
  Workload workload = Workload::ior;

  /// The job list. Empty: desugared from the legacy fields below by
  /// `jobs_desugared()`. Non-empty: authoritative (the legacy single-job fields are
  /// ignored, except `noise`, which appends background jobs).
  std::vector<JobSpec> job_list;

  // -- legacy job topology (ignored when job_list is non-empty) ----------
  int nprocs = 1024;        // ranks per job (ior/plfs) or per probe writer set
  int procs_per_node = 16;
  int jobs = 4;             // multi only: number of contending jobs

  // -- probe-only knobs ---------------------------------------------------
  std::uint32_t writers = 1;
  Bytes bytes_per_writer = 64_MiB;

  // -- workload description (ignored by probe) ----------------------------
  ior::Config ior;

  // -- environment ---------------------------------------------------------
  hw::PlatformParams platform = hw::cab_lscratchc();
  /// Alias: desugars to JobKind::noise entries (see jobs_desugared()).
  NoiseSpec noise;  // writers == 0: quiet system

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

  // -- factories (the four historical enum shapes + explicit lists) ------
  /// One IOR job through MPI-IO: `Workload::ior` with `cfg`.
  static Scenario single_ior(ior::Config cfg = {});
  /// IOR through ad_plfs (forces hints.driver) with the backend census.
  static Scenario plfs_ior(ior::Config cfg = {});
  /// `jobs` simultaneous IOR executions of `nprocs` ranks each; job k gets
  /// `cfg.test_file + ".k"` and JobId k, exactly the historical desugaring.
  static Scenario multi(int jobs, int nprocs, ior::Config cfg = {});
  /// `writers` single-OST probe writers of `bytes_per_writer` each.
  static Scenario probe(std::uint32_t writers, Bytes bytes_per_writer = 64_MiB);
  /// Explicit job-list scenario (replay / fleet generation).
  static Scenario from_jobs(std::vector<JobSpec> list);

  /// The scenario's job list: `job_list` when non-empty, else the legacy
  /// fields desugared (ior/plfs/multi/probe -> the equivalent JobSpecs).
  /// Noise writers from the `noise` field are appended as
  /// JobKind::noise entries in either case.
  std::vector<JobSpec> jobs_desugared() const;

  /// Throws UsageError when the fields are inconsistent (e.g. a multi
  /// scenario routed through ad_plfs, zero jobs/writers, or a job list
  /// with duplicate JobIds).
  void validate() const;
};

// ---------------------------------------------------------------------------
// Observation: everything one scenario run measured.
// ---------------------------------------------------------------------------
struct Observation {
  Workload workload = Workload::ior;
  std::uint64_t seed = 0;

  /// The job list that ran (desugared), in spawn order — what fleet
  /// analytics joins per_job results against.
  std::vector<JobSpec> jobs;

  /// One rank-carrying job: that job's result, unmodified. More than one:
  /// the first job's result with write_mbps set to `metric`.
  ior::Result ior;
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
};

/// Run one scenario to completion on a fresh deterministic simulation.
Observation run_scenario(const Scenario& scenario, std::uint64_t seed);

}  // namespace pfsc::harness
