#include "harness/scenario.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "plfs/plfs.hpp"
#include "trace/export.hpp"

namespace pfsc::harness {

const char* job_kind_name(JobKind k) {
  switch (k) {
    case JobKind::ior: return "ior";
    case JobKind::plfs: return "plfs";
    case JobKind::probe_writer: return "probe";
    case JobKind::noise: return "noise";
  }
  return "?";
}

const std::string& JobSpec::display_app() const {
  static const std::string names[] = {"ior", "plfs", "probe", "noise"};
  if (!app.empty()) return app;
  return names[static_cast<std::size_t>(kind)];
}

void JobSpec::validate(std::size_t index) const {
  const std::string where = "JobSpec[" + std::to_string(index) + "]: ";
  PFSC_REQUIRE(arrival >= 0.0, where + "arrival must be non-negative");
  switch (kind) {
    case JobKind::ior:
      PFSC_REQUIRE(nprocs >= 1, where + "nprocs must be positive");
      PFSC_REQUIRE(ior.hints.driver != mpiio::Driver::ad_plfs,
                   where + "use kind=plfs for ad_plfs");
      break;
    case JobKind::plfs:
      PFSC_REQUIRE(nprocs >= 1, where + "nprocs must be positive");
      PFSC_REQUIRE(ior.hints.driver == mpiio::Driver::ad_plfs,
                   where + "kind=plfs needs hints.driver == ad_plfs");
      break;
    case JobKind::probe_writer:
      PFSC_REQUIRE(nprocs >= 1, where + "nprocs must be positive");
      PFSC_REQUIRE(bytes > 0, where + "bytes must be positive");
      PFSC_REQUIRE(transfer_size > 0, where + "transfer_size must be positive");
      break;
    case JobKind::noise:
      PFSC_REQUIRE(bytes > 0, where + "bytes must be positive");
      PFSC_REQUIRE(transfer_size > 0, where + "transfer_size must be positive");
      break;
  }
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::ior: return "ior";
    case Workload::plfs: return "plfs";
    case Workload::multi: return "multi";
    case Workload::probe: return "probe";
    case Workload::jobs: return "jobs";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Factories + desugaring
// ---------------------------------------------------------------------------

Scenario Scenario::single_ior(ior::Config cfg) {
  Scenario s;
  s.workload = Workload::ior;
  s.ior = std::move(cfg);
  return s;
}

Scenario Scenario::plfs_ior(ior::Config cfg) {
  Scenario s;
  s.workload = Workload::plfs;
  s.ior = std::move(cfg);
  s.ior.hints.driver = mpiio::Driver::ad_plfs;
  return s;
}

Scenario Scenario::multi(int jobs, int nprocs, ior::Config cfg) {
  Scenario s;
  s.workload = Workload::multi;
  s.jobs = jobs;
  s.nprocs = nprocs;
  s.ior = std::move(cfg);
  return s;
}

Scenario Scenario::probe(std::uint32_t writers, Bytes bytes_per_writer) {
  Scenario s;
  s.workload = Workload::probe;
  s.writers = writers;
  s.bytes_per_writer = bytes_per_writer;
  return s;
}

Scenario Scenario::from_jobs(std::vector<JobSpec> list) {
  Scenario s;
  s.workload = Workload::jobs;
  s.job_list = std::move(list);
  return s;
}

std::vector<JobSpec> Scenario::jobs_desugared() const {
  std::vector<JobSpec> out;
  if (!job_list.empty()) {
    out = job_list;
    // JobSpec::job_id is the job's identity everywhere (scheduler
    // accounting, admission records, analytics rows); stamp it into the
    // embedded ior config so callers building job lists by hand don't
    // have to remember both fields.
    for (JobSpec& j : out) {
      if (j.kind == JobKind::ior || j.kind == JobKind::plfs) {
        j.ior.job_id = j.job_id;
      }
    }
  } else {
    switch (workload) {
      case Workload::ior:
      case Workload::plfs: {
        JobSpec j;
        j.kind = workload == Workload::plfs ? JobKind::plfs : JobKind::ior;
        j.job_id = ior.job_id;
        j.nprocs = nprocs;
        j.ior = ior;
        out.push_back(std::move(j));
        break;
      }
      case Workload::multi:
        for (int k = 0; k < jobs; ++k) {
          JobSpec j;
          j.kind = JobKind::ior;
          j.job_id = static_cast<lustre::sched::JobId>(k);
          j.nprocs = nprocs;
          j.ior = ior;
          j.ior.test_file += "." + std::to_string(k);
          j.ior.job_id = j.job_id;
          out.push_back(std::move(j));
        }
        break;
      case Workload::probe:
        for (std::uint32_t w = 0; w < writers; ++w) {
          JobSpec j;
          j.kind = JobKind::probe_writer;
          j.job_id = static_cast<lustre::sched::JobId>(w);
          j.nprocs = 1;
          j.bytes = bytes_per_writer;
          out.push_back(std::move(j));
        }
        break;
      case Workload::jobs:
        break;  // empty job_list: validate() rejects this shape
    }
  }
  // Deprecated NoiseSpec alias: background writers become ordinary noise
  // jobs appended after the rank-carrying jobs, ids kNoiseJobBase + i.
  for (unsigned w = 0; w < noise.writers; ++w) {
    JobSpec j;
    j.kind = JobKind::noise;
    j.job_id = lustre::sched::kNoiseJobBase + w;
    j.bytes = noise.bytes_per_writer;
    j.transfer_size = noise.transfer_size;
    j.stripes = noise.stripes;
    j.stripe_size = noise.stripe_size;
    out.push_back(std::move(j));
  }
  return out;
}

void Scenario::validate() const {
  PFSC_REQUIRE(procs_per_node >= 1, "Scenario: procs_per_node must be positive");
  PFSC_REQUIRE(telemetry_interval >= 0.0,
               "Scenario: telemetry_interval must be non-negative");
  PFSC_REQUIRE(trace.interval >= 0.0,
               "Scenario: trace.interval must be non-negative");
  PFSC_REQUIRE(trace.out.empty() || trace.mode != trace::TraceMode::off,
               "Scenario: trace.out requires trace.mode != off");
  PFSC_REQUIRE(platform.sim_domains == 1,
               "Scenario: platform.sim_domains must be 1 (the sharded "
               "multi-domain engine was removed)");
  PFSC_REQUIRE(admission.max_dload > 0.0,
               "Scenario: admission.max_dload must be positive");
  PFSC_REQUIRE(admission.min_stripes >= 1,
               "Scenario: admission.min_stripes must be >= 1");
  // Degenerate scheduler tunings (zero quantum, no service slots, empty
  // bucket) are rejected here rather than producing silently broken
  // schedules mid-run; the CLI additionally rejects them at parse time
  // with the flag name.
  lustre::sched::validate_tuning(platform.oss_sched);
  if (ctrl.mode != ctrl::CtrlMode::off) {
    PFSC_REQUIRE(ctrl.interval > 0.0,
                 "Scenario: ctrl.interval must be positive");
    PFSC_REQUIRE(ctrl.cooldown >= 0.0,
                 "Scenario: ctrl.cooldown must be non-negative");
    PFSC_REQUIRE(ctrl.jain_low <= ctrl.jain_high,
                 "Scenario: ctrl.jain_low must not exceed ctrl.jain_high");
    PFSC_REQUIRE(ctrl.storm_jobs >= 1,
                 "Scenario: ctrl.storm_jobs must be >= 1");
  }
  if (!job_list.empty()) {
    std::set<lustre::sched::JobId> ids;
    bool any_ranks = false;
    for (std::size_t i = 0; i < job_list.size(); ++i) {
      const JobSpec& j = job_list[i];
      j.validate(i);
      PFSC_REQUIRE(ids.insert(j.job_id).second,
                   "Scenario: duplicate JobId " + std::to_string(j.job_id) +
                       " in job list");
      any_ranks = any_ranks || j.kind != JobKind::noise;
    }
    for (unsigned w = 0; w < noise.writers; ++w) {
      PFSC_REQUIRE(ids.insert(lustre::sched::kNoiseJobBase + w).second,
                   "Scenario: noise JobId collides with an explicit job");
    }
    PFSC_REQUIRE(any_ranks,
                 "Scenario: job list needs at least one non-noise job");
    return;
  }
  PFSC_REQUIRE(nprocs >= 1, "Scenario: nprocs must be positive");
  switch (workload) {
    case Workload::ior:
      break;
    case Workload::plfs:
      PFSC_REQUIRE(ior.hints.driver == mpiio::Driver::ad_plfs,
                   "Scenario: plfs workload needs hints.driver == ad_plfs");
      break;
    case Workload::multi:
      PFSC_REQUIRE(jobs >= 1, "Scenario: multi workload needs at least one job");
      PFSC_REQUIRE(ior.hints.driver != mpiio::Driver::ad_plfs,
                   "Scenario: use the plfs workload for ad_plfs");
      break;
    case Workload::probe:
      PFSC_REQUIRE(writers >= 1, "Scenario: probe needs at least one writer");
      PFSC_REQUIRE(telemetry_interval == 0.0,
                   "Scenario: the probe workload does not support telemetry");
      PFSC_REQUIRE(trace.interval == 0.0,
                   "Scenario: the probe workload does not support a trace sampler");
      PFSC_REQUIRE(ctrl.mode == ctrl::CtrlMode::off,
                   "Scenario: the probe workload does not support --ctrl");
      break;
    case Workload::jobs:
      throw UsageError("Scenario: Workload::jobs needs a non-empty job_list");
  }
}

namespace {

sim::Task noise_writer(lustre::Client& client, std::string path,
                       lustre::StripeSettings settings, Bytes total,
                       Bytes transfer, Seconds arrival) {
  // Arrival 0 adds no event: desugared legacy noise stays bit-for-bit.
  if (arrival > 0.0) co_await client.fs().engine().delay(arrival);
  auto file = co_await client.create(std::move(path), settings);
  if (!file.ok()) co_return;
  for (Bytes off = 0; off < total; off += transfer) {
    const Bytes chunk = std::min(transfer, total - off);
    const auto e = co_await client.write_buffered(file.value, off, chunk);
    if (e != lustre::Errno::ok) co_return;
  }
  (void)co_await client.flush();
}

/// Spawn one JobKind::noise entry (an independent client streaming a
/// default-layout file). Naming matches the historical spawn_noise exactly:
/// writer i (= job_id - kNoiseJobBase) is client "noise<i>" writing
/// "/noise.<seed%1000>.<i>".
void spawn_noise_job(lustre::FileSystem& fs,
                     std::vector<std::unique_ptr<lustre::Client>>& clients,
                     const JobSpec& job, std::uint64_t seed) {
  const std::uint32_t i = job.job_id >= lustre::sched::kNoiseJobBase
                              ? job.job_id - lustre::sched::kNoiseJobBase
                              : job.job_id;
  lustre::StripeSettings settings;
  settings.stripe_count = job.stripes;
  settings.stripe_size = job.stripe_size;
  clients.push_back(
      std::make_unique<lustre::Client>(fs, "noise" + std::to_string(i)));
  clients.back()->set_job(job.job_id);
  fs.engine().spawn(noise_writer(
      *clients.back(),
      "/noise." + std::to_string(seed % 1000) + "." + std::to_string(i),
      settings, job.bytes, job.transfer_size, job.arrival));
}

/// Shared run state every workload branch builds: fresh engine, seeded
/// file system, runtime, background noise jobs, optional telemetry
/// sampler, optional event recorder (+ trace sampler mirroring into it).
struct Rig {
  sim::Engine eng;
  std::unique_ptr<trace::Recorder> recorder;  // scenario.trace.mode != off
  lustre::FileSystem fs;
  mpi::Runtime rt;
  std::vector<std::unique_ptr<lustre::Client>> noise_clients;
  std::unique_ptr<trace::Sampler> sampler;
  std::unique_ptr<trace::Sampler> trace_sampler;
  std::unique_ptr<ctrl::Controller> controller;  // scenario.ctrl.mode != off

  Rig(const Scenario& s, int nprocs, std::uint64_t seed,
      const std::vector<const JobSpec*>& noise_jobs)
      : eng(s.platform.event_queue),
        fs(eng, s.platform, seed),
        rt(fs, nprocs, s.procs_per_node) {
    if (s.trace.mode != trace::TraceMode::off) {
      recorder = std::make_unique<trace::Recorder>(s.trace);
      eng.set_recorder(recorder.get());
    }
    for (const JobSpec* job : noise_jobs) {
      spawn_noise_job(fs, noise_clients, *job, seed);
    }
    if (s.telemetry_interval > 0.0) {
      sampler = std::make_unique<trace::Sampler>(eng, s.telemetry_interval);
      sampler->add_total_bytes_probe(fs);
    }
    // `off` builds no controller at all: zero engine events, goldens
    // bit-for-bit (the same null pattern as admission control).
    if (s.ctrl.mode != ctrl::CtrlMode::off) {
      controller = std::make_unique<ctrl::Controller>(eng, s.ctrl, fs,
                                                      recorder.get());
    }
    if (recorder && s.trace.interval > 0.0) {
      trace_sampler = std::make_unique<trace::Sampler>(eng, s.trace.interval);
      trace_sampler->add_instruments(trace::link_instruments("fabric", fs.fabric()),
                                     fs.liveness());
      trace_sampler->add_instruments(trace::sched_instruments(fs), fs.liveness());
      trace_sampler->add_instruments(trace::total_bytes_instruments(fs),
                                     fs.liveness());
    }
  }

  /// Start sampling, stopping once `done()` first returns true (so the
  /// periodic samplers cannot keep the drained engine alive).
  void start_sampler(std::function<bool()> done) {
    if (sampler) {
      sampler->watch([done] { return !done(); });
      sampler->start();
    }
    if (controller) {
      controller->watch([done] { return !done(); });
      controller->start();
    }
    if (trace_sampler) {
      trace_sampler->watch([done = std::move(done)] { return !done(); });
      trace_sampler->start();
    }
  }

  /// Run-end checks once the engine has drained: every client is
  /// quiescent (Client::check_quiescent throws SimulationError otherwise),
  /// and the frame high-water mark goes into the observation.
  void finish_run(Observation& obs, const lustre::Client* setup = nullptr) {
    for (int rank = 0; rank < rt.nprocs(); ++rank) {
      rt.client(rank).check_quiescent();
    }
    for (const auto& client : noise_clients) client->check_quiescent();
    if (setup != nullptr) setup->check_quiescent();
    obs.peak_frames = eng.frame_arena().peak_outstanding();
  }

  /// Harvest the controller's decision log into the observation.
  void finish_ctrl(Observation& obs, const Scenario& s) {
    if (!controller) return;
    obs.ctrl_mode = s.ctrl.mode;
    obs.ctrl_actions = controller->take_actions();
  }

  void export_bandwidth(Observation& obs) const {
    if (!sampler) return;
    obs.bandwidth = trace::Sampler::bandwidth_timeline(sampler->series(0));
  }

  /// Roll the recorder up into the observation and write --trace_out.
  /// Called after the run drains, from every workload branch.
  void finish_trace(Observation& obs, const Scenario& s, std::uint64_t seed) {
    if (recorder == nullptr) return;
    obs.traced = true;
    obs.trace_summary = trace::collect_summary(fs, recorder.get());
    if (s.trace.mode == trace::TraceMode::full) {
      obs.trace_json = trace::export_chrome_trace(*recorder);
    }
    if (s.trace.out.empty()) return;
    const std::string path = trace::resolve_trace_path(s.trace.out, seed);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    PFSC_REQUIRE(out.good(), "trace: cannot open --trace_out path " + path);
    if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
      out << trace::export_counters_csv(*recorder);
    } else if (s.trace.mode == trace::TraceMode::full) {
      out << obs.trace_json;
    } else {
      out << obs.trace_summary.format();
    }
    out.flush();
    PFSC_REQUIRE(out.good(), "trace: failed writing " + path);
  }
};

double headline_metric(const ior::Config& cfg, const ior::Result& res) {
  return cfg.write_file ? res.write_mbps : res.read_mbps;
}

/// The desugared job list, partitioned into rank-carrying jobs (ior, plfs,
/// probe writers — these occupy MPI world ranks in contiguous blocks, in
/// list order) and background noise jobs (spawned outside the runtime).
struct JobPlan {
  std::vector<JobSpec> all;                // spawn/report order
  std::vector<const JobSpec*> rank_jobs;   // pointers into `all`
  std::vector<const JobSpec*> noise_jobs;  // pointers into `all`
  std::vector<int> first_rank;             // per rank job: world-rank base
  int total_ranks = 0;
  bool synchronized = true;  // every rank job arrives at t = 0

  explicit JobPlan(std::vector<JobSpec> jobs) : all(std::move(jobs)) {
    for (const JobSpec& j : all) {
      if (j.kind == JobKind::noise) {
        noise_jobs.push_back(&j);
        continue;
      }
      rank_jobs.push_back(&j);
      first_rank.push_back(total_ranks);
      total_ranks += j.nprocs;
      synchronized = synchronized && j.arrival == 0.0;
    }
  }

  /// Job index owning `world_rank` (blocks are contiguous and in order).
  std::size_t color_of(int world_rank) const {
    auto it = std::upper_bound(first_rank.begin(), first_rank.end(), world_rank);
    return static_cast<std::size_t>(it - first_rank.begin()) - 1;
  }
};

/// Per-job run state for the fleet executor.
struct JobSlot {
  const JobSpec* spec = nullptr;
  int base = 0;  // first world rank
  std::unique_ptr<ior::IorJob> job;
  std::unique_ptr<sim::Event> ready;          // synchronized mode
  std::unique_ptr<mpi::Communicator> comm;    // free-running mode
  // probe_writer outcomes, one slot per writer rank.
  std::vector<double> writer_mbps;
  std::vector<Seconds> writer_time;
  int writers_done = 0;

  bool finished() const {
    if (spec->kind == JobKind::probe_writer) {
      return writers_done == spec->nprocs;
    }
    return job != nullptr && job->finished();
  }
};

/// Fig. 2-style writer body, generalised to run inside any fleet: stream
/// `spec.bytes` to one file pinned on the target OST via stripe_offset.
sim::Co<void> probe_writer_body(Rig& rig, JobSlot& slot, int local_rank,
                                lustre::Client& client, std::uint64_t seed) {
  const JobSpec& spec = *slot.spec;
  sim::Engine& eng = rig.eng;
  client.set_job(spec.job_id);

  const auto target = static_cast<lustre::OstIndex>(
      spec.target_ost >= 0
          ? static_cast<std::uint32_t>(spec.target_ost) %
                rig.fs.params().ost_count
          : seed % rig.fs.params().ost_count);
  const std::string dir = "/probe";
  if (!rig.fs.exists(dir)) {
    auto made = co_await client.mkdir(dir);
    PFSC_ASSERT(made.ok() || made.err == lustre::Errno::eexist);
  }

  lustre::StripeSettings settings;
  settings.stripe_count = 1;
  settings.stripe_size = 1_MiB;
  settings.stripe_offset = static_cast<std::int32_t>(target);
  const std::string path = dir + "/j" + std::to_string(spec.job_id) + "." +
                           std::to_string(local_rank);
  auto created = co_await client.create(path, settings);
  PFSC_ASSERT(created.ok());

  const Seconds t0 = eng.now();
  Bytes done = 0;
  while (done < spec.bytes) {
    const Bytes chunk = std::min<Bytes>(spec.transfer_size, spec.bytes - done);
    const lustre::Errno e = co_await client.write_buffered(created.value, done, chunk);
    PFSC_ASSERT(e == lustre::Errno::ok);
    done += chunk;
  }
  const lustre::Errno fe = co_await client.flush();
  PFSC_ASSERT(fe == lustre::Errno::ok);
  const Seconds elapsed = eng.now() - t0;
  slot.writer_time[static_cast<std::size_t>(local_rank)] = elapsed;
  slot.writer_mbps[static_cast<std::size_t>(local_rank)] =
      bandwidth_mbps(spec.bytes, elapsed);
  ++slot.writers_done;
}

/// Create every missing parent directory of the job files, then release
/// the ranks. Only spawned when some job writes outside "/" (legacy
/// scenarios never do, so their event sequences carry no extra events).
sim::Task make_dirs(lustre::Client& client, std::vector<std::string> dirs,
                    sim::Event& done) {
  for (const std::string& dir : dirs) {
    if (!client.fs().exists(dir)) {
      const auto made = co_await client.mkdir(dir);
      PFSC_ASSERT(made.ok() || made.err == lustre::Errno::eexist);
    }
  }
  done.trigger();
}

/// Proper ancestor directories of `path`, shallowest first ("/a/b/f" ->
/// ["/a", "/a/b"]).
void collect_parents(const std::string& path, std::vector<std::string>& out) {
  for (std::size_t pos = path.find('/', 1); pos != std::string::npos;
       pos = path.find('/', pos + 1)) {
    if (pos > 1) out.push_back(path.substr(0, pos));
  }
}

/// Synchronised-start rank main: the paper's simultaneous-submission
/// design. All world ranks barrier, then carve the world into one
/// sub-communicator per job — the historical multi workload's exact event
/// sequence (pinned bit-for-bit by the golden tests), generalised to
/// heterogeneous job lists.
sim::Task fleet_rank_main_sync(Rig& rig, const JobPlan& plan,
                               std::vector<JobSlot>& slots, int world_rank,
                               plfs::Plfs* plfs, std::uint64_t seed,
                               sim::Event* setup_done,
                               AdmissionController* admission) {
  mpi::Communicator& world = rig.rt.world();
  const auto color = static_cast<int>(plan.color_of(world_rank));

  if (setup_done != nullptr && !setup_done->fired()) {
    co_await setup_done->wait();
  }
  co_await world.barrier(world_rank);
  const auto sr = co_await world.split(world_rank, color, world_rank);
  JobSlot& slot = slots[static_cast<std::size_t>(color)];
  if (slot.spec->kind == JobKind::probe_writer) {
    // Probe layouts are not stripe-tunable; admission can only delay them.
    if (admission != nullptr) {
      if (sr.rank == 0) {
        (void)co_await admission->admit(*slot.spec);
        slot.ready->trigger();
      } else if (!slot.ready->fired()) {
        co_await slot.ready->wait();
      }
    }
    co_await probe_writer_body(rig, slot, sr.rank, rig.rt.client(world_rank),
                               seed);
    if (admission != nullptr && slot.finished()) admission->finished(*slot.spec);
    co_return;
  }
  if (sr.rank == 0) {
    ior::Config cfg = slot.spec->ior;
    if (admission != nullptr) {
      const std::uint32_t detuned = co_await admission->admit(*slot.spec);
      if (detuned != 0) cfg.hints.striping_factor = detuned;
    }
    slot.job = std::make_unique<ior::IorJob>(
        *sr.comm, rig.fs, std::move(cfg),
        slot.spec->kind == JobKind::plfs ? plfs : nullptr);
    slot.ready->trigger();
  } else if (!slot.ready->fired()) {
    co_await slot.ready->wait();
  }
  co_await slot.job->run_rank(sr.rank, rig.rt.client(world_rank));
  if (admission != nullptr && slot.finished()) admission->finished(*slot.spec);
}

/// Free-running rank main: any positive arrival disables the global
/// barrier; each job sleeps until its own offset and runs on a pre-built
/// per-job communicator (jobs arriving later genuinely find the system in
/// whatever state the earlier ones left it).
sim::Task fleet_rank_main_staggered(Rig& rig, std::vector<JobSlot>& slots,
                                    std::size_t color, int local_rank,
                                    int world_rank, plfs::Plfs* plfs,
                                    std::uint64_t seed, sim::Event* setup_done,
                                    AdmissionController* admission) {
  JobSlot& slot = slots[color];
  if (setup_done != nullptr && !setup_done->fired()) {
    co_await setup_done->wait();
  }
  if (slot.spec->arrival > 0.0) {
    co_await rig.eng.delay(slot.spec->arrival);
  }
  // Under admission control the job's IorJob is built lazily by local rank
  // 0 once the controller releases it (the detuned stripe hint must be
  // known first); without it the pre-built job is used untouched, keeping
  // the historical event sequence bit for bit.
  if (admission != nullptr) {
    if (local_rank == 0) {
      const std::uint32_t detuned = co_await admission->admit(*slot.spec);
      if (slot.spec->kind != JobKind::probe_writer) {
        ior::Config cfg = slot.spec->ior;
        if (detuned != 0) cfg.hints.striping_factor = detuned;
        slot.job = std::make_unique<ior::IorJob>(
            *slot.comm, rig.fs, std::move(cfg),
            slot.spec->kind == JobKind::plfs ? plfs : nullptr);
      }
      slot.ready->trigger();
    } else if (!slot.ready->fired()) {
      co_await slot.ready->wait();
    }
  }
  if (slot.spec->kind == JobKind::probe_writer) {
    co_await probe_writer_body(rig, slot, local_rank,
                               rig.rt.client(world_rank), seed);
  } else {
    co_await slot.job->run_rank(local_rank, rig.rt.client(world_rank));
  }
  if (admission != nullptr && slot.finished()) admission->finished(*slot.spec);
}

/// Fold one probe job's per-writer outcomes into an ior::Result so fleet
/// aggregation is uniform: write_mbps is the job's aggregate bandwidth.
ior::Result probe_slot_result(const JobSlot& slot) {
  ior::Result r;
  r.total_bytes = slot.spec->bytes * static_cast<Bytes>(slot.spec->nprocs);
  for (std::size_t w = 0; w < slot.writer_mbps.size(); ++w) {
    r.write_mbps += slot.writer_mbps[w];
    r.write_time = std::max(r.write_time, slot.writer_time[w]);
  }
  r.verified = true;
  return r;
}

/// The general executor: any job list with more than one rank-carrying job
/// (or any staggered arrival / in-fleet probe writers).
Observation run_fleet(const Scenario& s, JobPlan plan, std::uint64_t seed) {
  Rig rig(s, plan.total_ranks, seed, plan.noise_jobs);
  std::unique_ptr<plfs::Plfs> plfs;
  for (const JobSpec* spec : plan.rank_jobs) {
    if (spec->kind == JobKind::plfs && !plfs) {
      plfs = std::make_unique<plfs::Plfs>(rig.fs);
    }
  }
  // `always` builds no controller at all: the null pointer keeps every
  // admission hook a single test and the event sequences untouched.
  std::unique_ptr<AdmissionController> admission;
  if (s.admission.policy != AdmissionPolicy::always) {
    admission = std::make_unique<AdmissionController>(
        rig.eng, s.admission, s.platform, rig.recorder.get());
  }

  std::vector<JobSlot> slots(plan.rank_jobs.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slots[i].spec = plan.rank_jobs[i];
    slots[i].base = plan.first_rank[i];
    if (slots[i].spec->kind == JobKind::probe_writer) {
      slots[i].writer_mbps.assign(static_cast<std::size_t>(slots[i].spec->nprocs), 0.0);
      slots[i].writer_time.assign(static_cast<std::size_t>(slots[i].spec->nprocs), 0.0);
    } else if (plan.synchronized) {
      slots[i].ready = std::make_unique<sim::Event>(rig.eng);
    } else {
      // Free-running jobs never comm_split, so each gets its own world.
      slots[i].comm = std::make_unique<mpi::Communicator>(
          rig.eng, slots[i].spec->nprocs);
      if (admission == nullptr) {
        slots[i].job = std::make_unique<ior::IorJob>(
            *slots[i].comm, rig.fs, slots[i].spec->ior,
            slots[i].spec->kind == JobKind::plfs ? plfs.get() : nullptr);
      }
    }
    // Gated jobs release their ranks through a per-slot event.
    if (admission != nullptr && slots[i].ready == nullptr) {
      slots[i].ready = std::make_unique<sim::Event>(rig.eng);
    }
  }

  // Parent directories the job files need (outside "/": fleets often use
  // "/fleet/<app>.<id>"). Created by a setup task the ranks wait on; empty
  // for every legacy scenario, which therefore sees no extra events.
  std::vector<std::string> dirs;
  for (const JobSpec* spec : plan.rank_jobs) {
    if (spec->kind != JobKind::probe_writer) {
      collect_parents(spec->ior.test_file, dirs);
    }
  }
  std::sort(dirs.begin(), dirs.end());
  dirs.erase(std::unique(dirs.begin(), dirs.end()), dirs.end());
  std::unique_ptr<lustre::Client> setup_client;
  std::unique_ptr<sim::Event> setup_done;
  if (!dirs.empty()) {
    setup_client = std::make_unique<lustre::Client>(rig.fs, "setup");
    setup_done = std::make_unique<sim::Event>(rig.eng);
    rig.eng.spawn(make_dirs(*setup_client, std::move(dirs), *setup_done));
  }

  rig.start_sampler([&slots] {
    return std::all_of(slots.begin(), slots.end(),
                       [](const JobSlot& slot) { return slot.finished(); });
  });
  if (plan.synchronized) {
    rig.rt.run_to_completion([&](int world_rank) -> sim::Task {
      return fleet_rank_main_sync(rig, plan, slots, world_rank, plfs.get(),
                                  seed, setup_done.get(), admission.get());
    });
  } else {
    rig.rt.run_to_completion([&](int world_rank) -> sim::Task {
      const std::size_t color = plan.color_of(world_rank);
      return fleet_rank_main_staggered(rig, slots, color,
                                       world_rank - slots[color].base,
                                       world_rank, plfs.get(), seed,
                                       setup_done.get(), admission.get());
    });
  }

  Observation obs;
  std::vector<lustre::InodeId> files;
  double mean = 0.0;
  for (JobSlot& slot : slots) {
    PFSC_ASSERT(slot.finished());
    if (slot.spec->kind == JobKind::probe_writer) {
      obs.per_job.push_back(probe_slot_result(slot));
      mean += obs.per_job.back().write_mbps;
      obs.total_mbps += obs.per_job.back().write_mbps;
      continue;
    }
    obs.per_job.push_back(slot.job->result());
    const double headline = headline_metric(slot.spec->ior, obs.per_job.back());
    mean += headline;
    obs.total_mbps += headline;
    if (slot.spec->kind == JobKind::plfs) {
      for (const lustre::InodeId ino :
           plfs->backend_data_files(slot.spec->ior.test_file)) {
        files.push_back(ino);
      }
    } else {
      for (const lustre::InodeId ino : slot.job->file_inos()) {
        files.push_back(ino);
      }
    }
  }
  mean /= static_cast<double>(slots.size());
  obs.ior = obs.per_job.front();
  obs.ior.write_mbps = mean;
  obs.metric = mean;
  obs.contention = core::observe(rig.fs.ost_occupancy(files));
  if (admission != nullptr) obs.admissions = admission->take_records();
  rig.finish_run(obs, setup_client.get());
  rig.finish_ctrl(obs, s);
  rig.export_bandwidth(obs);
  rig.finish_trace(obs, s, seed);
  return obs;
}

/// Single ior/plfs job arriving at t = 0: the historical single-job data
/// path, with no barrier/split latency (pinned by the Fig. 1 goldens).
Observation run_single(const Scenario& s, const JobPlan& plan,
                       std::uint64_t seed) {
  const JobSpec& spec = *plan.rank_jobs.front();
  Rig rig(s, spec.nprocs, seed, plan.noise_jobs);
  std::unique_ptr<plfs::Plfs> plfs;
  if (spec.ior.hints.driver == mpiio::Driver::ad_plfs) {
    plfs = std::make_unique<plfs::Plfs>(rig.fs);
  }
  ior::IorJob job(rig.rt.world(), rig.fs, spec.ior, plfs.get());
  rig.start_sampler([&job] { return job.finished(); });
  rig.rt.run_to_completion([&](int rank) -> sim::Task {
    return job.rank_main(rank, rig.rt.client(rank));
  });

  Observation obs;
  obs.ior = job.result();
  obs.metric = headline_metric(spec.ior, obs.ior);
  obs.per_job.push_back(obs.ior);
  obs.total_mbps = obs.metric;
  if (spec.kind == JobKind::plfs) {
    const auto data_files = plfs->backend_data_files(spec.ior.test_file);
    obs.contention = core::observe(rig.fs.ost_occupancy(data_files));
  }
  rig.finish_run(obs);
  rig.finish_ctrl(obs, s);
  rig.export_bandwidth(obs);
  rig.finish_trace(obs, s, seed);
  return obs;
}

/// All-probe job list with a synchronised start: the historical Fig. 2
/// probe benchmark (shared directory, world barrier, one target OST).
Observation run_probe(const Scenario& s, const JobPlan& plan,
                      std::uint64_t seed) {
  Rig rig(s, plan.total_ranks, seed, plan.noise_jobs);
  const JobSpec& first = *plan.rank_jobs.front();
  ior::ProbeConfig cfg;
  cfg.num_writers = static_cast<std::uint32_t>(plan.total_ranks);
  cfg.bytes_per_writer = first.bytes;
  cfg.transfer_size = first.transfer_size;
  // Any OST works (the paper pins one via stripe_offset); randomising the
  // pick per repetition lets background noise land on it sometimes, which
  // is where the single-writer variance of Figure 2's band comes from.
  cfg.target_ost = static_cast<lustre::OstIndex>(
      first.target_ost >= 0
          ? static_cast<std::uint32_t>(first.target_ost) %
                rig.fs.params().ost_count
          : seed % rig.fs.params().ost_count);

  Observation obs;
  obs.probe = ior::run_probe(rig.rt, cfg);
  obs.metric = obs.probe.mean_mbps;
  for (const double mbps : obs.probe.per_process_mbps) {
    ior::Result r;
    r.write_mbps = mbps;
    r.total_bytes = cfg.bytes_per_writer;
    r.write_time =
        mbps > 0.0 ? static_cast<double>(cfg.bytes_per_writer) / (mbps * 1.0e6)
                   : 0.0;
    r.verified = true;
    obs.per_job.push_back(r);
    obs.total_mbps += mbps;
  }
  rig.finish_run(obs);
  rig.finish_trace(obs, s, seed);
  return obs;
}

/// True when the job list is the historical probe benchmark's shape: all
/// probe writers, synchronised start, one writer per job with consecutive
/// ids from 0, uniform payload, and one shared (or seed-derived) target.
bool is_legacy_probe(const JobPlan& plan, const Scenario& s) {
  if (plan.rank_jobs.empty() || !plan.synchronized) return false;
  if (s.telemetry_interval > 0.0 || s.trace.interval > 0.0) return false;
  if (s.ctrl.mode != ctrl::CtrlMode::off) return false;
  const JobSpec& first = *plan.rank_jobs.front();
  for (std::size_t i = 0; i < plan.rank_jobs.size(); ++i) {
    const JobSpec& j = *plan.rank_jobs[i];
    if (j.kind != JobKind::probe_writer || j.nprocs != 1) return false;
    if (j.job_id != static_cast<lustre::sched::JobId>(i)) return false;
    if (j.bytes != first.bytes || j.transfer_size != first.transfer_size ||
        j.target_ost != first.target_ost) {
      return false;
    }
  }
  return true;
}

/// PFSC_TRACE / PFSC_TRACE_OUT / PFSC_TRACE_INTERVAL environment override,
/// consulted only when the scenario itself leaves tracing off (so a
/// scenario that explicitly configures tracing wins over the environment,
/// and OUT/INTERVAL alone cannot switch tracing on).
void apply_trace_env(Scenario& s) {
  if (s.trace.mode != trace::TraceMode::off) return;
  const char* mode = std::getenv("PFSC_TRACE");
  if (mode == nullptr || *mode == '\0') return;
  PFSC_REQUIRE(trace::parse_trace_mode(mode, s.trace.mode),
               "PFSC_TRACE: expected one of: off, summary, full");
  if (s.trace.mode == trace::TraceMode::off) return;
  if (const char* out = std::getenv("PFSC_TRACE_OUT");
      out != nullptr && *out != '\0') {
    s.trace.out = out;
  }
  if (const char* interval = std::getenv("PFSC_TRACE_INTERVAL");
      interval != nullptr && *interval != '\0' &&
      !(s.job_list.empty() && s.workload == Workload::probe)) {
    char* end = nullptr;
    s.trace.interval = std::strtod(interval, &end);
    PFSC_REQUIRE(end != interval && *end == '\0' && s.trace.interval >= 0.0,
                 "PFSC_TRACE_INTERVAL: expected a non-negative number");
  }
}

}  // namespace

void spawn_noise(lustre::FileSystem& fs,
                 std::vector<std::unique_ptr<lustre::Client>>& clients,
                 const NoiseSpec& noise, std::uint64_t seed) {
  for (unsigned w = 0; w < noise.writers; ++w) {
    JobSpec j;
    j.kind = JobKind::noise;
    j.job_id = lustre::sched::kNoiseJobBase + w;
    j.bytes = noise.bytes_per_writer;
    j.transfer_size = noise.transfer_size;
    j.stripes = noise.stripes;
    j.stripe_size = noise.stripe_size;
    spawn_noise_job(fs, clients, j, seed);
  }
}

Observation run_scenario(const Scenario& scenario, std::uint64_t seed) {
  Scenario effective = scenario;
  apply_trace_env(effective);
  const Scenario& s = effective;
  s.validate();

  JobPlan plan(s.jobs_desugared());
  PFSC_REQUIRE(!plan.rank_jobs.empty(),
               "Scenario: needs at least one non-noise job");

  Observation obs;
  const JobSpec& first = *plan.rank_jobs.front();
  const bool single_at_root =
      plan.rank_jobs.size() == 1 && plan.synchronized &&
      first.kind != JobKind::probe_writer &&
      first.ior.test_file.find('/', 1) == std::string::npos;
  if (is_legacy_probe(plan, s)) {
    obs = run_probe(s, plan, seed);
  } else if (single_at_root) {
    obs = run_single(s, plan, seed);
  } else {
    obs = run_fleet(s, std::move(plan), seed);
  }
  obs.workload = scenario.job_list.empty() ? scenario.workload : Workload::jobs;
  obs.seed = seed;
  if (obs.jobs.empty()) obs.jobs = s.jobs_desugared();
  return obs;
}

}  // namespace pfsc::harness
