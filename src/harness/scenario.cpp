#include "harness/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <string>

#include "plfs/plfs.hpp"
#include "support/stats.hpp"
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
  PFSC_REQUIRE(std::isfinite(arrival), where + "arrival must be finite");
  // Past about 1.7e7 s the double clock steps by more than 2 ns, below
  // the resolution of the link model's 1 ns slack: such a run reports
  // 0 MB/s instead of a measurement.
  PFSC_REQUIRE(arrival + 1e-9 != arrival,
               where + "arrival is too late for the simulated clock to "
                       "resolve 1 ns");
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

// ---------------------------------------------------------------------------
// Factories + desugaring
// ---------------------------------------------------------------------------

Scenario Scenario::single_ior(ior::Config cfg) {
  Scenario s;
  s.ior = std::move(cfg);
  return s;
}

Scenario Scenario::plfs_ior(ior::Config cfg) {
  Scenario s;
  s.ior = std::move(cfg);
  s.ior.hints.driver = mpiio::Driver::ad_plfs;
  return s;
}

Scenario Scenario::multi(int jobs, int nprocs, ior::Config cfg) {
  Scenario s;
  s.jobs = jobs;
  s.nprocs = nprocs;
  s.ior = std::move(cfg);
  return s;
}

Scenario Scenario::probe(std::uint32_t writers, Bytes bytes_per_writer) {
  PFSC_REQUIRE(writers >= 1, "Scenario: probe needs at least one writer");
  std::vector<JobSpec> list(writers);
  for (std::uint32_t w = 0; w < writers; ++w) {
    list[w].kind = JobKind::probe_writer;
    list[w].job_id = static_cast<lustre::sched::JobId>(w);
    list[w].bytes = bytes_per_writer;
  }
  return from_jobs(std::move(list));
}

Scenario Scenario::from_jobs(std::vector<JobSpec> list) {
  Scenario s;
  s.job_list = std::move(list);
  return s;
}

void Scenario::add_noise(unsigned writers, Bytes bytes, std::uint32_t stripes) {
  if (writers == 0) return;
  if (job_list.empty()) job_list = jobs_desugared();
  for (unsigned w = 0; w < writers; ++w) {
    JobSpec j;
    j.kind = JobKind::noise;
    j.job_id = lustre::sched::kNoiseJobBase + w;
    j.bytes = bytes;
    j.stripes = stripes;
    job_list.push_back(std::move(j));
  }
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
    return out;
  }
  const JobKind kind = ior.hints.driver == mpiio::Driver::ad_plfs
                           ? JobKind::plfs
                           : JobKind::ior;
  for (int k = 0; k < jobs; ++k) {
    JobSpec j;
    j.kind = kind;
    j.nprocs = nprocs;
    j.ior = ior;
    if (jobs > 1) {
      j.ior.test_file += '.';
      j.ior.test_file += std::to_string(k);
      j.ior.job_id = static_cast<lustre::sched::JobId>(k);
    }
    j.job_id = j.ior.job_id;
    out.push_back(std::move(j));
  }
  return out;
}

void Scenario::validate() const {
  PFSC_REQUIRE(procs_per_node >= 1, "Scenario: procs_per_node must be positive");
  PFSC_REQUIRE(telemetry_interval >= 0.0,
               "Scenario: telemetry_interval must be non-negative");
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
  if (job_list.empty()) {
    PFSC_REQUIRE(jobs >= 1, "Scenario: jobs must be positive");
    PFSC_REQUIRE(nprocs >= 1, "Scenario: nprocs must be positive");
    return;
  }
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
  PFSC_REQUIRE(any_ranks, "Scenario: job list needs at least one non-noise job");
}

namespace {

sim::Task noise_writer(lustre::Client& client, std::string path,
                       lustre::StripeSettings settings, Bytes total,
                       Bytes transfer, Seconds arrival) {
  // Arrival 0 adds no event: noise that starts with the run schedules
  // nothing before its create.
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
/// default-layout file): writer i (= job_id - kNoiseJobBase) is client
/// "noise<i>" writing "/noise.<seed%1000>.<i>".
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

/// A run's shared state: fresh engine, seeded file system, runtime,
/// background noise jobs, optional sampler, optional event recorder.
struct Rig {
  sim::Engine eng;
  std::unique_ptr<trace::Recorder> recorder;  // scenario.trace.mode != off
  lustre::FileSystem fs;
  mpi::Runtime rt;
  std::vector<std::unique_ptr<lustre::Client>> noise_clients;
  std::unique_ptr<trace::Sampler> sampler;  // scenario.telemetry_interval > 0
  std::size_t total_bytes_series = 0;
  std::unique_ptr<ctrl::Controller> controller;  // scenario.ctrl.mode != off

  Rig(const Scenario& s, int nprocs, std::uint64_t seed,
      const std::vector<const JobSpec*>& noise_jobs)
      : fs(eng, s.platform, seed),
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
      // A traced run also mirrors the fabric and scheduler views into the
      // trace, registered ahead of total_bytes (the column order the
      // pinned trace bytes hold).
      if (recorder) {
        sampler->add_instruments(trace::link_instruments("fabric", fs.fabric()),
                                 fs.liveness());
        sampler->add_instruments(trace::sched_instruments(fs), fs.liveness());
      }
      total_bytes_series = sampler->add_instruments(
          trace::total_bytes_instruments(fs), fs.liveness());
    }
    // `off` builds no controller at all: zero engine events, goldens
    // bit-for-bit (the same null pattern as admission control).
    if (s.ctrl.mode != ctrl::CtrlMode::off) {
      controller = std::make_unique<ctrl::Controller>(eng, s.ctrl, fs,
                                                      recorder.get());
    }
  }

  /// Start the sampler and the controller, stopping each once `done()`
  /// first returns true (so neither can keep the drained engine alive).
  void start_sampler(const std::function<bool()>& done) {
    if (sampler) {
      sampler->watch([done] { return !done(); });
      sampler->start();
    }
    if (controller) {
      controller->watch([done] { return !done(); });
      controller->start();
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
    obs.carved_frame_bytes = eng.frame_arena().carved_bytes();
  }

  /// Harvest the controller's decision log into the observation.
  void finish_ctrl(Observation& obs, const Scenario& s) {
    if (!controller) return;
    obs.ctrl_mode = s.ctrl.mode;
    obs.ctrl_actions = controller->take_actions();
  }

  void export_bandwidth(Observation& obs) const {
    if (!sampler) return;
    obs.bandwidth =
        trace::Sampler::bandwidth_timeline(sampler->series(total_bytes_series));
  }

  /// Roll the recorder up into the observation and write --trace_out.
  /// Called after the run drains.
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
/// list order) and background noise jobs (spawned outside the runtime),
/// with the rank-carrying jobs grouped into MPI applications.
struct JobPlan {
  std::vector<JobSpec> all;                // spawn/report order
  std::vector<const JobSpec*> rank_jobs;   // pointers into `all`
  std::vector<const JobSpec*> noise_jobs;  // pointers into `all`
  std::vector<int> first_rank;             // per rank job: world-rank base
  std::vector<int> app_of;                 // per rank job: its application
  int apps = 0;
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
    // Every rank job is its own application, except that the probe
    // writers of a synchronised list share one (the paper's Fig. 2 probe
    // is a single MPI program whose ranks each write their own file).
    int probe_app = -1;
    for (const JobSpec* j : rank_jobs) {
      if (synchronized && j->kind == JobKind::probe_writer) {
        if (probe_app < 0) probe_app = apps++;
        app_of.push_back(probe_app);
      } else {
        app_of.push_back(apps++);
      }
    }
  }

  /// Job index owning `world_rank` (blocks are contiguous and in order).
  std::size_t job_of(int world_rank) const {
    auto it = std::upper_bound(first_rank.begin(), first_rank.end(), world_rank);
    return static_cast<std::size_t>(it - first_rank.begin()) - 1;
  }
};

/// Per-job run state.
struct JobSlot {
  const JobSpec* spec = nullptr;
  int base = 0;  // first world rank
  int app = 0;
  std::unique_ptr<ior::IorJob> job;
  /// Releases the job's other ranks once its first rank has built `job`
  /// or passed admission.
  std::unique_ptr<sim::Event> ready;
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

/// Everything the ranks of one run share.
struct Run {
  Rig& rig;
  const JobPlan& plan;
  std::vector<JobSlot>& slots;
  plfs::Plfs* plfs;
  AdmissionController* admission;  // null: every job starts on arrival
  sim::Event* setup_done;          // null: no parent directories to make
  /// Split start: the world barriers and comm-splits by application.
  /// Otherwise each application runs on its pre-built communicator.
  bool split;
  std::vector<std::unique_ptr<mpi::Communicator>> app_comm;
  std::vector<int> app_base;  // first world rank of each application
  std::uint64_t seed;
};

/// Build the slot's IorJob on `comm` (a plain function: keeping the
/// ior::Config copy out of the rank-main coroutine keeps its frame small).
void seat_job(Run& run, JobSlot& slot, mpi::Communicator& comm,
              std::uint32_t detuned_stripes) {
  ior::Config cfg = slot.spec->ior;
  if (detuned_stripes != 0) cfg.hints.striping_factor = detuned_stripes;
  slot.job = std::make_unique<ior::IorJob>(
      comm, run.rig.fs, std::move(cfg),
      slot.spec->ior.hints.driver == mpiio::Driver::ad_plfs ? run.plfs : nullptr);
}

/// Fig. 2 writer body: every writer makes the shared directory if it is
/// missing, the application barriers, each writer creates its own file
/// pinned to the target OST via stripe_offset, the application barriers
/// again, and each writer streams `spec.bytes` with buffered writes
/// fsync'd at the end (what the custom benchmark on Cab did).
sim::Co<void> probe_writer_body(Run& run, JobSlot& slot, mpi::Communicator& comm,
                                int rank, int writer, lustre::Client& client) {
  const JobSpec& spec = *slot.spec;
  lustre::FileSystem& fs = run.rig.fs;
  client.set_job(spec.job_id);

  // Any OST works (the paper pins one via stripe_offset); deriving it from
  // the seed lets background noise land on it in some repetitions, which is
  // where the single-writer variance of Figure 2's band comes from.
  const auto target = static_cast<lustre::OstIndex>(
      spec.target_ost >= 0
          ? static_cast<std::uint32_t>(spec.target_ost) % fs.params().ost_count
          : run.seed % fs.params().ost_count);
  const std::string dir = "/probe";
  if (!fs.exists(dir)) {
    auto made = co_await client.mkdir(dir);
    PFSC_ASSERT(made.ok() || made.err == lustre::Errno::eexist);
  }
  co_await comm.barrier(rank);

  lustre::StripeSettings settings;
  settings.stripe_count = 1;
  settings.stripe_size = 1_MiB;
  settings.stripe_offset = static_cast<std::int32_t>(target);
  const std::string path = dir + "/j" + std::to_string(spec.job_id) + "." +
                           std::to_string(writer);
  auto created = co_await client.create(path, settings);
  PFSC_ASSERT(created.ok());
  co_await comm.barrier(rank);

  // Probe layouts are not stripe-tunable; admission can only delay them.
  if (run.admission != nullptr) {
    if (writer == 0) {
      (void)co_await run.admission->admit(spec);
      slot.ready->trigger();
    } else if (!slot.ready->fired()) {
      co_await slot.ready->wait();
    }
  }

  const Seconds t0 = fs.engine().now();
  Bytes done = 0;
  while (done < spec.bytes) {
    const Bytes chunk = std::min<Bytes>(spec.transfer_size, spec.bytes - done);
    const lustre::Errno e = co_await client.write_buffered(created.value, done, chunk);
    PFSC_ASSERT(e == lustre::Errno::ok);
    done += chunk;
  }
  const lustre::Errno fe = co_await client.flush();
  PFSC_ASSERT(fe == lustre::Errno::ok);
  const Seconds elapsed = fs.engine().now() - t0;
  slot.writer_time[static_cast<std::size_t>(writer)] = elapsed;
  slot.writer_mbps[static_cast<std::size_t>(writer)] =
      bandwidth_mbps(spec.bytes, elapsed);
  ++slot.writers_done;
}

/// Create every missing parent directory of the job files, then release
/// the ranks. Only spawned when some job writes outside "/".
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

/// The rank main every world rank runs, started by its RankStart once the
/// job directories exist and, on a free-running start, its job has
/// arrived. A split start is the paper's simultaneous-submission design:
/// all world ranks barrier, then carve the world into one sub-communicator
/// per application. Otherwise the rank uses its application's pre-built
/// communicator, so later jobs find the system in whatever state the
/// earlier ones left it.
sim::Task rank_main(Run& run, int world_rank) {
  JobSlot& slot = run.slots[run.plan.job_of(world_rank)];
  mpi::Communicator* comm = nullptr;
  int rank = 0;
  if (run.split) {
    mpi::Communicator& world = run.rig.rt.world();
    co_await world.barrier(world_rank);
    const auto sr = co_await world.split(world_rank, slot.app, world_rank);
    comm = sr.comm;
    rank = sr.rank;
  } else {
    comm = run.app_comm[static_cast<std::size_t>(slot.app)].get();
    rank = world_rank - run.app_base[static_cast<std::size_t>(slot.app)];
  }
  lustre::Client& client = run.rig.rt.client(world_rank);
  if (slot.spec->kind == JobKind::probe_writer) {
    co_await probe_writer_body(run, slot, *comm, rank, world_rank - slot.base,
                               client);
  } else {
    // A job not built up front is built by its first rank once admission
    // (which may detune its stripe hint) releases it.
    if (slot.job == nullptr) {
      if (rank == 0) {
        std::uint32_t detuned = 0;
        if (run.admission != nullptr) {
          detuned = co_await run.admission->admit(*slot.spec);
        }
        seat_job(run, slot, *comm, detuned);
        slot.ready->trigger();
      } else {
        co_await slot.ready->wait();
      }
    }
    co_await slot.job->run_rank(rank, client);
  }
  if (run.admission != nullptr && slot.finished()) {
    run.admission->finished(*slot.spec);
  }
}

/// A world rank before its rank main starts (DESIGN.md §10, "Idle
/// footprint"): 24 B instead of a coroutine frame. It takes the wakeups
/// that precede the start, from the same schedule calls in the same order
/// as a rank main awaiting them would: the spawn wake (run_jobs, in rank
/// order), the setup_done notify, and on a free-running start the job's
/// arrival delay. Its last wake starts rank_main inline, so a rank whose
/// job has not arrived holds no frame.
class RankStart final : public sim::Wakeable {
 public:
  Run* run = nullptr;
  int world_rank = 0;

  void wake() override {
    if (!arrived_) {
      // The setup notify wakes the record with setup_done fired.
      if (run->setup_done != nullptr && !run->setup_done->fired()) {
        run->setup_done->park(*this);
        return;
      }
      const Seconds arrival =
          run->slots[run->plan.job_of(world_rank)].spec->arrival;
      if (!run->split && arrival > 0.0) {
        arrived_ = true;  // the next wake is the arrival
        run->rig.eng.schedule_after(*this, arrival);
        return;
      }
    }
    run->rig.eng.start(rank_main(*run, world_rank));
  }

 private:
  bool arrived_ = false;
};
static_assert(sizeof(RankStart) <= 24, "a waiting rank is a 24 B record");

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

/// The one executor: runs any job list to completion.
Observation run_jobs(const Scenario& s, const JobPlan& plan, std::uint64_t seed) {
  Rig rig(s, plan.total_ranks, seed, plan.noise_jobs);
  std::unique_ptr<plfs::Plfs> plfs;
  for (const JobSpec* spec : plan.rank_jobs) {
    if (spec->kind != JobKind::probe_writer &&
        spec->ior.hints.driver == mpiio::Driver::ad_plfs && !plfs) {
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

  // Parent directories the job files need (outside "/": fleets often use
  // "/fleet/<app>.<id>"), made by a setup task the ranks wait on.
  std::vector<std::string> dirs;
  for (const JobSpec* spec : plan.rank_jobs) {
    if (spec->kind != JobKind::probe_writer) {
      collect_parents(spec->ior.test_file, dirs);
    }
  }
  std::sort(dirs.begin(), dirs.end());
  dirs.erase(std::unique(dirs.begin(), dirs.end()), dirs.end());

  std::vector<JobSlot> slots(plan.rank_jobs.size());
  Run run{rig, plan, slots, plfs.get(), admission.get(), nullptr,
          plan.synchronized && (plan.apps > 1 || !dirs.empty()),
          {}, {}, seed};
  if (!run.split) {
    std::vector<int> app_size(static_cast<std::size_t>(plan.apps), 0);
    run.app_base.assign(static_cast<std::size_t>(plan.apps), -1);
    for (std::size_t i = 0; i < plan.rank_jobs.size(); ++i) {
      const auto app = static_cast<std::size_t>(plan.app_of[i]);
      app_size[app] += plan.rank_jobs[i]->nprocs;
      if (run.app_base[app] < 0) run.app_base[app] = plan.first_rank[i];
    }
    for (const int size : app_size) {
      run.app_comm.push_back(std::make_unique<mpi::Communicator>(rig.eng, size));
    }
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    JobSlot& slot = slots[i];
    slot.spec = plan.rank_jobs[i];
    slot.base = plan.first_rank[i];
    slot.app = plan.app_of[i];
    if (slot.spec->kind == JobKind::probe_writer) {
      slot.writer_mbps.assign(static_cast<std::size_t>(slot.spec->nprocs), 0.0);
      slot.writer_time.assign(static_cast<std::size_t>(slot.spec->nprocs), 0.0);
    } else if (!run.split && admission == nullptr) {
      seat_job(run, slot, *run.app_comm[static_cast<std::size_t>(slot.app)], 0);
    }
    if (slot.job == nullptr && (admission != nullptr ||
                                slot.spec->kind != JobKind::probe_writer)) {
      slot.ready = std::make_unique<sim::Event>(rig.eng);
    }
  }

  std::unique_ptr<lustre::Client> setup_client;
  std::unique_ptr<sim::Event> setup_done;
  if (!dirs.empty()) {
    setup_client = std::make_unique<lustre::Client>(rig.fs, "setup");
    setup_done = std::make_unique<sim::Event>(rig.eng);
    run.setup_done = setup_done.get();
    rig.eng.spawn(make_dirs(*setup_client, std::move(dirs), *setup_done));
  }

  rig.start_sampler([&slots] {
    return std::all_of(slots.begin(), slots.end(),
                       [](const JobSlot& slot) { return slot.finished(); });
  });
  std::vector<RankStart> ranks(static_cast<std::size_t>(plan.total_ranks));
  for (int r = 0; r < plan.total_ranks; ++r) {
    RankStart& rec = ranks[static_cast<std::size_t>(r)];
    rec.run = &run;
    rec.world_rank = r;
    rig.eng.schedule(rec, rig.eng.now());
  }
  rig.eng.run();

  Observation obs;
  std::vector<lustre::InodeId> files;
  std::vector<double> headlines;
  bool only_probes = true;
  for (const JobSlot& slot : slots) {
    PFSC_ASSERT(slot.finished());
    if (slot.spec->kind == JobKind::probe_writer) {
      obs.per_job.push_back(probe_slot_result(slot));
      headlines.push_back(obs.per_job.back().write_mbps);
      obs.total_mbps += headlines.back();
      continue;
    }
    only_probes = false;
    obs.per_job.push_back(slot.job->result());
    headlines.push_back(headline_metric(slot.spec->ior, obs.per_job.back()));
    obs.total_mbps += headlines.back();
    const std::vector<lustre::InodeId> inos =
        slot.spec->ior.hints.driver == mpiio::Driver::ad_plfs
            ? plfs->backend_data_files(slot.spec->ior.test_file)
            : slot.job->file_inos();
    // A file that was never opened (a read of a file nobody wrote) has no
    // layout to count; the job reports its errno instead.
    for (const lustre::InodeId ino : inos) {
      if (ino != lustre::kNoInode) files.push_back(ino);
    }
  }
  // The probe reports the Welford mean of its writers, as the Fig. 2
  // goldens were pinned; every other list the plain per-job mean.
  obs.metric = only_probes ? mean_of(headlines)
                           : obs.total_mbps / static_cast<double>(slots.size());
  obs.contention = core::observe(rig.fs.ost_occupancy(files));
  if (admission != nullptr) obs.admissions = admission->take_records();
  rig.finish_run(obs, setup_client.get());
  rig.finish_ctrl(obs, s);
  rig.export_bandwidth(obs);
  rig.finish_trace(obs, s, seed);
  return obs;
}

/// PFSC_TRACE / PFSC_TRACE_OUT / PFSC_TRACE_INTERVAL environment override,
/// consulted only when the scenario itself leaves tracing off (so a
/// scenario that explicitly configures tracing wins over the environment,
/// and OUT/INTERVAL alone cannot switch tracing on). PFSC_TRACE_INTERVAL
/// sets telemetry_interval unless the scenario already set it.
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
      interval != nullptr && *interval != '\0' && s.telemetry_interval == 0.0) {
    char* end = nullptr;
    s.telemetry_interval = std::strtod(interval, &end);
    PFSC_REQUIRE(end != interval && *end == '\0' && s.telemetry_interval >= 0.0,
                 "PFSC_TRACE_INTERVAL: expected a non-negative number");
  }
}

}  // namespace

Observation run_scenario(const Scenario& scenario, std::uint64_t seed) {
  Scenario effective = scenario;
  apply_trace_env(effective);
  const Scenario& s = effective;
  s.validate();

  JobPlan plan(s.jobs_desugared());
  Observation obs = run_jobs(s, plan, seed);
  obs.seed = seed;
  obs.jobs = std::move(plan.all);
  return obs;
}

}  // namespace pfsc::harness
