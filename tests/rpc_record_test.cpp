// Queued work as records: the in-order record join against join_all, the
// RPC error paths under OST failure, the rank start records, and the
// run-end quiescence check.
//
// A queued extent or RPC is a record that the engine wakes from the same
// schedule calls the old per-extent and per-RPC coroutines received, so
// every result and every event count must stay what it was. The fault
// pins below are the values the coroutine-per-RPC client produced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "harness/scenario.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/file.hpp"
#include "replay/fleet.hpp"
#include "replay/log.hpp"
#include "sim/task.hpp"
#include "support/rng.hpp"
#include "trace/recorder.hpp"

namespace pfsc {
namespace {

// ---------------------------------------------------------------------------
// OrderedJoin == join_all
// ---------------------------------------------------------------------------

/// (now, executed_events) at each child's completion, in completion order,
/// then at the joiner's continuation, then at the end of the run.
using Marks = std::vector<std::pair<Seconds, std::uint64_t>>;

void mark(const sim::Engine& eng, Marks& marks) {
  marks.emplace_back(eng.now(), eng.executed_events());
}

sim::Task task_child(sim::Engine& eng, Seconds d, Marks& marks) {
  co_await eng.delay(d);
  mark(eng, marks);
}

/// Reference: one spawned Task per child, joined by sim::join_all.
Marks reference_join(const std::vector<Seconds>& delays) {
  sim::Engine eng;
  Marks marks;
  eng.spawn([](sim::Engine& eng, const std::vector<Seconds>& delays,
               Marks& marks) -> sim::Task {
    std::vector<sim::Task> tasks;
    for (const Seconds d : delays) {
      sim::Task t = task_child(eng, d, marks);
      eng.spawn(t);
      tasks.push_back(std::move(t));
    }
    co_await sim::join_all(std::move(tasks));
    mark(eng, marks);
  }(eng, delays, marks));
  eng.run();
  mark(eng, marks);
  return marks;
}

/// The same children as records: a start wakeup, then (for a positive
/// delay) a timer wakeup — exactly the Task child's events.
struct RecordChild final : sim::Wakeable {
  sim::Engine* eng = nullptr;
  sim::OrderedJoin<RecordChild>* join = nullptr;
  Marks* marks = nullptr;
  std::size_t index = 0;
  Seconds delay = 0.0;
  bool started = false;
  bool done = false;

  void wake() override {
    if (!started) {
      started = true;
      if (delay > 0.0) {
        eng->schedule_after(*this, delay);
        return;
      }
    }
    mark(*eng, *marks);
    join->child_done(index);
  }
};

struct MarkingJoiner final : sim::Wakeable {
  sim::Engine* eng = nullptr;
  Marks* marks = nullptr;
  void wake() override { mark(*eng, *marks); }
};

/// The record join, its joiner either a coroutine (co_await) or a record.
Marks record_join(const std::vector<Seconds>& delays, bool record_joiner) {
  sim::Engine eng;
  Marks marks;
  sim::OrderedJoin<RecordChild> join;
  std::vector<RecordChild> kids(delays.size());
  MarkingJoiner joiner;
  joiner.eng = &eng;
  joiner.marks = &marks;
  eng.spawn([](sim::Engine& eng, const std::vector<Seconds>& delays,
               std::vector<RecordChild>& kids,
               sim::OrderedJoin<RecordChild>& join, MarkingJoiner& joiner,
               bool record_joiner, Marks& marks) -> sim::Task {
    for (std::size_t i = 0; i < kids.size(); ++i) {
      kids[i].eng = &eng;
      kids[i].join = &join;
      kids[i].marks = &marks;
      kids[i].index = i;
      kids[i].delay = delays[i];
      eng.schedule(kids[i], eng.now());
    }
    if (record_joiner) {
      join.arm(eng, std::span<RecordChild>(kids), joiner);
      co_return;
    }
    join.arm(eng, std::span<RecordChild>(kids));
    co_await join;
    mark(eng, marks);
  }(eng, delays, kids, join, joiner, record_joiner, marks));
  eng.run();
  mark(eng, marks);
  return marks;
}

TEST(OrderedJoin, WakesLikeJoinAllOverRandomAndSameInstantCompletions) {
  Rng rng(20261017);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n = 1 + rng.uniform(12);
    // Few distinct instants, so many children finish together and the
    // join often wakes to find later children already done.
    const std::uint64_t instants = 1 + rng.uniform(4);
    std::vector<Seconds> delays(n);
    for (Seconds& d : delays) {
      d = 1.0e-3 * static_cast<double>(rng.uniform(instants));
    }
    const Marks want = reference_join(delays);
    ASSERT_EQ(want.size(), n + 2);
    EXPECT_EQ(record_join(delays, /*record_joiner=*/false), want)
        << "trial " << trial << ", " << n << " children";
    EXPECT_EQ(record_join(delays, /*record_joiner=*/true), want)
        << "trial " << trial << ", " << n << " children";
  }
}

TEST(OrderedJoin, JoinerWaitsForTheFirstChildEvenIfLaterOnesFinish) {
  // Children finish in reverse order: join_all wakes once, when child 0
  // finishes last, and sees every other child already done.
  const std::vector<Seconds> delays = {3.0e-3, 2.0e-3, 1.0e-3};
  const Marks want = reference_join(delays);
  EXPECT_EQ(record_join(delays, false), want);
  // The root's start, 3 child starts, 3 timers and 1 join wakeup.
  EXPECT_EQ(want.back().second, 8u);
}

// ---------------------------------------------------------------------------
// RPC error paths under OST failure, pinned to the pre-record client
// ---------------------------------------------------------------------------

struct FaultRun {
  // One entry per collective rank, then the independent writer, then the
  // buffered writer: the first error each saw.
  std::vector<lustre::Errno> errs;
  double mbps = 0.0;
  std::uint64_t events = 0;
  Bytes failed_ost_bytes = 0;
};

sim::Task inject(sim::Engine& eng, lustre::FileSystem& fs, lustre::OstIndex ost,
                 Seconds fail_at, Seconds restore_at) {
  co_await eng.delay(fail_at);
  fs.fail_ost(ost);
  if (restore_at > fail_at) {
    co_await eng.delay(restore_at - fail_at);
    fs.restore_ost(ost);
  }
}

sim::Task independent(lustre::Client& c, std::string path, Bytes bytes,
                      bool buffered, lustre::Errno& err) {
  auto f = co_await c.create(std::move(path), lustre::StripeSettings{4, 1_MiB, 0});
  if (!f.ok()) {
    err = f.err;
    co_return;
  }
  for (Bytes off = 0; off < bytes; off += 6_MiB) {
    const Bytes len = std::min<Bytes>(6_MiB, bytes - off);
    // Unaligned 6 MiB writes: several stripes, several RPCs per extent.
    const lustre::Errno e = buffered
                                ? co_await c.write_buffered(f.value, off, len)
                                : co_await c.write(f.value, off + 512_KiB, len);
    if (e != lustre::Errno::ok && err == lustre::Errno::ok) err = e;
  }
  if (buffered) {
    const lustre::Errno e = co_await c.flush();
    if (e != lustre::Errno::ok && err == lustre::Errno::ok) err = e;
  }
}

/// 8 ranks write 4 rounds of 3 MiB each through ad_lustre two-phase with
/// write-behind, while one client writes unaligned extents and another
/// writes buffered. OST 1 fails at `fail_at` (never when negative) and
/// comes back at `restore_at` (never when not after `fail_at`).
FaultRun run_fault_scenario(Seconds fail_at, Seconds restore_at) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 21);
  mpi::Runtime rt(fs, 8, 2);
  mpiio::Hints h;
  h.driver = mpiio::Driver::ad_lustre;
  h.striping_factor = 4;
  h.striping_unit = 1_MiB;
  h.start_iodevice = 0;
  h.cb_buffer_size = 4_MiB;
  h.dirty_window = 8_MiB;
  mpiio::File file(rt.world(), fs, "/f", h);
  lustre::Client indep(fs, "indep");
  lustre::Client buffered(fs, "buffered");
  FaultRun out;
  out.errs.assign(10, lustre::Errno::ok);
  if (fail_at >= 0.0) eng.spawn(inject(eng, fs, 1, fail_at, restore_at));
  eng.spawn(independent(indep, "/g", 30_MiB, false, out.errs[8]));
  eng.spawn(independent(buffered, "/h", 30_MiB, true, out.errs[9]));
  rt.run_to_completion([&](int rank) -> sim::Task {
    lustre::Errno& err = out.errs[static_cast<std::size_t>(rank)];
    err = co_await file.open(rank, rt.client(rank));
    for (int round = 0; round < 4; ++round) {
      const Bytes off =
          (static_cast<Bytes>(round) * 8 + static_cast<Bytes>(rank)) * 3_MiB;
      const lustre::Errno e = co_await file.write_at_all(rank, off, 3_MiB);
      if (e != lustre::Errno::ok && err == lustre::Errno::ok) err = e;
    }
    const lustre::Errno e = co_await file.close(rank);
    if (e != lustre::Errno::ok && err == lustre::Errno::ok) err = e;
  });
  for (int rank = 0; rank < rt.nprocs(); ++rank) rt.client(rank).check_quiescent();
  indep.check_quiescent();
  buffered.check_quiescent();
  out.mbps = bandwidth_mbps(8 * 4 * 3_MiB + 60_MiB, eng.now());
  out.events = eng.executed_events();
  out.failed_ost_bytes = fs.ost_disk(1).bytes_serviced();
  return out;
}

const std::vector<lustre::Errno> kAllOk(10, lustre::Errno::ok);
const std::vector<lustre::Errno> kAllEio(10, lustre::Errno::eio);

TEST(RpcFaultPaths, HealthyRunMatchesThePin) {
  const FaultRun r = run_fault_scenario(-1.0, -1.0);
  EXPECT_EQ(r.errs, kAllOk);
  EXPECT_EQ(r.mbps, 592.69871086970511);
  EXPECT_EQ(r.events, 2182u);
  EXPECT_EQ(r.failed_ost_bytes, 40_MiB);
}

TEST(RpcFaultPaths, FailureBeforeTheCreatesIsAvoidedByPlacement) {
  const FaultRun r = run_fault_scenario(0.0, 0.0);
  EXPECT_EQ(r.errs, kAllOk);
  EXPECT_EQ(r.mbps, 581.44115083374868);
  EXPECT_EQ(r.events, 2183u);
  EXPECT_EQ(r.failed_ost_bytes, 0u);
}

TEST(RpcFaultPaths, FailureMidRunFailsRpcsInAndBeforeService) {
  // At 2 ms RPCs to OST 1 are in service (they finish and then see the
  // failure); every later one fails before service.
  const FaultRun r = run_fault_scenario(0.002, 0.0);
  EXPECT_EQ(r.errs, kAllEio);
  EXPECT_EQ(r.mbps, 609.23218761982412);
  EXPECT_EQ(r.events, 1872u);
  EXPECT_EQ(r.failed_ost_bytes, 10_MiB);
}

TEST(RpcFaultPaths, FailureAndRestoreMidRun) {
  const FaultRun r = run_fault_scenario(0.05, 0.15);
  EXPECT_EQ(r.errs, kAllEio);
  EXPECT_EQ(r.mbps, 592.69871086970511);
  EXPECT_EQ(r.events, 1995u);
  EXPECT_EQ(r.failed_ost_bytes, 22_MiB);
}

// ---------------------------------------------------------------------------
// Dispatch order of mixed extents
// ---------------------------------------------------------------------------

/// FNV-1a, fed one 64-bit word at a time.
struct Fnv {
  std::uint64_t h = 14695981039346656037ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(lustre::Errno e) { add(static_cast<std::uint64_t>(e)); }
};

/// Records the time and errno of each call's completion, in order.
struct Completions {
  std::vector<std::pair<Seconds, lustre::Errno>> log;
  void note(const sim::Engine& eng, lustre::Errno e) {
    log.emplace_back(eng.now(), e);
  }
};

using ExtentList = std::vector<std::pair<Bytes, Bytes>>;

sim::Task batches(sim::Engine& eng, lustre::FileSystem& fs, lustre::Client& c,
                  Completions& done) {
  const auto f = co_await c.create("/f", lustre::StripeSettings{4, 2_MiB, 0});
  const auto d = co_await c.mkdir("/d");
  PFSC_ASSERT(f.ok() && d.ok());
  // One-RPC, multi-RPC (across stripes and within one), zero-length: more
  // RPCs than the client's two rpc slots, so most queue for one.
  const ExtentList writes = {{0, 1_MiB},      {1_MiB + 256_KiB, 3_MiB},
                             {9_MiB, 0},      {4_MiB, 1_MiB},
                             {6_MiB, 2_MiB},  {5_MiB, 512_KiB}};
  done.note(eng, co_await c.io_extents(f.value, writes, true));
  // Reads, one past EOF, one zero-length.
  const ExtentList reads = {
      {0, 1_MiB}, {512_KiB, 3_MiB}, {100_MiB, 1_MiB}, {2_MiB, 0}, {6_MiB, 1_MiB}};
  done.note(eng, co_await c.io_extents(f.value, reads, false));
  const ExtentList into_dir = {{0, 1_MiB}};
  done.note(eng, co_await c.io_extents(d.value, into_dir, true));
  // An OST fails under a batch: its RPCs report EIO.
  const lustre::OstIndex ost = fs.inode(f.value).layout.osts[1];
  fs.fail_ost(ost);
  const ExtentList across = {{0, 1_MiB}, {2_MiB, 1_MiB}, {3_MiB, 2_MiB}};
  done.note(eng, co_await c.io_extents(f.value, across, true));
  fs.restore_ost(ost);
}

sim::Task singles(sim::Engine& eng, lustre::Client& c, Completions& done) {
  co_await eng.delay(1e-3);
  const auto f = co_await c.open("/f");
  PFSC_ASSERT(f.ok());
  done.note(eng, co_await c.write(f.value, 10_MiB, 1_MiB));
  done.note(eng, co_await c.write(f.value, 11_MiB + 512_KiB, 2_MiB));
  done.note(eng, co_await c.write(f.value, 14_MiB, 0));
  done.note(eng, co_await c.read(f.value, 10_MiB, 3_MiB));
  done.note(eng, co_await c.read(f.value, 200_MiB, 1_MiB));
}

TEST(ExtentRecords, MixedBatchDispatchOrderIsPinned) {
  // Every engine dispatch opens a span (engine_sample_every 1) carrying
  // its time and ordinal; between two of them lie the spans each layer
  // recorded there, so the trace fixes which role ran at which dispatch.
  // With the final schedule seq and each call's (t, errno), the hash
  // pins the records' wakeups to the schedule calls that enter them.
  sim::Engine eng;
  trace::Recorder rec(std::size_t{1} << 16, trace::kAllCats, 1);
  eng.set_recorder(&rec);
  hw::PlatformParams params = hw::tiny_test_platform();
  params.max_rpc_size = 1_MiB;
  params.client_max_rpcs_in_flight = 2;
  lustre::FileSystem fs(eng, params, 5);
  lustre::Client c(fs, "c");
  Completions done;
  eng.spawn(batches(eng, fs, c, done));
  eng.spawn(singles(eng, c, done));
  eng.run();
  c.check_quiescent();

  std::vector<lustre::Errno> errs;
  Fnv fnv;
  for (const auto& [t, e] : done.log) {
    errs.push_back(e);
    fnv.add(t);
    fnv.add(e);
  }
  using E = lustre::Errno;
  EXPECT_EQ(errs, (std::vector<E>{E::ok, E::ok, E::einval, E::eisdir, E::ok,
                                  E::ok, E::eio, E::eio, E::einval}));
  ASSERT_EQ(rec.dropped(), 0u);
  for (const trace::Event& ev : rec.events()) {
    fnv.add(ev.t);
    for (const char* p = ev.name; *p != '\0'; ++p) {
      fnv.add(static_cast<std::uint64_t>(*p));
    }
    fnv.add(ev.value);
    fnv.add(ev.id);
    fnv.add(static_cast<std::uint64_t>(ev.arg0));
    fnv.add(static_cast<std::uint64_t>(ev.arg1));
    fnv.add(static_cast<std::uint64_t>(ev.track));
    fnv.add(static_cast<std::uint64_t>(ev.kind));
    fnv.add(static_cast<std::uint64_t>(ev.cat));
  }
  struct Nop final : sim::Wakeable {
    void wake() override {}
  } nop;
  fnv.add(eng.schedule(nop, eng.now()).seq);
  fnv.add(eng.executed_events());
  eng.run();
  RecordProperty("events", std::to_string(rec.events().size()));
  EXPECT_EQ(fnv.h, 16326690136968988803ull);
}

// ---------------------------------------------------------------------------
// Rank start records
// ---------------------------------------------------------------------------

/// FNV-1a of a fully traced run (engine_sample_every 1: every dispatch is
/// a span with its time and ordinal) and of each job's headline numbers.
std::uint64_t traced_fleet_hash(unsigned jobs, Seconds span) {
  replay::FleetConfig cfg;
  cfg.jobs = jobs;
  cfg.seed = 21;
  cfg.span = span;
  harness::Scenario s = replay::to_scenario(replay::generate_fleet(cfg));
  s.trace.mode = trace::TraceMode::full;
  s.trace.engine_sample_every = 1;
  s.trace.capacity = std::size_t{1} << 22;
  const harness::Observation obs = harness::run_scenario(s, 3);
  EXPECT_EQ(obs.trace_summary.dropped_events, 0u);
  Fnv fnv;
  for (const char c : obs.trace_json) fnv.add(static_cast<std::uint64_t>(c));
  for (const ior::Result& r : obs.per_job) {
    fnv.add(r.write_time);
    fnv.add(r.write_mbps);
    fnv.add(r.err);
  }
  return fnv.h;
}

TEST(RankStart, FleetDispatchOrderIsPinned) {
  // A staggered fleet under /fleet/: every rank takes the spawn wake, the
  // setup-directory notify and its job's arrival delay before it starts.
  // A synchronized fleet under /fleet/ starts by a world barrier and
  // split, and takes no arrival wake. The hashes are those of rank mains
  // that awaited the same wakeups themselves.
  EXPECT_EQ(traced_fleet_hash(20, 5.0), 9648905706246868346ull);
  EXPECT_EQ(traced_fleet_hash(8, 0.0), 11723443940736516019ull);
}

// ---------------------------------------------------------------------------
// Run-end quiescence
// ---------------------------------------------------------------------------

TEST(Quiescence, EngineStoppedMidRunReportsOutstandingRpcs) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 7);
  lustre::Client client(fs, "c0");
  // Two writers of 7-RPC extents on one client: 14 RPCs for 8 slots.
  lustre::Errno err_a = lustre::Errno::ok;
  lustre::Errno err_b = lustre::Errno::ok;
  eng.spawn(independent(client, "/qa", 48_MiB, false, err_a));
  eng.spawn(independent(client, "/qb", 48_MiB, false, err_b));
  ASSERT_FALSE(eng.run_until(0.01));
  try {
    client.check_quiescent();
    FAIL() << "a client with RPCs in flight passed the quiescence check";
  } catch (const SimulationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("client c0"), std::string::npos) << what;
    EXPECT_NE(what.find("8 rpc slot(s) held"), std::string::npos) << what;
    EXPECT_NE(what.find("6 RPC(s) queued for a slot"), std::string::npos)
        << what;
  }
  eng.run();
  EXPECT_EQ(err_a, lustre::Errno::ok);
  EXPECT_EQ(err_b, lustre::Errno::ok);
  EXPECT_NO_THROW(client.check_quiescent());
}

TEST(Quiescence, RunAbandonedMidFlightTearsDownEveryFrame) {
  // Records sit in frames the engine destroys at teardown; serve() frames
  // are engine roots. The arena asserts nothing is left outstanding.
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 7);
  mpi::Runtime rt(fs, 8, 2);
  mpiio::File file(rt.world(), fs, "/f", mpiio::Hints{});
  lustre::Client client(fs, "c0");
  lustre::Errno err = lustre::Errno::ok;
  eng.spawn(independent(client, "/qa", 48_MiB, false, err));
  // Named, as the std::function launch() calls: the rank coroutines refer
  // to its captures after launch() returns.
  const std::function<sim::Task(int)> rank_main = [&](int rank) -> sim::Task {
    (void)co_await file.open(rank, rt.client(rank));
    (void)co_await file.write_at_all(rank, static_cast<Bytes>(rank) * 8_MiB,
                                     8_MiB);
  };
  rt.launch(rank_main);
  ASSERT_FALSE(eng.run_until(0.02));
  EXPECT_GT(eng.frame_arena().outstanding(), 0u);
  EXPECT_THROW(client.check_quiescent(), SimulationError);
}

TEST(Quiescence, BufferedWritesStillDrainingAreReported) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::tiny_test_platform(), 7);
  lustre::Client client(fs, "c1");
  lustre::Errno err = lustre::Errno::ok;
  eng.spawn(independent(client, "/b", 12_MiB, true, err));
  ASSERT_FALSE(eng.run_until(0.002));
  EXPECT_THROW(client.check_quiescent(), SimulationError);
  eng.run();
  EXPECT_EQ(err, lustre::Errno::ok);
  EXPECT_NO_THROW(client.check_quiescent());
}

}  // namespace
}  // namespace pfsc
