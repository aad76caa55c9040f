// Tests for the asynchronous write paths: the sim::Condition primitive,
// the client page-cache write-back (write_buffered / flush), and the
// MPI-IO File collective write-behind (dirty window, flush-on-close,
// flush-before-read).
#include <gtest/gtest.h>

#include "lustre/client.hpp"
#include "mpi/runtime.hpp"
#include "mpiio/file.hpp"
#include "sim/resources.hpp"

namespace pfsc {
namespace {

using lustre::Errno;
using lustre::InodeId;

// ---------------------------------------------------------------------------
// sim::Condition
// ---------------------------------------------------------------------------

TEST(Condition, NotifyWakesAllWaitersOnce) {
  sim::Engine eng;
  sim::Condition cond(eng);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn([](sim::Condition& c, int& woken) -> sim::Task {
      co_await c.wait();
      ++woken;
    }(cond, woken));
  }
  eng.spawn([](sim::Engine& e, sim::Condition& c) -> sim::Task {
    co_await e.delay(1.0);
    c.notify_all();
  }(eng, cond));
  eng.run();
  EXPECT_EQ(woken, 3);
  cond.notify_all();  // every waiter was released: this wakes nobody
  eng.run();
  EXPECT_EQ(woken, 3);
}

TEST(Condition, WaitAlwaysSuspendsEvenAfterNotify) {
  sim::Engine eng;
  sim::Condition cond(eng);
  cond.notify_all();  // no latched state: this wakes nobody
  bool woken = false;
  eng.spawn([](sim::Condition& c, bool& woken) -> sim::Task {
    co_await c.wait();
    woken = true;
  }(cond, woken));
  eng.run();
  EXPECT_FALSE(woken);  // still parked: Condition does not latch
  cond.notify_all();
  eng.run();
  EXPECT_TRUE(woken);
}

// ---------------------------------------------------------------------------
// Client write-back.
// ---------------------------------------------------------------------------

struct WritebackFixture : ::testing::Test {
  sim::Engine eng;
  lustre::FileSystem fs{eng, hw::tiny_test_platform(), 77};
  lustre::Client client{fs, "wb"};

  InodeId make_file(const char* path) {
    InodeId out = lustre::kNoInode;
    eng.spawn([](lustre::Client& c, const char* p, InodeId& out) -> sim::Task {
      auto r = co_await c.create(p, lustre::StripeSettings{1, 1_MiB, 0});
      PFSC_ASSERT(r.ok());
      out = r.value;
    }(client, path, out));
    eng.run();
    return out;
  }
};

TEST_F(WritebackFixture, BufferedWriteReturnsBeforeDataLands) {
  const InodeId f = make_file("/f");
  Seconds accepted_at = -1.0;
  eng.spawn([](lustre::Client& c, InodeId f, Seconds& t, sim::Engine& e) -> sim::Task {
    EXPECT_EQ(co_await c.write_buffered(f, 0, 4_MiB), Errno::ok);
    t = e.now();
  }(client, f, accepted_at, eng));
  eng.run();
  EXPECT_GE(accepted_at, 0.0);
  // Acceptance was (near-)instant; the full run took real transfer time.
  EXPECT_LT(accepted_at, 0.001);
  EXPECT_GT(eng.now(), accepted_at);
  // After the engine drained, the data is durable.
  EXPECT_TRUE(fs.inode(f).written.covers(0, 4_MiB));
}

TEST_F(WritebackFixture, FlushWaitsForAllBufferedData) {
  const InodeId f = make_file("/f");
  bool covered_at_flush = false;
  eng.spawn([](lustre::Client& c, lustre::FileSystem& fs, InodeId f,
               bool& covered) -> sim::Task {
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(co_await c.write_buffered(f, static_cast<Bytes>(i) * 1_MiB, 1_MiB),
                Errno::ok);
    }
    EXPECT_EQ(co_await c.flush(), Errno::ok);
    covered = fs.inode(f).written.covers(0, 8_MiB);
  }(client, fs, f, covered_at_flush));
  eng.run();
  EXPECT_TRUE(covered_at_flush);
}

TEST_F(WritebackFixture, AdmissionBoundedByBudget) {
  // With a 32 MiB budget (tiny platform default), queueing far more than
  // the budget must block admission: acceptance time grows past zero.
  const InodeId f = make_file("/f");
  const Bytes budget = fs.params().client_writeback_bytes;
  Seconds accepted_at = 0.0;
  eng.spawn([](lustre::Client& c, InodeId f, Bytes total, Seconds& t,
               sim::Engine& e) -> sim::Task {
    for (Bytes off = 0; off < total; off += 1_MiB) {
      EXPECT_EQ(co_await c.write_buffered(f, off, 1_MiB), Errno::ok);
    }
    t = e.now();  // when the last write was *accepted*
    EXPECT_EQ(co_await c.flush(), Errno::ok);
  }(client, f, budget * 4, accepted_at, eng));
  eng.run();
  EXPECT_GT(accepted_at, 0.0);  // admission had to wait for drains
}

TEST_F(WritebackFixture, AsyncErrorSurfacesAtFlush) {
  const InodeId f = make_file("/f");
  Errno write_err = Errno::eio;
  Errno flush_err = Errno::ok;
  fs.fail_ost(fs.inode(f).layout.osts[0]);
  eng.spawn([](lustre::Client& c, InodeId f, Errno& we, Errno& fe) -> sim::Task {
    we = co_await c.write_buffered(f, 0, 1_MiB);
    fe = co_await c.flush();
  }(client, f, write_err, flush_err));
  eng.run();
  EXPECT_EQ(write_err, Errno::ok);   // accepted into the cache
  EXPECT_EQ(flush_err, Errno::eio);  // failure surfaces at fsync
}

TEST_F(WritebackFixture, FlushIsIdempotent) {
  const InodeId f = make_file("/f");
  eng.spawn([](lustre::Client& c, InodeId f) -> sim::Task {
    EXPECT_EQ(co_await c.write_buffered(f, 0, 1_MiB), Errno::ok);
    EXPECT_EQ(co_await c.flush(), Errno::ok);
    EXPECT_EQ(co_await c.flush(), Errno::ok);  // nothing outstanding
  }(client, f));
  eng.run();
}

TEST_F(WritebackFixture, ZeroBudgetFallsBackToSynchronous) {
  auto params = hw::tiny_test_platform();
  params.client_writeback_bytes = 0;
  sim::Engine e2;
  lustre::FileSystem fs2(e2, params, 1);
  lustre::Client c2(fs2, "sync");
  Seconds accepted_at = -1.0;
  e2.spawn([](lustre::Client& c, Seconds& t, sim::Engine& e) -> sim::Task {
    auto r = co_await c.create("/f", lustre::StripeSettings{1, 1_MiB, 0});
    PFSC_ASSERT(r.ok());
    const Seconds t0 = e.now();
    EXPECT_EQ(co_await c.write_buffered(r.value, 0, 4_MiB), Errno::ok);
    t = e.now() - t0;
  }(c2, accepted_at, e2));
  e2.run();
  EXPECT_GT(accepted_at, 0.001);  // synchronous: full transfer before return
}

// ---------------------------------------------------------------------------
// MPI-IO File write-behind.
// ---------------------------------------------------------------------------

struct FileWritebackFixture : ::testing::Test {
  sim::Engine eng;
  lustre::FileSystem fs{eng, hw::tiny_test_platform(), 55};

  mpiio::Hints hints() {
    mpiio::Hints h;
    h.driver = mpiio::Driver::ad_lustre;
    h.striping_factor = 4;
    h.striping_unit = 1_MiB;
    return h;
  }
};

TEST_F(FileWritebackFixture, CloseFlushesEverything) {
  mpi::Runtime rt(fs, 4, 4);
  mpiio::File file(rt.world(), fs, "/f", hints());
  rt.run_to_completion([&](int rank) -> sim::Task {
    EXPECT_EQ(co_await file.open(rank, rt.client(rank)), Errno::ok);
    EXPECT_EQ(co_await file.write_at_all(rank, static_cast<Bytes>(rank) * 1_MiB, 1_MiB),
              Errno::ok);
    EXPECT_EQ(co_await file.close(rank), Errno::ok);
    // At close return, data must be durable (extents recorded).
    EXPECT_TRUE(fs.inode(file.context().ino).written.covers(0, 4_MiB));
  });
}

TEST_F(FileWritebackFixture, ReadAfterWriteSeesFlushedData) {
  mpi::Runtime rt(fs, 4, 4);
  mpiio::File file(rt.world(), fs, "/f", hints());
  rt.run_to_completion([&](int rank) -> sim::Task {
    EXPECT_EQ(co_await file.open(rank, rt.client(rank)), Errno::ok);
    const Bytes off = static_cast<Bytes>(rank) * 1_MiB;
    EXPECT_EQ(co_await file.write_at_all(rank, off, 1_MiB), Errno::ok);
    // Collective read right after the (buffered) collective write: the
    // flush-before-read path must make this coherent.
    EXPECT_EQ(co_await file.read_at_all(rank, off, 1_MiB), Errno::ok);
    EXPECT_EQ(co_await file.close(rank), Errno::ok);
  });
}

TEST_F(FileWritebackFixture, WriteBehindIsFasterThanSynchronous) {
  auto timed = [&](Bytes dirty_window) {
    sim::Engine e2;
    lustre::FileSystem fs2(e2, hw::tiny_test_platform(), 55);
    mpi::Runtime rt(fs2, 8, 4);
    mpiio::Hints h = hints();
    h.dirty_window = dirty_window;
    mpiio::File file(rt.world(), fs2, "/f", h);
    rt.run_to_completion([&](int rank) -> sim::Task {
      EXPECT_EQ(co_await file.open(rank, rt.client(rank)), Errno::ok);
      for (int i = 0; i < 16; ++i) {
        const Bytes off = (static_cast<Bytes>(i) * 8 + static_cast<Bytes>(rank)) * 1_MiB;
        EXPECT_EQ(co_await file.write_at_all(rank, off, 1_MiB), Errno::ok);
      }
      EXPECT_EQ(co_await file.close(rank), Errno::ok);
    });
    return e2.now();
  };
  const Seconds async_time = timed(64_MiB);
  const Seconds sync_time = timed(0);
  EXPECT_LT(async_time, sync_time);
}

}  // namespace
}  // namespace pfsc
