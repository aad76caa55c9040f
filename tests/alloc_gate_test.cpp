// Allocation budgets: the RPC data path and an idle rank.
//
// This executable replaces the global operator new / operator delete with
// counting forwarders to malloc / free (tests/counting_new.hpp). It runs a
// reduced Fig. 3 quartet
// (4 jobs x 64 ranks, ad_lustre, 160 x 128 MiB stripes, 1 MiB RPCs) and
// bounds the global allocations per RPC. Coroutine frames recycle through
// the engine's FrameArena, so in steady state an RPC should cost no heap
// allocation at all; what remains is collective planning and extents that
// open a new gap in a file's written map (DESIGN.md §10). The count is
// independent of the machine, so a layer that quietly starts allocating
// per RPC again fails here rather than as a slower benchmark.
//
// It also pins what a rank that has not yet moved a byte costs: its
// Client and its process pipe, and no queue storage (every wait queue is a
// sim::Ring that allocates on its first waiter). A fleet holds thousands
// of such ranks, so a per-rank allocation shows here before it shows as
// peak RSS.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "counting_new.hpp"
#include "harness/scenario.hpp"
#include "hw/platform.hpp"
#include "lustre/client.hpp"
#include "lustre/fs.hpp"
#include "mpi/runtime.hpp"
#include "sim/engine.hpp"
#include "sim/link.hpp"

namespace pfsc::harness {
namespace {

TEST(AllocationGate, ReducedQuartetStaysUnderOneAndAHalfPerRpc) {
#ifdef PFSC_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes replace operator new";
#else
  Scenario s = Scenario::multi(4, 64);
  s.ior.hints.driver = mpiio::Driver::ad_lustre;
  s.ior.hints.striping_factor = 160;
  s.ior.hints.striping_unit = 128_MiB;

  const std::uint64_t before = counting::heap_count().allocations;
  const Observation obs = run_scenario(s, 1);
  const std::uint64_t allocations = counting::heap_count().allocations - before;

  Bytes bytes = 0;
  for (const auto& job : obs.per_job) {
    ASSERT_EQ(job.err, lustre::Errno::ok);
    bytes += job.total_bytes;
  }
  // Every transfer is one 1 MiB RPC (transfer_size 1 MiB, stripe-aligned).
  const double rpcs = static_cast<double>(bytes) / static_cast<double>(1_MiB);
  ASSERT_EQ(rpcs, 4.0 * 64 * 400);
  const double per_rpc = static_cast<double>(allocations) / rpcs;
  RecordProperty("allocations_per_rpc", std::to_string(per_rpc));
  EXPECT_LE(per_rpc, 1.5) << allocations << " global allocations for " << rpcs
                          << " RPCs";
#endif
}

/// Heap allocations and bytes of building, then dropping, an
/// `nprocs`-rank runtime whose ranks all sit on one node.
[[maybe_unused]] counting::HeapCount runtime_cost(lustre::FileSystem& fs,
                                                  int nprocs) {
  const counting::HeapCount before = counting::heap_count();
  { const mpi::Runtime rt(fs, nprocs, nprocs); }
  const counting::HeapCount after = counting::heap_count();
  return {after.allocations - before.allocations, after.bytes - before.bytes};
}

TEST(AllocationGate, IdleRankAllocatesNoQueueStorage) {
#ifdef PFSC_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes replace operator new";
#else
  // The cost of 1,024 more ranks on the node: the runtime's fixed part
  // (world communicator, node NIC, vectors' headers) cancels.
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::cab_lscratchc(), 1);
  const counting::HeapCount small = runtime_cost(fs, 1024);
  const counting::HeapCount large = runtime_cost(fs, 2048);
  const double allocations_per_rank =
      static_cast<double>(large.allocations - small.allocations) / 1024.0;
  const double bytes_per_rank =
      static_cast<double>(large.bytes - small.bytes) / 1024.0;
  RecordProperty("allocations_per_rank", std::to_string(allocations_per_rank));
  RecordProperty("bytes_per_rank", std::to_string(bytes_per_rank));
  // A rank is its Client and its FifoPipe, plus one slot in each of the
  // runtime's per-rank vectors (Client pointer, collective counter).
  EXPECT_EQ(allocations_per_rank, 2.0);
  EXPECT_EQ(bytes_per_rank, 472.0)
      << "Client " << sizeof(lustre::Client) << " B, FifoPipe "
      << sizeof(sim::FifoPipe) << " B";
#endif
}

/// Bytes io_extents() allocates to rewrite `n` stripe-aligned 1 MiB
/// extents of a file whose written map already covers them, on a client
/// whose queues an earlier 32-extent batch has grown.
[[maybe_unused]] std::uint64_t batch_bytes(std::uint32_t n) {
  sim::Engine eng;
  lustre::FileSystem fs(eng, hw::cab_lscratchc(), 1);
  lustre::Client client(fs, "c0");
  std::uint64_t bytes = 0;
  eng.spawn([](lustre::Client& c, std::uint32_t n,
               std::uint64_t& bytes) -> sim::Task {
    const auto file = co_await c.create("/f", lustre::StripeSettings{4, 1_MiB, 0});
    PFSC_ASSERT(file.ok());
    std::vector<std::pair<Bytes, Bytes>> warm;
    for (Bytes i = 0; i < 32; ++i) warm.emplace_back(i * 1_MiB, 1_MiB);
    PFSC_ASSERT(co_await c.io_extents(file.value, warm, true) == lustre::Errno::ok);
    const std::vector<std::pair<Bytes, Bytes>> extents(warm.begin(),
                                                       warm.begin() + n);
    const std::uint64_t before = counting::heap_count().bytes;
    PFSC_ASSERT(co_await c.io_extents(file.value, extents, true) ==
                lustre::Errno::ok);
    bytes = counting::heap_count().bytes - before;
  }(client, n, bytes));
  eng.run();
  return bytes;
}

TEST(AllocationGate, BatchedOneRpcExtentCostsAtMost96Bytes) {
#ifdef PFSC_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes replace operator new";
#else
  // Every extent of the quartet's two-phase rounds is one RPC; thousands
  // of batches are in flight at its peak. Sixteen more extents cost
  // sixteen more records: the batch's fixed part cancels.
  const std::uint64_t small = batch_bytes(16);
  const std::uint64_t large = batch_bytes(32);
  const double bytes_per_extent = static_cast<double>(large - small) / 16.0;
  RecordProperty("bytes_per_extent", std::to_string(bytes_per_extent));
  EXPECT_LE(bytes_per_extent, 96.0);
#endif
}

}  // namespace
}  // namespace pfsc::harness
