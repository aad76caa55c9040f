// Allocation budget of the RPC data path.
//
// This executable replaces the global operator new / operator delete with
// counting forwarders to malloc / free, runs a reduced Fig. 3 quartet
// (4 jobs x 64 ranks, ad_lustre, 160 x 128 MiB stripes, 1 MiB RPCs) and
// bounds the global allocations per RPC. Coroutine frames recycle through
// the engine's FrameArena, so in steady state an RPC should cost no heap
// allocation at all; what remains is collective planning and extents that
// open a new gap in a file's written map (DESIGN.md §10). The count is
// independent of the machine, so a layer that quietly starts allocating
// per RPC again fails here rather than as a slower benchmark.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "harness/scenario.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PFSC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PFSC_SANITIZED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Sanitizers own operator new; the counting replacement stays out of their
// builds and the test skips.
#ifndef PFSC_SANITIZED
void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

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

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  const Observation obs = run_scenario(s, 1);
  const std::uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;

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

}  // namespace
}  // namespace pfsc::harness
