// sim::Ring, the FIFO behind every simulator wait queue.
//
// The property test drives a Ring<int> and a std::deque<int> oracle with
// the same seeded random push/pop streams and compares size, front and
// every indexed entry after each op; a failing case is shrunk to its
// shortest failing op prefix, as event_queue_property_test does. The unit
// cases pin the storage contract: nothing allocated until the first push,
// growth of a wrapped ring, reuse after a full drain.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "counting_new.hpp"
#include "sim/ring.hpp"
#include "support/rng.hpp"

namespace pfsc::sim {
namespace {

// ---------------------------------------------------------------------------
// Property: Ring matches a std::deque oracle
// ---------------------------------------------------------------------------

/// One op: push `n` values, or pop `n` (fewer when the ring runs dry).
struct Op {
  bool push = true;
  std::uint32_t n = 1;
};

/// Bursty streams: runs of pushes and pops of random length, so the ring
/// fills, drains, wraps and grows at every head position.
std::vector<Op> gen_ops(std::uint64_t seed) {
  Rng rng(0x5EEDu ^ (seed * 0x9E3779B97F4A7C15ull));
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform(200));
  std::vector<Op> ops;
  ops.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // 3:2 push:pop keeps the ring loaded, so it keeps growing.
    const bool push = rng.uniform(5) < 3;
    ops.push_back({push, 1 + static_cast<std::uint32_t>(rng.uniform(12))});
  }
  return ops;
}

/// Replay the first `n` ops against a Ring and the oracle; the first
/// disagreement, or empty.
std::string check_prefix(const std::vector<Op>& ops, std::size_t n) {
  Ring<int> ring;
  std::deque<int> oracle;
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::uint32_t k = 0; k < ops[i].n; ++k) {
      if (ops[i].push) {
        ring.push_back(next);
        oracle.push_back(next);
        ++next;
      } else if (!oracle.empty()) {
        ring.pop_front();
        oracle.pop_front();
      }
    }
    const std::string at = "after op " + std::to_string(i) + ": ";
    if (ring.size() != oracle.size()) {
      return at + "size " + std::to_string(ring.size()) + " vs oracle " +
             std::to_string(oracle.size());
    }
    if (ring.empty() != oracle.empty()) return at + "empty() disagrees";
    if (!oracle.empty() && ring.front() != oracle.front()) {
      return at + "front " + std::to_string(ring.front()) + " vs oracle " +
             std::to_string(oracle.front());
    }
    for (std::size_t k = 0; k < oracle.size(); ++k) {
      if (ring[k] != oracle[k]) {
        return at + "entry " + std::to_string(k) + " is " +
               std::to_string(ring[k]) + ", oracle " +
               std::to_string(oracle[k]);
      }
    }
  }
  return {};
}

TEST(RingProperty, MatchesDequeOnRandomPushPopStreams) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::vector<Op> ops = gen_ops(seed);
    const std::string err = check_prefix(ops, ops.size());
    if (err.empty()) continue;
    // Shrink to the shortest failing prefix; the replay is deterministic,
    // so (seed, prefix length) is an exact reproducer.
    std::size_t n = ops.size();
    std::string shrunk = err;
    for (std::size_t len = 1; len < ops.size(); ++len) {
      const std::string e = check_prefix(ops, len);
      if (!e.empty()) {
        n = len;
        shrunk = e;
        break;
      }
    }
    ADD_FAILURE() << "seed " << seed << " fails with the first " << n
                  << " of " << ops.size() << " ops: " << shrunk;
    return;
  }
}

// ---------------------------------------------------------------------------
// Unit cases
// ---------------------------------------------------------------------------

TEST(Ring, DefaultConstructedHoldsNoStorage) {
  [[maybe_unused]] const counting::HeapCount before = counting::heap_count();
  Ring<int> ring;
  [[maybe_unused]] const counting::HeapCount built = counting::heap_count();
  EXPECT_EQ(ring.capacity(), 0u);
  EXPECT_TRUE(ring.empty());
  ring.push_back(7);
  [[maybe_unused]] const counting::HeapCount pushed = counting::heap_count();
  EXPECT_EQ(ring.capacity(), Ring<int>::kFirstCapacity);
  EXPECT_EQ(ring.front(), 7);
#ifdef PFSC_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes replace operator new";
#else
  EXPECT_EQ(built.allocations - before.allocations, 0u);
  EXPECT_EQ(pushed.allocations - built.allocations, 1u);
  EXPECT_EQ(pushed.bytes - built.bytes, Ring<int>::kFirstCapacity * sizeof(int));
#endif
}

TEST(Ring, GrowsWhileWrapped) {
  Ring<int> ring;
  constexpr int kCap = static_cast<int>(Ring<int>::kFirstCapacity);
  for (int i = 0; i < kCap; ++i) ring.push_back(i);
  ring.pop_front();
  ring.pop_front();  // head at 2
  ring.push_back(kCap);
  ring.push_back(kCap + 1);  // full again, wrapped: the tail sits below head
  ASSERT_EQ(ring.capacity(), Ring<int>::kFirstCapacity);
  ring.push_back(kCap + 2);  // grows from the wrapped ring
  EXPECT_EQ(ring.capacity(), 2 * Ring<int>::kFirstCapacity);
  ASSERT_EQ(ring.size(), static_cast<std::size_t>(kCap + 1));
  for (std::size_t k = 0; k < ring.size(); ++k) {
    EXPECT_EQ(ring[k], static_cast<int>(k) + 2);
  }
  for (int want = 2; want <= kCap + 2; ++want) {
    EXPECT_EQ(ring.front(), want);
    ring.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(Ring, ReusableAfterFullDrain) {
  Ring<int> ring;
  for (int i = 0; i < 9; ++i) ring.push_back(i);
  while (!ring.empty()) ring.pop_front();
  const std::size_t cap = ring.capacity();
  EXPECT_EQ(cap, 16u);  // 4 -> 8 -> 16; a drain keeps it
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 13; ++i) ring.push_back(100 * round + i);
    for (int i = 0; i < 13; ++i) {
      ASSERT_EQ(ring.front(), 100 * round + i);
      ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
  }
  EXPECT_EQ(ring.capacity(), cap);
}

}  // namespace
}  // namespace pfsc::sim
