#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "lustre/extent_map.hpp"
#include "support/rng.hpp"

namespace pfsc::lustre {
namespace {

TEST(ExtentMap, EmptyCoversNothing) {
  ExtentMap m;
  EXPECT_TRUE(m.covers(0, 0));
  EXPECT_FALSE(m.covers(0, 1));
  EXPECT_EQ(m.total_bytes(), 0u);
}

TEST(ExtentMap, SingleInsert) {
  ExtentMap m;
  m.insert(100, 50);
  EXPECT_TRUE(m.covers(100, 50));
  EXPECT_TRUE(m.covers(120, 10));
  EXPECT_FALSE(m.covers(99, 2));
  EXPECT_FALSE(m.covers(149, 2));
  EXPECT_EQ(m.total_bytes(), 50u);
}

TEST(ExtentMap, AdjacentExtentsCoalesce) {
  ExtentMap m;
  m.insert(0, 10);
  m.insert(10, 10);
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_TRUE(m.covers(0, 20));
  EXPECT_EQ(m.total_bytes(), 20u);
}

TEST(ExtentMap, OverlappingExtentsCoalesce) {
  ExtentMap m;
  m.insert(0, 15);
  m.insert(10, 15);
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_EQ(m.total_bytes(), 25u);
}

TEST(ExtentMap, ContainedInsertIsNoop) {
  ExtentMap m;
  m.insert(0, 100);
  m.insert(20, 30);
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_EQ(m.total_bytes(), 100u);
}

TEST(ExtentMap, BridgingInsertMergesNeighbours) {
  ExtentMap m;
  m.insert(0, 10);
  m.insert(20, 10);
  EXPECT_EQ(m.extent_count(), 2u);
  m.insert(10, 10);
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_TRUE(m.covers(0, 30));
}

TEST(ExtentMap, DisjointExtentsStaySeparate) {
  ExtentMap m;
  m.insert(0, 10);
  m.insert(100, 10);
  EXPECT_EQ(m.extent_count(), 2u);
  EXPECT_FALSE(m.covers(0, 110));
  EXPECT_FALSE(m.covers(10, 1));
  EXPECT_TRUE(m.covers(100, 10));
  EXPECT_EQ(m.total_bytes(), 20u);
}

TEST(ExtentMap, ZeroLengthInsertIgnored) {
  ExtentMap m;
  m.insert(5, 0);
  EXPECT_EQ(m.extent_count(), 0u);
}

// Property test: random insertion order against a reference bitmap.
class ExtentMapRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtentMapRandom, MatchesReferenceBitmap) {
  Rng rng(GetParam());
  constexpr Bytes kSpan = 4096;
  std::vector<bool> ref(kSpan, false);
  ExtentMap m;
  for (int i = 0; i < 200; ++i) {
    const Bytes off = rng.uniform(kSpan - 1);
    const Bytes len = 1 + rng.uniform(std::min<Bytes>(kSpan - off, 64) - 1 + 1);
    m.insert(off, len);
    for (Bytes b = off; b < off + len && b < kSpan; ++b) ref[b] = true;
  }
  Bytes ref_total = 0;
  for (bool b : ref) ref_total += b ? 1 : 0;
  EXPECT_EQ(m.total_bytes(), ref_total);
  // Spot-check coverage queries.
  for (int i = 0; i < 200; ++i) {
    const Bytes off = rng.uniform(kSpan - 1);
    const Bytes len = 1 + rng.uniform(32);
    bool ref_covers = off + len <= kSpan;
    for (Bytes b = off; b < off + len && b < kSpan; ++b) {
      if (!ref[b]) ref_covers = false;
    }
    EXPECT_EQ(m.covers(off, len), ref_covers) << "off=" << off << " len=" << len;
  }
  // Every byte answers like the bitmap.
  for (Bytes b = 0; b < kSpan; ++b) {
    EXPECT_EQ(m.covers(b, 1), ref[b]) << "byte " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentMapRandom,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull));

// Naive oracle: sorted, disjoint, non-adjacent [start, end) intervals,
// rebuilt by sort-and-merge after every insert.
struct IntervalOracle {
  std::vector<std::pair<Bytes, Bytes>> iv;

  void insert(Bytes off, Bytes len) {
    if (len == 0) return;
    iv.emplace_back(off, off + len);
    std::sort(iv.begin(), iv.end());
    std::vector<std::pair<Bytes, Bytes>> merged;
    for (const auto& [s, e] : iv) {
      if (!merged.empty() && merged.back().second >= s) {
        merged.back().second = std::max(merged.back().second, e);
      } else {
        merged.emplace_back(s, e);
      }
    }
    iv = std::move(merged);
  }
  Bytes total() const {
    Bytes t = 0;
    for (const auto& [s, e] : iv) t += e - s;
    return t;
  }
  bool covers(Bytes off, Bytes len) const {
    if (len == 0) return true;
    for (const auto& [s, e] : iv) {
      if (s <= off && off + len <= e) return true;
    }
    return false;
  }
};

// An ExtentMap holds exactly `extents` (sorted, disjoint [start, end)
// pairs) when it covers each of them and its byte total is theirs: a
// superset with the same size is the same set.
template <typename Extents>
::testing::AssertionResult holds_exactly(const ExtentMap& m,
                                         const Extents& extents) {
  Bytes total = 0;
  for (const auto& [s, e] : extents) {
    if (!m.covers(s, e - s)) {
      return ::testing::AssertionFailure()
             << "[" << s << ", " << e << ") not covered";
    }
    total += e - s;
  }
  if (m.total_bytes() != total) {
    return ::testing::AssertionFailure()
           << m.total_bytes() << " bytes held, " << total << " expected";
  }
  if (m.extent_count() != extents.size()) {
    return ::testing::AssertionFailure()
           << m.extent_count() << " extents held, " << extents.size()
           << " expected";
  }
  return ::testing::AssertionSuccess();
}

// Which path of ExtentMap::insert an insert of [off, off+len) takes.
enum class InsertCase { fresh, contained, pred_growth, succ_absorb, bridging };

InsertCase classify(const IntervalOracle& o, Bytes off, Bytes len) {
  const Bytes end = off + len;
  bool pred = false;
  bool succ = false;
  for (const auto& [s, e] : o.iv) {
    if (s <= off && end <= e) return InsertCase::contained;
    if (s <= off && e >= off) pred = true;
    if (s > off && s <= end) succ = true;
  }
  if (pred && succ) return InsertCase::bridging;
  if (pred) return InsertCase::pred_growth;
  if (succ) return InsertCase::succ_absorb;
  return InsertCase::fresh;
}

void expect_matches(const ExtentMap& m, const IntervalOracle& o, Rng& rng,
                    Bytes span, int step) {
  ASSERT_EQ(m.total_bytes(), o.total()) << "step " << step;
  ASSERT_TRUE(holds_exactly(m, o.iv)) << "step " << step;
  for (int q = 0; q < 8; ++q) {
    const Bytes off = rng.uniform(span);
    const Bytes len = rng.uniform(48);
    ASSERT_EQ(m.covers(off, len), o.covers(off, len))
        << "step " << step << " off=" << off << " len=" << len;
  }
}

class ExtentMapOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtentMapOracle, EveryInsertPathMatchesSortedIntervals) {
  Rng rng(GetParam());
  constexpr Bytes kSpan = 2048;
  ExtentMap m;
  IntervalOracle o;
  std::optional<ExtentMap> copy;
  IntervalOracle copy_oracle;
  std::array<int, 5> seen{};
  for (int step = 0; step < 600; ++step) {
    const Bytes off = rng.uniform(kSpan);
    // Mostly short extents (gaps survive), sometimes long (bridges).
    const Bytes len = rng.uniform(8) == 0 ? rng.uniform(256) : rng.uniform(24);
    ++seen[static_cast<std::size_t>(classify(o, off, len))];
    m.insert(off, len);
    o.insert(off, len);
    expect_matches(m, o, rng, kSpan, step);
    if (step == 300) {
      copy = m;  // the copy must evolve independently from here on
      copy_oracle = o;
    }
    if (copy) {
      const Bytes coff = rng.uniform(kSpan);
      const Bytes clen = rng.uniform(32);
      copy->insert(coff, clen);
      copy_oracle.insert(coff, clen);
      expect_matches(*copy, copy_oracle, rng, kSpan, step);
    }
    if (HasFatalFailure()) return;
  }
  for (std::size_t c = 0; c < seen.size(); ++c) {
    EXPECT_GT(seen[c], 0) << "insert case " << c << " never exercised";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExtentMapOracle,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull));

// Reference for the flat layout: a std::map of start -> end, coalesced on
// every insert (the map-backed ExtentMap's algorithm, written plainly).
struct MapReference {
  std::map<Bytes, Bytes> m;

  void insert(Bytes off, Bytes len) {
    if (len == 0) return;
    Bytes start = off;
    Bytes end = off + len;
    auto it = m.upper_bound(start);
    if (it != m.begin() && std::prev(it)->second >= start) --it;
    while (it != m.end() && it->first <= end) {
      start = std::min(start, it->first);
      end = std::max(end, it->second);
      it = m.erase(it);
    }
    m.emplace(start, end);
  }
  Bytes total() const {
    Bytes t = 0;
    for (const auto& [s, e] : m) t += e - s;
    return t;
  }
  bool covers(Bytes off, Bytes len) const {
    if (len == 0) return true;
    auto it = m.upper_bound(off);
    if (it == m.begin()) return false;
    --it;
    return it->first <= off && it->second >= off + len;
  }
};

/// Insert streams the data path produces, plus plain random ones.
enum class Pattern {
  random,       // uniform offsets and lengths
  sequential,   // one writer appending, sometimes overlapping its tail
  interleaved,  // many writers each appending to its own region
  descending,   // blocks written back to front
};

class ExtentMapVsMap
    : public ::testing::TestWithParam<std::tuple<Pattern, std::uint64_t>> {};

TEST_P(ExtentMapVsMap, EveryQueryMatchesAfterEveryInsert) {
  const auto [pattern, seed] = GetParam();
  Rng rng(seed);
  constexpr Bytes kSpan = 1 << 16;
  constexpr std::size_t kWriters = 24;
  std::vector<Bytes> cursor(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) cursor[w] = w * (kSpan / kWriters);
  Bytes seq = 0;
  Bytes back = kSpan;
  ExtentMap m;
  MapReference ref;
  for (int step = 0; step < 1500; ++step) {
    Bytes off = 0;
    Bytes len = 0;
    switch (pattern) {
      case Pattern::random:
        off = rng.uniform(kSpan);
        len = rng.uniform(8) == 0 ? rng.uniform(2048) : rng.uniform(64);
        break;
      case Pattern::sequential:
        len = 1 + rng.uniform(64);
        // Mostly exact continuation, sometimes a gap or a rewrite.
        off = rng.uniform(6) == 0 ? seq + rng.uniform(16) : seq;
        if (rng.uniform(10) == 0 && seq > 32) off = seq - 32;
        seq = std::max(seq, off + len);
        break;
      case Pattern::interleaved: {
        const std::size_t w = rng.uniform(kWriters - 1);
        len = 1 + rng.uniform(32);
        off = cursor[w];
        cursor[w] += len;
        break;
      }
      case Pattern::descending:
        len = 1 + rng.uniform(40);
        back = back > len ? back - len : 0;
        off = rng.uniform(5) == 0 ? back + 1 : back;
        break;
    }
    m.insert(off, len);
    ref.insert(off, len);
    // Query only every few steps so pending tails build up in between.
    if (step % 7 != 0 && step != 1499) continue;
    ASSERT_EQ(m.total_bytes(), ref.total()) << "step " << step;
    ASSERT_TRUE(holds_exactly(m, ref.m)) << "step " << step;
    for (int q = 0; q < 16; ++q) {
      const Bytes qoff = rng.uniform(kSpan + 512);
      const Bytes qlen = rng.uniform(4) == 0 ? rng.uniform(4096) : rng.uniform(64);
      ASSERT_EQ(m.covers(qoff, qlen), ref.covers(qoff, qlen))
          << "step " << step << " off=" << qoff << " len=" << qlen;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ExtentMapVsMap,
    ::testing::Combine(::testing::Values(Pattern::random, Pattern::sequential,
                                         Pattern::interleaved,
                                         Pattern::descending),
                       ::testing::Values(3ull, 99ull)));

TEST(ExtentMap, QueriesMergeAPendingTailExactly) {
  ExtentMap m;
  m.insert(1000, 10);
  // Out-of-order inserts wait in the tail; every query still sees them.
  m.insert(0, 10);
  EXPECT_EQ(m.total_bytes(), 20u);
  m.insert(10, 990);  // bridges the two extents
  EXPECT_EQ(m.extent_count(), 1u);
  EXPECT_TRUE(m.covers(0, 1010));
  m.insert(500, 2000);
  EXPECT_EQ(m.total_bytes(), 2500u);
  EXPECT_TRUE(m.covers(0, 2500));
  EXPECT_FALSE(m.covers(2500, 1));
}

}  // namespace
}  // namespace pfsc::lustre
