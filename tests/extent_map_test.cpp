#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <optional>
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
  EXPECT_EQ(m.end_offset(), 0u);
}

TEST(ExtentMap, SingleInsert) {
  ExtentMap m;
  m.insert(100, 50);
  EXPECT_TRUE(m.covers(100, 50));
  EXPECT_TRUE(m.covers(120, 10));
  EXPECT_FALSE(m.covers(99, 2));
  EXPECT_FALSE(m.covers(149, 2));
  EXPECT_EQ(m.total_bytes(), 50u);
  EXPECT_EQ(m.end_offset(), 150u);
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
  EXPECT_EQ(m.covered_bytes(0, 110), 20u);
}

TEST(ExtentMap, CoveredBytesPartial) {
  ExtentMap m;
  m.insert(10, 10);
  m.insert(30, 10);
  EXPECT_EQ(m.covered_bytes(0, 100), 20u);
  EXPECT_EQ(m.covered_bytes(15, 20), 10u);  // 5 from first, 5 from second
  EXPECT_EQ(m.covered_bytes(50, 10), 0u);
  EXPECT_EQ(m.covered_bytes(10, 0), 0u);
}

TEST(ExtentMap, ZeroLengthInsertIgnored) {
  ExtentMap m;
  m.insert(5, 0);
  EXPECT_EQ(m.extent_count(), 0u);
}

TEST(ExtentMap, ClearResets) {
  ExtentMap m;
  m.insert(0, 10);
  m.clear();
  EXPECT_EQ(m.total_bytes(), 0u);
  EXPECT_FALSE(m.covers(0, 1));
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
    Bytes ref_count = 0;
    for (Bytes b = off; b < off + len && b < kSpan; ++b) {
      if (ref[b]) ++ref_count; else ref_covers = false;
    }
    EXPECT_EQ(m.covers(off, len), ref_covers) << "off=" << off << " len=" << len;
    EXPECT_EQ(m.covered_bytes(off, len), ref_count);
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
  Bytes covered(Bytes off, Bytes len) const {
    Bytes c = 0;
    for (const auto& [s, e] : iv) {
      const Bytes lo = std::max(off, s);
      const Bytes hi = std::min(off + len, e);
      if (hi > lo) c += hi - lo;
    }
    return c;
  }
};

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
  ASSERT_EQ(m.extent_count(), o.iv.size()) << "step " << step;
  ASSERT_EQ(m.end_offset(), o.iv.empty() ? 0 : o.iv.back().second);
  for (int q = 0; q < 8; ++q) {
    const Bytes off = rng.uniform(span);
    const Bytes len = rng.uniform(48);
    ASSERT_EQ(m.covers(off, len), o.covers(off, len))
        << "step " << step << " off=" << off << " len=" << len;
    ASSERT_EQ(m.covered_bytes(off, len), o.covered(off, len))
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

}  // namespace
}  // namespace pfsc::lustre
