#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

namespace pfsc {
namespace {

TEST(Units, LiteralsAndConversions) {
  EXPECT_EQ(1_KiB, 1024u);
  EXPECT_EQ(4_MiB, 4ull * 1024 * 1024);
  EXPECT_EQ(2_GiB, 2ull * 1024 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(mb_per_sec(300.0), 3.0e8);
  EXPECT_DOUBLE_EQ(to_mbps(3.0e8), 300.0);
}

TEST(Units, BandwidthMbps) {
  EXPECT_DOUBLE_EQ(bandwidth_mbps(100'000'000, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(bandwidth_mbps(100'000'000, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(bandwidth_mbps(0, 5.0), 0.0);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1_KiB), "1 KiB");
  EXPECT_EQ(format_bytes(128_MiB), "128 MiB");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
}

TEST(Rng, DeterministicStreams) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(rng.uniform(13), 13u);
  }
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.uniform_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformCoversAllValues) {
  Rng rng(11);
  std::array<int, 5> seen{};
  for (int i = 0; i < 5000; ++i) ++seen[rng.uniform(5)];
  for (int count : seen) EXPECT_GT(count, 800);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  auto sample = rng.sample_without_replacement(100, 40);
  ASSERT_EQ(sample.size(), 40u);
  std::sort(sample.begin(), sample.end());
  EXPECT_TRUE(std::adjacent_find(sample.begin(), sample.end()) == sample.end());
  for (auto v : sample) EXPECT_LT(v, 100u);
}

TEST(Rng, SampleFullPopulation) {
  Rng rng(5);
  auto sample = rng.sample_without_replacement(10, 10);
  std::sort(sample.begin(), sample.end());
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, SampleRejectsOversizedRequest) {
  Rng rng(5);
  EXPECT_THROW(rng.sample_without_replacement(4, 5), UsageError);
}

TEST(Rng, SampleIsApproximatelyUniform) {
  Rng rng(17);
  std::array<int, 20> hits{};
  const int reps = 20'000;
  for (int i = 0; i < reps; ++i) {
    for (auto v : rng.sample_without_replacement(20, 3)) ++hits[v];
  }
  // Each element should appear with probability 3/20.
  const double expected = reps * 3.0 / 20.0;
  for (int h : hits) {
    EXPECT_NEAR(h, expected, expected * 0.1);
  }
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, VarianceNeedsTwoSamples) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, StudentTKnownValues) {
  EXPECT_NEAR(student_t_critical(0.95, 4), 2.776, 1e-3);   // 5 reps
  EXPECT_NEAR(student_t_critical(0.95, 1), 12.706, 1e-3);
  EXPECT_NEAR(student_t_critical(0.95, 1000), 1.960, 1e-3);
  EXPECT_NEAR(student_t_critical(0.99, 9), 3.250, 1e-3);
  EXPECT_NEAR(student_t_critical(0.90, 30), 1.697, 1e-3);
}

TEST(Stats, StudentTRejectsUnknownLevel) {
  EXPECT_THROW(student_t_critical(0.42, 5), UsageError);
  EXPECT_THROW(student_t_critical(0.95, 0), UsageError);
}

TEST(Stats, ConfidenceIntervalFiveReps) {
  // The paper's Table VII reports 5-repetition 95% CIs; check the math.
  const std::vector<double> xs{100.0, 110.0, 90.0, 105.0, 95.0};
  const auto ci = confidence_interval(xs);
  EXPECT_DOUBLE_EQ(ci.mean, 100.0);
  // stddev ~= 7.906; half width = 2.776 * 7.906 / sqrt(5) ~= 9.815
  EXPECT_NEAR(ci.half_width, 9.815, 0.01);
  EXPECT_NEAR(ci.lower, 90.185, 0.01);
  EXPECT_NEAR(ci.upper, 109.815, 0.01);
}

TEST(Stats, ConfidenceIntervalSingleSampleDegenerates) {
  const std::vector<double> xs{42.0};
  const auto ci = confidence_interval(xs);
  EXPECT_DOUBLE_EQ(ci.lower, 42.0);
  EXPECT_DOUBLE_EQ(ci.upper, 42.0);
}

TEST(Table, FormatsRows) {
  TextTable t({"a", "bb"});
  t.add_row({"1", "2"});
  t.cell("33").cell("4").end_row();
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("|  a | bb |"), std::string::npos);
  EXPECT_NE(s.find("| 33 |"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), UsageError);
}

TEST(Table, FmtHelpers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_int(-7), "-7");
}

}  // namespace
}  // namespace pfsc
