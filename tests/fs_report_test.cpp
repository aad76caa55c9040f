// Tests for the file-system health report and degraded-OST mode.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fs_report.hpp"
#include "lustre/client.hpp"

namespace pfsc::core {
namespace {

using lustre::Errno;
using lustre::StripeSettings;

struct ReportFixture : ::testing::Test {
  sim::Engine eng;
  lustre::FileSystem fs{eng, hw::tiny_test_platform(), 17};

  template <typename T>
  T run(sim::Co<T> op) {
    T out{};
    eng.spawn([](sim::Co<T> op, T& out) -> sim::Task {
      out = co_await std::move(op);
    }(std::move(op), out));
    eng.run();
    return out;
  }
};

TEST_F(ReportFixture, EmptyFileSystem) {
  const auto report = collect_health_report(fs);
  EXPECT_EQ(report.files, 0u);
  EXPECT_EQ(report.ost_count, fs.params().ost_count);
  EXPECT_DOUBLE_EQ(report.occupancy.d_load, 0.0);
  EXPECT_TRUE(report.projected_load.empty());
  const std::string text = format_health_report(report);
  EXPECT_NE(text.find("files: 0"), std::string::npos);
}

TEST_F(ReportFixture, CountsFilesAndOccupancy) {
  ASSERT_TRUE(run(fs.create("/a", StripeSettings{2, 1_MiB, 0})).ok());
  ASSERT_TRUE(run(fs.create("/b", StripeSettings{4, 1_MiB, 0})).ok());
  ASSERT_TRUE(run(fs.mkdir("/d")).ok());
  ASSERT_TRUE(run(fs.create("/d/c", StripeSettings{1, 1_MiB, 7})).ok());
  fs.fail_ost(5);

  const auto report = collect_health_report(fs);
  EXPECT_EQ(report.files, 3u);
  EXPECT_EQ(report.failed_osts, 1u);
  EXPECT_DOUBLE_EQ(report.occupancy.d_req, 7.0);  // 2 + 4 + 1 stripes
  EXPECT_NEAR(report.mean_stripe_request, 7.0 / 3.0, 1e-9);
  // Top consumer is the 4-stripe file, with a reconstructed path.
  ASSERT_FALSE(report.top_consumers.empty());
  EXPECT_EQ(report.top_consumers[0].path, "/b");
  EXPECT_EQ(report.top_consumers[0].stripe_count, 4u);
  // Nested path reconstruction.
  bool found_nested = false;
  for (const auto& fp : report.top_consumers) {
    if (fp.path == "/d/c") found_nested = true;
  }
  EXPECT_TRUE(found_nested);
}

TEST_F(ReportFixture, ProjectionFollowsEq1) {
  ASSERT_TRUE(run(fs.create("/a", StripeSettings{4, 1_MiB, -1})).ok());
  const auto report = collect_health_report(fs);
  ASSERT_EQ(report.projected_load.size(), 5u);
  // One file of 4 stripes; mean request = 4. Adding one more mean-shape
  // job: Eq. 1 from D_inuse=4, D_req=4 on 8 OSTs.
  const double expected_inuse = 4.0 + 4.0 - (4.0 / 8.0) * 4.0;  // 6
  EXPECT_NEAR(report.projected_load[0], 8.0 / expected_inuse, 1e-9);
  // Load grows monotonically with more arrivals.
  for (std::size_t k = 1; k < report.projected_load.size(); ++k) {
    EXPECT_GE(report.projected_load[k], report.projected_load[k - 1]);
  }
}

TEST_F(ReportFixture, EqualWidthsListByPath) {
  // The namespace walk visits /c before the files in /b and /a, and the
  // widest file comes first whatever its path.
  for (const char* dir : {"/a", "/b", "/d"}) {
    ASSERT_TRUE(run(fs.mkdir(dir)).ok());
  }
  ASSERT_TRUE(run(fs.create("/z", StripeSettings{4, 1_MiB, 0})).ok());
  for (const char* path : {"/e", "/d/w", "/c", "/b/x", "/a/y"}) {
    ASSERT_TRUE(run(fs.create(path, StripeSettings{2, 1_MiB, 0})).ok());
  }
  const auto report = collect_health_report(fs);
  std::vector<std::string> paths;
  for (const auto& fp : report.top_consumers) paths.push_back(fp.path);
  EXPECT_EQ(paths, (std::vector<std::string>{"/z", "/a/y", "/b/x", "/c",
                                             "/d/w"}));
}

TEST_F(ReportFixture, FormatContainsKeyNumbers) {
  ASSERT_TRUE(run(fs.create("/a", StripeSettings{2, 1_MiB, 0})).ok());
  ASSERT_TRUE(run(fs.create("/b", StripeSettings{2, 1_MiB, 0})).ok());
  const std::string text = format_health_report(collect_health_report(fs));
  EXPECT_NE(text.find("D_load 2.00"), std::string::npos);  // both on OSTs 0,1
  EXPECT_NE(text.find("Widest layouts:"), std::string::npos);
}

TEST_F(ReportFixture, DegradedOstSlowsService) {
  lustre::Client client(fs, "c");
  auto timed_write = [&](double factor) {
    sim::Engine e2;
    lustre::FileSystem fs2(e2, hw::tiny_test_platform(), 17);
    lustre::Client c2(fs2, "c");
    fs2.degrade_ost(0, factor);
    Seconds elapsed = 0.0;
    e2.spawn([](lustre::Client& c, sim::Engine& e, Seconds& out) -> sim::Task {
      auto f = co_await c.create("/f", StripeSettings{1, 1_MiB, 0});
      PFSC_ASSERT(f.ok());
      const Seconds t0 = e.now();
      PFSC_ASSERT(co_await c.write(f.value, 0, 8_MiB) == Errno::ok);
      out = e.now() - t0;
    }(c2, e2, elapsed));
    e2.run();
    return elapsed;
  };
  const Seconds healthy = timed_write(1.0);
  const Seconds degraded = timed_write(3.0);
  EXPECT_GT(degraded, healthy * 1.5);
  // Restoring the multiplier restores performance.
  const Seconds restored = timed_write(1.0);
  EXPECT_NEAR(restored, healthy, healthy * 0.01);
}

}  // namespace
}  // namespace pfsc::core
