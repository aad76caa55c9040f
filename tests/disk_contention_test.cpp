// Tests for the disk model's contention machinery: the hot-stream window,
// linear + quadratic seek amplification, the sorted (elevator) service
// order, and stream-state cleanup.
#include <gtest/gtest.h>

#include <vector>

#include "hw/disk.hpp"

namespace pfsc::hw {
namespace {

DiskParams strict_params() {
  DiskParams p;
  p.sequential_bw = 100.0;  // 100 B/s
  p.seek_time = 1.0;
  p.per_request_overhead = 0.0;
  p.raid_full_stripe = 0;
  p.read_factor = 1.0;
  p.batch = 8;
  p.reorder_window = 0;
  p.contention_alpha = 1.0;
  p.contention_knee = 2;
  p.contention_quad_alpha = 0.0;
  p.contention_quad_knee = 1000;
  p.hot_window = 16;
  return p;
}

sim::Task writer(DiskModel& disk, DiskModel::StreamId s, int requests,
                 Bytes size) {
  for (int i = 0; i < requests; ++i) {
    co_await disk.submit(s, static_cast<Bytes>(i) * size, size, true);
  }
}

/// writer() that records each request's completion instant in `done`.
sim::Task timed_writer(sim::Engine& eng, DiskModel& disk, DiskModel::StreamId s,
                       int requests, Bytes size, std::vector<double>& done) {
  for (int i = 0; i < requests; ++i) {
    co_await disk.submit(s, static_cast<Bytes>(i) * size, size, true);
    done.push_back(eng.now());
  }
}

TEST(DiskContention, HotStreamsTrackRecentWindow) {
  sim::Engine eng;
  DiskModel disk(eng, strict_params());
  for (int s = 0; s < 4; ++s) {
    eng.spawn(writer(disk, static_cast<DiskModel::StreamId>(s), 8, 100));
  }
  eng.run();
  // All four streams were recently serviced (32 requests, window 16 still
  // spans several streams' tails).
  EXPECT_GE(disk.hot_streams(), 2u);
  EXPECT_LE(disk.hot_streams(), 4u);
}

TEST(DiskContention, HotWindowForgetsFinishedStreams) {
  sim::Engine eng;
  auto params = strict_params();
  params.hot_window = 4;
  DiskModel disk(eng, params);
  // Stream 1 runs and finishes; then stream 2 issues > window requests.
  eng.spawn([](DiskModel& d) -> sim::Task {
    for (int i = 0; i < 6; ++i) {
      co_await d.submit(1, static_cast<Bytes>(i) * 100, 100, true);
    }
    for (int i = 0; i < 6; ++i) {
      co_await d.submit(2, static_cast<Bytes>(i) * 100, 100, true);
    }
  }(disk));
  eng.run();
  EXPECT_EQ(disk.hot_streams(), 1u);  // only stream 2 remains hot
}

TEST(DiskContention, LinearAmplificationAboveKnee) {
  // With alpha=1 and knee=2: 4 hot streams => seek factor 1 + (4-2) = 3.
  auto aggregate_time = [](int streams) {
    sim::Engine eng;
    DiskModel disk(eng, strict_params());
    for (int s = 0; s < streams; ++s) {
      eng.spawn(writer(disk, static_cast<DiskModel::StreamId>(100 + s), 8, 100));
    }
    eng.run();
    return eng.now();
  };
  // Same total bytes (scale request count inversely) is hard; compare
  // per-byte service cost instead.
  const double t2 = aggregate_time(2) / (2 * 8);
  const double t4 = aggregate_time(4) / (4 * 8);
  EXPECT_GT(t4, t2 * 1.2);  // amplified seeks dominate
}

TEST(DiskContention, QuadraticTermKicksInPastQuadKnee) {
  auto per_request_time = [](std::uint32_t quad_knee) {
    sim::Engine eng;
    auto params = strict_params();
    params.contention_quad_alpha = 1.0;
    params.contention_quad_knee = quad_knee;
    params.hot_window = 64;
    DiskModel disk(eng, params);
    for (int s = 0; s < 8; ++s) {
      eng.spawn(writer(disk, static_cast<DiskModel::StreamId>(s), 8, 100));
    }
    eng.run();
    return eng.now() / 64.0;
  };
  const double without = per_request_time(1000);  // quad never reached
  const double with = per_request_time(4);        // 8 streams >> knee 4
  EXPECT_GT(with, without * 2.0);
}

TEST(DiskContention, ElevatorServesAscendingOffsets) {
  sim::Engine eng;
  auto params = strict_params();
  params.seek_time = 10.0;  // make out-of-order service obvious
  params.reorder_window = 1000;
  DiskModel disk(eng, params);
  std::vector<double> done_at(3);
  // Enqueue three same-stream requests in descending offset order, all at
  // t=0. The elevator should still serve them ascending (0, 200, 400), so
  // only the first pays the (new-stream) seek.
  for (int i = 2; i >= 0; --i) {
    eng.spawn([](DiskModel& d, Bytes off, double& out, sim::Engine& e) -> sim::Task {
      co_await d.submit(1, off, 100, true);
      out = e.now();
    }(disk, static_cast<Bytes>(i) * 200, done_at[static_cast<std::size_t>(i)], eng));
  }
  eng.run();
  // One initial positioning, then ascending: 10 s seek + 1 s, then 1 s each.
  EXPECT_EQ(done_at, (std::vector<double>{11.0, 12.0, 13.0}));
}

TEST(DiskContention, ForgetStreamDropsPositionalState) {
  sim::Engine eng;
  DiskModel disk(eng, strict_params());
  std::vector<double> done;
  eng.spawn(timed_writer(eng, disk, 7, 1, 100, done));
  eng.run();
  ASSERT_EQ(done, (std::vector<double>{2.0}));  // 1 s seek + 1 s
  EXPECT_EQ(disk.hot_streams(), 1u);
  disk.forget_stream(7);
  EXPECT_EQ(disk.hot_streams(), 0u);  // a closed stream is not hot
  // A new request at the next offset is a fresh stream: it pays a seek
  // again (3.0 had the head been kept).
  eng.spawn([](sim::Engine& e, DiskModel& d, std::vector<double>& out) -> sim::Task {
    co_await d.submit(7, 100, 100, true);  // would have been contiguous
    out.push_back(e.now());
  }(eng, disk, done));
  eng.run();
  EXPECT_EQ(done, (std::vector<double>{2.0, 4.0}));
}

TEST(DiskContention, MaxRunnableHighWaterMark) {
  // Five streams queue at t = 0. The first seek counts all five runnable
  // streams although only one is hot: factor 1 + (5 - 2) = 4, so it ends
  // at 4 + 1 = 5. Later seeks see four runnable streams (factor 3) until
  // the hot window reaches five (factor 4).
  sim::Engine eng;
  DiskModel disk(eng, strict_params());
  std::vector<double> done;
  for (int s = 0; s < 5; ++s) {
    eng.spawn(timed_writer(eng, disk, static_cast<DiskModel::StreamId>(s), 2,
                           100, done));
  }
  eng.run();
  EXPECT_EQ(done, (std::vector<double>{5, 9, 13, 17, 22, 27, 32, 37, 42, 47}));
}

TEST(DiskContention, SeekTimeTotalAccounted) {
  // One request on an idle disk: exactly one unamplified 1 s seek.
  sim::Engine eng;
  DiskModel disk(eng, strict_params());
  std::vector<double> done;
  eng.spawn(timed_writer(eng, disk, 1, 1, 100, done));
  eng.run();
  EXPECT_EQ(done, (std::vector<double>{2.0}));
  EXPECT_DOUBLE_EQ(disk.busy_time(), 2.0);
}

}  // namespace
}  // namespace pfsc::hw
