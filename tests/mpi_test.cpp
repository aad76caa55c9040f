#include <gtest/gtest.h>

#include <vector>

#include "mpi/runtime.hpp"

namespace pfsc::mpi {
namespace {

struct MpiFixture : ::testing::Test {
  sim::Engine eng;
  lustre::FileSystem fs{eng, hw::tiny_test_platform(), 99};
};

TEST_F(MpiFixture, RuntimePlacesRanksOnNodes) {
  Runtime rt(fs, 10, 4);
  EXPECT_EQ(rt.nprocs(), 10);
  EXPECT_EQ(rt.node_count(), 3);
  EXPECT_EQ(rt.node_of(0), 0);
  EXPECT_EQ(rt.node_of(3), 0);
  EXPECT_EQ(rt.node_of(4), 1);
  EXPECT_EQ(rt.node_of(9), 2);
  // Clients on the same node share a NIC.
  EXPECT_EQ(rt.client(0).node_key(), rt.client(3).node_key());
  EXPECT_NE(rt.client(0).node_key(), rt.client(4).node_key());
}

TEST_F(MpiFixture, RuntimeRejectsOversizedJobs) {
  // tiny platform has 8 nodes x 4 cores.
  EXPECT_THROW(Runtime(fs, 9 * 4, 4), UsageError);
}

TEST_F(MpiFixture, BarrierSynchronisesRanks) {
  Runtime rt(fs, 4, 4);
  std::vector<double> release_times(4);
  rt.run_to_completion([&](int rank) -> sim::Task {
    co_await rt.engine().delay(static_cast<double>(rank));  // stagger arrival
    co_await rt.world().barrier(rank);
    release_times[static_cast<std::size_t>(rank)] = rt.engine().now();
  });
  for (double t : release_times) EXPECT_GE(t, 3.0);  // slowest rank gates all
  EXPECT_DOUBLE_EQ(release_times[0], release_times[3]);
}

TEST_F(MpiFixture, AllreduceOps) {
  Runtime rt(fs, 5, 4);
  std::vector<double> sums(5), mins(5), maxs(5);
  rt.run_to_completion([&](int rank) -> sim::Task {
    const double v = static_cast<double>(rank + 1);
    sums[static_cast<std::size_t>(rank)] =
        co_await rt.world().allreduce(rank, v, Communicator::ReduceOp::sum);
    mins[static_cast<std::size_t>(rank)] =
        co_await rt.world().allreduce(rank, v, Communicator::ReduceOp::min);
    maxs[static_cast<std::size_t>(rank)] =
        co_await rt.world().allreduce(rank, v, Communicator::ReduceOp::max);
  });
  for (int r = 0; r < 5; ++r) {
    EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(r)], 15.0);
    EXPECT_DOUBLE_EQ(mins[static_cast<std::size_t>(r)], 1.0);
    EXPECT_DOUBLE_EQ(maxs[static_cast<std::size_t>(r)], 5.0);
  }
}

TEST_F(MpiFixture, CollectivesCostLatency) {
  Runtime rt(fs, 8, 4, /*hop_latency=*/1.0e-3);
  rt.run_to_completion([&](int rank) -> sim::Task {
    co_await rt.world().barrier(rank);
  });
  // 2 * ceil(log2(8)) * 1ms = 6ms.
  EXPECT_NEAR(eng.now(), 6.0e-3, 1e-9);
}

TEST_F(MpiFixture, SplitByColorFormsGroups) {
  Runtime rt(fs, 8, 4);
  std::vector<int> sub_rank(8, -1);
  std::vector<int> sub_size(8, -1);
  std::vector<Communicator*> sub_comm(8, nullptr);
  rt.run_to_completion([&](int rank) -> sim::Task {
    auto sr = co_await rt.world().split(rank, rank % 2, rank);
    sub_rank[static_cast<std::size_t>(rank)] = sr.rank;
    sub_size[static_cast<std::size_t>(rank)] = sr.comm->size();
    sub_comm[static_cast<std::size_t>(rank)] = sr.comm;
  });
  for (int r = 0; r < 8; ++r) {
    EXPECT_EQ(sub_size[static_cast<std::size_t>(r)], 4);
    EXPECT_EQ(sub_rank[static_cast<std::size_t>(r)], r / 2);
  }
  EXPECT_EQ(sub_comm[0], sub_comm[2]);  // same colour -> same comm
  EXPECT_NE(sub_comm[0], sub_comm[1]);  // different colour -> different comm
}

TEST_F(MpiFixture, SplitOrdersByKey) {
  Runtime rt(fs, 4, 4);
  std::vector<int> sub_rank(4, -1);
  rt.run_to_completion([&](int rank) -> sim::Task {
    // Reverse the ordering with descending keys.
    auto sr = co_await rt.world().split(rank, 0, 100 - rank);
    sub_rank[static_cast<std::size_t>(rank)] = sr.rank;
  });
  EXPECT_EQ(sub_rank, (std::vector<int>{3, 2, 1, 0}));
}

TEST_F(MpiFixture, SubCommunicatorCollectivesWork) {
  Runtime rt(fs, 8, 4);
  std::vector<double> sums(8);
  rt.run_to_completion([&](int rank) -> sim::Task {
    auto sr = co_await rt.world().split(rank, rank / 4, rank);
    sums[static_cast<std::size_t>(rank)] = co_await sr.comm->allreduce(
        sr.rank, 1.0, Communicator::ReduceOp::sum);
  });
  for (double s : sums) EXPECT_DOUBLE_EQ(s, 4.0);
}

TEST_F(MpiFixture, RepeatedCollectivesMatchBySequence) {
  Runtime rt(fs, 4, 4);
  std::vector<double> totals(4, 0.0);
  rt.run_to_completion([&](int rank) -> sim::Task {
    for (int i = 0; i < 50; ++i) {
      totals[static_cast<std::size_t>(rank)] += co_await rt.world().allreduce(
          rank, static_cast<double>(i), Communicator::ReduceOp::sum);
    }
  });
  // Each round sums 4*i; total = 4 * (0+..+49) = 4900.
  for (double t : totals) EXPECT_DOUBLE_EQ(t, 4900.0);
}

TEST_F(MpiFixture, SingleRankCommunicatorShortCircuits) {
  Runtime rt(fs, 1, 4);
  bool done = false;
  rt.run_to_completion([&](int rank) -> sim::Task {
    co_await rt.world().barrier(rank);
    const double v = co_await rt.world().allreduce(
        rank, 3.0, Communicator::ReduceOp::sum);
    EXPECT_DOUBLE_EQ(v, 3.0);
    done = true;
  });
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace pfsc::mpi
