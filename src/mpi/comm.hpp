// SimMPI communicators.
//
// A Communicator groups rank coroutines and gives them MPI-style collective
// operations: barrier, allreduce and comm_split. Payload
// bytes are not modelled (the apps in this study only exchange control-sized
// messages); each collective costs a latency term of
// 2 * ceil(log2(size)) * collective_hop_latency, the usual tree bound.
//
// Collective-call matching works like MPI: every rank must invoke the same
// collectives in the same order. Each rank's arrival is matched by per-
// communicator call sequence numbers; the last arriver completes the
// operation and wakes the others.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resources.hpp"
#include "sim/task.hpp"
#include "support/error.hpp"

namespace pfsc::mpi {

class Communicator {
 public:
  Communicator(sim::Engine& eng, int size, Seconds hop_latency = 2.0e-6);

  Communicator(const Communicator&) = delete;
  Communicator& operator=(const Communicator&) = delete;

  int size() const { return size_; }
  sim::Engine& engine() { return *eng_; }

  /// MPI_Barrier.
  sim::Co<void> barrier(int rank);

  enum class ReduceOp { sum, min, max };

  /// MPI_Allreduce on a double.
  sim::Co<double> allreduce(int rank, double value, ReduceOp op);

  /// MPI_Comm_split. Ranks with the same colour form a sub-communicator;
  /// ranks are ordered by (key, old rank). Returns the sub-communicator
  /// (owned by this parent) and the caller's rank within it.
  struct SplitResult {
    Communicator* comm = nullptr;
    int rank = -1;
  };
  sim::Co<SplitResult> split(int rank, int color, int key);

 private:
  sim::Engine* eng_;
  int size_;
  Seconds hop_latency_;

  struct Contribution {
    double value = 0.0;
    int color = 0;
    int key = 0;
  };
  /// One in-flight collective: contributions from each rank, a completion
  /// event, the computed result, and a consumption count for cleanup (the
  /// last rank to read the result erases the entry).
  struct Pending {
    int arrived = 0;
    int consumed = 0;
    std::vector<Contribution> contribs;
    std::vector<bool> present;
    std::unique_ptr<sim::Event> done;
    // Results:
    double scalar = 0.0;
    std::vector<Communicator*> split_comm_of_rank;
    std::vector<int> split_rank_of_rank;
  };

  Seconds collective_latency() const;

  std::vector<std::uint64_t> next_seq_;      // per-rank collective counter
  std::map<std::uint64_t, Pending> pending_;  // seq -> in-flight collective
  std::vector<std::unique_ptr<Communicator>> children_;  // from split()
};

}  // namespace pfsc::mpi
