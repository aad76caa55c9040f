#include "mpi/runtime.hpp"

#include <string>

namespace pfsc::mpi {

Runtime::Runtime(lustre::FileSystem& fs, int nprocs, int procs_per_node,
                 Seconds hop_latency)
    : fs_(&fs), nprocs_(nprocs), procs_per_node_(procs_per_node) {
  PFSC_REQUIRE(nprocs >= 1, "Runtime: need at least one process");
  PFSC_REQUIRE(procs_per_node >= 1, "Runtime: procs_per_node must be >= 1");
  const int nodes = (nprocs + procs_per_node - 1) / procs_per_node;
  PFSC_REQUIRE(nodes <= static_cast<int>(fs.params().nodes),
               "Runtime: job larger than the platform");
  node_nics_.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    node_nics_.push_back(sim::make_link(fs.engine(), fs.params().link_policy,
                                        fs.params().node_nic_bw));
    node_nics_.back()->set_trace_label("nic.node" + std::to_string(n));
  }
  clients_.reserve(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    clients_.push_back(std::make_unique<lustre::Client>(
        fs, "rank" + std::to_string(r),
        node_nics_[static_cast<std::size_t>(node_of(r))].get()));
  }
  world_ = std::make_unique<Communicator>(fs.engine(), nprocs, hop_latency);
}

lustre::Client& Runtime::client(int rank) {
  PFSC_REQUIRE(rank >= 0 && rank < nprocs_, "Runtime::client: bad rank");
  return *clients_[static_cast<std::size_t>(rank)];
}

void Runtime::launch(const std::function<sim::Task(int)>& rank_main) {
  for (int r = 0; r < nprocs_; ++r) {
    engine().spawn(rank_main(r));
  }
}

void Runtime::run_to_completion(const std::function<sim::Task(int)>& rank_main) {
  launch(rank_main);
  engine().run();
}

}  // namespace pfsc::mpi
