#include "mpi/comm.hpp"

#include <algorithm>
#include <cmath>

namespace pfsc::mpi {

Communicator::Communicator(sim::Engine& eng, int size, Seconds hop_latency)
    : eng_(&eng), size_(size), hop_latency_(hop_latency) {
  PFSC_REQUIRE(size >= 1, "Communicator: size must be >= 1");
  next_seq_.assign(static_cast<std::size_t>(size), 0);
}

Seconds Communicator::collective_latency() const {
  if (size_ <= 1) return 0.0;
  const double hops = std::ceil(std::log2(static_cast<double>(size_)));
  return 2.0 * hops * hop_latency_;
}

sim::Co<void> Communicator::barrier(int rank) {
  co_await allreduce(rank, 0.0, ReduceOp::sum);
}

// Shared rendezvous skeleton. `complete` runs exactly once (in the last
// arriver); `extract` runs in every rank while the state is still alive.
namespace {
struct Consumed {
  int count = 0;
};
}  // namespace

sim::Co<double> Communicator::allreduce(int rank, double value, ReduceOp op) {
  PFSC_REQUIRE(rank >= 0 && rank < size_, "allreduce: bad rank");
  const std::uint64_t seq = next_seq_[static_cast<std::size_t>(rank)]++;
  Pending& p = pending_[seq];
  if (p.contribs.empty()) {
    p.contribs.resize(static_cast<std::size_t>(size_));
    p.present.assign(static_cast<std::size_t>(size_), false);
    p.done = std::make_unique<sim::Event>(*eng_);
  }
  PFSC_ASSERT(!p.present[static_cast<std::size_t>(rank)]);
  p.present[static_cast<std::size_t>(rank)] = true;
  p.contribs[static_cast<std::size_t>(rank)].value = value;
  ++p.arrived;
  if (p.arrived == size_) {
    double acc = p.contribs[0].value;
    for (int r = 1; r < size_; ++r) {
      const double v = p.contribs[static_cast<std::size_t>(r)].value;
      switch (op) {
        case ReduceOp::sum: acc += v; break;
        case ReduceOp::min: acc = std::min(acc, v); break;
        case ReduceOp::max: acc = std::max(acc, v); break;
      }
    }
    p.scalar = acc;
    p.done->trigger();
  } else {
    co_await p.done->wait();
  }
  const double result = pending_.at(seq).scalar;
  if (++pending_.at(seq).consumed == size_) pending_.erase(seq);
  co_await eng_->delay(collective_latency());
  co_return result;
}

sim::Co<Communicator::SplitResult> Communicator::split(int rank, int color, int key) {
  PFSC_REQUIRE(rank >= 0 && rank < size_, "split: bad rank");
  const std::uint64_t seq = next_seq_[static_cast<std::size_t>(rank)]++;
  Pending& p = pending_[seq];
  if (p.contribs.empty()) {
    p.contribs.resize(static_cast<std::size_t>(size_));
    p.present.assign(static_cast<std::size_t>(size_), false);
    p.done = std::make_unique<sim::Event>(*eng_);
  }
  PFSC_ASSERT(!p.present[static_cast<std::size_t>(rank)]);
  p.present[static_cast<std::size_t>(rank)] = true;
  p.contribs[static_cast<std::size_t>(rank)].color = color;
  p.contribs[static_cast<std::size_t>(rank)].key = key;
  ++p.arrived;
  if (p.arrived == size_) {
    p.split_comm_of_rank.assign(static_cast<std::size_t>(size_), nullptr);
    p.split_rank_of_rank.assign(static_cast<std::size_t>(size_), -1);
    // Group ranks by colour, order each group by (key, old rank).
    std::map<int, std::vector<int>> groups;
    for (int r = 0; r < size_; ++r) {
      groups[p.contribs[static_cast<std::size_t>(r)].color].push_back(r);
    }
    for (auto& [c, members] : groups) {
      std::stable_sort(members.begin(), members.end(), [&](int a, int b) {
        return p.contribs[static_cast<std::size_t>(a)].key <
               p.contribs[static_cast<std::size_t>(b)].key;
      });
      children_.push_back(std::make_unique<Communicator>(
          *eng_, static_cast<int>(members.size()), hop_latency_));
      Communicator* sub = children_.back().get();
      for (std::size_t i = 0; i < members.size(); ++i) {
        p.split_comm_of_rank[static_cast<std::size_t>(members[i])] = sub;
        p.split_rank_of_rank[static_cast<std::size_t>(members[i])] =
            static_cast<int>(i);
      }
    }
    p.done->trigger();
  } else {
    co_await p.done->wait();
  }
  Pending& done_p = pending_.at(seq);
  SplitResult result{done_p.split_comm_of_rank[static_cast<std::size_t>(rank)],
                     done_p.split_rank_of_rank[static_cast<std::size_t>(rank)]};
  if (++done_p.consumed == size_) pending_.erase(seq);
  co_await eng_->delay(collective_latency());
  co_return result;
}

}  // namespace pfsc::mpi
