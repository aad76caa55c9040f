#include "mpiio/file.hpp"

#include <algorithm>

namespace pfsc::mpiio {

File::File(mpi::Communicator& comm, lustre::FileSystem& fs, std::string path,
           Hints hints, plfs::Plfs* plfs)
    : comm_(&comm), fs_(&fs), driver_(make_driver(hints)), all_drained_(comm.engine()) {
  ctx_.path = std::move(path);
  ctx_.hints = hints;
  ctx_.nprocs = comm.size();
  ctx_.fs = &fs;
  ctx_.plfs = plfs;
  if (hints.driver == Driver::ad_plfs) {
    PFSC_REQUIRE(plfs != nullptr, "File: ad_plfs requires a PLFS instance");
  }
  clients_.assign(static_cast<std::size_t>(comm.size()), nullptr);
  next_seq_.assign(static_cast<std::size_t>(comm.size()), 0);
}

lustre::Client& File::client_of(int rank) {
  PFSC_REQUIRE(rank >= 0 && rank < comm_->size(), "File: bad rank");
  lustre::Client* c = clients_[static_cast<std::size_t>(rank)];
  PFSC_REQUIRE(c != nullptr, "File: rank has not opened the file");
  return *c;
}

void File::merge_err(CollState& st, Errno e) {
  if (st.err == Errno::ok) st.err = e;
}

File::CollState& File::state_for(int rank, std::uint64_t& seq_out) {
  PFSC_REQUIRE(rank >= 0 && rank < comm_->size(), "File: bad rank");
  seq_out = next_seq_[static_cast<std::size_t>(rank)]++;
  CollState& st = coll_[seq_out];
  if (!st.done) st.done = std::make_unique<sim::Event>(comm_->engine());
  return st;
}

sim::Co<Errno> File::finish(std::uint64_t seq) {
  CollState& st = coll_.at(seq);
  if (!st.done->fired()) co_await st.done->wait();
  const Errno err = st.err;
  if (++st.consumed == comm_->size()) coll_.erase(seq);
  co_return err;
}

sim::Co<Errno> File::open(int rank, lustre::Client& client, bool create) {
  PFSC_REQUIRE(rank >= 0 && rank < comm_->size(), "File::open: bad rank");
  clients_[static_cast<std::size_t>(rank)] = &client;

  std::uint64_t seq = 0;
  CollState& st = state_for(rank, seq);
  ++st.arrived;

  if (rank == 0) {
    // Rank 0 creates/opens first so the file exists for everybody else.
    merge_err(st, co_await driver_->open_rank(client, ctx_, 0, create));
    opened_ = true;
    st.done->trigger();
  } else {
    if (!st.done->fired()) co_await st.done->wait();
    merge_err(st, co_await driver_->open_rank(client, ctx_, rank, create));
  }
  // Wait for every rank to have opened (MPI_File_open is collective).
  co_await comm_->barrier(rank);
  const Errno err = coll_.at(seq).err;
  if (++coll_.at(seq).consumed == comm_->size()) coll_.erase(seq);
  co_return err;
}

sim::Co<Errno> File::write_at(int rank, Bytes offset, Bytes length) {
  co_return co_await driver_->write_independent(client_of(rank), ctx_, rank,
                                                offset, length);
}

sim::Co<Errno> File::read_at(int rank, Bytes offset, Bytes length) {
  if (const Errno e = co_await flush(); e != Errno::ok) co_return e;
  co_return co_await driver_->read_independent(client_of(rank), ctx_, rank,
                                               offset, length);
}

sim::Resource& File::dirty_slots(int agg_rank) {
  auto it = dirty_.find(agg_rank);
  if (it == dirty_.end()) {
    const Bytes window = std::max<Bytes>(ctx_.hints.dirty_window,
                                         ctx_.hints.cb_buffer_size);
    const std::size_t rounds =
        static_cast<std::size_t>(window / ctx_.hints.cb_buffer_size);
    it = dirty_
             .emplace(agg_rank, std::make_unique<sim::Resource>(
                                    comm_->engine(), std::max<std::size_t>(1, rounds)))
             .first;
  }
  return *it->second;
}

sim::Task File::drain_round(lustre::Client& client, Round round,
                            sim::Resource* dirty) {
  const Errno e = co_await driver_->write_run(client, ctx_, round.extents);
  if (e != Errno::ok && async_err_ == Errno::ok) async_err_ = e;
  if (dirty != nullptr) dirty->release();
  PFSC_ASSERT(outstanding_drains_ > 0);
  if (--outstanding_drains_ == 0) all_drained_.trigger();
}

sim::Task File::aggregator_task(AggregatorPlan plan, CollState* st,
                                bool is_write) {
  lustre::Client& c = client_of(plan.agg_rank);
  const bool write_behind = is_write && ctx_.hints.dirty_window > 0;
  // The phase-1 shuffle (ranks -> collective buffer) is not charged to the
  // aggregator's process pipe: the memcpy into the buffer overlaps the RPC
  // DMA out of it, and the compute interconnect it crosses is far wider
  // than the I/O path. The drain below pays the per-process ceiling.
  for (Round& round : plan.rounds) {
    Errno e = Errno::ok;
    if (is_write) {
      if (write_behind) {
        // Claim dirty budget; the drain happens asynchronously (client
        // write-back): the collective completes once every round is
        // buffered.
        sim::Resource& dirty = dirty_slots(plan.agg_rank);
        co_await dirty.acquire();
        if (outstanding_drains_++ == 0) all_drained_.reset();
        comm_->engine().spawn(drain_round(c, std::move(round), &dirty));
      } else {
        e = co_await driver_->write_run(c, ctx_, round.extents);
      }
    } else {
      e = co_await driver_->read_run(c, ctx_, round.extents);
    }
    if (e != Errno::ok) {
      merge_err(*st, e);
      break;
    }
  }
  co_return;
}

sim::Co<Errno> File::flush() {
  // Many ranks may flush concurrently; all wait for the drain count to
  // reach zero (new drains re-arm the event, so loop until quiescent).
  while (outstanding_drains_ > 0) co_await all_drained_.wait();
  const Errno e = async_err_;
  async_err_ = Errno::ok;
  co_return e;
}

sim::Task File::orchestrate(std::vector<AggregatorPlan> plans, CollState* st,
                            bool is_write) {
  std::vector<sim::Task> tasks;
  tasks.reserve(plans.size());
  for (auto& plan : plans) {
    sim::Task t = aggregator_task(std::move(plan), st, is_write);
    comm_->engine().spawn(t);
    tasks.push_back(std::move(t));
  }
  co_await sim::join_all(std::move(tasks));
  st->done->trigger();
}

sim::Co<Errno> File::collective_io(int rank, Bytes offset, Bytes length,
                                   bool is_write) {
  if (!is_write) {
    if (const Errno e = co_await flush(); e != Errno::ok) co_return e;
  }
  const bool use_two_phase = driver_->two_phase_capable() &&
                             (is_write ? ctx_.hints.romio_cb_write
                                       : ctx_.hints.romio_cb_read);
  if (!use_two_phase) {
    // Without aggregation each rank's transport is independent (ad_plfs
    // appends to its own log; ROMIO with cb disabled does the same).
    // MPI_File_*_all makes no synchronisation guarantee, so no rendezvous.
    co_return is_write ? co_await driver_->write_independent(
                             client_of(rank), ctx_, rank, offset, length)
                       : co_await driver_->read_independent(
                             client_of(rank), ctx_, rank, offset, length);
  }

  std::uint64_t seq = 0;
  CollState& st = state_for(rank, seq);
  if (st.reqs.empty()) st.reqs.reserve(static_cast<std::size_t>(comm_->size()));
  st.reqs.push_back(IoRequest{rank, offset, length});
  if (++st.arrived == comm_->size()) {
    auto aggs = choose_aggregators(
        [&] {
          std::vector<const void*> keys;
          keys.reserve(clients_.size());
          for (auto* c : clients_) {
            keys.push_back(c != nullptr ? c->node_key() : nullptr);
          }
          return keys;
        }(),
        ctx_.hints.cb_nodes);
    // ad_lustre (alignment = stripe size) uses group-cyclic file domains;
    // the generic driver falls back to contiguous block domains.
    const Bytes align = driver_->domain_alignment(ctx_);
    auto plans = align > 0
                     ? plan_two_phase_cyclic(st.reqs, aggs,
                                             ctx_.hints.cb_buffer_size, align)
                     : plan_two_phase(st.reqs, aggs, ctx_.hints.cb_buffer_size,
                                      ctx_.hints.cb_buffer_size);
    if (plans.empty()) {
      st.done->trigger();
    } else {
      comm_->engine().spawn(orchestrate(std::move(plans), &st, is_write));
    }
  }
  co_return co_await finish(seq);
}

// Plain forwarders, not coroutines: Co is lazy, so returning the inner Co
// runs exactly what `co_return co_await collective_io(...)` would.
sim::Co<Errno> File::write_at_all(int rank, Bytes offset, Bytes length) {
  return collective_io(rank, offset, length, /*is_write=*/true);
}

sim::Co<Errno> File::read_at_all(int rank, Bytes offset, Bytes length) {
  return collective_io(rank, offset, length, /*is_write=*/false);
}

sim::Co<Errno> File::close(int rank) {
  std::uint64_t seq = 0;
  (void)state_for(rank, seq);  // allocate this close's collective slot
  // Flush write-behind data first (close has sync semantics), then run the
  // driver's per-rank close.
  Errno e = co_await flush();
  const Errno ce = co_await driver_->close_rank(client_of(rank), ctx_, rank);
  if (e == Errno::ok) e = ce;
  CollState& st2 = coll_.at(seq);
  merge_err(st2, e);
  if (++st2.arrived == comm_->size()) st2.done->trigger();
  co_return co_await finish(seq);
}

}  // namespace pfsc::mpiio
