#include "lustre/client.hpp"

#include <algorithm>

namespace pfsc::lustre {

Client::Client(FileSystem& fs, std::string name, sim::LinkModel* node_nic)
    : fs_(&fs),
      eng_(&fs.engine()),
      name_(std::move(name)),
      trace_label_("client." + name_),
      proc_pipe_(sim::make_link(fs.engine(), fs.params().link_policy,
                                fs.params().per_process_bw)),
      node_nic_(node_nic),
      rpc_slots_(fs.engine(), fs.params().client_max_rpcs_in_flight),
      writeback_space_(fs.engine()),
      writeback_idle_(fs.engine()) {
  proc_pipe_->set_trace_label("pipe." + name_);
}

sim::Co<Result<InodeId>> Client::create(std::string path, StripeSettings settings) {
  co_return co_await fs_->create(std::move(path), settings);
}
sim::Co<Result<InodeId>> Client::open(std::string path) {
  co_return co_await fs_->open(std::move(path));
}
sim::Co<Result<InodeId>> Client::mkdir(std::string path) {
  co_return co_await fs_->mkdir(std::move(path));
}
sim::Co<Errno> Client::unlink(std::string path) {
  co_return co_await fs_->unlink(std::move(path));
}

sim::Task Client::rpc(OstIndex ost, ObjectId object, Bytes object_offset,
                      Bytes bytes, bool is_write, IoState* state) {
  // Async span per RPC on this client's track, issue -> completion; the
  // layers underneath (link flows, scheduler wait, disk service) emit
  // their own spans, so the lifecycle stages line up in the viewer.
  std::uint64_t span = 0;
  if (auto* rec = eng_->recorder();
      rec != nullptr && rec->enabled(trace::Cat::client)) {
    span = rec->next_id();
    rec->begin(trace::Cat::client, track_.get(*rec, trace_label_),
               is_write ? "write_rpc" : "read_rpc", eng_->now(), span,
               static_cast<std::int64_t>(job_), static_cast<std::int64_t>(ost),
               static_cast<double>(bytes));
  }
  const auto end_span = [&] {
    if (span == 0) return;
    if (auto* rec = eng_->recorder();
        rec != nullptr && rec->enabled(trace::Cat::client)) {
      rec->end(trace::Cat::client, track_.get(*rec, trace_label_),
               is_write ? "write_rpc" : "read_rpc", eng_->now(), span,
               static_cast<std::int64_t>(job_),
               static_cast<std::int64_t>(ost));
    }
  };
  co_await rpc_slots_.acquire();
  if (fs_->ost_failed(ost)) {
    if (state->err == Errno::ok) state->err = Errno::eio;
    rpc_slots_.release();
    end_span();
    co_return;
  }
  co_await proc_pipe_->transfer(bytes);
  if (node_nic_ != nullptr) co_await node_nic_->transfer(bytes);
  co_await fs_->fabric().transfer(bytes);
  // The server half — request hop, scheduler admission, OSS pipe, disk
  // service, reply hop — lives in the FileSystem so sharded runs can
  // execute it on the OSS's own domain.
  co_await fs_->oss_round_trip(job_, ost, object, object_offset, bytes,
                               is_write);
  if (fs_->ost_failed(ost) && state->err == Errno::ok) state->err = Errno::eio;
  rpc_slots_.release();
  end_span();
}

sim::Co<void> Client::local_copy(Bytes bytes) {
  if (bytes > 0) co_await proc_pipe_->transfer(bytes);
}

sim::Task Client::drain_buffered(InodeId file, Bytes offset, Bytes length) {
  const Errno e = co_await io(file, offset, length, /*is_write=*/true);
  if (e != Errno::ok && async_err_ == Errno::ok) async_err_ = e;
  dirty_bytes_ -= length;
  writeback_space_.notify_all();
  PFSC_ASSERT(outstanding_buffered_ > 0);
  if (--outstanding_buffered_ == 0) writeback_idle_.trigger();
}

sim::Co<Errno> Client::write_buffered(InodeId file, Bytes offset, Bytes length) {
  if (length == 0) co_return Errno::ok;
  const Bytes budget = fs_->params().client_writeback_bytes;
  if (budget == 0) co_return co_await write(file, offset, length);
  // Admission: wait until the dirty data fits the budget (an oversized
  // single write is admitted alone, like a huge write would be).
  while (dirty_bytes_ > 0 && dirty_bytes_ + length > budget) {
    co_await writeback_space_.wait();
  }
  dirty_bytes_ += length;
  if (outstanding_buffered_++ == 0) writeback_idle_.reset();
  eng_->spawn(drain_buffered(file, offset, length));
  co_return Errno::ok;
}

sim::Co<Errno> Client::flush() {
  while (outstanding_buffered_ > 0) co_await writeback_idle_.wait();
  const Errno e = async_err_;
  async_err_ = Errno::ok;
  co_return e;
}

sim::Co<Errno> Client::io(InodeId file, Bytes offset, Bytes length, bool is_write) {
  if (length == 0 && is_write) co_return Errno::ok;
  Inode& node = fs_->inode(file);
  // Reading past EOF is an error for the simulated apps (they always read
  // back what was written); holes inside the file read as zeros.
  if (!is_write && !node.is_dir && offset + length > node.size) {
    co_return Errno::einval;
  }
  if (length == 0) co_return Errno::ok;
  if (node.is_dir) co_return Errno::eisdir;
  PFSC_REQUIRE(!node.layout.osts.empty(), "io: file has no layout");

  // The RPCs share this frame's IoState: io joins every one of them before
  // it returns (an exception aborts the whole run), so the pointer each RPC
  // holds cannot dangle.
  IoState state;
  const StripeLayout& layout = node.layout;
  const Bytes max_rpc = fs_->params().max_rpc_size;
  const LayoutSegment first = locate(layout, offset);
  if (length <= first.length && length <= max_rpc) {
    // One stripe, one RPC (every RPC of a stripe-aligned transfer): the
    // same spawn and join as the loop below, without its vectors.
    sim::Task t = rpc(layout.osts[first.layout_index],
                      layout.objects[first.layout_index], first.object_offset,
                      length, is_write, &state);
    eng_->spawn(t);
    co_await t;
  } else {
    std::vector<sim::Task> inflight;
    for (const LayoutSegment& seg : segments(layout, offset, length)) {
      // Split each per-object run into bulk RPCs of at most max_rpc_size.
      Bytes done = 0;
      while (done < seg.length) {
        const Bytes chunk = std::min<Bytes>(max_rpc, seg.length - done);
        sim::Task t = rpc(layout.osts[seg.layout_index],
                          layout.objects[seg.layout_index],
                          seg.object_offset + done, chunk, is_write, &state);
        eng_->spawn(t);
        inflight.push_back(std::move(t));
        done += chunk;
      }
    }
    co_await sim::join_all(std::move(inflight));
  }

  if (state.err != Errno::ok) co_return state.err;
  if (is_write) {
    node.written.insert(offset, length);
    node.size = std::max(node.size, offset + length);
    bytes_written_ += length;
  } else {
    bytes_read_ += length;
  }
  co_return Errno::ok;
}

// Plain forwarders, not coroutines: Co is lazy, so returning io's Co runs
// exactly what `co_return co_await io(...)` would, one frame fewer.
sim::Co<Errno> Client::write(InodeId file, Bytes offset, Bytes length) {
  return io(file, offset, length, /*is_write=*/true);
}

sim::Co<Errno> Client::read(InodeId file, Bytes offset, Bytes length) {
  return io(file, offset, length, /*is_write=*/false);
}

}  // namespace pfsc::lustre
