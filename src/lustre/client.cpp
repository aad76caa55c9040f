#include "lustre/client.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <string>

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
  return fs_->create(std::move(path), settings);
}
sim::Co<Result<InodeId>> Client::open(std::string path) {
  return fs_->open(std::move(path));
}
sim::Co<Result<InodeId>> Client::mkdir(std::string path) {
  return fs_->mkdir(std::move(path));
}
sim::Co<Errno> Client::unlink(std::string path) {
  return fs_->unlink(std::move(path));
}

void Client::begin_span(Rpc& rpc, bool is_write) {
  // Async span per RPC on this client's track, issue -> completion; the
  // layers underneath (link flows, scheduler wait, disk service) emit
  // their own spans, so the lifecycle stages line up in the viewer.
  if (auto* rec = eng_->recorder();
      rec != nullptr && rec->enabled(trace::Cat::client)) {
    rpc.span = rec->next_id();
    rec->begin(trace::Cat::client, track_.get(*rec, trace_label_),
               is_write ? "write_rpc" : "read_rpc", eng_->now(),
               rpc.span, static_cast<std::int64_t>(job_),
               static_cast<std::int64_t>(rpc.ost),
               static_cast<double>(rpc.bytes));
  }
}

void Client::end_span(const Rpc& rpc, bool is_write) {
  if (rpc.span == 0) return;
  if (auto* rec = eng_->recorder();
      rec != nullptr && rec->enabled(trace::Cat::client)) {
    rec->end(trace::Cat::client, track_.get(*rec, trace_label_),
             is_write ? "write_rpc" : "read_rpc", eng_->now(),
             rpc.span, static_cast<std::int64_t>(job_),
             static_cast<std::int64_t>(rpc.ost));
  }
}

Client::Extent& Client::Rpc::owner() {
  return part ? *static_cast<Part*>(this)->extent : static_cast<Extent&>(*this);
}

void Client::Rpc::wake() {
  const Call& call = *owner().call;
  Client& c = *call.client;
  if (phase != Phase::queued) {
    c.begin_span(*this, call.is_write);
    if (!c.rpc_slots_.acquire_or_queue(*this)) {
      phase = Phase::queued;
      return;
    }
  }
  c.eng_->start(c.serve(this));
}

sim::Task Client::serve(Rpc* rpc) {
  Extent& x = rpc->owner();
  if (fs_->ost_failed(rpc->ost)) {
    if (x.err == Errno::ok) x.err = Errno::eio;
  } else {
    // Every hop is an awaiter in this frame: one frame per RPC. The
    // client-side hops share one co_await, so the frame holds one
    // Transfer for them.
    const Bytes bytes = rpc->bytes;
    sim::LinkModel* const hops[] = {proc_pipe_.get(), node_nic_, &fs_->fabric()};
    for (sim::LinkModel* link : hops) {
      if (link != nullptr) co_await link->transfer(bytes);
    }
    // The server half: request hop, scheduler admission, OSS pipe, disk
    // service, completion, reply hop.
    const Seconds hop = fs_->params().rpc_latency;
    co_await eng_->delay(hop);
    sched::Scheduler& sched = fs_->sched_for_ost(rpc->ost);
    co_await sched.admit(job_, bytes);
    co_await fs_->oss_pipe_for_ost(rpc->ost).transfer(bytes);
    co_await fs_->ost_disk(rpc->ost).submit(rpc->object, rpc->object_offset,
                                            bytes, x.call->is_write);
    sched.complete(job_, bytes);
    co_await eng_->delay(hop);
    if (fs_->ost_failed(rpc->ost) && x.err == Errno::ok) x.err = Errno::eio;
  }
  rpc_slots_.release();
  end_span(*rpc, x.call->is_write);
  x.rpc_done(*rpc);
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

bool Client::Extent::issue() {
  Call& k = *call;
  const Bytes length = bytes;
  if (length == 0 && k.is_write) return false;
  Client& c = *k.client;
  if (k.node == nullptr) k.node = &c.fs_->inode(k.file);
  const Inode& node = *k.node;
  // Reading past EOF is an error for the simulated apps (they always read
  // back what was written); holes inside the file read as zeros.
  if (!k.is_write && !node.is_dir && offset + length > node.size) {
    err = Errno::einval;
    return false;
  }
  if (length == 0) return false;
  if (node.is_dir) {
    err = Errno::eisdir;
    return false;
  }
  PFSC_REQUIRE(!node.layout.osts.empty(), "io: file has no layout");

  const StripeLayout& layout = node.layout;
  const Bytes max_rpc = c.fs_->params().max_rpc_size;
  const LayoutSegment first = locate(layout, offset);
  if (length <= first.length && length <= max_rpc) {
    // One stripe, one RPC (every RPC of a stripe-aligned transfer): this
    // record is the RPC; no segments() or side array.
    ost = layout.osts[first.layout_index];
    object = layout.objects[first.layout_index];
    object_offset = first.object_offset;
    phase = Phase::rpc;
    c.eng_->schedule(*this, c.eng_->now());
    return true;
  }
  // Split each per-object run into bulk RPCs of at most max_rpc_size.
  const std::vector<LayoutSegment> segs = segments(layout, offset, length);
  std::size_t n = 0;
  for (const LayoutSegment& seg : segs) {
    n += static_cast<std::size_t>((seg.length + max_rpc - 1) / max_rpc);
  }
  parts = std::make_unique<Part[]>(n);
  count = static_cast<std::uint32_t>(n);
  std::size_t i = 0;
  for (const LayoutSegment& seg : segs) {
    for (Bytes done_bytes = 0; done_bytes < seg.length; done_bytes += max_rpc) {
      Part& p = parts[i++];
      p.ost = layout.osts[seg.layout_index];
      p.object = layout.objects[seg.layout_index];
      p.object_offset = seg.object_offset + done_bytes;
      p.bytes = std::min<Bytes>(max_rpc, seg.length - done_bytes);
      p.phase = Phase::rpc;
      p.part = true;
      p.extent = this;
      c.eng_->schedule(p, c.eng_->now());
    }
  }
  phase = Phase::join_wait;
  return true;
}

void Client::Extent::rpc_done(Rpc& rpc) {
  // An OrderedJoin of the RPCs: the joiner waits on the lowest part still
  // out and is scheduled at now() when that part is back.
  if (count != 0) {
    rpc.done = true;
    if (phase != Phase::join_wait ||
        static_cast<Part*>(&rpc) != &parts[next]) {
      return;
    }
  }
  phase = Phase::join_due;
  sim::Engine& eng = *call->client->eng_;
  eng.schedule(*this, eng.now());
}

void Client::Extent::commit() {
  if (err != Errno::ok) return;
  Call& k = *call;
  if (k.is_write) {
    k.node->written.insert(offset, bytes);
    k.node->size = std::max(k.node->size, offset + bytes);
    k.client->bytes_written_ += bytes;
  } else {
    k.client->bytes_read_ += bytes;
  }
}

void Client::Extent::finish() {
  if (call->waiter) {
    call->waiter();  // io()'s frame: it may free this record
    return;
  }
  Batch& batch = static_cast<Batch&>(*call);
  if (err != Errno::ok && batch.err == Errno::ok) batch.err = err;
  batch.join.child_done(index);
}

void Client::Extent::wake() {
  switch (phase) {
    case Phase::start:
      if (issue()) return;  // its RPCs wake this record again
      break;
    case Phase::rpc:
    case Phase::queued:
      Rpc::wake();
      return;
    case Phase::join_wait:
    case Phase::join_due:
      while (next < count && parts[next].done) ++next;
      if (next < count) {
        phase = Phase::join_wait;
        return;
      }
      commit();
      break;
  }
  finish();
}

sim::Co<Errno> Client::io(InodeId file, Bytes offset, Bytes length, bool is_write) {
  // The records live in this frame, which outlives the RPCs: the extent
  // resumes it only once every one of them is back.
  Call call;
  call.client = this;
  call.file = file;
  call.is_write = is_write;
  Extent x;
  x.call = &call;
  x.offset = offset;
  x.bytes = length;
  if (x.issue()) {
    struct Await {
      Call& call;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) noexcept { call.waiter = h; }
      void await_resume() const noexcept {}
    };
    co_await Await{call};
  }
  co_return x.err;
}

sim::Co<Errno> Client::io_extents(
    InodeId file, const std::vector<std::pair<Bytes, Bytes>>& extents,
    bool is_write) {
  if (extents.empty()) co_return Errno::ok;
  // Each extent starts on its own wakeup, like a spawned task, and the
  // batch joins them in list order; their records live in this frame.
  Batch batch;
  batch.client = this;
  batch.file = file;
  batch.is_write = is_write;
  std::vector<Extent> records(extents.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    Extent& x = records[i];
    x.call = &batch;
    x.offset = extents[i].first;
    x.bytes = extents[i].second;
    x.index = static_cast<std::uint32_t>(i);
    eng_->schedule(x, eng_->now());
  }
  batch.join.arm(*eng_, std::span<Extent>(records));
  co_await batch.join;
  co_return batch.err;
}

void Client::check_quiescent() const {
  const std::size_t held = rpc_slots_.capacity() - rpc_slots_.available();
  const std::size_t queued = rpc_slots_.queue_length();
  if (held == 0 && queued == 0 && outstanding_buffered_ == 0) return;
  throw SimulationError(
      "client " + name_ + " is not quiescent at run end: " +
      std::to_string(held) + " rpc slot(s) held, " + std::to_string(queued) +
      " RPC(s) queued for a slot, " + std::to_string(outstanding_buffered_) +
      " buffered write(s) draining");
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
