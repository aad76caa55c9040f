// Lustre client: the per-process data path.
//
// A Client owns the process-local I/O ceiling (one core's worth of memcpy +
// RPC stack) and optionally shares a node NIC link with the other clients
// on its node. write()/read() decompose an extent into per-object bulk RPCs
// (capped at max_rpc_size) and pipeline them with at most
// `client_max_rpcs_in_flight` outstanding, each flowing
//
//   process link -> node NIC -> fabric -> OSS link -> OST disk
//
// which is where every bandwidth effect in the paper's experiments arises.
// Every hop is a sim::LinkModel, so the platform's link_policy decides
// whether concurrent RPCs queue (FIFO) or share capacity (fair-share).
#pragma once

#include <memory>
#include <string>

#include "lustre/fs.hpp"

namespace pfsc::lustre {

class Client {
 public:
  /// `node_nic` may be shared by several clients (one per node); pass
  /// nullptr for a client with no node-level bottleneck.
  Client(FileSystem& fs, std::string name, sim::LinkModel* node_nic = nullptr);

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // -- namespace (forwarded to the MDS) ---------------------------------
  sim::Co<Result<InodeId>> create(std::string path, StripeSettings settings);
  sim::Co<Result<InodeId>> open(std::string path);
  sim::Co<Result<InodeId>> mkdir(std::string path);
  sim::Co<Errno> unlink(std::string path);

  // -- data --------------------------------------------------------------
  sim::Co<Errno> write(InodeId file, Bytes offset, Bytes length);
  sim::Co<Errno> read(InodeId file, Bytes offset, Bytes length);

  /// Move every (offset, length) extent of `file` concurrently, as if each
  /// were its own spawned write()/read() joined in list order (the client's
  /// RPC window bounds what is in flight); returns the first error in
  /// completion order.
  sim::Co<Errno> io_extents(InodeId file,
                            const std::vector<std::pair<Bytes, Bytes>>& extents,
                            bool is_write);

  /// Buffered (page-cache) write: returns once the data is accepted into
  /// the client's write-back budget; the transfer to the servers continues
  /// asynchronously. Errors surface at the next flush(). This is how POSIX
  /// buffered writes behave on a Lustre client.
  sim::Co<Errno> write_buffered(InodeId file, Bytes offset, Bytes length);

  /// Wait for all buffered writes to reach the servers; returns the first
  /// asynchronous error, if any (fsync semantics).
  sim::Co<Errno> flush();

  /// Tag this client's RPCs as belonging to `job` (OSS schedulers account
  /// and arbitrate per JobId). Untagged clients are job 0.
  void set_job(sched::JobId job) { job_ = job; }
  sched::JobId job() const { return job_; }

  const std::string& name() const { return name_; }
  Bytes bytes_written() const { return bytes_written_; }
  Bytes bytes_read() const { return bytes_read_; }
  FileSystem& fs() { return *fs_; }
  /// Identity of this client's node (clients sharing a NIC share a node).
  const void* node_key() const { return node_nic_; }

  /// Run-end invariant "every RPC completes, nothing left parked": throws
  /// SimulationError naming this client if an RPC still holds an rpc slot
  /// or waits for one, or a buffered write is still draining.
  void check_quiescent() const;

 private:
  struct Extent;

  /// One bulk RPC. Until it holds an rpc slot it is this record (in the
  /// engine's queue, then in rpc_slots_' FIFO); only then does a serve()
  /// frame exist for it.
  struct Rpc final : sim::Wakeable {
    Extent* extent = nullptr;
    std::uint32_t index = 0;  // position in the extent's join
    OstIndex ost = 0;
    ObjectId object = 0;
    Bytes object_offset = 0;
    Bytes bytes = 0;
    std::uint64_t span = 0;  // trace span id, 0 when untraced
    bool queued = false;     // parked for a slot: the next wake holds one
    bool done = false;       // set by the extent's join

    /// First wake: the RPC starts and takes a free slot or queues for
    /// one. A queued RPC's wake is the slot hand-off.
    void wake() override;
  };

  struct Batch;

  /// One extent (what one write()/read() moves) as a record: its RPCs,
  /// their in-order join and the commit once they are all back. io()
  /// keeps one in its frame; io_extents() keeps one per extent.
  struct Extent final : sim::Wakeable {
    Client* client = nullptr;
    InodeId file = kNoInode;
    Bytes offset = 0;
    Bytes length = 0;
    bool is_write = false;
    bool issued = false;  // batch member: its start wakeup has run
    bool done = false;  // set by the batch's join
    Errno err = Errno::ok;
    Inode* node = nullptr;
    Rpc one;                      // the RPC of a one-RPC extent
    std::unique_ptr<Rpc[]> many;  // the RPCs of any other extent
    sim::OrderedJoin<Rpc> rpcs;
    Batch* batch = nullptr;  // io_extents() members only
    std::uint32_t index = 0;  // position in the batch's join

    void init(Client& c, InodeId f, Bytes off, Bytes len, bool write);
    /// Validate and issue the RPCs (one start wakeup each); false when
    /// the extent finished without any, `err` saying how.
    bool issue();
    /// The RPCs are back: on success record what was moved.
    void commit();
    /// Batch member: the first wake issues, the joined RPCs' wake commits
    /// and reports to the batch.
    void wake() override;
  };

  struct Batch {
    sim::OrderedJoin<Extent> join;
    Errno err = Errno::ok;
  };

  sim::Co<Errno> io(InodeId file, Bytes offset, Bytes length, bool is_write);
  /// An RPC's service, from slot to reply; the frame lives only this long.
  sim::Task serve(Rpc* rpc);
  void begin_span(Rpc& rpc);
  void end_span(const Rpc& rpc);
  sim::Task drain_buffered(InodeId file, Bytes offset, Bytes length);

  FileSystem* fs_;
  sim::Engine* eng_;
  std::string name_;
  std::string trace_label_;    // "client.<name>"
  trace::TrackHandle track_;
  std::unique_ptr<sim::LinkModel> proc_pipe_;
  sim::LinkModel* node_nic_;
  sim::Resource rpc_slots_;
  sched::JobId job_ = sched::kDefaultJob;
  Bytes bytes_written_ = 0;
  Bytes bytes_read_ = 0;

  // Write-back state for write_buffered()/flush().
  Bytes dirty_bytes_ = 0;
  std::size_t outstanding_buffered_ = 0;
  sim::Condition writeback_space_;
  sim::Event writeback_idle_;
  Errno async_err_ = Errno::ok;
};

}  // namespace pfsc::lustre
