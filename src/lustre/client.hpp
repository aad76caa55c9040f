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
  struct Call;
  struct Extent;

  /// Which role a record's next wake plays.
  enum class Phase : std::uint8_t {
    start,      // batch member: its start wakeup issues it
    rpc,        // the RPC's start: take a free slot or queue for one
    queued,     // parked for a slot: the wake is the slot hand-off
    join_wait,  // the join waits for the lowest part still out
    join_due,   // the join's wakeup is scheduled
  };

  /// One bulk RPC. Until it holds an rpc slot it is this record (in the
  /// engine's queue, then in rpc_slots_' FIFO); only then does a serve()
  /// frame exist for it. An extent that maps to one RPC is its own RPC;
  /// any other extent keeps its RPCs as a side array of Parts.
  struct Rpc : sim::Wakeable {
    ObjectId object = 0;
    Bytes object_offset = 0;
    Bytes bytes = 0;  // an Extent: its length, which its one RPC moves
    std::uint64_t span = 0;  // trace span id, 0 when untraced
    OstIndex ost = 0;
    Phase phase = Phase::start;
    bool done = false;  // set by the join this record is a child of
    bool part = false;  // a Part, not an Extent

    /// The extent this RPC moves part or all of.
    Extent& owner();
    /// RPC start: take a free slot or queue for one. A queued RPC's wake
    /// is the slot hand-off.
    void wake() override;

   protected:
    ~Rpc() = default;
  };

  /// One RPC of an extent that needs several.
  struct Part final : Rpc {
    Extent* extent = nullptr;
  };

  /// One extent (what one write()/read() moves) as a record. It plays
  /// every role of its life on the wakeups the engine delivers to it:
  /// its start (a batch member), its RPC's start and slot hand-off (a
  /// one-RPC extent), and the in-order join of its RPCs and the commit
  /// once they are all back. A one-child join is "on the reply, wake the
  /// joiner at now()", so a one-RPC extent schedules itself. io() keeps
  /// one in its frame; io_extents() keeps one per extent.
  struct Extent final : Rpc {
    Call* call = nullptr;
    Bytes offset = 0;
    std::unique_ptr<Part[]> parts;  // the RPCs of a multi-RPC extent
    std::uint32_t count = 0;  // parts' size; 0 for a one-RPC extent
    std::uint32_t next = 0;   // the first part the join still waits for
    std::uint32_t index = 0;  // position in the batch's join
    Errno err = Errno::ok;

    /// Validate and issue the RPCs (one start wakeup each); false when
    /// the extent finished without any, `err` saying how.
    bool issue();
    /// `rpc` is back: a one-RPC extent schedules its join, a multi-RPC
    /// one when the join waits for that part.
    void rpc_done(Rpc& rpc);
    /// The RPCs are back: on success record what was moved.
    void commit();
    /// Hand the extent's end to io()'s frame or the batch's join.
    void finish();
    void wake() override;
  };

  /// What every extent of one io() or io_extents() call shares; it lives
  /// in that call's frame.
  struct Call {
    Client* client = nullptr;
    InodeId file = kNoInode;
    bool is_write = false;
    Inode* node = nullptr;  // resolved when the first extent starts
    sim::Wakeup waiter;  // io(): its frame, resumed once the extent is back
  };

  /// io_extents(): its members join in list order.
  struct Batch final : Call {
    sim::OrderedJoin<Extent> join;
    Errno err = Errno::ok;
  };

  sim::Co<Errno> io(InodeId file, Bytes offset, Bytes length, bool is_write);
  /// An RPC's service, from slot to reply; the frame lives only this long.
  sim::Task serve(Rpc* rpc);
  void begin_span(Rpc& rpc, bool is_write);
  void end_span(const Rpc& rpc, bool is_write);
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
