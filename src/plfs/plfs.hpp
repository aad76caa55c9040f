// PLFS: the Parallel Log-structured File System (Bent et al., SC'09),
// reimplemented on top of the simulated Lustre file system.
//
// PLFS turns an N-processes-to-1-file write pattern into N-to-N: a logical
// file is a *container* directory holding hashed subdirectories, and every
// writing rank appends to its own data log (data.<rank>) plus an index log
// (index.<rank>) of (logical offset, length, physical offset, timestamp)
// records. Readers merge all index logs into one logical->physical map.
//
// Because each backend file is created through POSIX with the file-system
// default layout (2 x 1 MiB stripes on lscratchc), a run with n ranks
// scatters 2n stripes over the OSTs — the self-contention that Section VI
// of the paper quantifies with Equations 5-6.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "lustre/client.hpp"
#include "lustre/fs.hpp"
#include "trace/recorder.hpp"

namespace pfsc::plfs {

struct PlfsParams {
  /// Number of hashed hostdir.N subdirectories per container.
  std::uint32_t num_hash_dirs = 32;
  /// On-disk footprint of one index record.
  Bytes index_record_bytes = 48;
  /// Write-behind: flush the index log every this many records (and at close).
  std::uint32_t index_flush_records = 64;
  /// Layout for backend data/index files; zeros = file-system default,
  /// which is the paper's "two 1 MB stripes per file" situation.
  lustre::StripeSettings backend_stripe{};
  /// Client-side cost of one plfs_write call (container/index bookkeeping,
  /// droppings maintenance, extra copy through the PLFS layer). Calibrated
  /// against the small-scale points of the paper's Table VII, where PLFS
  /// ranks sustain ~50 MB/s each despite idle OSTs.
  Seconds write_overhead = 18.0e-3;
};

struct IndexRecord {
  Bytes logical_offset = 0;
  Bytes length = 0;
  Bytes physical_offset = 0;
  int writer_rank = -1;
  double timestamp = 0.0;  // simulated seconds; later wins on overlap
};

/// Per-rank write-side state for one open container.
struct WriteHandle {
  std::string container;
  int rank = -1;
  lustre::InodeId data_file = lustre::kNoInode;
  lustre::InodeId index_file = lustre::kNoInode;
  Bytes data_cursor = 0;   // log-structured append position
  Bytes index_cursor = 0;  // append position in the index log
  std::vector<IndexRecord> pending_index;  // buffered, not yet flushed
  std::vector<IndexRecord> all_records;    // everything written this session
  bool open = false;
};

/// Read-side state: the merged logical->physical map.
class ReadHandle {
 public:
  struct Mapping {
    Bytes logical = 0;
    Bytes length = 0;
    Bytes physical = 0;
    lustre::InodeId data_file = lustre::kNoInode;
  };

  /// Splice `rec` into the map; `rec` wins over earlier-timestamped data.
  void splice(const IndexRecord& rec, lustre::InodeId data_file);

  /// Resolve [offset, offset+length) into physical runs. Returns false if
  /// any byte is unmapped (hole).
  bool resolve(Bytes offset, Bytes length, std::vector<Mapping>& out) const;

  Bytes logical_size() const;

 private:
  struct Entry {
    Bytes end = 0;  // exclusive logical end
    Bytes physical = 0;
    lustre::InodeId data_file = lustre::kNoInode;
    double timestamp = 0.0;
  };
  std::map<Bytes, Entry> map_;  // logical start -> entry (non-overlapping)
};

class Plfs {
 public:
  explicit Plfs(lustre::FileSystem& fs, PlfsParams params = {});

  Plfs(const Plfs&) = delete;
  Plfs& operator=(const Plfs&) = delete;

  // -- write path --------------------------------------------------------
  sim::Co<lustre::Result<WriteHandle>> open_write(lustre::Client& client,
                                                  std::string logical_path,
                                                  int rank);
  sim::Co<lustre::Errno> write(lustre::Client& client, WriteHandle& h,
                               Bytes logical_offset, Bytes length);
  sim::Co<lustre::Errno> close_write(lustre::Client& client, WriteHandle& h);

  // -- read path ---------------------------------------------------------
  sim::Co<lustre::Result<ReadHandle>> open_read(lustre::Client& client,
                                                std::string logical_path);
  sim::Co<lustre::Errno> read(lustre::Client& client, ReadHandle& h,
                              Bytes logical_offset, Bytes length);

  // -- inspection ---------------------------------------------------------
  bool is_container(std::string_view logical_path) const;
  /// Backend data-file inodes of a container (for collision statistics).
  std::vector<lustre::InodeId> backend_data_files(
      std::string_view logical_path) const;
  const PlfsParams& params() const { return params_; }

  static std::string hashdir_name(int rank, std::uint32_t num_dirs);

 private:
  sim::Co<lustre::Errno> ensure_container(lustre::Client& client,
                                          const std::string& logical_path,
                                          int rank);
  sim::Co<lustre::Errno> flush_index(lustre::Client& client, WriteHandle& h);

  lustre::FileSystem* fs_;
  PlfsParams params_;
  trace::TrackHandle track_;  // shared "plfs" track (args carry the rank)
  /// Shadow of flushed index contents, keyed (container, rank). The
  /// simulator does not store payload bytes, so readers reconstruct the
  /// logical map from this shadow after paying the simulated cost of
  /// reading the index logs.
  std::map<std::string, std::map<int, std::vector<IndexRecord>>> shadow_index_;
  std::map<std::string, std::map<int, lustre::InodeId>> shadow_data_files_;
};

}  // namespace pfsc::plfs
