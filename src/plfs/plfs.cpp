#include "plfs/plfs.hpp"

#include <algorithm>

namespace pfsc::plfs {

using lustre::Errno;
using lustre::InodeId;
using lustre::Result;

// ---------------------------------------------------------------------------
// ReadHandle: logical->physical interval map with last-writer-wins splicing.
// ---------------------------------------------------------------------------

void ReadHandle::splice(const IndexRecord& rec, InodeId data_file) {
  if (rec.length == 0) return;
  Bytes start = rec.logical_offset;
  const Bytes end = rec.logical_offset + rec.length;

  // Collect existing entries overlapping [start, end).
  auto it = map_.upper_bound(start);
  if (it != map_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > start) it = prev;
  }
  std::vector<std::pair<Bytes, Entry>> survivors;
  while (it != map_.end() && it->first < end) {
    const Bytes e_start = it->first;
    const Entry e = it->second;
    it = map_.erase(it);
    if (e.timestamp > rec.timestamp) {
      // Existing data is newer: it survives; the new record must not
      // overwrite this span. Keep it whole.
      survivors.emplace_back(e_start, e);
    } else {
      // Older data: keep only the parts outside [start, end).
      if (e_start < start) {
        Entry left = e;
        left.end = start;
        survivors.emplace_back(e_start, left);
      }
      if (e.end > end) {
        Entry right = e;
        right.physical += end - e_start;
        survivors.emplace_back(end, right);
      }
    }
  }

  // Insert the new record, minus any newer surviving spans.
  std::vector<std::pair<Bytes, Bytes>> holes;  // spans blocked by newer data
  for (const auto& [s, e] : survivors) {
    if (e.timestamp > rec.timestamp) {
      holes.emplace_back(std::max(s, start), std::min(e.end, end));
    }
  }
  std::sort(holes.begin(), holes.end());
  Bytes cursor = start;
  auto emit = [&](Bytes s, Bytes e) {
    if (e <= s) return;
    Entry entry;
    entry.end = e;
    entry.physical = rec.physical_offset + (s - rec.logical_offset);
    entry.data_file = data_file;
    entry.timestamp = rec.timestamp;
    map_.emplace(s, entry);
  };
  for (const auto& [hs, he] : holes) {
    emit(cursor, hs);
    cursor = std::max(cursor, he);
  }
  emit(cursor, end);

  for (const auto& [s, e] : survivors) map_.emplace(s, e);
}

bool ReadHandle::resolve(Bytes offset, Bytes length,
                         std::vector<Mapping>& out) const {
  out.clear();
  if (length == 0) return true;
  Bytes pos = offset;
  const Bytes end = offset + length;
  auto it = map_.upper_bound(pos);
  if (it != map_.begin()) {
    auto prev = std::prev(it);
    if (prev->second.end > pos) it = prev;
  }
  while (pos < end) {
    if (it == map_.end() || it->first > pos) return false;  // hole
    const Bytes take = std::min(end, it->second.end) - pos;
    Mapping m;
    m.logical = pos;
    m.length = take;
    m.physical = it->second.physical + (pos - it->first);
    m.data_file = it->second.data_file;
    out.push_back(m);
    pos += take;
    ++it;
  }
  return true;
}

Bytes ReadHandle::logical_size() const {
  if (map_.empty()) return 0;
  return map_.rbegin()->second.end;
}

// ---------------------------------------------------------------------------
// Plfs
// ---------------------------------------------------------------------------

Plfs::Plfs(lustre::FileSystem& fs, PlfsParams params)
    : fs_(&fs), params_(params) {
  PFSC_REQUIRE(params_.num_hash_dirs >= 1, "Plfs: need at least one hash dir");
  PFSC_REQUIRE(params_.index_record_bytes > 0, "Plfs: index record size");
}

std::string Plfs::hashdir_name(int rank, std::uint32_t num_dirs) {
  // PLFS hashes the writing host; ranks on the same node land together.
  const auto bucket = static_cast<std::uint32_t>(rank) % num_dirs;
  return "hostdir." + std::to_string(bucket);
}

sim::Co<Errno> Plfs::ensure_container(lustre::Client& client,
                                      const std::string& logical_path,
                                      int rank) {
  if (!fs_->exists(logical_path)) {
    auto r = co_await client.mkdir(logical_path);
    if (!r.ok() && r.err != Errno::eexist) co_return r.err;
    // The container creator drops the "access" marker file; races lose
    // with EEXIST and carry on.
    auto access = co_await client.create(logical_path + "/access",
                                         lustre::StripeSettings{1, 64_KiB, -1});
    if (!access.ok() && access.err != Errno::eexist) co_return access.err;
  }
  const std::string hashdir =
      logical_path + "/" + hashdir_name(rank, params_.num_hash_dirs);
  if (!fs_->exists(hashdir)) {
    auto r = co_await client.mkdir(hashdir);
    if (!r.ok() && r.err != Errno::eexist) co_return r.err;
  }
  co_return Errno::ok;
}

sim::Co<Result<WriteHandle>> Plfs::open_write(lustre::Client& client,
                                              std::string logical_path,
                                              int rank) {
  using R = Result<WriteHandle>;
  if (Errno e = co_await ensure_container(client, logical_path, rank);
      e != Errno::ok) {
    co_return R::failure(e);
  }
  const std::string hashdir =
      logical_path + "/" + hashdir_name(rank, params_.num_hash_dirs);
  std::string suffix(1, '.');
  suffix += std::to_string(rank);

  auto data = co_await client.create(hashdir + "/data" + suffix,
                                     params_.backend_stripe);
  if (!data.ok()) co_return R::failure(data.err);
  auto index = co_await client.create(hashdir + "/index" + suffix,
                                      params_.backend_stripe);
  if (!index.ok()) co_return R::failure(index.err);

  WriteHandle h;
  h.container = std::move(logical_path);
  h.rank = rank;
  h.data_file = data.value;
  h.index_file = index.value;
  h.open = true;
  shadow_data_files_[h.container][rank] = h.data_file;
  co_return R::success(std::move(h));
}

sim::Co<Errno> Plfs::flush_index(lustre::Client& client, WriteHandle& h) {
  if (h.pending_index.empty()) co_return Errno::ok;
  const Bytes bytes =
      params_.index_record_bytes * static_cast<Bytes>(h.pending_index.size());
  const Errno e = co_await client.write(h.index_file, h.index_cursor, bytes);
  if (e != Errno::ok) co_return e;
  h.index_cursor += bytes;
  auto& shadow = shadow_index_[h.container][h.rank];
  shadow.insert(shadow.end(), h.pending_index.begin(), h.pending_index.end());
  h.pending_index.clear();
  co_return Errno::ok;
}

sim::Co<Errno> Plfs::write(lustre::Client& client, WriteHandle& h,
                           Bytes logical_offset, Bytes length) {
  PFSC_REQUIRE(h.open, "Plfs::write: handle not open");
  if (length == 0) co_return Errno::ok;

  // Async span per plfs_write on the shared "plfs" track: overhead +
  // admission into the data log's write-back budget (the backend transfer
  // continues under the client/link/disk spans).
  sim::Engine& eng = fs_->engine();
  std::uint64_t span = 0;
  if (auto* rec = eng.recorder();
      rec != nullptr && rec->enabled(trace::Cat::plfs)) {
    span = rec->next_id();
    rec->begin(trace::Cat::plfs, track_.get(*rec, "plfs"), "write", eng.now(),
               span, static_cast<std::int64_t>(h.rank),
               static_cast<std::int64_t>(logical_offset),
               static_cast<double>(length));
  }
  // The PLFS write path costs client CPU per call, then hands the append
  // to the page cache (buffered); data reaches the OSTs asynchronously and
  // errors surface at close (fsync semantics).
  if (params_.write_overhead > 0.0) {
    co_await fs_->engine().delay(params_.write_overhead);
  }
  const Errno e = co_await client.write_buffered(h.data_file, h.data_cursor, length);
  if (span != 0) {
    if (auto* rec = eng.recorder();
        rec != nullptr && rec->enabled(trace::Cat::plfs)) {
      rec->end(trace::Cat::plfs, track_.get(*rec, "plfs"), "write", eng.now(),
               span, static_cast<std::int64_t>(h.rank));
    }
  }
  if (e != Errno::ok) co_return e;

  IndexRecord rec;
  rec.logical_offset = logical_offset;
  rec.length = length;
  rec.physical_offset = h.data_cursor;
  rec.writer_rank = h.rank;
  rec.timestamp = fs_->engine().now();
  h.data_cursor += length;
  h.pending_index.push_back(rec);
  h.all_records.push_back(rec);

  if (h.pending_index.size() >= params_.index_flush_records) {
    co_return co_await flush_index(client, h);
  }
  co_return Errno::ok;
}

sim::Co<Errno> Plfs::close_write(lustre::Client& client, WriteHandle& h) {
  PFSC_REQUIRE(h.open, "Plfs::close_write: handle not open");
  // Drain buffered data first (close implies fsync of the data log), then
  // flush the remaining index records.
  Errno e = co_await client.flush();
  const Errno ie = co_await flush_index(client, h);
  if (e == Errno::ok) e = ie;
  h.open = false;
  co_return e;
}

sim::Co<Result<ReadHandle>> Plfs::open_read(lustre::Client& client,
                                            std::string logical_path) {
  using R = Result<ReadHandle>;
  if (!is_container(logical_path)) co_return R::failure(Errno::enoent);

  auto shadow_it = shadow_index_.find(logical_path);
  ReadHandle handle;
  if (shadow_it == shadow_index_.end()) co_return R::success(std::move(handle));
  const auto& data_files = shadow_data_files_.at(logical_path);

  // Pay the metadata cost of listing the hash dirs, then read every index
  // log before merging.
  auto names = co_await fs_->readdir(logical_path);
  if (!names.ok()) co_return R::failure(names.err);
  for (const auto& name : names.value) {
    if (name.rfind("hostdir.", 0) == 0) {
      auto listing = co_await fs_->readdir(logical_path + "/" + name);
      if (!listing.ok()) co_return R::failure(listing.err);
    }
  }

  for (const auto& [rank, records] : shadow_it->second) {
    const std::string hashdir =
        logical_path + "/" + hashdir_name(rank, params_.num_hash_dirs);
    const std::string index_path = hashdir + "/index." + std::to_string(rank);
    const lustre::Inode* index_inode = fs_->find(index_path);
    if (index_inode == nullptr) co_return R::failure(Errno::eio);
    auto open_r = co_await client.open(index_path);
    if (!open_r.ok()) co_return R::failure(open_r.err);
    if (index_inode->size > 0) {
      const Errno e = co_await client.read(open_r.value, 0, index_inode->size);
      if (e != Errno::ok) co_return R::failure(e);
    }
    const InodeId data_file = data_files.at(rank);
    for (const IndexRecord& rec : records) handle.splice(rec, data_file);
  }
  co_return R::success(std::move(handle));
}

sim::Co<Errno> Plfs::read(lustre::Client& client, ReadHandle& h,
                          Bytes logical_offset, Bytes length) {
  std::vector<ReadHandle::Mapping> runs;
  if (!h.resolve(logical_offset, length, runs)) co_return Errno::einval;
  for (const auto& run : runs) {
    const Errno e = co_await client.read(run.data_file, run.physical, run.length);
    if (e != Errno::ok) co_return e;
  }
  co_return Errno::ok;
}

bool Plfs::is_container(std::string_view logical_path) const {
  const lustre::Inode* node = fs_->find(logical_path);
  return node != nullptr && node->is_dir && node->entries.contains("access");
}

std::vector<InodeId> Plfs::backend_data_files(
    std::string_view logical_path) const {
  std::vector<InodeId> out;
  for (InodeId id : fs_->files_under(logical_path)) {
    const lustre::Inode& node = fs_->inode(id);
    if (node.name.rfind("data.", 0) == 0) out.push_back(id);
  }
  return out;
}

}  // namespace pfsc::plfs
