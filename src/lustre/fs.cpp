#include "lustre/fs.hpp"

#include <algorithm>

#include "support/stats.hpp"

namespace pfsc::lustre {

std::vector<std::string_view> split_path(std::string_view path) {
  std::vector<std::string_view> parts;
  std::size_t pos = 0;
  while (pos < path.size()) {
    while (pos < path.size() && path[pos] == '/') ++pos;
    std::size_t end = pos;
    while (end < path.size() && path[end] != '/') ++end;
    if (end > pos) parts.push_back(path.substr(pos, end - pos));
    pos = end;
  }
  return parts;
}

FileSystem::FileSystem(sim::Engine& eng, hw::PlatformParams params,
                       std::uint64_t seed)
    : eng_(&eng),
      params_(std::move(params)),
      placement_(make_placement(params_.ost_placement)),
      rng_(seed),
      mds_slots_(eng, params_.mds_parallelism) {
  PFSC_REQUIRE(params_.ost_count > 0 && params_.oss_count > 0,
               "FileSystem: need at least one OSS and OST");
  fabric_ = sim::make_link(eng, params_.link_policy, params_.fabric_bw);
  fabric_->set_trace_label("fabric");
  oss_pipes_.reserve(params_.oss_count);
  oss_scheds_.reserve(params_.oss_count);
  for (std::uint32_t i = 0; i < params_.oss_count; ++i) {
    oss_pipes_.push_back(
        sim::make_link(eng, params_.link_policy, params_.oss_bw));
    oss_pipes_.back()->set_trace_label("oss" + std::to_string(i));
    oss_scheds_.push_back(sched::make_scheduler(eng, params_.oss_sched_policy,
                                                params_.oss_sched));
    oss_scheds_.back()->set_trace_label("oss" + std::to_string(i) + ".sched");
  }
  ost_disks_.reserve(params_.ost_count);
  for (std::uint32_t i = 0; i < params_.ost_count; ++i) {
    ost_disks_.push_back(
        std::make_unique<hw::DiskModel>(eng, params_.ost_disk));
    ost_disks_.back()->set_trace_label("ost" + std::to_string(i) + ".disk");
  }
  ost_failed_.assign(params_.ost_count, false);
  objects_per_ost_.assign(params_.ost_count, 0);

  Inode& root = new_inode(/*is_dir=*/true, kNoInode, "/");
  root_ = root.id;
}

Inode& FileSystem::new_inode(bool is_dir, InodeId parent, std::string name) {
  auto node = std::make_unique<Inode>();
  node->id = static_cast<InodeId>(inodes_.size()) + 1;
  node->parent = parent;
  node->name = std::move(name);
  node->is_dir = is_dir;
  inodes_.push_back(std::move(node));
  return *inodes_.back();
}

Inode& FileSystem::inode(InodeId id) {
  PFSC_REQUIRE(id != kNoInode && id <= inodes_.size(), "inode: bad id");
  return *inodes_[id - 1];
}
const Inode& FileSystem::inode(InodeId id) const {
  PFSC_REQUIRE(id != kNoInode && id <= inodes_.size(), "inode: bad id");
  return *inodes_[id - 1];
}

Result<InodeId> FileSystem::resolve(std::string_view path) const {
  InodeId cur = root_;
  for (auto part : split_path(path)) {
    const Inode& node = inode(cur);
    if (!node.is_dir) return Result<InodeId>::failure(Errno::enotdir);
    auto it = node.entries.find(part);
    if (it == node.entries.end()) return Result<InodeId>::failure(Errno::enoent);
    cur = it->second;
  }
  return Result<InodeId>::success(cur);
}

Result<std::pair<InodeId, std::string>> FileSystem::resolve_parent(
    std::string_view path) const {
  using R = Result<std::pair<InodeId, std::string>>;
  auto parts = split_path(path);
  if (parts.empty()) return R::failure(Errno::einval);
  InodeId cur = root_;
  for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
    const Inode& node = inode(cur);
    if (!node.is_dir) return R::failure(Errno::enotdir);
    auto it = node.entries.find(parts[i]);
    if (it == node.entries.end()) return R::failure(Errno::enoent);
    cur = it->second;
  }
  if (!inode(cur).is_dir) return R::failure(Errno::enotdir);
  return R::success({cur, std::string(parts.back())});
}

Inode* FileSystem::find(std::string_view path) {
  auto r = resolve(path);
  return r.ok() ? &inode(r.value) : nullptr;
}
const Inode* FileSystem::find(std::string_view path) const {
  auto r = resolve(path);
  return r.ok() ? &inode(r.value) : nullptr;
}

std::vector<InodeId> FileSystem::files_under(std::string_view dir_path) const {
  std::vector<InodeId> out;
  const Inode* dir = find(dir_path);
  if (dir == nullptr || !dir->is_dir) return out;
  std::vector<const Inode*> stack{dir};
  while (!stack.empty()) {
    const Inode* node = stack.back();
    stack.pop_back();
    for (const auto& [name, child_id] : node->entries) {
      const Inode& child = inode(child_id);
      if (child.is_dir) {
        stack.push_back(&child);
      } else {
        out.push_back(child.id);
      }
    }
  }
  return out;
}

sim::Co<void> FileSystem::mds_op(Seconds cost) {
  co_await mds_slots_.acquire();
  co_await eng_->delay(cost);
  mds_slots_.release();
}

StripeSettings FileSystem::effective_settings(StripeSettings req) const {
  StripeSettings eff = req;
  // PFL: a create that defaults its stripe count but declares an expected
  // size gets the count of its size class. An explicit request outranks
  // the progressive layout, as in Lustre.
  if (eff.stripe_count == 0 && eff.size_hint > 0 && !pfl_.empty()) {
    eff.stripe_count = pfl_.choose(eff.size_hint);
  }
  if (eff.stripe_count == 0) eff.stripe_count = params_.default_stripe_count;
  if (eff.stripe_size == 0) eff.stripe_size = params_.default_stripe_size;
  eff.stripe_count = std::min(eff.stripe_count, params_.max_stripe_count);
  eff.stripe_count = std::min(eff.stripe_count, params_.ost_count);
  return eff;
}

void FileSystem::set_pfl(PflSpec spec) {
  spec.validate();
  pfl_ = std::move(spec);
}

Result<std::vector<OstIndex>> FileSystem::allocate_osts(
    const StripeSettings& settings) {
  using R = Result<std::vector<OstIndex>>;
  const std::uint32_t want = settings.stripe_count;
  if (want == 0 || want > params_.ost_count) return R::failure(Errno::einval);
  if (healthy_ost_count() < want) return R::failure(Errno::enospc);

  std::vector<OstIndex> chosen;
  if (settings.stripe_offset >= 0) {
    chosen.reserve(want);
    // Explicit placement: sequential from the requested index, skipping
    // failed targets (real clients get EIO later; we refuse up front).
    auto idx = static_cast<std::uint32_t>(settings.stripe_offset) % params_.ost_count;
    for (std::uint32_t scanned = 0;
         chosen.size() < want && scanned < params_.ost_count; ++scanned) {
      if (!ost_failed_[idx]) chosen.push_back(idx);
      idx = (idx + 1) % params_.ost_count;
    }
  } else {
    // Policy choice (placement.hpp): the default uniform_random policy
    // reproduces the historical healthy-vector + one-sample rng sequence
    // bit for bit; the deterministic policies never touch rng_.
    const PlacementView view{params_.ost_count, &ost_failed_,
                             &objects_per_ost_};
    chosen = placement_->choose(want, view, rng_);
  }
  if (chosen.size() < want) return R::failure(Errno::enospc);
  return R::success(std::move(chosen));
}

sim::Co<Result<InodeId>> FileSystem::create(std::string path,
                                            StripeSettings settings) {
  using R = Result<InodeId>;
  auto parent = resolve_parent(path);
  if (!parent.ok()) co_return R::failure(parent.err);
  auto& [dir_id, leaf] = parent.value;
  Inode& dir = inode(dir_id);
  if (dir.entries.contains(leaf)) co_return R::failure(Errno::eexist);

  const StripeSettings eff = effective_settings(settings);
  auto osts = allocate_osts(eff);
  if (!osts.ok()) co_return R::failure(osts.err);

  // Claim the objects' demand before yielding to the MDS wait, so creates
  // racing at the same instant see each other's allocations: load_aware
  // placement would otherwise hand a t=0 burst of creates identical
  // least-loaded OST sets from one stale snapshot (the ROADMAP's
  // "placement at t=0 bursts" follow-on).
  for (const OstIndex ost : osts.value) ++objects_per_ost_[ost];

  co_await mds_op(params_.mds_create_time +
                  20.0e-6 * static_cast<double>(eff.stripe_count));

  // Re-check after waiting: a racing create may have inserted the name.
  if (dir.entries.contains(leaf)) {
    for (const OstIndex ost : osts.value) {
      PFSC_ASSERT(objects_per_ost_[ost] > 0);
      --objects_per_ost_[ost];
    }
    co_return R::failure(Errno::eexist);
  }

  Inode& file = new_inode(/*is_dir=*/false, dir_id, leaf);
  file.layout.stripe_size = eff.stripe_size;
  file.layout.osts = std::move(osts.value);
  file.layout.objects.reserve(file.layout.osts.size());
  for (std::size_t i = 0; i < file.layout.osts.size(); ++i) {
    file.layout.objects.push_back(next_object_++);
  }
  dir.entries.emplace(leaf, file.id);
  co_return R::success(file.id);
}

sim::Co<Result<InodeId>> FileSystem::open(std::string path) {
  using R = Result<InodeId>;
  co_await mds_op(params_.mds_open_time);
  auto r = resolve(path);
  if (!r.ok()) co_return R::failure(r.err);
  Inode& node = inode(r.value);
  if (node.is_dir) co_return R::failure(Errno::eisdir);
  ++node.open_count;
  co_return R::success(node.id);
}

sim::Co<Result<InodeId>> FileSystem::mkdir(std::string path) {
  using R = Result<InodeId>;
  auto parent = resolve_parent(path);
  if (!parent.ok()) co_return R::failure(parent.err);
  auto& [dir_id, leaf] = parent.value;
  co_await mds_op(params_.mds_create_time);
  Inode& dir = inode(dir_id);
  if (dir.entries.contains(leaf)) co_return R::failure(Errno::eexist);
  Inode& child = new_inode(/*is_dir=*/true, dir_id, leaf);
  dir.entries.emplace(leaf, child.id);
  co_return R::success(child.id);
}

sim::Co<Errno> FileSystem::unlink(std::string path) {
  co_await mds_op(params_.mds_open_time);
  auto parent = resolve_parent(path);
  if (!parent.ok()) co_return parent.err;
  auto& [dir_id, leaf] = parent.value;
  Inode& dir = inode(dir_id);
  auto it = dir.entries.find(leaf);
  if (it == dir.entries.end()) co_return Errno::enoent;
  Inode& victim = inode(it->second);
  if (victim.is_dir) {
    if (!victim.entries.empty()) co_return Errno::einval;
  } else {
    for (OstIndex ost : victim.layout.osts) {
      PFSC_ASSERT(objects_per_ost_[ost] > 0);
      --objects_per_ost_[ost];
    }
    for (std::size_t i = 0; i < victim.layout.objects.size(); ++i) {
      ost_disks_[victim.layout.osts[i]]->forget_stream(victim.layout.objects[i]);
    }
  }
  dir.entries.erase(it);
  co_return Errno::ok;
}

sim::Co<Result<std::vector<std::string>>> FileSystem::readdir(std::string path) {
  using R = Result<std::vector<std::string>>;
  co_await mds_op(params_.mds_open_time);
  auto r = resolve(path);
  if (!r.ok()) co_return R::failure(r.err);
  const Inode& dir = inode(r.value);
  if (!dir.is_dir) co_return R::failure(Errno::enotdir);
  std::vector<std::string> names;
  names.reserve(dir.entries.size());
  for (const auto& [name, id] : dir.entries) names.push_back(name);
  co_return R::success(std::move(names));
}

hw::DiskModel& FileSystem::ost_disk(OstIndex ost) {
  PFSC_REQUIRE(ost < ost_disks_.size(), "ost_disk: bad OST index");
  return *ost_disks_[ost];
}

sim::LinkModel& FileSystem::oss_pipe_for_ost(OstIndex ost) {
  PFSC_REQUIRE(ost < params_.ost_count, "oss_pipe_for_ost: bad OST index");
  // Consecutive OSTs are spread across servers, as in real deployments.
  return *oss_pipes_[ost % params_.oss_count];
}

sched::Scheduler& FileSystem::sched_for_ost(OstIndex ost) {
  PFSC_REQUIRE(ost < params_.ost_count, "sched_for_ost: bad OST index");
  return *oss_scheds_[ost % params_.oss_count];
}

std::size_t FileSystem::sched_queue_depth() const {
  std::size_t depth = 0;
  for (const auto& s : oss_scheds_) depth += s->queue_depth();
  return depth;
}

std::size_t FileSystem::sched_in_service() const {
  std::size_t n = 0;
  for (const auto& s : oss_scheds_) n += s->in_service();
  return n;
}

double FileSystem::sched_mean_queue_depth() const {
  QueueArea total;
  for (const auto& s : oss_scheds_) total.merge(s->queue_area());
  return total.mean();
}

double FileSystem::disk_mean_queue_depth() const {
  QueueArea total;
  for (const auto& d : ost_disks_) total.merge(d->queue_area());
  return total.mean();
}

std::map<sched::JobId, Bytes> FileSystem::sched_served_by_job() const {
  std::map<sched::JobId, Bytes> merged;
  for (const auto& s : oss_scheds_) {
    for (const auto& [job, bytes] : s->served_by_job()) merged[job] += bytes;
  }
  return merged;
}

double FileSystem::sched_jain() const {
  std::vector<double> shares;
  for (const auto& [job, bytes] : sched_served_by_job()) {
    shares.push_back(static_cast<double>(bytes));
  }
  return jain_index(shares);
}

void FileSystem::fail_ost(OstIndex ost) {
  PFSC_REQUIRE(ost < ost_failed_.size(), "fail_ost: bad OST index");
  ost_failed_[ost] = true;
}
void FileSystem::restore_ost(OstIndex ost) {
  PFSC_REQUIRE(ost < ost_failed_.size(), "restore_ost: bad OST index");
  ost_failed_[ost] = false;
}
void FileSystem::degrade_ost(OstIndex ost, double factor) {
  ost_disk(ost).set_service_multiplier(factor);
}

bool FileSystem::ost_failed(OstIndex ost) const {
  PFSC_REQUIRE(ost < ost_failed_.size(), "ost_failed: bad OST index");
  return ost_failed_[ost];
}
std::uint32_t FileSystem::healthy_ost_count() const {
  std::uint32_t n = 0;
  for (bool failed : ost_failed_) {
    if (!failed) ++n;
  }
  return n;
}

std::vector<std::uint32_t> FileSystem::ost_occupancy(
    std::span<const InodeId> files) const {
  std::vector<std::uint32_t> per_ost(params_.ost_count, 0);
  for (InodeId id : files) {
    const Inode& file = inode(id);
    // A file touches each of its layout OSTs exactly once (no duplicates in
    // a layout), so counting layout entries counts distinct files.
    for (OstIndex ost : file.layout.osts) ++per_ost[ost];
  }
  return per_ost;
}

Bytes FileSystem::total_bytes_written() const {
  Bytes total = 0;
  for (const auto& disk : ost_disks_) total += disk->bytes_serviced();
  return total;
}

}  // namespace pfsc::lustre
