#include "lustre/lfs.hpp"

namespace pfsc::lustre {

Result<StripeInfo> lfs_getstripe(const FileSystem& fs, std::string_view path) {
  const Inode* node = fs.find(path);
  if (node == nullptr) return Result<StripeInfo>::failure(Errno::enoent);
  StripeInfo info;
  if (node->is_dir) {
    info.stripe_count = fs.params().default_stripe_count;
    info.stripe_size = fs.params().default_stripe_size;
  } else {
    info.stripe_count = node->layout.stripe_count();
    info.stripe_size = node->layout.stripe_size;
    info.osts = node->layout.osts;
  }
  return Result<StripeInfo>::success(std::move(info));
}

std::vector<DfEntry> lfs_df(const FileSystem& fs) {
  const auto usage = fs.objects_per_ost();
  std::vector<DfEntry> out;
  out.reserve(usage.size());
  for (std::size_t i = 0; i < usage.size(); ++i) {
    const auto ost = static_cast<OstIndex>(i);
    out.push_back(DfEntry{ost, usage[i], fs.ost_failed(ost)});
  }
  return out;
}

}  // namespace pfsc::lustre
