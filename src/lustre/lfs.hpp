// `lfs`-style administrative helpers (getstripe / df), matching the
// control operations the paper mentions ("unless otherwise specified
// using the lfs control program").
#pragma once

#include "lustre/fs.hpp"

namespace pfsc::lustre {

struct StripeInfo {
  std::uint32_t stripe_count = 0;
  Bytes stripe_size = 0;
  std::vector<OstIndex> osts;  // empty for a directory
};

/// `lfs getstripe <path>`: report the layout of a file, or the file-system
/// default layout for a directory.
Result<StripeInfo> lfs_getstripe(const FileSystem& fs, std::string_view path);

struct DfEntry {
  OstIndex ost = 0;
  std::uint64_t objects = 0;
  bool failed = false;
};

/// `lfs df`-style per-OST usage summary.
std::vector<DfEntry> lfs_df(const FileSystem& fs);

}  // namespace pfsc::lustre
