// File-system contention health report: the paper's metrics applied to a
// live (simulated) file system snapshot, formatted for operators.
//
// Answers the questions Section V poses for a running system: how loaded
// is each OST, how many collisions exist right now, which files are the
// big stripe consumers, and what happens if more jobs of the current
// average shape arrive.
#pragma once

#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "lustre/fs.hpp"

namespace pfsc::core {

struct FileFootprint {
  lustre::InodeId inode = lustre::kNoInode;
  std::string path;
  std::uint32_t stripe_count = 0;
  Bytes stripe_size = 0;
};

struct FsHealthReport {
  std::uint32_t ost_count = 0;
  std::uint32_t failed_osts = 0;
  std::uint64_t files = 0;
  /// Occupancy census over every file currently in the namespace.
  ObservedContention occupancy;
  /// Files with the widest layouts (the stripe hogs), widest first and
  /// by path among equal widths.
  std::vector<FileFootprint> top_consumers;
  /// Mean stripe request across files (the "average workload" the paper's
  /// purchasing discussion reasons about).
  double mean_stripe_request = 0.0;
  /// Predicted load if `k` more files of the mean shape are created,
  /// k = 1..5 (Eq. 1 applied on top of the observed state).
  std::vector<double> projected_load;
};

/// Take the snapshot (instantaneous; no simulated cost).
FsHealthReport collect_health_report(const lustre::FileSystem& fs,
                                     std::size_t top_n = 5);

/// Render as a human-readable multi-table string.
std::string format_health_report(const FsHealthReport& report);

}  // namespace pfsc::core
