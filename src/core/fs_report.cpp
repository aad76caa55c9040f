#include "core/fs_report.hpp"

#include <algorithm>
#include <sstream>

#include "support/table.hpp"

namespace pfsc::core {

namespace {

/// Rebuild the full path of an inode by walking parents.
std::string path_of(const lustre::FileSystem& fs, lustre::InodeId id) {
  std::vector<std::string> parts;
  lustre::InodeId cur = id;
  while (cur != lustre::kNoInode) {
    const lustre::Inode& node = fs.inode(cur);
    if (node.parent == lustre::kNoInode) break;  // root
    parts.push_back(node.name);
    cur = node.parent;
  }
  std::string out;
  for (auto it = parts.rbegin(); it != parts.rend(); ++it) {
    out += "/";
    out += *it;
  }
  return out.empty() ? "/" : out;
}

}  // namespace

FsHealthReport collect_health_report(const lustre::FileSystem& fs,
                                     std::size_t top_n) {
  FsHealthReport report;
  report.ost_count = fs.params().ost_count;
  for (lustre::OstIndex ost = 0; ost < report.ost_count; ++ost) {
    if (fs.ost_failed(ost)) ++report.failed_osts;
  }

  const auto files = fs.files_under("/");
  report.files = files.size();
  report.occupancy = observe(fs.ost_occupancy(files));

  double stripe_sum = 0.0;
  std::vector<FileFootprint> footprints;
  footprints.reserve(files.size());
  for (auto id : files) {
    const lustre::Inode& node = fs.inode(id);
    FileFootprint fp;
    fp.inode = id;
    fp.path = path_of(fs, id);
    fp.stripe_count = node.layout.stripe_count();
    fp.stripe_size = node.layout.stripe_size;
    stripe_sum += fp.stripe_count;
    footprints.push_back(std::move(fp));
  }
  std::sort(footprints.begin(), footprints.end(),
            [](const FileFootprint& a, const FileFootprint& b) {
              if (a.stripe_count != b.stripe_count) {
                return a.stripe_count > b.stripe_count;
              }
              return a.path < b.path;
            });
  if (footprints.size() > top_n) footprints.resize(top_n);
  report.top_consumers = std::move(footprints);
  report.mean_stripe_request =
      report.files > 0 ? stripe_sum / static_cast<double>(report.files) : 0.0;

  // Project: Eq. 1 seeded with the observed D_inuse, then k more mean-shape
  // requests arrive.
  if (report.mean_stripe_request > 0.0) {
    double in_use = report.occupancy.d_inuse;
    double req = report.occupancy.d_req;
    const double d = report.ost_count;
    for (int k = 0; k < 5; ++k) {
      in_use += report.mean_stripe_request -
                (in_use / d) * report.mean_stripe_request;
      req += report.mean_stripe_request;
      report.projected_load.push_back(in_use > 0.0 ? req / in_use : 0.0);
    }
  }
  return report;
}

std::string format_health_report(const FsHealthReport& report) {
  std::ostringstream out;
  out << "File-system contention health report\n";
  out << "  OSTs: " << report.ost_count << " (" << report.failed_osts
      << " failed)   files: " << report.files << "\n";
  out << "  D_inuse " << fmt_double(report.occupancy.d_inuse, 0) << "   D_req "
      << fmt_double(report.occupancy.d_req, 0) << "   D_load "
      << fmt_double(report.occupancy.d_load, 2) << "\n";

  if (!report.occupancy.histogram.empty()) {
    TextTable hist({"files per OST", "OSTs"});
    for (std::size_t k = 0; k < report.occupancy.histogram.size(); ++k) {
      hist.cell(fmt_int(static_cast<long long>(k)))
          .cell(fmt_int(report.occupancy.histogram[k]));
      hist.end_row();
    }
    out << hist.to_string();
  }

  if (!report.top_consumers.empty()) {
    TextTable top({"path", "stripes", "stripe size"});
    for (const auto& fp : report.top_consumers) {
      top.cell(fp.path)
          .cell(fmt_int(fp.stripe_count))
          .cell(format_bytes(fp.stripe_size));
      top.end_row();
    }
    out << "Widest layouts:\n" << top.to_string();
  }

  if (!report.projected_load.empty()) {
    out << "Projected D_load if more mean-shape jobs ("
        << fmt_double(report.mean_stripe_request, 1) << " stripes) arrive:";
    for (std::size_t k = 0; k < report.projected_load.size(); ++k) {
      out << " +" << (k + 1) << ":" << fmt_double(report.projected_load[k], 2);
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace pfsc::core
