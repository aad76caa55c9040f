#include "trace/instruments.hpp"

namespace pfsc::trace {

InstrumentSet link_instruments(const std::string& prefix,
                               sim::LinkModel& link) {
  InstrumentSet out;
  out.push_back({prefix + "_flows", [&link] {
                   return static_cast<double>(link.active_flows());
                 }});
  out.push_back({prefix + "_flow_mbps",
                 [&link] { return to_mbps(link.flow_rate()); }});
  out.push_back({prefix + "_util", [&link] { return link.utilisation(); }});
  return out;
}

InstrumentSet sched_instruments(lustre::FileSystem& fs,
                                std::vector<lustre::sched::JobId> jobs) {
  InstrumentSet out;
  out.push_back({"sched_queue", [&fs] {
                   return static_cast<double>(fs.sched_queue_depth());
                 }});
  out.push_back({"sched_inflight", [&fs] {
                   return static_cast<double>(fs.sched_in_service());
                 }});
  out.push_back({"sched_jain", [&fs] { return fs.sched_jain(); }});
  for (const lustre::sched::JobId job : jobs) {
    out.push_back({"job" + std::to_string(job) + "_bytes", [&fs, job] {
                     double bytes = 0.0;
                     for (std::uint32_t oss = 0; oss < fs.params().oss_count;
                          ++oss) {
                       bytes += static_cast<double>(
                           fs.oss_sched(oss).served_bytes(job));
                     }
                     return bytes;
                   }});
  }
  return out;
}

InstrumentSet total_bytes_instruments(lustre::FileSystem& fs) {
  InstrumentSet out;
  out.push_back({"total_bytes", [&fs] {
                   return static_cast<double>(fs.total_bytes_written());
                 }});
  return out;
}

RunSummary collect_summary(lustre::FileSystem& fs, const Recorder* rec) {
  RunSummary s;
  for (const auto& [job, bytes] : fs.sched_served_by_job()) {
    s.job_bytes[static_cast<std::uint32_t>(job)] = bytes;
  }
  s.jain = fs.sched_jain();
  s.ost_bytes.reserve(fs.params().ost_count);
  for (std::uint32_t ost = 0; ost < fs.params().ost_count; ++ost) {
    s.ost_bytes.push_back(fs.ost_disk(ost).bytes_serviced());
  }
  s.mean_queue_depth = fs.sched_mean_queue_depth();
  s.mean_disk_queue_depth = fs.disk_mean_queue_depth();
  if (rec != nullptr) {
    s.recorded_events = rec->events().size();
    s.dropped_events = rec->dropped();
  }
  return s;
}

}  // namespace pfsc::trace
