#include "replay/analytics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>

#include "support/stats.hpp"

namespace pfsc::replay {

namespace {

using harness::JobKind;
using harness::JobSpec;

std::string fmt_double(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  for (int prec = 1; prec < 17; ++prec) {
    char probe[32];
    std::snprintf(probe, sizeof probe, "%.*g", prec, x);
    if (std::strtod(probe, nullptr) == x) return probe;
  }
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Effective OST spread of one job: how many stripes its layout can keep
/// busy at once.
std::uint32_t effective_stripes(const JobSpec& j,
                                const hw::PlatformParams& p) {
  std::uint32_t per_file = p.default_stripe_count;
  switch (j.kind) {
    case JobKind::probe_writer:
      return 1;  // pinned single-stripe files on one OST
    case JobKind::noise:
      per_file = j.stripes;
      return std::min(per_file, p.ost_count);
    case JobKind::plfs:
      // ad_plfs: one data file of 2 stripes per rank.
      return std::min<std::uint32_t>(
          2u * static_cast<std::uint32_t>(j.nprocs), p.ost_count);
    case JobKind::ior:
      if (j.ior.hints.driver == mpiio::Driver::ad_lustre &&
          j.ior.hints.striping_factor > 0) {
        per_file = std::min(j.ior.hints.striping_factor, p.max_stripe_count);
      }
      if (j.ior.file_per_process) {
        return std::min(per_file * static_cast<std::uint32_t>(j.nprocs),
                        p.ost_count);
      }
      return std::min(per_file, p.ost_count);
  }
  return per_file;
}

}  // namespace

FleetReport analyze_fleet(const harness::Observation& obs,
                          const hw::PlatformParams& platform) {
  const double per_process = to_mbps(platform.per_process_bw);
  const double fabric = to_mbps(platform.fabric_bw);
  const double ost = to_mbps(platform.ost_disk.sequential_bw);

  FleetReport report;
  std::vector<double> achieved_list;
  std::size_t result_idx = 0;
  for (const JobSpec& spec : obs.jobs) {
    if (spec.kind == JobKind::noise) {
      ++report.noise_jobs;
      continue;
    }
    PFSC_ASSERT(result_idx < obs.per_job.size());
    const ior::Result& res = obs.per_job[result_idx++];

    JobStats js;
    js.job_id = spec.job_id;
    js.app = spec.display_app();
    js.kind = spec.kind;
    js.nprocs = spec.nprocs;
    js.stripes = std::max<std::uint32_t>(1, effective_stripes(spec, platform));
    js.arrival = spec.arrival;
    js.bytes = res.total_bytes;
    if (obs.traced) {
      const auto it = obs.trace_summary.job_bytes.find(spec.job_id);
      if (it != obs.trace_summary.job_bytes.end()) js.served_bytes = it->second;
    }
    const bool writes = spec.kind == JobKind::probe_writer || spec.ior.write_file;
    js.achieved_mbps = writes ? res.write_mbps : res.read_mbps;

    const double client_demand =
        std::min(static_cast<double>(spec.nprocs) * per_process, fabric);
    const double layout = static_cast<double>(js.stripes) * ost;
    js.ideal_mbps = std::min(client_demand, layout);
    js.slowdown = js.achieved_mbps > 0.0 ? js.ideal_mbps / js.achieved_mbps
                                         : 0.0;
    js.risk_ost = client_demand / layout;

    if (!obs.admissions.empty()) {
      for (const harness::AdmissionRecord& rec : obs.admissions) {
        if (rec.job_id != spec.job_id) continue;
        js.admission = harness::admission_action_name(rec.action);
        js.admit_wait = rec.wait();
        js.admit_stripes = rec.stripes_after;
        break;
      }
    }

    report.total_mbps += js.achieved_mbps;
    achieved_list.push_back(js.achieved_mbps);
    report.jobs.push_back(std::move(js));
  }
  report.jain_fairness = jain_index(achieved_list);

  report.has_admission = !obs.admissions.empty();
  for (const harness::AdmissionRecord& rec : obs.admissions) {
    switch (rec.action) {
      case harness::AdmissionAction::admitted: ++report.admitted; break;
      case harness::AdmissionAction::delayed: ++report.delayed; break;
      case harness::AdmissionAction::detuned: ++report.detuned; break;
    }
    report.total_admit_wait += rec.wait();
  }

  report.has_adaptation = obs.ctrl_mode != ctrl::CtrlMode::off;
  if (report.has_adaptation) {
    report.ctrl_mode = ctrl::ctrl_mode_name(obs.ctrl_mode);
    report.adaptations = obs.ctrl_actions;
  }

  std::map<std::string, AppStats> by_app;
  for (const JobStats& js : report.jobs) {
    AppStats& a = by_app[js.app];
    a.app = js.app;
    ++a.jobs;
    a.ranks += js.nprocs;
    a.bytes += js.bytes;
    a.mean_achieved_mbps += js.achieved_mbps;
    a.mean_slowdown += js.slowdown;
    a.max_slowdown = std::max(a.max_slowdown, js.slowdown);
    a.mean_risk_ost += js.risk_ost;
    a.max_risk_ost = std::max(a.max_risk_ost, js.risk_ost);
  }
  for (auto& [name, a] : by_app) {
    const auto n = static_cast<double>(a.jobs);
    a.mean_achieved_mbps /= n;
    a.mean_slowdown /= n;
    a.mean_risk_ost /= n;
    report.apps.push_back(a);
  }
  std::sort(report.apps.begin(), report.apps.end(),
            [](const AppStats& x, const AppStats& y) {
              if (x.mean_risk_ost != y.mean_risk_ost) {
                return x.mean_risk_ost > y.mean_risk_ost;
              }
              if (x.mean_slowdown != y.mean_slowdown) {
                return x.mean_slowdown > y.mean_slowdown;
              }
              return x.app < y.app;
            });
  return report;
}

std::string FleetReport::format_table() const {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof line, "%-12s %5s %7s %10s %12s %17s %15s\n",
                "app", "jobs", "ranks", "GiB", "MB/s(mean)",
                "slowdown(mean/max)", "risk(mean/max)");
  out << line;
  for (const AppStats& a : apps) {
    std::snprintf(line, sizeof line,
                  "%-12s %5u %7d %10.2f %12.1f %8.2f /%7.2f %7.2f /%6.2f\n",
                  a.app.c_str(), a.jobs, a.ranks,
                  static_cast<double>(a.bytes) / static_cast<double>(1_GiB),
                  a.mean_achieved_mbps, a.mean_slowdown, a.max_slowdown,
                  a.mean_risk_ost, a.max_risk_ost);
    out << line;
  }
  std::snprintf(line, sizeof line,
                "fleet: %zu jobs (+%u noise), total %.1f MB/s, jain %.4f\n",
                jobs.size(), noise_jobs, total_mbps, jain_fairness);
  out << line;
  if (has_admission) {
    std::snprintf(line, sizeof line,
                  "admission: %u admitted, %u delayed, %u detuned, "
                  "total wait %.3f s\n",
                  admitted, delayed, detuned, total_admit_wait);
    out << line;
  }
  if (has_adaptation) {
    std::snprintf(line, sizeof line, "adaptation: mode %s, %zu actions\n",
                  ctrl_mode.c_str(), adaptations.size());
    out << line;
    for (const ctrl::CtrlAction& a : adaptations) {
      std::snprintf(line, sizeof line, "  t=%8.3f  %-10s %-14s %s\n", a.at,
                    a.endpoint.c_str(), a.rule.c_str(), a.detail.c_str());
      out << line;
    }
  }
  return out.str();
}

std::string FleetReport::to_json() const {
  std::ostringstream out;
  out << "{\"fleet\":{\"jobs\":" << jobs.size()
      << ",\"noise_jobs\":" << noise_jobs
      << ",\"total_mbps\":" << fmt_double(total_mbps)
      << ",\"jain_fairness\":" << fmt_double(jain_fairness);
  // Emitted only for gated runs, so ungated reports stay byte-identical to
  // their pre-admission goldens.
  if (has_admission) {
    out << ",\"admission\":{\"admitted\":" << admitted
        << ",\"delayed\":" << delayed << ",\"detuned\":" << detuned
        << ",\"total_wait\":" << fmt_double(total_admit_wait) << "}";
  }
  // Same deal for the adaptive controller: the block only exists when the
  // run carried one, so --ctrl off reports match their goldens byte-for-byte.
  if (has_adaptation) {
    out << ",\"adaptation\":{\"mode\":\"" << ctrl_mode
        << "\",\"actions\":" << adaptations.size() << ",\"log\":[";
    for (std::size_t i = 0; i < adaptations.size(); ++i) {
      const ctrl::CtrlAction& a = adaptations[i];
      if (i > 0) out << ",";
      out << "{\"at\":" << fmt_double(a.at) << ",\"endpoint\":\""
          << json_escape(a.endpoint) << "\",\"rule\":\"" << json_escape(a.rule)
          << "\",\"detail\":\"" << json_escape(a.detail) << "\"}";
    }
    out << "]}";
  }
  out << "},\"apps\":[";
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const AppStats& a = apps[i];
    if (i > 0) out << ",";
    out << "{\"app\":\"" << json_escape(a.app) << "\",\"jobs\":" << a.jobs
        << ",\"ranks\":" << a.ranks << ",\"bytes\":" << a.bytes
        << ",\"mean_achieved_mbps\":" << fmt_double(a.mean_achieved_mbps)
        << ",\"mean_slowdown\":" << fmt_double(a.mean_slowdown)
        << ",\"max_slowdown\":" << fmt_double(a.max_slowdown)
        << ",\"mean_risk_ost\":" << fmt_double(a.mean_risk_ost)
        << ",\"max_risk_ost\":" << fmt_double(a.max_risk_ost) << "}";
  }
  out << "],\"jobs\":[";
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobStats& j = jobs[i];
    if (i > 0) out << ",";
    out << "{\"id\":" << j.job_id << ",\"app\":\"" << json_escape(j.app)
        << "\",\"kind\":\"" << harness::job_kind_name(j.kind)
        << "\",\"nprocs\":" << j.nprocs << ",\"stripes\":" << j.stripes
        << ",\"arrival\":" << fmt_double(j.arrival)
        << ",\"bytes\":" << j.bytes
        << ",\"served_bytes\":" << j.served_bytes
        << ",\"achieved_mbps\":" << fmt_double(j.achieved_mbps)
        << ",\"ideal_mbps\":" << fmt_double(j.ideal_mbps)
        << ",\"slowdown\":" << fmt_double(j.slowdown)
        << ",\"risk_ost\":" << fmt_double(j.risk_ost);
    if (has_admission) {
      out << ",\"admission\":\"" << json_escape(j.admission)
          << "\",\"admit_wait\":" << fmt_double(j.admit_wait)
          << ",\"admit_stripes\":" << j.admit_stripes;
    }
    out << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace pfsc::replay
