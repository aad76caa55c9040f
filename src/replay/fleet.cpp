#include "replay/fleet.hpp"

#include <cmath>

#include "harness/cli.hpp"
#include "support/rng.hpp"

namespace pfsc::replay {

namespace {

using harness::JobKind;
using harness::JobSpec;

/// One archetype: fills everything but id/app/arrival. `rng` jitters the
/// shape (segment counts, rank counts) so a fleet is not n clones.
using TemplateFn = JobSpec (*)(Rng& rng);

// Template rank counts stay modest: the MPI world must hold the whole
// fleet at once (sum of nprocs <= nodes x cores_per_node), and a
// 1000-job fleet on the default platform leaves ~19 ranks/job.

JobSpec ior_template(Rng& rng) {
  JobSpec j;
  j.kind = JobKind::ior;
  j.nprocs = 8 << rng.uniform(2);  // 8..16 ranks
  j.ior.block_size = 4_MiB;
  j.ior.transfer_size = 1_MiB;
  j.ior.segment_count = static_cast<std::uint32_t>(2 + rng.uniform(4));
  j.ior.hints.driver = mpiio::Driver::ad_lustre;
  j.ior.hints.striping_factor = 4;
  j.ior.hints.striping_unit = 1_MiB;
  return j;
}

JobSpec checkpoint_template(Rng& rng) {
  JobSpec j;
  j.kind = JobKind::ior;
  j.nprocs = 16 << rng.uniform(2);  // 16..32 ranks
  j.ior.block_size = 16_MiB;
  j.ior.transfer_size = 4_MiB;
  j.ior.segment_count = 1;
  j.ior.hints.driver = mpiio::Driver::ad_lustre;
  j.ior.hints.striping_factor = 16;
  j.ior.hints.striping_unit = 4_MiB;
  return j;
}

JobSpec plfs_template(Rng& rng) {
  JobSpec j;
  j.kind = JobKind::plfs;
  j.nprocs = 8 << rng.uniform(2);  // 8..16 ranks
  j.ior.block_size = 4_MiB;
  j.ior.transfer_size = 1_MiB;
  j.ior.segment_count = static_cast<std::uint32_t>(1 + rng.uniform(2));
  j.ior.hints.driver = mpiio::Driver::ad_plfs;
  return j;
}

JobSpec mdstorm_template(Rng& rng) {
  JobSpec j;
  j.kind = JobKind::ior;
  j.nprocs = 8 << rng.uniform(2);  // 8..16 ranks
  j.ior.block_size = 256_KiB;
  j.ior.transfer_size = 64_KiB;
  j.ior.segment_count = 1;
  j.ior.use_collective = false;     // independent tiny writes
  j.ior.file_per_process = true;    // one file per rank: create storm
  j.ior.hints.driver = mpiio::Driver::ad_lustre;
  j.ior.hints.striping_factor = 1;
  j.ior.hints.striping_unit = 1_MiB;
  return j;
}

struct Template {
  const char* name;
  TemplateFn make;
};

constexpr Template kTemplates[] = {
    {"ior", ior_template},
    {"checkpoint", checkpoint_template},
    {"plfs", plfs_template},
    {"mdstorm", mdstorm_template},
};

const Template* find_template(std::string_view name) {
  for (const Template& t : kTemplates) {
    if (name == t.name) return &t;
  }
  return nullptr;
}

}  // namespace

const std::string& fleet_template_names() {
  static const std::string names = [] {
    std::string out;
    for (const Template& t : kTemplates) {
      if (!out.empty()) out += ", ";
      out += t.name;
    }
    return out;
  }();
  return names;
}

std::vector<MixEntry> parse_fleet_mix(std::string_view flag,
                                      std::string_view text) {
  std::vector<MixEntry> mix;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    const std::string_view entry = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) {
      throw UsageError(std::string(flag) + ": empty mix entry in '" +
                       std::string(text) + "'");
    }
    const std::size_t colon = entry.find(':');
    MixEntry e;
    e.name = std::string(entry.substr(0, colon));
    if (find_template(e.name) == nullptr) {
      throw UsageError(std::string(flag) + ": unknown template '" + e.name +
                       "': expected one of: " + fleet_template_names());
    }
    if (colon != std::string_view::npos) {
      e.weight = static_cast<unsigned>(harness::cli::parse_uint(
          std::string(flag) + " weight for '" + e.name + "'",
          entry.substr(colon + 1)));
      PFSC_REQUIRE(e.weight > 0, std::string(flag) + ": weight for '" +
                                     e.name + "' must be positive");
    }
    mix.push_back(std::move(e));
    if (comma == text.size()) break;
  }
  PFSC_REQUIRE(!mix.empty(),
               std::string(flag) + ": mix needs at least one entry");
  return mix;
}

JobLog generate_fleet(const FleetConfig& cfg) {
  PFSC_REQUIRE(cfg.jobs > 0, "fleet: jobs must be positive");
  // A NaN or infinite span would otherwise fail later, as a job's arrival.
  PFSC_REQUIRE(std::isfinite(cfg.span) && cfg.span >= 0.0,
               "fleet: span must be finite and non-negative");
  const std::vector<MixEntry> mix = parse_fleet_mix("fleet mix", cfg.mix);
  std::uint64_t total_weight = 0;
  for (const MixEntry& e : mix) total_weight += e.weight;

  Rng rng(cfg.seed);
  JobLog log;
  log.procs_per_node = cfg.procs_per_node;
  // Poisson process: exponential inter-arrival gaps with mean span/jobs.
  const double mean_gap =
      cfg.span > 0.0 ? cfg.span / static_cast<double>(cfg.jobs) : 0.0;
  Seconds clock = 0.0;
  for (unsigned i = 0; i < cfg.jobs; ++i) {
    std::uint64_t pick = rng.uniform(total_weight);
    const MixEntry* chosen = &mix.front();
    for (const MixEntry& e : mix) {
      if (pick < e.weight) {
        chosen = &e;
        break;
      }
      pick -= e.weight;
    }
    JobSpec j = find_template(chosen->name)->make(rng);
    j.job_id = static_cast<lustre::sched::JobId>(i + 1);
    j.ior.job_id = j.job_id;
    j.app = chosen->name;
    if (mean_gap > 0.0) {
      clock += -std::log(1.0 - rng.uniform_double()) * mean_gap;
      j.arrival = clock;
    }
    j.ior.test_file =
        "/fleet/" + j.app + "." + std::to_string(j.job_id);
    log.jobs.push_back(std::move(j));
  }
  return log;
}

}  // namespace pfsc::replay
