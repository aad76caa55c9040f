#include "replay/replay_cli.hpp"

namespace pfsc::replay {

void ReplayOptions::apply(harness::Scenario& scenario) const {
  if (!replay_log.empty() && fleet_requested) {
    throw UsageError("--replay and --fleet are mutually exclusive");
  }
  if (!replay_log.empty()) {
    const JobLog log = load_joblog(replay_log);
    scenario.job_list = log.jobs;
    scenario.procs_per_node = log.procs_per_node;
  } else if (fleet_requested) {
    FleetConfig cfg = fleet;
    cfg.procs_per_node = scenario.procs_per_node;
    scenario.job_list = generate_fleet(cfg).jobs;
  }
}

void add_replay_flags(harness::cli::FlagTable& table, ReplayOptions& opts) {
  table.bind("--replay", opts.replay_log,
             "replay a PFSC joblog (path; see DESIGN.md §11)");
  table.add("--fleet", "N", "generate a synthetic fleet of N jobs",
            [&opts](std::string_view text) {
              opts.fleet.jobs = static_cast<unsigned>(
                  harness::cli::parse_uint("--fleet", text));
              if (opts.fleet.jobs == 0) {
                throw UsageError("--fleet: needs at least one job");
              }
              opts.fleet_requested = true;
            });
  table.add("--fleet_mix", "MIX",
            "weighted fleet templates (" + fleet_template_names() +
                "), e.g. ior:4,checkpoint:2",
            [&opts](std::string_view text) {
              // Validate eagerly so a typo fails at the flag, listing the
              // valid template names.
              (void)parse_fleet_mix("--fleet_mix", text);
              opts.fleet.mix = std::string(text);
            });
  table.bind("--fleet_seed", opts.fleet.seed,
             "fleet generator seed (independent of --base_seed)");
  table.bind("--fleet_span", opts.fleet.span,
             "fleet arrival window in simulated seconds (0: all at t=0)");
}

}  // namespace pfsc::replay
