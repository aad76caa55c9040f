// CLI surface for replay and fleet generation.
//
// Registered on top of harness::cli::scenario_flags by drivers that want
// workload replay (pfsc_cli does). The flags only *record* the request;
// apply() resolves it into the scenario's job list after the whole command
// line has parsed, so flag order never matters (--fleet_seed after --fleet
// works). Values parse strictly at flag time — an unknown --fleet_mix
// template is a UsageError listing the valid choices, consistent with
// --link_policy.
#pragma once

#include "harness/cli.hpp"
#include "replay/fleet.hpp"
#include "replay/log.hpp"

namespace pfsc::replay {

struct ReplayOptions {
  std::string replay_log;  // --replay: joblog path ("" = off)
  FleetConfig fleet;       // --fleet/--fleet_mix/--fleet_seed/--fleet_span
  bool fleet_requested = false;

  bool active() const { return !replay_log.empty() || fleet_requested; }

  /// Resolve --replay / --fleet into `scenario.job_list` (and
  /// procs_per_node for replayed logs). No-op when neither flag was given;
  /// UsageError when both were.
  void apply(harness::Scenario& scenario) const;
};

/// Register --replay, --fleet, --fleet_mix, --fleet_seed and --fleet_span.
void add_replay_flags(harness::cli::FlagTable& table, ReplayOptions& opts);

}  // namespace pfsc::replay
