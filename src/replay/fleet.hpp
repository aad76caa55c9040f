// Synthetic fleet generation: a day-in-the-life workload for the simulator.
//
// LASSi-style fleet analysis needs fleets to analyse. generate_fleet()
// draws `jobs` applications from a weighted mix of templates — the
// archetypes the contention literature keeps meeting:
//
//   ior         medium collective writer (the paper's Table II shape)
//   checkpoint  wide burst writer: big blocks, many stripes, short
//   plfs        checkpoint routed through PLFS (ad_plfs, N data files)
//   mdstorm     file-per-process small-file storm (metadata + tiny I/O)
//
// and schedules them as a Poisson arrival process over `span` simulated
// seconds. Everything is drawn from support/rng (xoshiro256**), so a given
// (jobs, mix, seed, span) produces the identical JobLog on every platform
// — the determinism the byte-identical-report tests pin. The result is a
// JobLog, not a Scenario: fleets pass through the same emit/parse/lower
// path as replayed logs (one code path to trust).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "replay/log.hpp"

namespace pfsc::replay {

/// One `name:weight` entry of a --fleet_mix string.
struct MixEntry {
  std::string name;
  unsigned weight = 1;
};

/// Parse "ior:4,checkpoint:2,plfs:1,mdstorm:1". A bare name means weight 1.
/// Unknown template names and malformed weights are UsageErrors listing the
/// valid choices (`flag` names the offending option in the message).
std::vector<MixEntry> parse_fleet_mix(std::string_view flag,
                                      std::string_view text);

/// The template names parse_fleet_mix accepts, comma-joined (for help text).
const std::string& fleet_template_names();

struct FleetConfig {
  unsigned jobs = 200;
  std::string mix = "ior:4,checkpoint:2,plfs:1,mdstorm:1";
  std::uint64_t seed = 0;
  /// Poisson arrival window in simulated seconds. 0 = synchronized start
  /// (every job arrives at t=0, the paper's simultaneous-submission mode).
  Seconds span = 60.0;
  int procs_per_node = 16;
};

/// Deterministically generate a fleet log: `cfg.jobs` jobs drawn from the
/// weighted mix, JobIds 1..jobs, files under "/fleet/". Throws UsageError
/// on an unknown mix entry, jobs == 0, or a negative or non-finite span.
JobLog generate_fleet(const FleetConfig& cfg);

}  // namespace pfsc::replay
