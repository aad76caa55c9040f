// Command-line binding for Scenario / RunPlan fields.
//
// The flag table is the single source of truth for the CLI surface: every
// flag is declared once, *named after the field it sets* (via PFSC_FLAG,
// which stringises the member name), with strict value parsing — a
// non-numeric or trailing-garbage value is a UsageError, never a silent
// std::atoi zero.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "harness/run_plan.hpp"
#include "harness/scenario.hpp"

namespace pfsc::harness::cli {

// -- strict scalar parsing --------------------------------------------------
// `flag` names the offending option in the UsageError message.

long long parse_int(std::string_view flag, std::string_view text);
std::uint64_t parse_uint(std::string_view flag, std::string_view text);
double parse_double(std::string_view flag, std::string_view text);
/// Bytes with an optional K/M/G/T suffix (binary units): "64M" == 64 MiB.
Bytes parse_bytes(std::string_view flag, std::string_view text);

// Enum values parse strictly too: an unknown name is a UsageError whose
// message lists the valid choices (never a silent default).
sim::LinkPolicy parse_link_policy(std::string_view flag, std::string_view text);
lustre::sched::SchedPolicy parse_sched_policy(std::string_view flag,
                                              std::string_view text);
trace::TraceMode parse_trace_mode(std::string_view flag, std::string_view text);
lustre::PlacementKind parse_placement_kind(std::string_view flag,
                                           std::string_view text);
AdmissionPolicy parse_admission_policy(std::string_view flag,
                                       std::string_view text);
ctrl::CtrlMode parse_ctrl_mode(std::string_view flag, std::string_view text);

// -- flag table -------------------------------------------------------------

struct Flag {
  std::string name;        // canonical spelling: "--" + field name
  std::string value_name;  // e.g. "N", "BYTES", "X"
  std::string help;
  std::function<void(std::string_view)> set;
};

class FlagTable {
 public:
  /// Declare a flag with a custom setter.
  Flag& add(std::string name, std::string value_name, std::string help,
            std::function<void(std::string_view)> set);

  // Typed bindings: the setter strictly parses into `target`.
  Flag& bind(std::string name, int& target, std::string help);
  Flag& bind(std::string name, unsigned& target, std::string help);
  Flag& bind(std::string name, std::uint64_t& target, std::string help);
  Flag& bind(std::string name, double& target, std::string help);
  Flag& bind(std::string name, std::string& target, std::string help);
  /// Bytes with K/M/G/T suffix support. (Bytes aliases std::uint64_t, so
  /// this needs its own spelling rather than an overload.)
  Flag& bind_bytes(std::string name, Bytes& target, std::string help);

  /// Parse `argv[from..argc)` as "--flag value" pairs. Throws UsageError on
  /// an unknown flag, a missing value, or a value that fails to parse.
  void parse(int argc, char** argv, int from) const;

  /// One "  --flag VALUE  help" line per flag.
  std::string usage() const;

  const std::vector<Flag>& flags() const { return flags_; }

 private:
  const Flag* find(std::string_view name) const;
  std::vector<Flag> flags_;
};

/// The standard Scenario/RunPlan surface: one flag per sweepable field,
/// named after the field, plus --threads for the ParallelRunner.
FlagTable scenario_flags(Scenario& scenario, RunPlan& plan, unsigned& threads);

/// Flags that add job-list entries rather than set a Scenario field. The
/// flags only record the request; apply() builds the entries once the
/// whole command line has parsed, after --replay / --fleet have filled
/// the job list.
struct JobOptions {
  std::uint32_t writers = 1;        // --writers
  Bytes bytes_per_writer = 64_MiB;  // --bytes_per_writer
  unsigned noise_writers = 0;       // --noise_writers
  /// The probe mode: `writers` probe writers replace an empty job list.
  bool probe = false;

  /// Probe writers (when `probe` and the list is empty), then
  /// `noise_writers` background writers of 256 MiB each.
  void apply(Scenario& scenario) const;
};

/// Register --writers, --bytes_per_writer and --noise_writers.
void add_job_flags(FlagTable& table, JobOptions& opts);

}  // namespace pfsc::harness::cli

/// Declare a flag named after `field` of `obj` (one source of truth: the
/// flag spelling *is* the member name).
#define PFSC_FLAG(table, obj, field, help) \
  (table).bind("--" #field, (obj).field, (help))
#define PFSC_FLAG_BYTES(table, obj, field, help) \
  (table).bind_bytes("--" #field, (obj).field, (help))
