#include "harness/cli.hpp"

#include <cctype>
#include <charconv>

#include "mpiio/info.hpp"

namespace pfsc::harness::cli {

namespace {

[[noreturn]] void bad_value(std::string_view flag, std::string_view text,
                            const char* what) {
  throw UsageError(std::string(flag) + ": " + what + ": '" +
                   std::string(text) + "'");
}

template <typename T>
T parse_number(std::string_view flag, std::string_view text, const char* what) {
  T value{};
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || text.empty()) {
    bad_value(flag, text, what);
  }
  return value;
}

}  // namespace

sim::LinkPolicy parse_link_policy(std::string_view flag, std::string_view text) {
  if (text == "fifo") return sim::LinkPolicy::fifo;
  if (text == "fair_share") return sim::LinkPolicy::fair_share;
  bad_value(flag, text, "expected one of: fifo, fair_share");
}

lustre::sched::SchedPolicy parse_sched_policy(std::string_view flag,
                                              std::string_view text) {
  using lustre::sched::SchedPolicy;
  if (text == "fifo") return SchedPolicy::fifo;
  if (text == "job_fair") return SchedPolicy::job_fair;
  if (text == "token_bucket") return SchedPolicy::token_bucket;
  bad_value(flag, text, "expected one of: fifo, job_fair, token_bucket");
}

trace::TraceMode parse_trace_mode(std::string_view flag, std::string_view text) {
  trace::TraceMode mode = trace::TraceMode::off;
  if (!trace::parse_trace_mode(text, mode)) {
    bad_value(flag, text, "expected one of: off, summary, full");
  }
  return mode;
}

lustre::PlacementKind parse_placement_kind(std::string_view flag,
                                           std::string_view text) {
  using lustre::PlacementKind;
  if (text == "uniform_random") return PlacementKind::uniform_random;
  if (text == "round_robin") return PlacementKind::round_robin;
  if (text == "load_aware") return PlacementKind::load_aware;
  if (text == "node_affine") return PlacementKind::node_affine;
  bad_value(flag, text,
            "expected one of: uniform_random, round_robin, load_aware, "
            "node_affine");
}

AdmissionPolicy parse_admission_policy(std::string_view flag,
                                       std::string_view text) {
  if (text == "always") return AdmissionPolicy::always;
  if (text == "threshold") return AdmissionPolicy::threshold;
  if (text == "detune") return AdmissionPolicy::detune;
  bad_value(flag, text, "expected one of: always, threshold, detune");
}

ctrl::CtrlMode parse_ctrl_mode(std::string_view flag, std::string_view text) {
  using ctrl::CtrlMode;
  if (text == "off") return CtrlMode::off;
  if (text == "pfl") return CtrlMode::pfl;
  if (text == "qos") return CtrlMode::qos;
  if (text == "full") return CtrlMode::full;
  bad_value(flag, text, "expected one of: off, pfl, qos, full");
}

long long parse_int(std::string_view flag, std::string_view text) {
  return parse_number<long long>(flag, text, "expected an integer");
}

std::uint64_t parse_uint(std::string_view flag, std::string_view text) {
  return parse_number<std::uint64_t>(flag, text,
                                     "expected a non-negative integer");
}

double parse_double(std::string_view flag, std::string_view text) {
  return parse_number<double>(flag, text, "expected a number");
}

Bytes parse_bytes(std::string_view flag, std::string_view text) {
  std::size_t suffix = text.size();
  while (suffix > 0 && (std::isalpha(static_cast<unsigned char>(text[suffix - 1])) != 0)) {
    --suffix;
  }
  const std::string_view digits = text.substr(0, suffix);
  std::string_view unit = text.substr(suffix);
  Bytes multiplier = 1;
  if (!unit.empty()) {
    // Accept "K", "KB", "KiB" (binary semantics throughout, like lfs).
    const char head = static_cast<char>(std::toupper(static_cast<unsigned char>(unit[0])));
    switch (head) {
      case 'K': multiplier = 1_KiB; break;
      case 'M': multiplier = 1_MiB; break;
      case 'G': multiplier = 1_GiB; break;
      case 'T': multiplier = 1024_GiB; break;
      case 'B': multiplier = 1; break;
      default: bad_value(flag, text, "unknown byte-size suffix");
    }
    const std::string_view rest = unit.substr(1);
    if (!(rest.empty() || rest == "B" || rest == "b" || rest == "iB" ||
          rest == "ib")) {
      bad_value(flag, text, "unknown byte-size suffix");
    }
  }
  return parse_number<Bytes>(flag, digits, "expected a byte size") * multiplier;
}

Flag& FlagTable::add(std::string name, std::string value_name, std::string help,
                     std::function<void(std::string_view)> set) {
  PFSC_REQUIRE(set != nullptr, "FlagTable: null setter");
  PFSC_REQUIRE(name.rfind("--", 0) == 0, "FlagTable: flags start with --");
  PFSC_REQUIRE(find(name) == nullptr, "FlagTable: duplicate flag " + name);
  Flag flag;
  flag.name = std::move(name);
  flag.value_name = std::move(value_name);
  flag.help = std::move(help);
  flag.set = std::move(set);
  flags_.push_back(std::move(flag));
  return flags_.back();
}

Flag& FlagTable::bind(std::string name, int& target, std::string help) {
  const std::string flag = name;
  return add(std::move(name), "N", std::move(help),
             [flag, &target](std::string_view text) {
               target = static_cast<int>(parse_int(flag, text));
             });
}

Flag& FlagTable::bind(std::string name, unsigned& target, std::string help) {
  const std::string flag = name;
  return add(std::move(name), "N", std::move(help),
             [flag, &target](std::string_view text) {
               target = static_cast<unsigned>(parse_uint(flag, text));
             });
}

Flag& FlagTable::bind(std::string name, std::uint64_t& target, std::string help) {
  const std::string flag = name;
  return add(std::move(name), "N", std::move(help),
             [flag, &target](std::string_view text) {
               target = parse_uint(flag, text);
             });
}

Flag& FlagTable::bind(std::string name, double& target, std::string help) {
  const std::string flag = name;
  return add(std::move(name), "X", std::move(help),
             [flag, &target](std::string_view text) {
               target = parse_double(flag, text);
             });
}

Flag& FlagTable::bind(std::string name, std::string& target, std::string help) {
  return add(std::move(name), "STR", std::move(help),
             [&target](std::string_view text) { target = std::string(text); });
}

Flag& FlagTable::bind_bytes(std::string name, Bytes& target, std::string help) {
  const std::string flag = name;
  return add(std::move(name), "BYTES", std::move(help),
             [flag, &target](std::string_view text) {
               target = parse_bytes(flag, text);
             });
}

const Flag* FlagTable::find(std::string_view name) const {
  for (const auto& flag : flags_) {
    if (flag.name == name) return &flag;
  }
  return nullptr;
}

void FlagTable::parse(int argc, char** argv, int from) const {
  for (int i = from; i < argc; ++i) {
    const std::string_view key = argv[i];
    const Flag* flag = find(key);
    if (flag == nullptr) {
      throw UsageError("unknown flag '" + std::string(key) + "'");
    }
    if (i + 1 >= argc) {
      throw UsageError(flag->name + ": missing value");
    }
    flag->set(argv[++i]);
  }
}

std::string FlagTable::usage() const {
  std::string out;
  for (const auto& flag : flags_) {
    out += "  " + flag.name + " " + flag.value_name + "\n      " + flag.help +
           "\n";
  }
  return out;
}

FlagTable scenario_flags(Scenario& scenario, RunPlan& plan, unsigned& threads) {
  FlagTable table;

  // Scenario fields — PFSC_FLAG stringises the member, so the flag
  // spelling *is* the field name.
  PFSC_FLAG(table, scenario, nprocs, "ranks per job");
  PFSC_FLAG(table, scenario, procs_per_node, "ranks per simulated node");
  PFSC_FLAG(table, scenario, jobs, "simultaneous IOR jobs");
  PFSC_FLAG(table, scenario, telemetry_interval,
            "sampling interval in simulated seconds (0: off); a traced "
            "run mirrors the samples into the trace");

  // Event tracing (see trace/recorder.hpp).
  table.add("--trace", "MODE", "event tracing: off | summary | full",
            [&scenario](std::string_view text) {
              scenario.trace.mode = parse_trace_mode("--trace", text);
            });
  table.bind("--trace_out", scenario.trace.out,
             "trace output path ({seed} expands; .csv: counters CSV, "
             "else Chrome JSON / summary table)");

  PFSC_FLAG(table, scenario.ior.hints, striping_factor,
            "Lustre stripe count hint");
  PFSC_FLAG_BYTES(table, scenario.ior.hints, striping_unit,
                  "Lustre stripe size hint");
  PFSC_FLAG_BYTES(table, scenario.ior, block_size, "IOR blockSize per rank");
  PFSC_FLAG_BYTES(table, scenario.ior, transfer_size, "IOR transferSize");
  PFSC_FLAG(table, scenario.ior, segment_count, "IOR segmentCount");

  // Platform policy enums, parsed strictly (unknown names list the valid
  // choices instead of silently keeping the default).
  table.add("--link_policy", "POLICY",
            "link-sharing model: fifo | fair_share",
            [&scenario](std::string_view text) {
              scenario.platform.link_policy =
                  parse_link_policy("--link_policy", text);
            });
  table.add("--sched_policy", "POLICY",
            "OSS request scheduler: fifo | job_fair | token_bucket",
            [&scenario](std::string_view text) {
              scenario.platform.oss_sched_policy =
                  parse_sched_policy("--sched_policy", text);
            });
  table.add("--placement", "KIND",
            "MDS OST placement: uniform_random | round_robin | load_aware "
            "| node_affine",
            [&scenario](std::string_view text) {
              scenario.platform.ost_placement =
                  parse_placement_kind("--placement", text);
            });
  table.add("--admission", "POLICY",
            "fleet admission control: always | threshold | detune",
            [&scenario](std::string_view text) {
              scenario.admission.policy =
                  parse_admission_policy("--admission", text);
            });
  table.add("--admit_dload", "X",
            "admission D_load limit for threshold/detune ('inf' disables)",
            [&scenario](std::string_view text) {
              scenario.admission.max_dload =
                  parse_double("--admit_dload", text);
            });
  table.add("--admit_min_stripes", "N",
            "detune per-file stripe-count floor",
            [&scenario](std::string_view text) {
              const std::uint64_t v = parse_uint("--admit_min_stripes", text);
              if (v == 0 || v > 0xFFFFFFFFull) {
                throw UsageError("--admit_min_stripes: must be >= 1");
              }
              scenario.admission.min_stripes = static_cast<std::uint32_t>(v);
            });
  // Degenerate SchedTuning values are rejected right here so the error
  // names the flag (Scenario::validate would only name the field).
  table.add("--sched_quantum", "BYTES",
            "job_fair deficit quantum per round-robin visit",
            [&scenario](std::string_view text) {
              const Bytes v = parse_bytes("--sched_quantum", text);
              if (v == 0) throw UsageError("--sched_quantum: must be >= 1");
              scenario.platform.oss_sched.quantum = v;
            });
  table.add("--sched_slots", "N",
            "job_fair cap on in-service requests per OSS",
            [&scenario](std::string_view text) {
              const std::uint64_t v = parse_uint("--sched_slots", text);
              if (v == 0) throw UsageError("--sched_slots: must be >= 1");
              scenario.platform.oss_sched.service_slots =
                  static_cast<std::size_t>(v);
            });
  table.add("--sched_job_rate_mbps", "X",
            "token_bucket sustained per-job rate (MB/s)",
            [&scenario](std::string_view text) {
              const double v = parse_double("--sched_job_rate_mbps", text);
              if (!(v > 0.0)) {
                throw UsageError("--sched_job_rate_mbps: must be positive");
              }
              scenario.platform.oss_sched.job_rate = mb_per_sec(v);
            });
  table.add("--sched_bucket_depth", "BYTES",
            "token_bucket burst allowance",
            [&scenario](std::string_view text) {
              const Bytes v = parse_bytes("--sched_bucket_depth", text);
              if (v == 0) {
                throw UsageError("--sched_bucket_depth: must be >= 1");
              }
              scenario.platform.oss_sched.bucket_depth = v;
            });
  table.add("--ctrl", "MODE",
            "online adaptive tuning: off | pfl | qos | full",
            [&scenario](std::string_view text) {
              scenario.ctrl.mode = parse_ctrl_mode("--ctrl", text);
            });
  table.add("--ctrl_interval", "SECONDS",
            "adaptive controller tick period",
            [&scenario](std::string_view text) {
              const double v = parse_double("--ctrl_interval", text);
              if (!(v > 0.0)) {
                throw UsageError("--ctrl_interval: must be positive");
              }
              scenario.ctrl.interval = v;
            });
  table.add("--ctrl_cooldown", "SECONDS",
            "minimum time between two actions of the same rule",
            [&scenario](std::string_view text) {
              const double v = parse_double("--ctrl_cooldown", text);
              if (v < 0.0) {
                throw UsageError("--ctrl_cooldown: must be non-negative");
              }
              scenario.ctrl.cooldown = v;
            });

  // Full textual hints override individual hint flags (MPI_Info form).
  table.add("--hints", "\"k=v;k=v\"", "MPI-IO hints, textual MPI_Info form",
            [&scenario](std::string_view text) {
              const auto parsed =
                  mpiio::parse_hints(text, scenario.ior.hints);
              if (!parsed.unknown_keys.empty()) {
                throw UsageError("--hints: unknown hint key '" +
                                 parsed.unknown_keys.front() + "'");
              }
              scenario.ior.hints = parsed.hints;
            });

  // RunPlan fields.
  table.add("--repetitions", "N", "repetitions per plan point",
            [&plan](std::string_view text) {
              plan.repetitions(
                  static_cast<unsigned>(parse_uint("--repetitions", text)));
            });
  table.add("--base_seed", "N", "base seed for per-repetition seed derivation",
            [&plan](std::string_view text) {
              plan.base_seed(parse_uint("--base_seed", text));
            });

  // ParallelRunner.
  table.bind("--threads", threads,
             "worker threads for the sweep (0: hardware concurrency)");
  return table;
}

void JobOptions::apply(Scenario& scenario) const {
  if (probe && scenario.job_list.empty()) {
    scenario.job_list = Scenario::probe(writers, bytes_per_writer).job_list;
  }
  scenario.add_noise(noise_writers, 256_MiB);
}

void add_job_flags(FlagTable& table, JobOptions& opts) {
  PFSC_FLAG(table, opts, writers, "probe writers on one OST");
  PFSC_FLAG_BYTES(table, opts, bytes_per_writer,
                  "bytes each probe writer streams");
  PFSC_FLAG(table, opts, noise_writers, "background noise writers");
}

}  // namespace pfsc::harness::cli
