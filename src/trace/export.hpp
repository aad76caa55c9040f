// Exporters over a trace::Recorder's event buffer. Every exporter reads
// the recorder in one canonical order: tracks sorted by name, events
// stably ordered by (time, track), async span ids renumbered by first
// appearance. The bytes a run emits are therefore a function of the
// simulated history alone.
//
//  * export_chrome_trace — Chrome `trace_event` JSON (the object form with
//    "traceEvents"), loadable in about://tracing and ui.perfetto.dev. Each
//    recorder track becomes one thread row (pid 0); sync spans map to
//    B/E, async spans (nonzero id) to b/e, instants to i, counters to C.
//    Unmatched sync begins are auto-closed at the last event time so the
//    output is always well formed.
//  * export_counters_csv — every counter event as `time,track,name,value`
//    rows, for offline plotting.
//  * RunSummary — the per-run roll-up the paper's Tables V/VI report:
//    per-job and per-OST served bytes, mean scheduler queue depth, and
//    the Jain fairness index (built by trace::collect_summary, which
//    reads the numbers straight from FileSystem::sched_* so they agree
//    with every other consumer of those counters and cover the whole
//    run, however few events the buffer kept).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/units.hpp"
#include "trace/recorder.hpp"

namespace pfsc::trace {

std::string export_chrome_trace(const Recorder& rec);
std::string export_counters_csv(const Recorder& rec);

struct RunSummary {
  std::map<std::uint32_t, Bytes> job_bytes;  // served per JobId
  std::vector<Bytes> ost_bytes;              // serviced per OST disk
  double jain = 1.0;
  double mean_queue_depth = 0.0;       // OSS schedulers
  double mean_disk_queue_depth = 0.0;  // OST disk elevators
  std::uint64_t recorded_events = 0;
  std::uint64_t dropped_events = 0;

  /// Human-readable summary table (per-job rows + roll-up lines).
  std::string format() const;
};

/// Expand "{seed}" in a --trace_out path. Sweeps must use the placeholder
/// or every repetition writes (and clobbers) the same file.
std::string resolve_trace_path(const std::string& path, std::uint64_t seed);

}  // namespace pfsc::trace
