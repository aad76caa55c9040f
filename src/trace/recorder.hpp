// Event-driven trace recording: the substrate every instrumented layer
// emits into.
//
// A trace::Recorder is a bounded buffer of typed events — spans (begin/end
// pairs, sync or async), instants, and counters — stamped with simulated
// time and grouped onto named tracks ("fabric", "ost3.disk",
// "client.rank12", ...). Layers reach it through sim::Engine::recorder():
// a null pointer when tracing is off, so every instrumentation hook costs
// one pointer test on the hot path and nothing else. With a recorder
// attached, a per-category bitmask (Cat) selects which layers record, so
// `--trace summary` can keep only the cheap scheduler/sampler counters
// while `--trace full` records everything.
//
// Overflow policy: the buffer is bounded (default 1 Mi events, ~56 MiB);
// once full, NEW events are dropped and counted (dropped()). Keeping the
// oldest prefix — rather than a circular overwrite — preserves matched
// span begin/end pairs in the kept window and keeps the policy
// deterministic; exporters report the drop count so a truncated trace is
// never mistaken for a complete one.
//
// This header depends only on support/ (no sim/lustre), so the low layers
// can include it without a dependency cycle: sim::Engine forward-declares
// Recorder and links pfsc_trace_core.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/error.hpp"
#include "support/units.hpp"

namespace pfsc::trace {

/// Which layer an event came from; doubles as the enable bitmask index.
enum class Cat : std::uint8_t {
  engine,   // sim::Engine dispatch batches
  link,     // sim::LinkModel flow arrival/departure, rate changes
  disk,     // hw::DiskModel stream open/close, hot window, service
  client,   // lustre::Client RPC lifecycle
  sched,    // sched::Scheduler enqueue/grant/complete
  plfs,     // plfs per-rank data-file writes
  sampler,  // trace::Sampler periodic counter mirror
};
inline constexpr std::size_t kCatCount = 7;

constexpr unsigned cat_bit(Cat c) { return 1u << static_cast<unsigned>(c); }
inline constexpr unsigned kAllCats = (1u << kCatCount) - 1;
/// The cheap always-consistent subset backing `--trace summary`.
inline constexpr unsigned kSummaryCats = cat_bit(Cat::sched) | cat_bit(Cat::sampler);

const char* cat_name(Cat c);

enum class EventKind : std::uint8_t {
  span_begin,  // id == 0: sync (nested per track); id != 0: async
  span_end,
  instant,
  counter,  // value carries the sampled quantity
};

using TrackId = std::uint16_t;

/// One recorded event. `name` must point at storage that outlives the
/// recorder: a string literal, or a string interned via Recorder::intern().
struct Event {
  Seconds t = 0.0;
  const char* name = nullptr;
  double value = 0.0;
  std::uint64_t id = 0;       // async span correlation id (0 = sync/none)
  std::int64_t arg0 = 0;      // layer-defined (job, stream, ost, ...)
  std::int64_t arg1 = 0;
  TrackId track = 0;
  EventKind kind = EventKind::instant;
  Cat cat = Cat::engine;
};

// -- run configuration ------------------------------------------------------

enum class TraceMode : std::uint8_t { off, summary, full };

/// Category enable mask a mode implies (off -> 0).
unsigned trace_categories(TraceMode mode);
/// Parse "off" / "summary" / "full" into `out`; false on anything else.
bool parse_trace_mode(std::string_view name, TraceMode& out);

/// How a run is traced; carried by harness::Scenario so every bench and
/// example can emit traces without code changes (--trace / --trace_out,
/// or the PFSC_TRACE* environment knobs). Periodic sampling into the trace
/// is the run's one sampler, at Scenario::telemetry_interval.
struct TraceConfig {
  TraceMode mode = TraceMode::off;
  /// Output path ("" = keep in memory only). "{seed}" is replaced by the
  /// run's seed — required to keep ParallelRunner repetitions from
  /// clobbering each other. ".csv" writes the counter CSV; any other
  /// suffix writes Chrome trace_event JSON (full) or the summary table.
  std::string out;
  /// Event-buffer bound; see the overflow policy in the file header.
  std::size_t capacity = std::size_t{1} << 20;
  /// Engine dispatch spans are batched: one span per this many dispatched
  /// events, so the engine layer cannot drown every other category.
  std::uint32_t engine_sample_every = 1024;
  /// Nonzero: category mask override (cat_bit combinations) replacing the
  /// mask the mode implies, e.g. to record one layer at a time.
  unsigned categories = 0;
};

// -- recorder ---------------------------------------------------------------

class Recorder {
 public:
  explicit Recorder(std::size_t capacity = TraceConfig{}.capacity,
                    unsigned categories = kAllCats,
                    std::uint32_t engine_sample_every =
                        TraceConfig{}.engine_sample_every);
  explicit Recorder(const TraceConfig& cfg)
      : Recorder(cfg.capacity,
                 cfg.categories != 0 ? cfg.categories
                                     : trace_categories(cfg.mode),
                 cfg.engine_sample_every) {}

  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled(Cat c) const { return (categories_ & cat_bit(c)) != 0; }
  std::uint32_t engine_sample_every() const { return engine_sample_every_; }

  /// Register (or look up) a track by name; ids are dense and assigned in
  /// first-use order, which is deterministic under a deterministic engine.
  TrackId track(std::string_view name);
  const std::vector<std::string>& tracks() const { return tracks_; }

  /// Stable storage for a dynamically-built event name (per-series sampler
  /// names, ...). Interning the same text twice returns the same pointer.
  const char* intern(std::string_view name);

  /// Fresh nonzero correlation id for an async span.
  std::uint64_t next_id() { return ++last_id_; }

  // -- emission (no-ops when the event's category is disabled) ----------
  void begin(Cat cat, TrackId track, const char* name, Seconds t,
             std::uint64_t id = 0, std::int64_t arg0 = 0,
             std::int64_t arg1 = 0, double value = 0.0) {
    push({t, name, value, id, arg0, arg1, track, EventKind::span_begin, cat});
  }
  void end(Cat cat, TrackId track, const char* name, Seconds t,
           std::uint64_t id = 0, std::int64_t arg0 = 0, std::int64_t arg1 = 0,
           double value = 0.0) {
    push({t, name, value, id, arg0, arg1, track, EventKind::span_end, cat});
  }
  void instant(Cat cat, TrackId track, const char* name, Seconds t,
               std::int64_t arg0 = 0, std::int64_t arg1 = 0) {
    push({t, name, 0.0, 0, arg0, arg1, track, EventKind::instant, cat});
  }
  void counter(Cat cat, TrackId track, const char* name, Seconds t,
               double value) {
    push({t, name, value, 0, 0, 0, track, EventKind::counter, cat});
  }

  // -- inspection -------------------------------------------------------
  const std::vector<Event>& events() const { return events_; }
  std::size_t capacity() const { return capacity_; }
  /// Events rejected because the buffer was full.
  std::uint64_t dropped() const { return dropped_; }

  /// Forget all recorded events (tracks and interned names survive).
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  void push(const Event& e) {
    if (!enabled(e.cat)) return;
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  std::size_t capacity_;
  unsigned categories_;
  std::uint32_t engine_sample_every_;
  std::vector<Event> events_;
  std::uint64_t dropped_ = 0;
  std::uint64_t last_id_ = 0;
  std::vector<std::string> tracks_;
  std::unordered_map<std::string_view, TrackId> track_ids_;
  std::deque<std::string> interned_;  // deque: stable c_str() addresses
  std::unordered_map<std::string_view, const char*> intern_ids_;
};

/// Caches one track id per (recorder, label) so steady-state emission does
/// not re-hash the label. Owners hold one handle per track they emit on;
/// re-resolution happens only when a different recorder shows up (a fresh
/// Rig per repetition swaps recorders under long-lived static labels).
class TrackHandle {
 public:
  TrackId get(Recorder& rec, std::string_view label) {
    if (&rec != rec_) {
      id_ = rec.track(label);
      rec_ = &rec;
    }
    return id_;
  }

 private:
  Recorder* rec_ = nullptr;
  TrackId id_ = 0;
};

}  // namespace pfsc::trace
