// Telemetry: periodic sampling of simulated-system counters into time
// series, for bandwidth timelines and per-device utilisation breakdowns.
//
// A Sampler is a simulation process that wakes every `interval` seconds
// and snapshots a set of registered probes (fabric bytes, per-OST bytes
// and busy time, client counters, ...). Probes are registered either
// directly (add_probe) or as trace::Instrument packs (add_instruments
// with one of the trace/instruments.hpp builders, which also guards
// against probes outliving the devices they read). A harness run builds
// at most one Sampler, at Scenario::telemetry_interval.
// Series are exportable as CSV for offline plotting; `bandwidth_timeline`
// post-processes cumulative byte counters into per-interval MB/s.
//
// When the engine has a trace::Recorder attached, every tick is mirrored
// into it as Cat::sampler counter events on the "sampler" track, so the
// sampled series land in the same Chrome trace as the event-driven spans.
//
// Lifetime rule: probes read live simulator objects by reference, so a
// probe must not outlive the object it reads. Register probes through
// add_instruments with FileSystem::liveness() and a stale read trips an
// assertion instead of undefined behaviour.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "support/units.hpp"
#include "trace/instruments.hpp"
#include "trace/recorder.hpp"

namespace pfsc::trace {

/// One sampled series: a name plus (time, value) points.
struct Series {
  std::string name;
  std::vector<Seconds> at;
  std::vector<double> value;

  std::size_t size() const { return at.size(); }
};

class Sampler {
 public:
  /// Probes are called at every tick; they must be cheap and side-effect
  /// free. Register them before starting the sampler.
  using Probe = std::function<double()>;

  /// Ticks every `interval` simulated seconds, starting at start().
  Sampler(sim::Engine& eng, Seconds interval);

  /// Keep sampling only while `active()` is true (checked after each
  /// tick). This is how sampling ends: a sampler without a watch keeps
  /// the engine alive forever, so only run_until() can bound it.
  void watch(std::function<bool()> active) { active_ = std::move(active); }

  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Register a probe; returns its series index.
  std::size_t add_probe(std::string name, Probe probe);

  /// Register a pack of instruments; returns the index of the first
  /// series. When `alive` is non-empty every read asserts the token has
  /// not expired, catching probes that outlive their FileSystem.
  std::size_t add_instruments(InstrumentSet set,
                              std::weak_ptr<const void> alive = {});

  /// Start sampling (spawns the sampler process; the first tick is now).
  void start();

  const std::vector<Series>& series() const { return series_; }
  const Series& series(std::size_t idx) const;

  /// Differentiate a cumulative byte series into MB/s per interval.
  static Series bandwidth_timeline(const Series& cumulative_bytes);

 private:
  sim::Task run();
  void sample_tick();
  void mirror_to_recorder();

  sim::Engine* eng_;
  Seconds interval_;
  std::function<bool()> active_;
  std::vector<Probe> probes_;
  std::vector<Series> series_;
  bool started_ = false;

  // Recorder mirroring: interned per-series counter names, re-interned
  // when a different recorder shows up (fresh Rig per repetition).
  TrackHandle track_;
  Recorder* names_rec_ = nullptr;
  std::vector<const char*> rec_names_;
};

}  // namespace pfsc::trace
