#include "trace/recorder.hpp"

namespace pfsc::trace {

const char* cat_name(Cat c) {
  switch (c) {
    case Cat::engine: return "engine";
    case Cat::link: return "link";
    case Cat::disk: return "disk";
    case Cat::client: return "client";
    case Cat::sched: return "sched";
    case Cat::plfs: return "plfs";
    case Cat::sampler: return "sampler";
  }
  return "?";
}

unsigned trace_categories(TraceMode mode) {
  switch (mode) {
    case TraceMode::off: return 0;
    case TraceMode::summary: return kSummaryCats;
    case TraceMode::full: return kAllCats;
  }
  return 0;
}

bool parse_trace_mode(std::string_view name, TraceMode& out) {
  if (name == "off") {
    out = TraceMode::off;
  } else if (name == "summary") {
    out = TraceMode::summary;
  } else if (name == "full") {
    out = TraceMode::full;
  } else {
    return false;
  }
  return true;
}

Recorder::Recorder(std::size_t capacity, unsigned categories,
                   std::uint32_t engine_sample_every)
    : capacity_(capacity),
      categories_(categories),
      engine_sample_every_(engine_sample_every) {
  PFSC_REQUIRE(capacity >= 1, "Recorder: capacity must be positive");
  PFSC_REQUIRE(engine_sample_every >= 1,
               "Recorder: engine_sample_every must be positive");
  events_.reserve(capacity_ < 4096 ? capacity_ : 4096);
}

TrackId Recorder::track(std::string_view name) {
  if (const auto it = track_ids_.find(name); it != track_ids_.end()) {
    return it->second;
  }
  PFSC_REQUIRE(tracks_.size() < 65535, "Recorder: too many tracks");
  // The map key must view storage that survives vector reallocation, so it
  // views the interned copy, not tracks_'s element.
  const char* stable = intern(name);
  const auto id = static_cast<TrackId>(tracks_.size());
  tracks_.emplace_back(name);
  track_ids_.emplace(std::string_view(stable), id);
  return id;
}

const char* Recorder::intern(std::string_view name) {
  if (const auto it = intern_ids_.find(name); it != intern_ids_.end()) {
    return it->second;
  }
  interned_.emplace_back(name);
  const char* stable = interned_.back().c_str();
  intern_ids_.emplace(std::string_view(interned_.back()), stable);
  return stable;
}

}  // namespace pfsc::trace
