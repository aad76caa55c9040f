#include "trace/telemetry.hpp"

#include <utility>

namespace pfsc::trace {

Sampler::Sampler(sim::Engine& eng, Seconds interval)
    : eng_(&eng), interval_(interval) {
  PFSC_REQUIRE(interval > 0.0, "Sampler: interval must be positive");
}

std::size_t Sampler::add_probe(std::string name, Probe probe) {
  PFSC_REQUIRE(!started_, "Sampler: register probes before start()");
  PFSC_REQUIRE(probe != nullptr, "Sampler: null probe");
  probes_.push_back(std::move(probe));
  Series s;
  s.name = std::move(name);
  series_.push_back(std::move(s));
  return series_.size() - 1;
}

std::size_t Sampler::add_instruments(InstrumentSet set,
                                     std::weak_ptr<const void> alive) {
  PFSC_REQUIRE(!set.empty(), "Sampler: empty instrument set");
  const std::size_t first = series_.size();
  const bool guarded = alive.lock() != nullptr;
  for (Instrument& inst : set) {
    if (guarded) {
      add_probe(std::move(inst.name),
                [read = std::move(inst.read), alive] {
                  // A firing here means the probed object was destroyed
                  // while this sampler still reads it; see the lifetime
                  // rule in the header.
                  PFSC_ASSERT(!alive.expired());
                  return read();
                });
    } else {
      add_probe(std::move(inst.name), std::move(inst.read));
    }
  }
  return first;
}

void Sampler::start() {
  PFSC_REQUIRE(!started_, "Sampler: already started");
  started_ = true;
  eng_->spawn(run());
}

void Sampler::sample_tick() {
  for (std::size_t i = 0; i < probes_.size(); ++i) {
    series_[i].at.push_back(eng_->now());
    series_[i].value.push_back(probes_[i]());
  }
  mirror_to_recorder();
}

void Sampler::mirror_to_recorder() {
  auto* rec = eng_->recorder();
  if (rec == nullptr || !rec->enabled(Cat::sampler)) return;
  if (names_rec_ != rec) {
    rec_names_.clear();
    rec_names_.reserve(series_.size());
    for (const Series& s : series_) rec_names_.push_back(rec->intern(s.name));
    names_rec_ = rec;
  }
  const TrackId track = track_.get(*rec, "sampler");
  const Seconds now = eng_->now();
  for (std::size_t i = 0; i < series_.size(); ++i) {
    rec->counter(Cat::sampler, track, rec_names_[i], now,
                 series_[i].value.back());
  }
}

sim::Task Sampler::run() {
  for (;;) {
    sample_tick();
    if (active_ && !active_()) break;
    co_await eng_->delay(interval_);
  }
}

const Series& Sampler::series(std::size_t idx) const {
  PFSC_REQUIRE(idx < series_.size(), "Sampler: bad series index");
  return series_[idx];
}

Series Sampler::bandwidth_timeline(const Series& cumulative_bytes) {
  Series out;
  out.name = cumulative_bytes.name + "_mbps";
  for (std::size_t i = 1; i < cumulative_bytes.size(); ++i) {
    const Seconds dt = cumulative_bytes.at[i] - cumulative_bytes.at[i - 1];
    if (dt <= 0.0) continue;
    const double db = cumulative_bytes.value[i] - cumulative_bytes.value[i - 1];
    out.at.push_back(cumulative_bytes.at[i]);
    out.value.push_back(to_mbps(db / dt));
  }
  return out;
}

}  // namespace pfsc::trace
