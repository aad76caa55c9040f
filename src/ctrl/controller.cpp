#include "ctrl/controller.hpp"

#include <algorithm>
#include <sstream>

namespace pfsc::ctrl {

using lustre::PflSpec;
using lustre::PlacementKind;
using lustre::sched::SchedTuning;

const char* ctrl_mode_name(CtrlMode mode) {
  switch (mode) {
    case CtrlMode::off: return "off";
    case CtrlMode::pfl: return "pfl";
    case CtrlMode::qos: return "qos";
    case CtrlMode::full: return "full";
  }
  return "?";
}

Controller::Controller(sim::Engine& eng, CtrlConfig cfg,
                       lustre::FileSystem& fs, trace::Recorder* recorder)
    : eng_(&eng),
      cfg_(cfg),
      fs_(&fs),
      recorder_(recorder),
      sched_baseline_(fs.params().oss_sched),
      placement_baseline_(fs.params().ost_placement) {
  PFSC_REQUIRE(cfg_.mode != CtrlMode::off,
               "Controller: construct only for an active mode");
  PFSC_REQUIRE(cfg_.interval > 0.0, "Controller: interval must be positive");
  PFSC_REQUIRE(cfg_.cooldown >= 0.0, "Controller: cooldown must be >= 0");
}

PflSpec calm_spec(const hw::PlatformParams& p) {
  // Calm: small files stay narrow (their bandwidth never justifies the
  // per-OST footprint), everything else stripes as wide as the platform
  // allows — sole writers get the full parallelism.
  const std::uint32_t wide = std::min(p.max_stripe_count, p.ost_count);
  PflSpec spec;
  spec.classes.push_back({16_MiB, 1});
  spec.classes.push_back({256_MiB, std::max(1u, wide / 4)});
  spec.wide = wide;
  return spec;
}

PflSpec storm_spec(const hw::PlatformParams& p, std::size_t writers) {
  // Storm: divide the OSTs across the active writers so each disk serves
  // as few competing streams as possible (the disk model's seek cost
  // amplifies per hot stream past the knee; see hw/disk.hpp). Every class
  // is capped at the share, so no file stripes wider than it would calm.
  const std::uint32_t wide = std::min(p.max_stripe_count, p.ost_count);
  const auto jobs = static_cast<std::uint32_t>(std::max<std::size_t>(writers, 1));
  const std::uint32_t share = std::max(1u, std::min(wide, p.ost_count / jobs));
  PflSpec spec;
  spec.classes.push_back({16_MiB, 1});
  spec.classes.push_back({256_MiB, std::min(std::max(1u, wide / 4), share)});
  spec.wide = share;
  return spec;
}

void Controller::start() {
  PFSC_REQUIRE(!started_, "Controller: already started");
  started_ = true;
  // Arm the baseline before the first event runs, so files created at
  // t=0 already land in the controlled regime.
  if (cfg_.mode == CtrlMode::pfl || cfg_.mode == CtrlMode::full) {
    set_pfl("pfl_calm", "wide layouts for new files", calm_spec(fs_->params()));
  }
  eng_->spawn(run());
}

sim::Task Controller::run() {
  for (;; ++ticks_) {
    co_await eng_->delay(cfg_.interval);
    tick();
    if (active_ && !active_()) break;
  }
}

void Controller::tick() {
  switch (cfg_.mode) {
    case CtrlMode::off: return;
    case CtrlMode::pfl:
      rule_pfl();
      return;
    case CtrlMode::qos:
      rule_qos();
      return;
    case CtrlMode::full:
      rule_pfl();
      rule_qos();
      rule_placement();
      return;
  }
}

std::size_t Controller::active_jobs() {
  const Seconds now = eng_->now();
  std::map<lustre::sched::JobId, Bytes> cur = fs_->sched_served_by_job();
  for (const auto& [job, bytes] : cur) {
    const auto it = served_prev_.find(job);
    const Bytes before = it == served_prev_.end() ? 0 : it->second;
    if (bytes > before) last_grew_[job] = now;
  }
  served_prev_ = std::move(cur);
  // A job stays "active" for active_window ticks after its last service:
  // FIFO drains one job's queue at a time, so a single-tick delta would
  // flap between 1 and n and drag the pfl rule with it.
  const Seconds window =
      static_cast<double>(cfg_.active_window) * cfg_.interval;
  std::size_t active = 0;
  for (const auto& [job, at] : last_grew_) {
    if (now - at <= window) ++active;
  }
  return active;
}

void Controller::rule_pfl() {
  const std::size_t active = active_jobs();
  if (!storm_ && active >= cfg_.storm_jobs) {
    if (in_cooldown("pfl")) return;
    storm_ = true;
    const PflSpec spec = storm_spec(fs_->params(), active);
    storm_width_ = spec.wide;
    std::ostringstream detail;
    detail << "narrow layouts: " << spec.wide << " stripes for "
           << active << " writers";
    set_pfl("pfl_storm", detail.str(), spec);
    return;
  }
  if (storm_ && active + 1 <= cfg_.storm_jobs) {
    // Exit once concurrency drops strictly below the entry threshold.
    // This condition is the exact complement of the entry test — the
    // stickiness against flapping comes from the active_window smoothing
    // in active_jobs() and the per-family cooldown, not from a threshold
    // band here.
    if (in_cooldown("pfl")) return;
    storm_ = false;
    storm_width_ = 0;
    set_pfl("pfl_calm", "wide layouts for new files", calm_spec(fs_->params()));
    return;
  }
  if (storm_) {
    // Still storming: re-divide if the writer count moved the share.
    const PflSpec spec = storm_spec(fs_->params(), active);
    if (spec.wide != storm_width_ && !in_cooldown("pfl")) {
      storm_width_ = spec.wide;
      std::ostringstream detail;
      detail << "re-divided: " << spec.wide << " stripes for " << active
             << " writers";
      set_pfl("pfl_storm", detail.str(), spec);
    }
  }
}

void Controller::rule_qos() {
  if (fs_->params().oss_sched_policy == lustre::sched::SchedPolicy::fifo) {
    return;  // FIFO has no tuning leverage
  }
  const double jain = fs_->sched_jain();
  if (!tightened_ && jain < cfg_.jain_low) {
    if (in_cooldown("qos")) return;
    tightened_ = true;
    SchedTuning tight = sched_baseline_;
    tight.quantum = std::max<Bytes>(1, sched_baseline_.quantum / 2);
    tight.service_slots =
        std::max<std::size_t>(1, sched_baseline_.service_slots / 2);
    tight.job_rate = sched_baseline_.job_rate / 2.0;
    tight.bucket_depth = std::max<Bytes>(1, sched_baseline_.bucket_depth / 2);
    std::ostringstream detail;
    detail << "tightened: jain " << jain << " < " << cfg_.jain_low;
    set_oss_tuning("qos_tighten", detail.str(), tight);
    return;
  }
  if (tightened_ && jain > cfg_.jain_high) {
    if (in_cooldown("qos")) return;
    tightened_ = false;
    std::ostringstream detail;
    detail << "restored baseline: jain " << jain << " > " << cfg_.jain_high;
    set_oss_tuning("qos_restore", detail.str(), sched_baseline_);
  }
}

void Controller::rule_placement() {
  const std::vector<std::uint64_t> objects = fs_->objects_per_ost();
  if (objects.empty()) return;
  std::uint64_t max = 0, sum = 0;
  for (const std::uint64_t n : objects) {
    max = std::max(max, n);
    sum += n;
  }
  if (sum == 0) return;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(objects.size());
  const double imbalance = static_cast<double>(max) / mean;
  if (!rebalancing_ && imbalance > cfg_.imbalance_high) {
    if (in_cooldown("placement")) return;
    rebalancing_ = true;
    std::ostringstream detail;
    detail << "load_aware placement: imbalance " << imbalance;
    set_placement("rebalance", detail.str(), PlacementKind::load_aware);
    return;
  }
  if (rebalancing_ && imbalance < cfg_.imbalance_low) {
    if (in_cooldown("placement")) return;
    rebalancing_ = false;
    std::ostringstream detail;
    detail << "restored " << lustre::placement_kind_name(placement_baseline_)
           << ": imbalance " << imbalance;
    set_placement("restore", detail.str(), placement_baseline_);
  }
}

bool Controller::in_cooldown(const char* family) const {
  const auto it = last_action_.find(family);
  if (it == last_action_.end()) return false;
  return eng_->now() - it->second < cfg_.cooldown;
}

void Controller::set_pfl(const char* rule, std::string detail, PflSpec spec) {
  fs_->set_pfl(std::move(spec));
  record("pfl", "pfl", rule, std::move(detail));
}

void Controller::set_oss_tuning(const char* rule, std::string detail,
                                const SchedTuning& tuning) {
  for (std::uint32_t oss = 0; oss < fs_->params().oss_count; ++oss) {
    fs_->oss_sched(oss).set_tuning(tuning);
  }
  record("oss_sched", "qos", rule, std::move(detail));
}

void Controller::set_placement(const char* rule, std::string detail,
                               PlacementKind kind) {
  fs_->set_placement(kind);
  record("placement", "placement", rule, std::move(detail));
}

void Controller::record(const char* endpoint, const char* family,
                        const char* rule, std::string detail) {
  const Seconds now = eng_->now();
  last_action_[family] = now;
  actions_.push_back(CtrlAction{now, endpoint, rule, std::move(detail)});
  if (recorder_ != nullptr && recorder_->enabled(trace::Cat::sched)) {
    const trace::TrackId track = track_.get(*recorder_, "ctrl");
    recorder_->instant(trace::Cat::sched, track, rule, now,
                       static_cast<std::int64_t>(actions_.size()),
                       static_cast<std::int64_t>(ticks_));
  }
}

}  // namespace pfsc::ctrl
