#include "harness/admission.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/metrics.hpp"
#include "harness/scenario.hpp"
#include "support/error.hpp"

namespace pfsc::harness {

const char* admission_action_name(AdmissionAction action) {
  switch (action) {
    case AdmissionAction::admitted: return "admitted";
    case AdmissionAction::delayed: return "delayed";
    case AdmissionAction::detuned: return "detuned";
  }
  return "?";
}

struct AdmissionController::Waiter {
  explicit Waiter(sim::Engine& eng) : evt(eng) {}
  const JobSpec* job = nullptr;
  sim::Event evt;
  bool released = false;
  bool waited = false;                // head ever blocked on the predicate
  std::uint32_t after = 0;            // per-file stripes at release
  double load = 0.0;                  // predicted D_load at release
  std::size_t running_before = 0;
};

AdmissionController::AdmissionController(sim::Engine& eng, AdmissionConfig cfg,
                                         const hw::PlatformParams& platform,
                                         trace::Recorder* recorder)
    : eng_(&eng), cfg_(cfg), params_(platform), recorder_(recorder) {
  PFSC_REQUIRE(cfg_.max_dload > 0.0, "admission: max_dload must be > 0");
  PFSC_REQUIRE(cfg_.min_stripes >= 1, "admission: min_stripes must be >= 1");
  if (recorder_ != nullptr) track_ = recorder_->track("admission");
}

AdmissionController::~AdmissionController() = default;

bool AdmissionController::detunable(const JobSpec& job) {
  // Only the Lustre-aware MPI-IO driver honours a reduced striping hint;
  // plfs layouts (2 stripes/rank) and probe/noise layouts are fixed.
  return job.kind == JobKind::ior &&
         job.ior.hints.driver == mpiio::Driver::ad_lustre;
}

std::uint32_t AdmissionController::requested_stripes(const JobSpec& job) const {
  std::uint32_t s = job.ior.hints.striping_factor != 0
                        ? job.ior.hints.striping_factor
                        : params_.default_stripe_count;
  s = std::min({s, params_.max_stripe_count, params_.ost_count});
  return std::max<std::uint32_t>(s, 1);
}

std::vector<double> AdmissionController::job_requests(
    const JobSpec& job, const hw::PlatformParams& platform,
    std::uint32_t stripes_override) {
  const auto clamp = [&](std::uint32_t s) {
    s = std::min({s, platform.max_stripe_count, platform.ost_count});
    return static_cast<double>(std::max<std::uint32_t>(s, 1));
  };
  switch (job.kind) {
    case JobKind::probe_writer:
      // Every writer pins one OST (stripe_count 1, explicit offset).
      return std::vector<double>(static_cast<std::size_t>(job.nprocs), 1.0);
    case JobKind::noise:
      return {clamp(job.stripes)};
    case JobKind::plfs:
      // ad_plfs: one 2-stripe data file per rank (Eq. 5/6's layout).
      return std::vector<double>(static_cast<std::size_t>(job.nprocs), 2.0);
    case JobKind::ior: {
      std::uint32_t s = stripes_override != 0 && detunable(job)
                            ? stripes_override
                            : (job.ior.hints.driver == mpiio::Driver::ad_lustre &&
                                       job.ior.hints.striping_factor != 0
                                   ? job.ior.hints.striping_factor
                                   : platform.default_stripe_count);
      const double r = clamp(s);
      if (job.ior.file_per_process)
        return std::vector<double>(static_cast<std::size_t>(job.nprocs), r);
      return {r};
    }
  }
  return {};
}

double AdmissionController::dload_with(const std::vector<double>& extra) const {
  std::vector<double> all;
  for (const Running& r : running_)
    all.insert(all.end(), r.requests.begin(), r.requests.end());
  all.insert(all.end(), extra.begin(), extra.end());
  if (all.empty()) return 0.0;
  const double d_total = static_cast<double>(params_.ost_count);
  const double inuse = core::d_inuse(all, d_total);
  if (inuse <= 0.0) return 0.0;
  const double total = std::accumulate(all.begin(), all.end(), 0.0);
  return total / inuse;  // Eq. 4's heterogeneous form: D_req / D_inuse
}

void AdmissionController::pump() {
  while (!queue_.empty()) {
    Waiter* w = queue_.front();
    const JobSpec& job = *w->job;
    std::uint32_t after = detunable(job) ? requested_stripes(job) : 0;
    double load = dload_with(job_requests(job, params_));

    if (cfg_.policy == AdmissionPolicy::threshold && load > cfg_.max_dload &&
        !running_.empty()) {
      w->waited = true;
      return;  // head-of-line blocking: strict FIFO release order
    }
    if (cfg_.policy == AdmissionPolicy::detune && load > cfg_.max_dload &&
        detunable(job)) {
      // Largest stripe count whose prediction fits; floor min_stripes.
      const std::uint32_t req = requested_stripes(job);
      const std::uint32_t floor =
          std::min(std::max<std::uint32_t>(cfg_.min_stripes, 1), req);
      for (std::uint32_t s = req; s > floor; --s) {
        const double trial = dload_with(job_requests(job, params_, s));
        if (trial <= cfg_.max_dload) {
          after = s;
          load = trial;
          break;
        }
        if (s - 1 == floor) {
          after = floor;
          load = dload_with(job_requests(job, params_, floor));
        }
      }
    }

    w->released = true;
    w->after = after;
    w->load = load;
    w->running_before = running_.size();
    running_.push_back(
        {job.job_id,
         job_requests(job, params_, after != 0 ? after : 0u)});
    queue_.pop_front();
    w->evt.trigger();
  }
}

sim::Co<std::uint32_t> AdmissionController::admit(const JobSpec& job) {
  AdmissionRecord rec;
  rec.job_id = job.job_id;
  rec.arrival = eng_->now();
  rec.stripes_before = detunable(job) ? requested_stripes(job) : 0;

  Waiter w(*eng_);
  w.job = &job;
  queue_.push_back(&w);
  pump();
  if (!w.released) {
    if (recorder_ != nullptr) {
      recorder_->begin(trace::Cat::sched, track_, "admit_wait", eng_->now(),
                       job.job_id + 1, static_cast<std::int64_t>(job.job_id));
    }
    co_await w.evt.wait();
    if (recorder_ != nullptr) {
      recorder_->end(trace::Cat::sched, track_, "admit_wait", eng_->now(),
                     job.job_id + 1, static_cast<std::int64_t>(job.job_id));
    }
  }

  rec.released = eng_->now();
  rec.stripes_after = w.after != 0 ? w.after : rec.stripes_before;
  rec.predicted_dload = w.load;
  rec.running_before = w.running_before;
  const bool detuned = w.after != 0 && w.after != rec.stripes_before;
  rec.action = detuned ? AdmissionAction::detuned
               : w.waited ? AdmissionAction::delayed
                          : AdmissionAction::admitted;
  if (recorder_ != nullptr) {
    recorder_->instant(trace::Cat::sched, track_,
                       admission_action_name(rec.action), eng_->now(),
                       static_cast<std::int64_t>(job.job_id),
                       static_cast<std::int64_t>(rec.stripes_after));
    recorder_->counter(trace::Cat::sched, track_, "predicted_dload",
                       eng_->now(), dload_with({}));
  }
  records_.push_back(rec);
  co_return detuned ? w.after : 0u;
}

void AdmissionController::finished(const JobSpec& job) {
  auto it = std::find_if(running_.begin(), running_.end(), [&](const Running& r) {
    return r.job_id == job.job_id;
  });
  if (it == running_.end()) return;
  running_.erase(it);
  if (recorder_ != nullptr) {
    recorder_->counter(trace::Cat::sched, track_, "predicted_dload",
                       eng_->now(), dload_with({}));
  }
  pump();
}

}  // namespace pfsc::harness
