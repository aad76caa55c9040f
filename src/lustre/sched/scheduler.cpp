#include "lustre/sched/scheduler.hpp"

#include <vector>

#include "lustre/sched/fifo.hpp"
#include "lustre/sched/job_fair.hpp"
#include "lustre/sched/token_bucket.hpp"
#include "support/stats.hpp"

namespace pfsc::lustre::sched {

const char* sched_policy_name(SchedPolicy policy) {
  switch (policy) {
    case SchedPolicy::fifo: return "fifo";
    case SchedPolicy::job_fair: return "job_fair";
    case SchedPolicy::token_bucket: return "token_bucket";
  }
  return "?";
}

std::uint64_t Scheduler::note_submitted(JobId job, Bytes bytes) {
  const Seconds now = eng_->now();
  queue_area_.advance(now, queued_);
  ++queued_;
  submitted_bytes_ += bytes;
  auto* rec = eng_->recorder();
  if (rec == nullptr || !rec->enabled(trace::Cat::sched)) return 0;
  const trace::TrackId track = track_.get(*rec, trace_label_);
  const std::uint64_t id = rec->next_id();
  // The async "wait" span brackets submission -> grant; note_granted ends
  // it, so an instantly-granting policy records a zero-length wait.
  rec->begin(trace::Cat::sched, track, "wait", now, id,
             static_cast<std::int64_t>(job), static_cast<std::int64_t>(bytes));
  rec->counter(trace::Cat::sched, track, "queue", now,
               static_cast<double>(queued_));
  return id;
}

void Scheduler::note_granted(std::uint64_t trace_id, JobId job, Bytes bytes) {
  PFSC_ASSERT(queued_ > 0);
  const Seconds now = eng_->now();
  queue_area_.advance(now, queued_);
  --queued_;
  ++in_service_;
  admitted_bytes_ += bytes;
  auto* rec = eng_->recorder();
  if (rec == nullptr || !rec->enabled(trace::Cat::sched)) return;
  const trace::TrackId track = track_.get(*rec, trace_label_);
  rec->end(trace::Cat::sched, track, "wait", now, trace_id,
           static_cast<std::int64_t>(job), static_cast<std::int64_t>(bytes));
  rec->counter(trace::Cat::sched, track, "queue", now,
               static_cast<double>(queued_));
  rec->counter(trace::Cat::sched, track, "inflight", now,
               static_cast<double>(in_service_));
}

void Scheduler::complete(JobId job, Bytes bytes) {
  if (in_service_ == 0) {
    throw SimulationError("Scheduler::complete without a matching admit");
  }
  --in_service_;
  served_bytes_ += bytes;
  served_[job] += bytes;
  if (auto* rec = eng_->recorder();
      rec != nullptr && rec->enabled(trace::Cat::sched)) {
    const trace::TrackId track = track_.get(*rec, trace_label_);
    const Seconds now = eng_->now();
    rec->instant(trace::Cat::sched, track, "complete", now,
                 static_cast<std::int64_t>(job),
                 static_cast<std::int64_t>(bytes));
    rec->counter(trace::Cat::sched, track, "inflight", now,
                 static_cast<double>(in_service_));
  }
  on_complete();
}

void Scheduler::set_tuning(const SchedTuning& tuning) {
  validate_tuning(tuning);
  const SchedTuning previous = tuning_;
  tuning_ = tuning;
  on_retune(previous);
}

Bytes Scheduler::served_bytes(JobId job) const {
  const auto it = served_.find(job);
  return it == served_.end() ? 0 : it->second;
}

void Scheduler::check_invariants() const {
  if (admitted_bytes_ > submitted_bytes_) {
    throw SimulationError("Scheduler: admitted more bytes than submitted");
  }
  if (served_bytes_ > admitted_bytes_) {
    throw SimulationError("Scheduler: served more bytes than admitted");
  }
  Bytes per_job = 0;
  for (const auto& [job, bytes] : served_) per_job += bytes;
  if (per_job != served_bytes_) {
    throw SimulationError("Scheduler: per-job served bytes do not sum to total");
  }
}

std::unique_ptr<Scheduler> make_scheduler(sim::Engine& eng, SchedPolicy policy,
                                          SchedTuning tuning) {
  switch (policy) {
    case SchedPolicy::fifo:
      return std::make_unique<FifoSched>(eng, tuning);
    case SchedPolicy::job_fair:
      return std::make_unique<JobFairSched>(eng, tuning);
    case SchedPolicy::token_bucket:
      return std::make_unique<TokenBucketSched>(eng, tuning);
  }
  throw UsageError("make_scheduler: unknown policy");
}

}  // namespace pfsc::lustre::sched
