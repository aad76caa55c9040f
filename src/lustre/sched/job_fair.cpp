#include "lustre/sched/job_fair.hpp"

namespace pfsc::lustre::sched {

JobFairSched::JobFairSched(sim::Engine& eng, SchedTuning tuning)
    : Scheduler(eng, tuning) {
  PFSC_REQUIRE(tuning.quantum > 0, "JobFairSched: quantum must be positive");
  PFSC_REQUIRE(tuning.service_slots >= 1,
               "JobFairSched: need at least one service slot");
}

bool JobFairSched::try_grant(JobId job, Bytes bytes, std::uint64_t trace_id) {
  // Fast path: nothing is backlogged and a slot is free — grant in arrival
  // order without suspending (no engine events).
  if (active_.empty() && in_service() < tuning_.service_slots) {
    note_granted(trace_id, job, bytes);
    return true;
  }
  return false;
}

void JobFairSched::park(JobId job, Bytes bytes, std::uint64_t trace_id,
                        std::coroutine_handle<> waiter) {
  auto& q = queues_[job];
  if (q.empty()) active_.push_back(job);
  q.push_back(Pending{bytes, waiter, trace_id});
  pump();
}

void JobFairSched::pump() {
  while (in_service() < tuning_.service_slots && !active_.empty()) {
    const JobId job = active_.front();
    auto& q = queues_[job];
    PFSC_ASSERT(!q.empty());
    Bytes& deficit = deficit_[job];
    if (deficit >= q.front().bytes) {
      // The deficit covers the head request: grant it and stay on this
      // job (DRR serves a job while its deficit lasts).
      const Pending head = q.front();
      q.pop_front();
      deficit -= head.bytes;
      note_granted(head.trace_id, job, head.bytes);
      eng_->schedule_after(head.waiter, 0.0);
      if (q.empty()) {
        // Drained: leave the rotation and forfeit the residual deficit
        // (a job must hold a backlog to bank credit).
        active_.pop_front();
        queues_.erase(job);
        deficit_.erase(job);
      }
      continue;
    }
    // End of this job's turn: bank one quantum and rotate to the back.
    deficit += tuning_.quantum;
    active_.pop_front();
    active_.push_back(job);
  }
}

void JobFairSched::on_complete() {
  // A completion pays down any post-retune excess before it frees a
  // grantable slot.
  if (overcommit_ > 0) {
    overcommit_ = in_service() > tuning_.service_slots
                      ? in_service() - tuning_.service_slots
                      : 0;
  }
  pump();
}

void JobFairSched::on_retune(const SchedTuning& previous) {
  (void)previous;  // deficits and queues carry over unchanged
  // Shrinking service_slots below the in-service count cannot recall
  // grants; remember the excess so check_invariants() stays truthful and
  // pump() stays closed until completions absorb it. A growth retune
  // clears any residue and immediately fills the new slots.
  overcommit_ = in_service() > tuning_.service_slots
                    ? in_service() - tuning_.service_slots
                    : 0;
  pump();
}

void JobFairSched::check_invariants() const {
  Scheduler::check_invariants();
  if (in_service() > tuning_.service_slots + overcommit_) {
    throw SimulationError("JobFairSched: in-service count exceeds slots");
  }
  std::size_t pending = 0;
  for (const auto& [job, q] : queues_) {
    if (q.empty()) {
      throw SimulationError("JobFairSched: empty queue left in the map");
    }
    std::size_t listed = 0;
    for (std::size_t k = 0; k < active_.size(); ++k) {
      listed += active_[k] == job ? 1 : 0;
    }
    if (listed != 1) {
      throw SimulationError("JobFairSched: backlogged job not in rotation");
    }
    pending += q.size();
  }
  if (active_.size() != queues_.size()) {
    throw SimulationError("JobFairSched: rotation lists a job with no queue");
  }
  if (pending != queue_depth()) {
    throw SimulationError("JobFairSched: queue sizes do not sum to depth");
  }
}

}  // namespace pfsc::lustre::sched
