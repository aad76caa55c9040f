// Deficit-round-robin scheduler: equal byte shares per job.
//
// Each job has a FIFO queue of pending requests; jobs with a backlog sit
// in an active rotation. A visit adds `quantum` to the job's deficit
// counter and grants head-of-line requests while the deficit covers them;
// an emptied queue leaves the rotation and forfeits its deficit. The
// classic DRR bound applies: over any backlogged interval, two jobs'
// served bytes differ by at most quantum + max request size per round —
// independent of how many ranks a job runs or what RPC sizes it uses,
// which is exactly the asymmetry that lets one job of the paper's Fig. 3
// quartet crowd out the others under FIFO.
//
// `service_slots` caps requests granted but not yet completed. The cap is
// what gives the policy leverage (a backlog must wait where DRR can
// reorder it instead of queueing at the OSS link), and is sized to keep
// the link + disk pipeline saturated so total bandwidth stays at FIFO
// levels (bench/ablation_qos verifies both properties).
//
// Under light load (no backlog, free slots) try_grant grants at the
// co_await without touching the engine, so an uncontended data path costs
// nothing.
#pragma once

#include <coroutine>
#include <map>

#include "lustre/sched/scheduler.hpp"
#include "sim/ring.hpp"

namespace pfsc::lustre::sched {

class JobFairSched final : public Scheduler {
 public:
  JobFairSched(sim::Engine& eng, SchedTuning tuning);

  SchedPolicy policy() const override { return SchedPolicy::job_fair; }
  void check_invariants() const override;

  /// Jobs currently holding a backlog (diagnostics/tests).
  std::size_t backlogged_jobs() const { return active_.size(); }

 private:
  struct Pending {
    Bytes bytes = 0;
    std::coroutine_handle<> waiter;
    std::uint64_t trace_id = 0;  // note_submitted's span, ended at grant
  };

  bool try_grant(JobId job, Bytes bytes, std::uint64_t trace_id) override;
  void park(JobId job, Bytes bytes, std::uint64_t trace_id,
            std::coroutine_handle<> waiter) override;
  /// Grant queued requests round-robin until the slots fill or the
  /// backlog drains. Never resumes a waiter inline: granted waiters are
  /// scheduled on the engine, so pump() is safe to call from complete().
  void pump();
  void on_complete() override;
  void on_retune(const SchedTuning& previous) override;

  std::map<JobId, sim::Ring<Pending>> queues_;
  sim::Ring<JobId> active_;            // jobs with a non-empty queue
  std::map<JobId, Bytes> deficit_;     // per active job
  /// Grants legitimately in service beyond service_slots after a mid-run
  /// slot shrink. A retune cannot recall requests already at the disk, so
  /// the cap is honoured going forward: no new grants until completions
  /// pay the excess down (it never grows between retunes).
  std::size_t overcommit_ = 0;
};

}  // namespace pfsc::lustre::sched
