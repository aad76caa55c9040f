// FIFO (null) scheduler: requests proceed to the OSS link in arrival
// order with no admission control, exactly as the data path behaved
// before the scheduler layer existed.
//
// try_grant() always grants, so admit() never suspends and schedules ZERO
// engine events: the event sequence — and therefore every golden number —
// is bit-for-bit identical to the pre-scheduler tree. The golden
// regression tests pin this.
#pragma once

#include "lustre/sched/scheduler.hpp"

namespace pfsc::lustre::sched {

class FifoSched final : public Scheduler {
 public:
  using Scheduler::Scheduler;

  SchedPolicy policy() const override { return SchedPolicy::fifo; }

 private:
  bool try_grant(JobId job, Bytes bytes, std::uint64_t trace_id) override {
    note_granted(trace_id, job, bytes);
    return true;
  }
  void park(JobId, Bytes, std::uint64_t, std::coroutine_handle<>) override {
    PFSC_ASSERT(false);  // try_grant never refuses
  }
};

}  // namespace pfsc::lustre::sched
