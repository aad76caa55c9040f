#include "sim/link.hpp"

#include <algorithm>
#include <utility>

namespace pfsc::sim {

namespace {

/// A nanosecond of simulated slack: a flow whose remaining service time
/// falls below this completes in the current batch. Far below the
/// microsecond-scale latencies being modelled, but comfortably above the
/// floating-point error the virtual clock can accumulate — without it a
/// wake-up could land an ulp early and re-arm a zero-length timer forever.
constexpr Seconds kSlackEps = 1e-9;

}  // namespace

std::uint64_t LinkModel::trace_flow_begin(Bytes bytes) {
  auto* rec = eng_->recorder();
  if (rec == nullptr || !rec->enabled(trace::Cat::link)) return 0;
  const trace::TrackId track = track_.get(*rec, trace_label_);
  const std::uint64_t id = rec->next_id();
  const Seconds now = eng_->now();
  rec->begin(trace::Cat::link, track, "flow", now, id,
             static_cast<std::int64_t>(bytes));
  // Counters are sampled at the transition; the arriving flow has not yet
  // joined the model's books, so this reads one low for an instant.
  rec->counter(trace::Cat::link, track, "flows", now,
               static_cast<double>(active_flows()));
  return id;
}

void LinkModel::trace_flow_end(std::uint64_t id) {
  if (id == 0) return;
  auto* rec = eng_->recorder();
  if (rec == nullptr || !rec->enabled(trace::Cat::link)) return;
  const trace::TrackId track = track_.get(*rec, trace_label_);
  const Seconds now = eng_->now();
  rec->end(trace::Cat::link, track, "flow", now, id);
  rec->counter(trace::Cat::link, track, "flows", now,
               static_cast<double>(active_flows()));
  rec->counter(trace::Cat::link, track, "flow_mbps", now,
               to_mbps(flow_rate()));
}

const char* link_policy_name(LinkPolicy policy) {
  switch (policy) {
    case LinkPolicy::fifo: return "fifo";
    case LinkPolicy::fair_share: return "fair_share";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// FifoPipe
// ---------------------------------------------------------------------------

bool FifoPipe::start(Transfer& t) {
  t.flow_ = trace_flow_begin(t.bytes_);
  if (!slots_.acquire_or_queue(t)) return true;  // the hand-off wakes t
  return serve(t);
}

void FifoPipe::resume_queued(Transfer& t) {
  // Woken holding the slot a release() handed over.
  if (!serve(t)) t.waiter_.resume();
}

bool FifoPipe::serve(Transfer& t) {
  const Seconds service = service_time(t);
  t.started_ = eng_->now();
  ++in_service_;
  started_sum_ += t.started_;
  bytes_moved_ += t.bytes_;
  ++transfers_;
  if (service <= 0.0) return false;
  eng_->schedule_after(t.waiter_, service);
  return true;
}

void FifoPipe::finish(Transfer& t) {
  busy_time_ += service_time(t);
  // Reset at idle so rounding in the running sum cannot accumulate.
  started_sum_ = --in_service_ == 0 ? 0.0 : started_sum_ - t.started_;
  slots_.release();
  trace_flow_end(t.flow_);
}

// ---------------------------------------------------------------------------
// FairSharePipe
// ---------------------------------------------------------------------------

bool FairSharePipe::start(Transfer& t) {
  t.flow_ = trace_flow_begin(t.bytes_);
  if (latency_ > 0.0) {
    eng_->schedule_after(t, latency_);  // the record joins after the latency
  } else {
    join(t);
  }
  return true;
}

void FairSharePipe::resume_queued(Transfer& t) { join(t); }

void FairSharePipe::finish(Transfer& t) {
  bytes_moved_ += t.bytes_;
  ++transfers_;
  trace_flow_end(t.flow_);
}

/// Integrate the virtual clock (and the utilisation integral) up to now.
/// Must run before any change to the flow set.
void FairSharePipe::advance_clock() {
  const Seconds now = eng_->now();
  const std::size_t n = flows_.size();
  if (n > 0) {
    const Seconds dt = now - last_update_;
    vtime_ += dt * speed(n);
    const double c = static_cast<double>(channels_);
    busy_time_ += dt * std::min(static_cast<double>(n), c) / c;
  }
  last_update_ = now;
}

double FairSharePipe::utilisation() const {
  const Seconds t = eng_->now();
  if (t <= 0.0) return 0.0;
  Seconds busy = busy_time_;
  if (!flows_.empty()) {
    const double c = static_cast<double>(channels_);
    busy += (t - last_update_) *
            std::min(static_cast<double>(flows_.size()), c) / c;
  }
  return busy / t;
}

void FairSharePipe::join(const Transfer& t) {
  advance_clock();
  Flow flow;
  flow.finish_v = vtime_ + static_cast<double>(t.bytes_) / rate_;
  flow.id = next_flow_id_++;
  flow.waiter = t.waiter_;
  flows_.push_back(flow);
  std::push_heap(flows_.begin(), flows_.end(), LaterFinish{});
  arm();
}

/// Pop and resume every flow whose remaining service has vanished. Each
/// departure speeds up the survivors, so the per-iteration conversion from
/// virtual slack to real time uses the shrinking flow count.
void FairSharePipe::complete_due() {
  const Seconds now = eng_->now();
  while (!flows_.empty()) {
    const double remaining_v = flows_.front().finish_v - vtime_;
    const Seconds remaining_t = remaining_v / speed(flows_.size());
    if (remaining_t > kSlackEps) break;
    std::pop_heap(flows_.begin(), flows_.end(), LaterFinish{});
    eng_->schedule(flows_.back().waiter, now);
    flows_.pop_back();
  }
}

/// Parks the persistent timer coroutine and arms it for the earliest
/// completion. Publishing the handle from await_suspend (rather than
/// spawning the coroutine armed) closes the construction-order gap: flows
/// that join before the timer root's first dispatch find timer_h_ null,
/// and this arm() catches up for them.
struct FairShareTimerPark {
  FairSharePipe& pipe;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    pipe.timer_h_ = h;
    pipe.arm();
  }
  void await_resume() const noexcept {
    pipe.timer_token_ = WakeToken{};  // this wakeup just fired
  }
};

/// (Re-)schedule the timer for the earliest completion: cancel the pending
/// wakeup by token and schedule a fresh one. No-op until the timer
/// coroutine has parked for the first time (it re-arms itself on parking).
void FairSharePipe::arm() {
  eng_->cancel_scheduled(std::exchange(timer_token_, WakeToken{}));
  if (flows_.empty() || !timer_h_) return;
  const double remaining_v = flows_.front().finish_v - vtime_;
  const Seconds dt = std::max(0.0, remaining_v / speed(flows_.size()));
  timer_token_ = eng_->schedule_after(timer_h_, dt);
}

/// The pipe's one timer coroutine: parks, and on each wakeup settles all
/// due completions. Re-parking re-arms for whatever is due next.
Task FairSharePipe::timer_loop() {
  for (;;) {
    co_await FairShareTimerPark{*this};
    advance_clock();
    complete_due();
  }
}

std::unique_ptr<LinkModel> make_link(Engine& eng, LinkPolicy policy,
                                     BytesPerSecond rate,
                                     Seconds per_message_latency,
                                     std::size_t channels) {
  switch (policy) {
    case LinkPolicy::fifo:
      return std::make_unique<FifoPipe>(eng, rate, per_message_latency, channels);
    case LinkPolicy::fair_share:
      return std::make_unique<FairSharePipe>(eng, rate, per_message_latency,
                                             channels);
  }
  PFSC_REQUIRE(false, "make_link: unknown LinkPolicy");
  return nullptr;
}

}  // namespace pfsc::sim
