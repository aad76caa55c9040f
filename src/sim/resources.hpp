// Synchronisation primitives for simulation processes.
//
//  * Event          — one-shot (resettable) broadcast signal; waiters are
//                     coroutines or parked Wakeable records.
//  * Condition      — condition-variable-like signal (no latched state).
//  * Resource       — counting semaphore with FIFO hand-off.
//
// The bandwidth servers built on these primitives (the basic building
// blocks of the network model) live in sim/link.hpp as implementations of
// the pluggable LinkModel interface.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/ring.hpp"
#include "support/units.hpp"

namespace pfsc::sim {

class Event {
 public:
  explicit Event(Engine& eng) : eng_(&eng) {}

  bool fired() const { return fired_; }

  /// Fire the event, waking all current waiters at the current time, in
  /// the order they waited or were parked.
  void trigger() {
    if (fired_) return;
    fired_ = true;
    for (const Wakeup w : waiters_) eng_->schedule(w, eng_->now());
    waiters_.clear();
  }

  /// Re-arm a fired event (no waiters may be pending).
  void reset() {
    PFSC_ASSERT(waiters_.empty());
    fired_ = false;
  }

  auto wait() {
    struct Awaiter {
      Event& evt;
      bool await_ready() const noexcept { return evt.fired_; }
      void await_suspend(std::coroutine_handle<> h) { evt.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /// Queue record `w` to be woken at the trigger. A record has no
  /// await_ready, so the event must not have fired yet.
  void park(Wakeable& w) {
    PFSC_ASSERT(!fired_);
    waiters_.push_back(w);
  }

 private:
  Engine* eng_;
  bool fired_ = false;
  std::vector<Wakeup> waiters_;
};

/// Condition-variable-like signal: wait() always suspends until the next
/// notify_all(). Unlike Event there is no latched state, so it suits
/// "re-check a predicate in a loop" patterns with many concurrent waiters.
class Condition {
 public:
  explicit Condition(Engine& eng) : eng_(&eng) {}

  auto wait() {
    struct Awaiter {
      Condition& cond;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { cond.waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void notify_all() {
    for (auto h : waiters_) eng_->schedule(h, eng_->now());
    waiters_.clear();
  }

 private:
  Engine* eng_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore. release() hands the token directly to the oldest
/// waiter, so admission is strictly FIFO (no barging). Waiters are
/// coroutines (acquire()) or Wakeable records (acquire_or_queue()) in one
/// FIFO, a Ring that allocates nothing until the first waiter queues.
class Resource {
 public:
  Resource(Engine& eng, std::size_t capacity)
      : eng_(&eng), capacity_(capacity), available_(capacity) {
    PFSC_REQUIRE(capacity > 0, "Resource: capacity must be positive");
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t available() const { return available_; }
  std::size_t queue_length() const { return waiters_.size(); }

  /// Take a token now (true), or queue `w` to be woken at now() once a
  /// release() hands it one (false).
  bool acquire_or_queue(Wakeup w) {
    if (available_ > 0) {
      --available_;
      return true;
    }
    waiters_.push_back(w);
    return false;
  }

  auto acquire() {
    struct Awaiter {
      Resource& res;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        return !res.acquire_or_queue(h);  // token taken: continue at once
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release() {
    if (!waiters_.empty()) {
      const Wakeup w = waiters_.front();
      waiters_.pop_front();
      eng_->schedule(w, eng_->now());  // token passes directly to the waiter
    } else {
      PFSC_ASSERT(available_ < capacity_);
      ++available_;
    }
  }

 private:
  Engine* eng_;
  std::size_t capacity_;
  std::size_t available_;
  Ring<Wakeup> waiters_;
};

}  // namespace pfsc::sim
