// Pluggable link-sharing models: how concurrent transfers share a
// bandwidth-limited link (fabric, OSS front end, node NIC, per-process
// pipe).
//
//  * LinkModel      — the interface every layer transfers through. A link
//                     has a nominal per-channel `rate`, an optional
//                     per-message latency, and `channels` parallel lanes;
//                     implementations decide how simultaneous flows share
//                     that capacity.
//  * FifoPipe       — store-and-forward FIFO server: a transfer holds a
//                     whole channel for bytes/rate seconds, so concurrent
//                     flows share capacity in arrival order. This is the
//                     historical `sim::BandwidthPipe` behaviour, preserved
//                     bit-for-bit (the golden-number regression tests pin
//                     it), and the default policy everywhere.
//  * FairSharePipe  — progress-based processor-sharing server: all
//                     in-flight flows advance simultaneously, each at
//                     min(rate, channels*rate/n). Implemented with a
//                     virtual-time clock and an earliest-completion heap,
//                     so a flow arrival or departure costs O(log n) — no
//                     rescan of the other in-flight flows. This models the
//                     paper's central picture of contention (n concurrent
//                     writers each seeing rate/n at the same instant)
//                     directly instead of emergently.
//
// `LinkPolicy` selects the implementation; `make_link` is the factory the
// owning layers (lustre::FileSystem, mpi::Runtime, lustre::Client) build
// their links through, driven by hw::PlatformParams::link_policy.
//
// A transfer is not a coroutine of its own: `transfer()` returns a
// LinkModel::Transfer awaiter that lives in the awaiting coroutine's
// frame, and the policy wakes either that coroutine or, while the
// transfer waits for a slot or its latency, the Transfer record itself.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resources.hpp"
#include "sim/task.hpp"
#include "support/units.hpp"
#include "trace/recorder.hpp"

namespace pfsc::sim {

enum class LinkPolicy {
  fifo,        // store-and-forward, arrival order (historical default)
  fair_share,  // processor sharing: n flows each progress at rate/n
};

const char* link_policy_name(LinkPolicy policy);

/// Interface for one bandwidth-limited link. Implementations own all the
/// queueing/sharing semantics; the common statistics and the probe surface
/// (flow count, per-flow rate, utilisation) work for every model.
class LinkModel {
 public:
  LinkModel(Engine& eng, BytesPerSecond rate, Seconds per_message_latency,
            std::size_t channels)
      : eng_(&eng), rate_(rate), latency_(per_message_latency), channels_(channels) {
    PFSC_REQUIRE(rate > 0.0, "LinkModel: rate must be positive");
    PFSC_REQUIRE(channels >= 1, "LinkModel: need at least one channel");
  }

  LinkModel(const LinkModel&) = delete;
  LinkModel& operator=(const LinkModel&) = delete;
  virtual ~LinkModel() = default;

  class Transfer;

  /// Move `bytes` through the link; `co_await` it to wait for queueing +
  /// service.
  Transfer transfer(Bytes bytes);

  virtual LinkPolicy policy() const = 0;

  // -- probe surface (instantaneous; cheap, side-effect free) -----------
  /// Flows currently inside transfer(): queued + in service.
  virtual std::size_t active_flows() const = 0;
  /// Instantaneous service rate an in-service flow sees (0 when idle).
  virtual BytesPerSecond flow_rate() const = 0;
  /// Fraction of [0, now] this link spent serving (per channel).
  virtual double utilisation() const = 0;

  // -- common statistics -------------------------------------------------
  BytesPerSecond rate() const { return rate_; }
  std::size_t channels() const { return channels_; }
  Bytes bytes_moved() const { return bytes_moved_; }
  std::uint64_t transfers() const { return transfers_; }

  /// Name this link's trace track ("fabric", "oss3", "nic.node0", ...).
  /// Owners set it at construction; unnamed links trace as "link".
  void set_trace_label(std::string label) { trace_label_ = std::move(label); }

 protected:
  // The three steps of a Transfer, implemented by each policy.
  /// At the co_await: queue or begin service. Returns false when the
  /// transfer is already over (zero service time on a free slot), so the
  /// awaiting coroutine continues without suspending.
  virtual bool start(Transfer& t) = 0;
  /// The record's own wakeup (slot hand-off, end of a per-message
  /// latency): move on, waking the awaiting coroutine when done.
  virtual void resume_queued(Transfer& t) = 0;
  /// In await_resume: release what the transfer held, account it, trace.
  virtual void finish(Transfer& t) = 0;

  /// Emit a flow-arrival async span + flow counters; returns the span id
  /// (0 when tracing is off — trace_flow_end then no-ops). Implementations
  /// call this in start() and pair it with trace_flow_end in finish(),
  /// bracketing queueing + service.
  std::uint64_t trace_flow_begin(Bytes bytes);
  void trace_flow_end(std::uint64_t id);

  Engine* eng_;
  BytesPerSecond rate_;
  Seconds latency_;
  std::size_t channels_;
  Bytes bytes_moved_ = 0;
  std::uint64_t transfers_ = 0;

 private:
  std::string trace_label_ = "link";
  trace::TrackHandle track_;
};

/// The awaiter transfer() returns. It is a record held in the awaiting
/// coroutine's frame: slot FIFOs and the engine queue reference it by
/// address while it waits, so the frame must stay suspended until the
/// link resumes it (co_await guarantees that).
class LinkModel::Transfer final : public Wakeable {
 public:
  Transfer(LinkModel& link, Bytes bytes) noexcept : link_(&link), bytes_(bytes) {}

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) {
    waiter_ = h;
    return link_->start(*this);
  }
  void await_resume() { link_->finish(*this); }

  void wake() override { link_->resume_queued(*this); }

 private:
  friend class FifoPipe;
  friend class FairSharePipe;

  LinkModel* link_;
  Bytes bytes_;
  std::coroutine_handle<> waiter_;
  std::uint64_t flow_ = 0;  // trace span id
  Seconds started_ = 0.0;   // FifoPipe: when service began
};

inline LinkModel::Transfer LinkModel::transfer(Bytes bytes) {
  return Transfer(*this, bytes);
}

/// FIFO store-and-forward server; see file header. `channels` > 1 models a
/// link that can serve that many transfers at full rate each (used
/// sparingly).
class FifoPipe final : public LinkModel {
 public:
  FifoPipe(Engine& eng, BytesPerSecond rate, Seconds per_message_latency = 0.0,
           std::size_t channels = 1)
      : LinkModel(eng, rate, per_message_latency, channels),
        slots_(eng, channels) {}

  LinkPolicy policy() const override { return LinkPolicy::fifo; }
  std::size_t active_flows() const override {
    return (slots_.capacity() - slots_.available()) + slots_.queue_length();
  }
  BytesPerSecond flow_rate() const override {
    return slots_.available() < slots_.capacity() ? rate_ : 0.0;
  }
  /// Elapsed service only: finished transfers plus the part of each
  /// in-service transfer that has already run.
  double utilisation() const override {
    const Seconds t = eng_->now();
    if (t <= 0.0) return 0.0;
    const Seconds busy =
        busy_time_ + static_cast<double>(in_service_) * t - started_sum_;
    return busy / (t * static_cast<double>(slots_.capacity()));
  }

 private:
  bool start(Transfer& t) override;
  void resume_queued(Transfer& t) override;
  void finish(Transfer& t) override;
  /// Begin service on a held slot; false when it takes no time.
  bool serve(Transfer& t);
  Seconds service_time(const Transfer& t) const {
    return latency_ + static_cast<double>(t.bytes_) / rate_;
  }

  Resource slots_;
  Seconds busy_time_ = 0.0;    // service of finished transfers
  std::size_t in_service_ = 0;
  Seconds started_sum_ = 0.0;  // sum of in-service transfers' start times
};

/// Progress-based processor-sharing server; see file header.
///
/// All in-flight flows progress at the same normalised speed
/// g(n) = min(1, channels/n), so one scalar virtual clock V with
/// dV/dt = g(n) orders every completion: a flow of `bytes` arriving at
/// virtual time V_a finishes when V reaches V_a + bytes/rate. Arrivals and
/// departures each cost one heap operation plus an O(1) clock advance. One
/// persistent timer coroutine sleeps until the earliest completion; every
/// change to the earliest completion cancels its pending wakeup by token
/// (Engine::cancel_scheduled) and re-schedules it, so re-arming costs two
/// queue operations instead of a coroutine spawn per arrival/departure.
class FairSharePipe final : public LinkModel {
 public:
  FairSharePipe(Engine& eng, BytesPerSecond rate,
                Seconds per_message_latency = 0.0, std::size_t channels = 1)
      : LinkModel(eng, rate, per_message_latency, channels) {
    flows_.reserve(64);
    eng.spawn(timer_loop());
  }
  ~FairSharePipe() override { eng_->cancel_scheduled(timer_token_); }

  LinkPolicy policy() const override { return LinkPolicy::fair_share; }
  std::size_t active_flows() const override { return flows_.size(); }
  BytesPerSecond flow_rate() const override {
    return flows_.empty() ? 0.0 : rate_ * speed(flows_.size());
  }
  double utilisation() const override;

 private:
  struct Flow {
    double finish_v = 0.0;   // virtual time at which the flow completes
    std::uint64_t id = 0;    // arrival order; deterministic tie-break
    std::coroutine_handle<> waiter;
  };
  struct LaterFinish {
    bool operator()(const Flow& a, const Flow& b) const {
      if (a.finish_v != b.finish_v) return a.finish_v > b.finish_v;
      return a.id > b.id;
    }
  };

  /// Normalised per-flow progress rate with n flows in flight.
  double speed(std::size_t n) const {
    const double c = static_cast<double>(channels_);
    const double nn = static_cast<double>(n);
    return nn <= c ? 1.0 : c / nn;
  }

  bool start(Transfer& t) override;
  void resume_queued(Transfer& t) override;
  void finish(Transfer& t) override;

  void advance_clock();
  /// Add `t` to the in-flight flows; complete_due() resumes its waiter.
  void join(const Transfer& t);
  void complete_due();
  void arm();
  Task timer_loop();

  friend struct FairShareTimerPark;

  std::vector<Flow> flows_;  // min-heap on (finish_v, id) via LaterFinish
  double vtime_ = 0.0;
  Seconds last_update_ = 0.0;
  Seconds busy_time_ = 0.0;  // integral of min(n, channels)/channels dt
  std::uint64_t next_flow_id_ = 0;
  std::coroutine_handle<> timer_h_;  // parked persistent timer coroutine
  WakeToken timer_token_;            // its pending wakeup; null when unarmed
};

/// Construct the link implementation selected by `policy`.
std::unique_ptr<LinkModel> make_link(Engine& eng, LinkPolicy policy,
                                     BytesPerSecond rate,
                                     Seconds per_message_latency = 0.0,
                                     std::size_t channels = 1);

}  // namespace pfsc::sim
