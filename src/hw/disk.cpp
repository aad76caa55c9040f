#include "hw/disk.hpp"

#include <algorithm>

namespace pfsc::hw {

DiskModel::DiskModel(sim::Engine& eng, DiskParams params)
    : eng_(&eng), params_(params), work_(eng) {
  PFSC_REQUIRE(params.sequential_bw > 0.0, "DiskModel: sequential_bw must be positive");
  PFSC_REQUIRE(params.batch >= 1, "DiskModel: batch must be >= 1");
  eng.spawn(service_loop());
}

void DiskModel::enqueue(Request req) {
  auto [it, inserted] = streams_.try_emplace(req.stream);
  Stream& s = it->second;
  if (inserted && have_current_ && req.stream == current_stream_) current_ = &s;
  if (auto* rec = eng_->recorder();
      rec != nullptr && rec->enabled(trace::Cat::disk)) {
    const trace::TrackId track = track_.get(*rec, trace_label_);
    if (inserted) {
      rec->instant(trace::Cat::disk, track, "stream_open", eng_->now(),
                   static_cast<std::int64_t>(req.stream));
    }
    rec->counter(trace::Cat::disk, track, "queue", eng_->now(),
                 static_cast<double>(queued_ + 1));
  }
  // A stream becomes runnable: add it to the rotation unless it is the one
  // currently being drained.
  if (s.pending.empty() && &s != current_) rotation_.push_back(req.stream);
  const auto pos = std::upper_bound(
      s.pending.begin(), s.pending.end(), req.offset,
      [](Bytes offset, const Request& r) { return offset < r.offset; });
  s.pending.insert(pos, req);
  queue_area_.advance(eng_->now(), queued_);
  ++queued_;
  work_.trigger();
}

void DiskModel::set_service_multiplier(double factor) {
  PFSC_REQUIRE(factor > 0.0, "set_service_multiplier: factor must be positive");
  service_multiplier_ = factor;
}

void DiskModel::forget_stream(StreamId stream) {
  if (auto* rec = eng_->recorder();
      rec != nullptr && rec->enabled(trace::Cat::disk)) {
    rec->instant(trace::Cat::disk, track_.get(*rec, trace_label_),
                 "stream_close", eng_->now(),
                 static_cast<std::int64_t>(stream));
  }
  auto it = streams_.find(stream);
  if (it == streams_.end()) return;
  Stream& s = it->second;
  s.positioned = false;
  // A closed stream can never be serviced again, so it must stop counting
  // towards the hot working set (long-running simulations that create and
  // unlink many files would otherwise overstate contention).
  if (s.hot > 0) {
    s.hot = 0;
    --hot_streams_;
    std::erase(hot_ring_, &s);
  }
  if (s.pending.empty()) {
    if (current_ == &s) current_ = nullptr;
    streams_.erase(it);
  }
}

Seconds DiskModel::service_time(const Request& req, const Stream& s,
                                bool switched) {
  Seconds t = params_.per_request_overhead;
  bool seek = switched || !s.positioned;
  if (!seek && s.head != req.offset) {
    // Offset jump within the same stream: absorbed by write-back caching
    // when small, a real head reposition when large.
    const Bytes gap = req.offset > s.head ? req.offset - s.head
                                          : s.head - req.offset;
    if (gap > params_.reorder_window) seek = true;
  }

  double bw = params_.sequential_bw;
  if (req.is_write) {
    // Discontiguous sub-stripe writes cannot be coalesced into full-stripe
    // destages: RAID-6 read-modify-write. Sequential sub-stripe writes
    // coalesce in the controller cache and stream at full rate.
    if (seek && params_.raid_full_stripe > 0 &&
        req.bytes < params_.raid_full_stripe) {
      bw *= params_.rmw_factor;
    }
  } else {
    bw *= params_.read_factor;
  }

  if (seek) {
    // Competing streams partition the caches and defeat prefetch/destage:
    // each reposition costs more the more streams are hot. Both the
    // instantaneous queue and the recent working set count.
    const std::size_t streams = std::max(
        rotation_.size() + (have_current_ ? 1 : 0), hot_streams_);
    double factor = 1.0;
    if (streams > params_.contention_knee) {
      factor += params_.contention_alpha *
                static_cast<double>(streams - params_.contention_knee);
    }
    if (streams > params_.contention_quad_knee) {
      const auto over = static_cast<double>(streams - params_.contention_quad_knee);
      factor += params_.contention_quad_alpha * over * over;
    }
    t += params_.seek_time * factor;
  }
  t += static_cast<double>(req.bytes) / bw;
  return t * service_multiplier_;
}

sim::Task DiskModel::service_loop() {
  for (;;) {
    if (queued_ == 0) {
      work_.reset();
      co_await work_.wait();
      continue;
    }

    // Elevator pick: stay on the current stream for up to `batch` requests,
    // then (or when it drains) rotate to the oldest runnable stream.
    bool switched = false;
    const bool was_current = have_current_;
    const StreamId prev_stream = current_stream_;
    if (have_current_ && (current_ == nullptr || current_->pending.empty() ||
                          batch_used_ >= params_.batch)) {
      if (current_ != nullptr && !current_->pending.empty()) {
        rotation_.push_back(current_stream_);  // re-queue leftover work
      }
      have_current_ = false;
      current_ = nullptr;
    }
    if (!have_current_) {
      // Skip stale rotation entries for drained streams.
      do {
        PFSC_ASSERT(!rotation_.empty());
        current_stream_ = rotation_.front();
        rotation_.pop_front();
        auto it = streams_.find(current_stream_);
        current_ = it == streams_.end() ? nullptr : &it->second;
      } while (current_ == nullptr || current_->pending.empty());
      have_current_ = true;
      batch_used_ = 0;
      // Re-selecting the only active stream is not a head movement.
      switched = !was_current || current_stream_ != prev_stream;
    }

    // Serve the stream's request closest after the head position (ascending
    // elevator); wrap to the lowest offset when past the end.
    Stream& s = *current_;
    auto pick = s.pending.begin();
    if (s.positioned) {
      auto ge = std::lower_bound(
          s.pending.begin(), s.pending.end(), s.head,
          [](const Request& r, Bytes offset) { return r.offset < offset; });
      if (ge != s.pending.end()) pick = ge;
    }
    const Request req = *pick;
    s.pending.erase(pick);
    queue_area_.advance(eng_->now(), queued_);
    --queued_;
    ++batch_used_;

    // Maintain the hot-stream window before costing the request.
    hot_ring_.push_back(&s);
    if (s.hot++ == 0) ++hot_streams_;
    if (hot_ring_.size() > params_.hot_window) {
      Stream* old = hot_ring_.front();
      hot_ring_.pop_front();
      if (--old->hot == 0) --hot_streams_;
    }

    const Seconds t = service_time(req, s, switched);
    busy_time_ += t;
    bytes_serviced_ += req.bytes;
    ++requests_;
    s.head = req.offset + req.bytes;
    s.positioned = true;

    // One sync span per serviced request (the loop serves one at a time,
    // so spans on this track never nest), plus hot-set transitions.
    auto* rec = eng_->recorder();
    const bool traced = rec != nullptr && rec->enabled(trace::Cat::disk);
    if (traced) {
      const trace::TrackId track = track_.get(*rec, trace_label_);
      if (hot_streams_ != traced_hot_) {
        traced_hot_ = hot_streams_;
        rec->counter(trace::Cat::disk, track, "hot_streams", eng_->now(),
                     static_cast<double>(traced_hot_));
      }
      rec->begin(trace::Cat::disk, track, "service", eng_->now(), 0,
                 static_cast<std::int64_t>(req.stream),
                 static_cast<std::int64_t>(req.bytes));
    }

    co_await eng_->delay(t);
    if (traced) {
      rec->end(trace::Cat::disk, track_.get(*rec, trace_label_), "service",
               eng_->now(), 0, static_cast<std::int64_t>(req.stream));
    }
    eng_->schedule(req.waiter, eng_->now());
  }
}

}  // namespace pfsc::hw
