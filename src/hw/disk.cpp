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
  auto [it, inserted] = queues_.try_emplace(req.stream);
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
  if (it->second.pending.empty()) {
    // Stream becomes runnable: add to the rotation unless it is the one
    // currently being drained.
    if (!(have_current_ && req.stream == current_stream_)) {
      rotation_.push_back(req.stream);
    }
  }
  auto& pending = it->second.pending;
  const auto pos = std::upper_bound(
      pending.begin(), pending.end(), req.offset,
      [](Bytes offset, const Request& r) { return offset < r.offset; });
  pending.insert(pos, req);
  queue_area_.advance(eng_->now(), queued_);
  ++queued_;
  max_runnable_ = std::max(max_runnable_, rotation_.size() + (have_current_ ? 1 : 0));
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
  auto it = queues_.find(stream);
  if (it != queues_.end() && it->second.pending.empty()) queues_.erase(it);
  next_offset_.erase(stream);
  // A closed stream can never be serviced again, so it must stop counting
  // towards the hot working set (long-running simulations that create and
  // unlink many files would otherwise overstate contention).
  if (hot_counts_.erase(stream) > 0) {
    std::erase(hot_ring_, stream);
  }
}

Seconds DiskModel::service_time(const Request& req, bool switched) {
  Seconds t = params_.per_request_overhead;
  bool seek = switched;
  auto pos = next_offset_.find(req.stream);
  if (pos == next_offset_.end()) {
    seek = true;
  } else if (pos->second != req.offset) {
    // Offset jump within the same stream: absorbed by write-back caching
    // when small, a real head reposition when large.
    const Bytes expected = pos->second;
    const Bytes gap = req.offset > expected ? req.offset - expected
                                            : expected - req.offset;
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
        rotation_.size() + (have_current_ ? 1 : 0), hot_counts_.size());
    double factor = 1.0;
    if (streams > params_.contention_knee) {
      factor += params_.contention_alpha *
                static_cast<double>(streams - params_.contention_knee);
    }
    if (streams > params_.contention_quad_knee) {
      const auto over = static_cast<double>(streams - params_.contention_quad_knee);
      factor += params_.contention_quad_alpha * over * over;
    }
    const Seconds cost = params_.seek_time * factor;
    t += cost;
    seek_time_total_ += cost;
    ++seeks_;
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
    if (have_current_) {
      auto it = queues_.find(current_stream_);
      const bool exhausted = it == queues_.end() || it->second.pending.empty() ||
                             batch_used_ >= params_.batch;
      if (exhausted) {
        if (it != queues_.end() && !it->second.pending.empty()) {
          rotation_.push_back(current_stream_);  // re-queue leftover work
        }
        have_current_ = false;
      }
    }
    if (!have_current_) {
      PFSC_ASSERT(!rotation_.empty());
      current_stream_ = rotation_.front();
      rotation_.pop_front();
      // Skip stale rotation entries for drained streams.
      while (true) {
        auto it = queues_.find(current_stream_);
        if (it != queues_.end() && !it->second.pending.empty()) break;
        PFSC_ASSERT(!rotation_.empty());
        current_stream_ = rotation_.front();
        rotation_.pop_front();
      }
      have_current_ = true;
      batch_used_ = 0;
      // Re-selecting the only active stream is not a head movement.
      if (!was_current || current_stream_ != prev_stream) {
        switched = true;
        ++switches_;
      }
    }

    // Serve the stream's request closest after the head position (ascending
    // elevator); wrap to the lowest offset when past the end.
    auto& q = queues_.find(current_stream_)->second.pending;
    auto pick = q.begin();
    auto head = next_offset_.find(current_stream_);
    if (head != next_offset_.end()) {
      auto ge = std::lower_bound(
          q.begin(), q.end(), head->second,
          [](const Request& r, Bytes offset) { return r.offset < offset; });
      if (ge != q.end()) pick = ge;
    }
    const Request req = *pick;
    q.erase(pick);
    queue_area_.advance(eng_->now(), queued_);
    --queued_;
    ++batch_used_;

    // Maintain the hot-stream window before costing the request.
    hot_ring_.push_back(req.stream);
    ++hot_counts_[req.stream];
    if (hot_ring_.size() > params_.hot_window) {
      const StreamId old = hot_ring_.front();
      hot_ring_.pop_front();
      auto hot_it = hot_counts_.find(old);
      if (--hot_it->second == 0) hot_counts_.erase(hot_it);
    }

    const Seconds t = service_time(req, switched);
    busy_time_ += t;
    bytes_serviced_ += req.bytes;
    ++requests_;
    next_offset_[req.stream] = req.offset + req.bytes;

    // One sync span per serviced request (the loop serves one at a time,
    // so spans on this track never nest), plus hot-set transitions.
    auto* rec = eng_->recorder();
    const bool traced = rec != nullptr && rec->enabled(trace::Cat::disk);
    if (traced) {
      const trace::TrackId track = track_.get(*rec, trace_label_);
      if (hot_counts_.size() != traced_hot_) {
        traced_hot_ = hot_counts_.size();
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
