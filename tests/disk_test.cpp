#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <utility>
#include <vector>

#include "hw/disk.hpp"
#include "support/rng.hpp"

namespace pfsc::hw {
namespace {

DiskParams simple_params() {
  DiskParams p;
  p.sequential_bw = 100.0;  // 100 B/s so math is easy
  p.seek_time = 1.0;
  p.per_request_overhead = 0.0;
  p.raid_full_stripe = 0;  // no RMW penalty unless a test enables it
  p.rmw_factor = 0.5;
  p.read_factor = 1.0;
  p.batch = 4;
  p.reorder_window = 0;  // strict contiguity: seeks are observable
  return p;
}

sim::Task submit_one(sim::Engine& eng, DiskModel& disk, DiskModel::StreamId s,
                     Bytes off, Bytes len, bool write, std::vector<double>& done) {
  co_await disk.submit(s, off, len, write);
  done.push_back(eng.now());
}

TEST(Disk, FirstRequestPaysOneSeek) {
  sim::Engine eng;
  DiskModel disk(eng, simple_params());
  std::vector<double> done;
  eng.spawn(submit_one(eng, disk, 1, 0, 100, true, done));
  eng.run_until(100.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 2.0);  // 1s seek + 100B/100Bps
}

TEST(Disk, SequentialSameStreamAvoidsSeeks) {
  sim::Engine eng;
  DiskModel disk(eng, simple_params());
  std::vector<double> done;
  // 3 contiguous requests from one stream: one seek then pure streaming.
  // The stream drains after each request, and re-selecting it is neither a
  // switch nor a seek.
  eng.spawn([](sim::Engine& e, DiskModel& d, std::vector<double>& out) -> sim::Task {
    for (Bytes off : {0, 100, 200}) {
      co_await d.submit(1, off, 100, true);
      out.push_back(e.now());
    }
  }(eng, disk, done));
  eng.run_until(100.0);
  EXPECT_EQ(done, (std::vector<double>{2.0, 3.0, 4.0}));  // 1 seek + 3 * 1s
}

TEST(Disk, DiscontiguousOffsetWithinStreamSeeks) {
  sim::Engine eng;
  DiskModel disk(eng, simple_params());
  std::vector<double> done;
  eng.spawn([](sim::Engine& e, DiskModel& d, std::vector<double>& out) -> sim::Task {
    co_await d.submit(1, 0, 100, true);
    co_await d.submit(1, 500, 100, true);  // hole: must reposition
    out.push_back(e.now());
  }(eng, disk, done));
  eng.run_until(100.0);
  EXPECT_DOUBLE_EQ(done[0], 4.0);  // 2 seeks + 2 transfers
}

TEST(Disk, InterleavedStreamsThrash) {
  sim::Engine eng;
  DiskModel disk(eng, simple_params());
  std::vector<double> done;
  // Two synchronous submitters: each stream has one queued request at a
  // time, so the elevator alternates and every service switches stream and
  // pays a 1 s seek, although each stream's own offsets are contiguous.
  for (DiskModel::StreamId s : {1, 2}) {
    eng.spawn([](DiskModel& d, DiskModel::StreamId s, std::vector<double>& out,
                 sim::Engine& e) -> sim::Task {
      for (int i = 0; i < 4; ++i) {
        co_await d.submit(s, static_cast<Bytes>(i) * 100, 100, true);
        out.push_back(e.now());
      }
    }(disk, s, done, eng));
  }
  eng.run_until(1000.0);
  EXPECT_EQ(done, (std::vector<double>{2, 4, 6, 8, 10, 12, 14, 16}));
  EXPECT_EQ(disk.requests_serviced(), 8u);
  EXPECT_EQ(disk.bytes_serviced(), 800u);
}

TEST(Disk, ElevatorBatchLimitsSwitching) {
  sim::Engine eng;
  auto params = simple_params();
  params.batch = 2;
  DiskModel disk(eng, params);
  std::vector<double> done;
  // Queue 4 requests from each of two streams all at once (async spawns).
  for (int s = 1; s <= 2; ++s) {
    for (int i = 0; i < 4; ++i) {
      eng.spawn(submit_one(eng, disk, static_cast<DiskModel::StreamId>(s),
                           static_cast<Bytes>(i) * 100, 100, true, done));
    }
  }
  eng.run_until(1000.0);
  // batch=2: serve 2 of A, 2 of B, 2 of A, 2 of B -> 4 switches, each the
  // first of its pair and each paying a 1 s seek.
  EXPECT_EQ(done, (std::vector<double>{2, 3, 5, 6, 8, 9, 11, 12}));
}

TEST(Disk, ReorderWindowAbsorbsSmallJumps) {
  sim::Engine eng;
  auto params = simple_params();
  params.reorder_window = 1000;
  DiskModel disk(eng, params);
  std::vector<double> done;
  eng.spawn([](sim::Engine& e, DiskModel& d, std::vector<double>& out) -> sim::Task {
    co_await d.submit(1, 0, 100, true);
    co_await d.submit(1, 600, 100, true);   // 500-byte jump: absorbed
    co_await d.submit(1, 5000, 100, true);  // 4300-byte jump: real seek
    out.push_back(e.now());
  }(eng, disk, done));
  eng.run_until(100.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 5.0);  // 2 seeks + 3 transfers
}

TEST(Disk, RmwPenaltyForSubStripeWrites) {
  sim::Engine eng;
  auto params = simple_params();
  params.raid_full_stripe = 200;
  params.rmw_factor = 0.5;
  DiskModel disk(eng, params);
  std::vector<double> done;
  eng.spawn(submit_one(eng, disk, 1, 0, 100, true, done));  // sub-stripe
  eng.run_until(100.0);
  EXPECT_DOUBLE_EQ(done[0], 3.0);  // seek + 100B at 50 B/s
}

TEST(Disk, FullStripeWriteAvoidsRmw) {
  sim::Engine eng;
  auto params = simple_params();
  params.raid_full_stripe = 200;
  DiskModel disk(eng, params);
  std::vector<double> done;
  eng.spawn(submit_one(eng, disk, 1, 0, 200, true, done));
  eng.run_until(100.0);
  EXPECT_DOUBLE_EQ(done[0], 3.0);  // seek + 200B at 100 B/s
}

TEST(Disk, ReadsUseReadFactor) {
  sim::Engine eng;
  auto params = simple_params();
  params.read_factor = 2.0;
  DiskModel disk(eng, params);
  std::vector<double> done;
  eng.spawn(submit_one(eng, disk, 1, 0, 100, false, done));
  eng.run_until(100.0);
  EXPECT_DOUBLE_EQ(done[0], 1.5);  // seek + 100B at 200 B/s
}

TEST(Disk, PerRequestOverheadBoundsIops) {
  sim::Engine eng;
  auto params = simple_params();
  params.seek_time = 0.0;
  params.per_request_overhead = 0.1;
  DiskModel disk(eng, params);
  std::vector<double> done;
  eng.spawn([](DiskModel& d, std::vector<double>& out, sim::Engine& e) -> sim::Task {
    for (int i = 0; i < 10; ++i) co_await d.submit(1, static_cast<Bytes>(i) * 10, 10, true);
    out.push_back(e.now());
  }(disk, done, eng));
  eng.run_until(1000.0);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0], 10 * (0.1 + 0.1), 1e-9);
}

TEST(Disk, BusyTimeTracksUtilisation) {
  sim::Engine eng;
  DiskModel disk(eng, simple_params());
  std::vector<double> done;
  eng.spawn(submit_one(eng, disk, 1, 0, 100, true, done));
  eng.run_until(100.0);
  EXPECT_DOUBLE_EQ(disk.busy_time(), 2.0);
}

TEST(Disk, QueueAreaIsTheTimeWeightedDepth) {
  // Three contiguous requests queue at t=0 and a fourth at t=0.5. The
  // first pays a 1 s seek, so picks happen at 0, 2, 3 and 4: the depth is
  // 2 on [0, 0.5), 3 on [0.5, 2), 2 on [2, 3) and 1 on [3, 4), which is
  // 8.5 request-seconds over 4 s.
  sim::Engine eng;
  DiskModel disk(eng, simple_params());
  std::vector<double> done;
  for (Bytes off : {0, 100, 200}) {
    eng.spawn(submit_one(eng, disk, 1, off, 100, true, done));
  }
  eng.spawn([](sim::Engine& e, DiskModel& d,
               std::vector<double>& out) -> sim::Task {
    co_await e.delay(0.5);
    co_await d.submit(1, 300, 100, true);
    out.push_back(e.now());
  }(eng, disk, done));
  eng.run();
  EXPECT_EQ(done, (std::vector<double>{2.0, 3.0, 4.0, 5.0}));
  const QueueArea& q = disk.queue_area();
  EXPECT_TRUE(q.seen);
  EXPECT_EQ(q.first, 0.0);
  EXPECT_EQ(q.last, 4.0);
  EXPECT_DOUBLE_EQ(q.area, 8.5);
  EXPECT_DOUBLE_EQ(q.mean(), 2.125);
}

TEST(Disk, ManyStreamsDegradeThroughputMonotonically) {
  // The mechanism behind Figure 2: more concurrent streams => more seeking
  // => lower aggregate throughput.
  auto run_streams = [](int nstreams) {
    sim::Engine eng;
    DiskParams p;
    p.sequential_bw = mb_per_sec(300.0);
    p.seek_time = 6.0e-3;
    p.per_request_overhead = 0.0;
    p.raid_full_stripe = 0;
    p.batch = 4;
    p.reorder_window = 0;
    DiskModel disk(eng, p);
    const Bytes chunk = 1_MiB;
    const int chunks = 64;
    for (int s = 0; s < nstreams; ++s) {
      eng.spawn([](DiskModel& d, int stream, int count, Bytes sz) -> sim::Task {
        for (int i = 0; i < count; ++i) {
          co_await d.submit(static_cast<DiskModel::StreamId>(stream),
                            static_cast<Bytes>(i) * sz, sz, true);
        }
      }(disk, s, chunks, chunk));
    }
    eng.run();
    return static_cast<double>(disk.bytes_serviced()) / eng.now();
  };
  const double bw1 = run_streams(1);
  const double bw4 = run_streams(4);
  const double bw16 = run_streams(16);
  EXPECT_GT(bw1, bw4);
  EXPECT_GT(bw4, bw16);
  // Single stream approaches the sequential rate.
  EXPECT_GT(bw1, mb_per_sec(250.0));
}

// ---------------------------------------------------------------------------
// Queue equivalence: DiskModel against a reference elevator that keeps each
// stream's queue in a std::multimap<offset, request> (equal offsets FIFO)
// and replays the same arrivals and forget_stream calls on its own clock.
// ---------------------------------------------------------------------------

struct Arrival {
  Seconds at;
  DiskModel::StreamId stream;
  Bytes offset;
  Bytes bytes;
  bool is_write;
  bool forget = false;  // a forget_stream(stream) call, not a request
};

/// (arrival index, completion instant) per request, in service order. Each
/// request's seek, switch and contention factor show in its instant.
using ElevatorResult = std::vector<std::pair<std::size_t, Seconds>>;

class ReferenceElevator {
 public:
  explicit ReferenceElevator(DiskParams p) : p_(p) {}

  ElevatorResult run(const std::vector<Arrival>& arrivals) {
    Seconds now = 0.0;
    std::size_t next = 0;
    for (;;) {
      if (queued_ == 0) {
        if (next == arrivals.size()) break;
        now = std::max(now, arrivals[next].at);  // idle until the next arrival
      }
      // Arrivals at or before a decision instant were enqueued first: their
      // wakeups were scheduled at t = 0, ahead of the service loop's own.
      // A forget between two decisions touches only state the next
      // decision reads, so it is replayed in arrival order with them.
      while (next < arrivals.size() && arrivals[next].at <= now) {
        if (arrivals[next].forget) {
          forget(arrivals[next].stream);
        } else {
          enqueue(next, arrivals[next]);
        }
        ++next;
      }
      if (queued_ > 0) now += serve_one(arrivals, now);
    }
    return std::move(res_);
  }

 private:
  void enqueue(std::size_t index, const Arrival& a) {
    auto& q = queues_[a.stream];
    if (q.empty() && !(have_current_ && a.stream == current_)) {
      rotation_.push_back(a.stream);
    }
    q.emplace(a.offset, index);
    ++queued_;
  }

  void forget(DiskModel::StreamId stream) {
    next_offset_.erase(stream);
    if (hot_counts_.erase(stream) > 0) std::erase(hot_ring_, stream);
    if (auto it = queues_.find(stream); it != queues_.end() && it->second.empty()) {
      queues_.erase(it);
    }
  }

  Seconds serve_one(const std::vector<Arrival>& arrivals, Seconds now) {
    bool switched = false;
    const bool was_current = have_current_;
    const auto prev = current_;
    if (have_current_ && (queues_[current_].empty() || batch_used_ >= p_.batch)) {
      if (!queues_[current_].empty()) rotation_.push_back(current_);
      have_current_ = false;
    }
    if (!have_current_) {
      do {
        current_ = rotation_.front();
        rotation_.pop_front();
      } while (queues_[current_].empty());
      have_current_ = true;
      batch_used_ = 0;
      switched = !was_current || current_ != prev;
    }
    auto& q = queues_[current_];
    auto pick = q.begin();
    if (auto head = next_offset_.find(current_); head != next_offset_.end()) {
      if (auto ge = q.lower_bound(head->second); ge != q.end()) pick = ge;
    }
    const std::size_t index = pick->second;
    q.erase(pick);
    --queued_;
    ++batch_used_;
    const Arrival& a = arrivals[index];

    hot_ring_.push_back(a.stream);
    ++hot_counts_[a.stream];
    if (hot_ring_.size() > p_.hot_window) {
      if (--hot_counts_[hot_ring_.front()] == 0) hot_counts_.erase(hot_ring_.front());
      hot_ring_.pop_front();
    }

    bool seek = switched;
    if (auto pos = next_offset_.find(a.stream); pos == next_offset_.end()) {
      seek = true;
    } else if (pos->second != a.offset) {
      const Bytes gap = a.offset > pos->second ? a.offset - pos->second
                                               : pos->second - a.offset;
      if (gap > p_.reorder_window) seek = true;
    }
    Seconds t = p_.per_request_overhead;
    double bw = p_.sequential_bw;
    if (a.is_write) {
      if (seek && p_.raid_full_stripe > 0 && a.bytes < p_.raid_full_stripe) {
        bw *= p_.rmw_factor;
      }
    } else {
      bw *= p_.read_factor;
    }
    if (seek) {
      const std::size_t streams = std::max(
          rotation_.size() + (have_current_ ? 1 : 0), hot_counts_.size());
      double factor = 1.0;
      if (streams > p_.contention_knee) {
        factor += p_.contention_alpha *
                  static_cast<double>(streams - p_.contention_knee);
      }
      if (streams > p_.contention_quad_knee) {
        const auto over = static_cast<double>(streams - p_.contention_quad_knee);
        factor += p_.contention_quad_alpha * over * over;
      }
      t += p_.seek_time * factor;
    }
    t += static_cast<double>(a.bytes) / bw;
    next_offset_[a.stream] = a.offset + a.bytes;
    res_.emplace_back(index, now + t);
    return t;
  }

  DiskParams p_;
  std::map<DiskModel::StreamId, std::multimap<Bytes, std::size_t>> queues_;
  std::deque<DiskModel::StreamId> rotation_;
  std::map<DiskModel::StreamId, Bytes> next_offset_;
  DiskModel::StreamId current_ = 0;
  bool have_current_ = false;
  std::uint32_t batch_used_ = 0;
  std::size_t queued_ = 0;
  std::deque<DiskModel::StreamId> hot_ring_;
  std::map<DiskModel::StreamId, std::uint32_t> hot_counts_;
  ElevatorResult res_;
};

/// Seeded arrivals: same-instant bursts, repeated offsets, backward jumps,
/// restarts below a stream's head (the elevator's wrap-around), and about
/// one forget_stream in 16, some of them with requests still queued and
/// some of streams the disk has never seen.
std::vector<Arrival> random_arrivals(Rng& rng, std::size_t n) {
  const std::uint64_t nstreams = 1 + rng.uniform(6);
  std::vector<Bytes> cursor(nstreams, 0);
  std::vector<Arrival> out;
  Seconds t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.uniform(3) != 0) t += rng.uniform_double(0.0, 0.05);
    if (rng.uniform(16) == 0) {
      out.push_back(Arrival{t, 1 + rng.uniform(nstreams + 1), 0, 0, false, true});
      continue;
    }
    const auto s = rng.uniform(nstreams);
    const Bytes bytes = (1 + rng.uniform(4)) * 256_KiB;
    Bytes off = cursor[s];
    switch (rng.uniform(6)) {
      case 0: off = cursor[s] > bytes ? cursor[s] - bytes : 0; break;  // repeat
      case 1: off = rng.uniform(cursor[s] + 1); break;                 // backward
      case 2: off = cursor[s] + (1 + rng.uniform(64)) * 1_MiB; break;  // forward gap
      default: break;                                                  // sequential
    }
    cursor[s] = std::max(cursor[s], off + bytes);
    out.push_back(Arrival{t, s + 1, off, bytes, rng.uniform(4) != 0});
  }
  return out;
}

ElevatorResult run_disk(const DiskParams& p, const std::vector<Arrival>& arrivals) {
  sim::Engine eng;
  DiskModel disk(eng, p);
  ElevatorResult res;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    eng.spawn([](sim::Engine& e, DiskModel& d, const Arrival& a, std::size_t index,
                 ElevatorResult& out) -> sim::Task {
      co_await e.delay(a.at);
      if (a.forget) {
        d.forget_stream(a.stream);
        co_return;
      }
      co_await d.submit(a.stream, a.offset, a.bytes, a.is_write);
      out.emplace_back(index, e.now());
    }(eng, disk, arrivals[i], i, res));
  }
  eng.run();
  return res;
}

class DiskQueueEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiskQueueEquivalence, MatchesMultimapReferenceElevator) {
  Rng rng(GetParam());
  DiskParams p;
  p.batch = static_cast<std::uint32_t>(1 + rng.uniform(8));
  p.reorder_window = rng.uniform(2) == 0 ? 0 : 16_MiB;
  const auto arrivals = random_arrivals(rng, 400);
  const auto requests = static_cast<std::size_t>(std::count_if(
      arrivals.begin(), arrivals.end(), [](const Arrival& a) { return !a.forget; }));
  const ElevatorResult ref = ReferenceElevator(p).run(arrivals);
  const ElevatorResult got = run_disk(p, arrivals);
  ASSERT_EQ(ref.size(), requests);
  EXPECT_EQ(got, ref);  // same order, and each instant exactly
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskQueueEquivalence,
                         ::testing::Values(1ull, 2ull, 3ull, 17ull, 99ull, 2024ull));

}  // namespace
}  // namespace pfsc::hw
