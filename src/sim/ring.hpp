// The simulator's FIFO of waiting work: a growable power-of-two ring.
//
// Every wait queue in the simulation core is one of these: a Resource's
// waiters, each LaneQueue lane, a disk's stream rotation, the admission
// queue and the OSS schedulers' per-job queues.
//
//  * Storage. A default-constructed ring holds no storage and allocates
//    nothing, so the many queues that never see a waiter (a fleet holds
//    two per rank) cost only the ring object itself. The first push
//    allocates kFirstCapacity slots; a push into a full ring doubles it.
//    A drained ring keeps its capacity for the next burst.
//  * T is trivially copyable: pop_front() leaves the slot as it is.
//
// Ordering: front() and pop_front() return entries in exactly the order
// push_back() added them, and ring[k] is the k-th oldest entry (ring[0]
// is front()). Growing unwraps the entries oldest first into the new
// storage, so a ring that grows while its head sits mid-buffer keeps
// that order; the ring tests pin it against a deque oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "support/error.hpp"

namespace pfsc::sim {

template <typename T>
class Ring {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  /// Slots the first push allocates: most queues in a fleet never hold
  /// more than a few waiters.
  static constexpr std::uint32_t kFirstCapacity = 4;

  void push_back(const T& v) {
    if (count_ == capacity_) grow();
    slots_[(head_ + count_) & (capacity_ - 1)] = v;
    ++count_;
  }
  /// The oldest entry. Requires !empty().
  T& front() { return slots_[head_]; }
  const T& front() const { return slots_[head_]; }
  /// Drop the oldest entry. Requires !empty(), unchecked: the engine's
  /// lanes pop every event through it.
  void pop_front() {
    head_ = (head_ + 1) & (capacity_ - 1);
    --count_;
  }
  /// The k-th oldest entry. Requires k < size().
  const T& operator[](std::size_t k) const {
    PFSC_ASSERT(k < count_);
    return slots_[(head_ + k) & (capacity_ - 1)];
  }

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Allocated slots: 0 until the first push, then a power of two.
  std::size_t capacity() const { return capacity_; }

 private:
  // Out of line: push_back inlines into Engine::schedule and every
  // semaphore hand-off, and growth is rare.
  [[gnu::noinline]] void grow() {
    PFSC_ASSERT(capacity_ < (std::uint32_t{1} << 31));
    const std::uint32_t cap = capacity_ == 0 ? kFirstCapacity : 2 * capacity_;
    auto slots = std::make_unique<T[]>(cap);
    // Unwrap the full ring into the front of the new one, oldest first.
    for (std::uint32_t k = 0; k < count_; ++k) {
      slots[k] = slots_[(head_ + k) & (capacity_ - 1)];
    }
    slots_ = std::move(slots);
    head_ = 0;
    capacity_ = cap;
  }

  std::unique_ptr<T[]> slots_;
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t capacity_ = 0;
};

}  // namespace pfsc::sim
