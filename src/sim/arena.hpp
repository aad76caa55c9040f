// Size-bucketed free-list arena for coroutine frames.
//
// Steady-state RPC churn (client write -> sched admit -> link flow -> disk
// service) creates and destroys one short-lived coroutine frame per step;
// by default each of those is a malloc/free pair. A FrameArena recycles
// freed frames through per-size-class free lists instead: the first wave
// of frames is carved from the system allocator, every later wave pops a
// node off a free list in O(1) with no lock, no syscall and warm cache
// lines.
//
// Wiring: sim::Engine owns one FrameArena and installs it as the calling
// thread's current arena for its own lifetime (engines are single-threaded;
// the ParallelRunner gives each repetition its own engine on its own
// thread). TaskPromise and CoPromise allocate frames through FramePooled,
// which consults the current arena and records the owning arena in a header
// ahead of the frame — frees always return to the arena that allocated,
// even if a different engine has since become current. Frames allocated
// with no engine alive fall back to the global allocator (null header).
//
// Lifetime rule (same as the engine's): frames must not outlive the engine
// whose arena carved them. Engine teardown destroys unfinished roots
// before the arena, and the arena asserts that nothing is still
// outstanding when it dies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>

#include "support/error.hpp"

namespace pfsc::sim {

class FrameArena {
 public:
  FrameArena() = default;
  FrameArena(const FrameArena&) = delete;
  FrameArena& operator=(const FrameArena&) = delete;
  ~FrameArena();

  /// Make `arena` the calling thread's current arena (nullptr allowed);
  /// returns the previous one so callers can restore it (Engine does).
  static FrameArena* exchange_current(FrameArena* arena);

  /// Allocate a frame of `bytes` through the thread's current arena (or
  /// the global allocator when none is installed / the size is huge).
  static void* allocate_frame(std::size_t bytes);
  /// Return a frame to whichever arena allocated it.
  static void deallocate_frame(void* frame) noexcept;

  // -- statistics (microbenchmarks + reuse tests) ------------------------
  /// Frames carved fresh from the system allocator.
  std::uint64_t fresh_allocations() const { return fresh_; }
  /// Bytes carved fresh from the system allocator: every fresh frame's
  /// size class, header included. The arena never returns them before it
  /// dies, so this is the frames' share of the heap at the end of a run.
  std::uint64_t carved_bytes() const { return carved_bytes_; }
  /// Frames recycled from a free list.
  std::uint64_t reused_allocations() const { return reused_; }
  /// Frames currently live (allocated, not yet freed).
  std::uint64_t outstanding() const { return outstanding_; }
  /// High-water mark of outstanding(): the most frames ever live at once.
  std::uint64_t peak_outstanding() const { return peak_; }

 private:
  // Size classes: 64-byte steps up to 4 KiB. Typical Task/Co frames in
  // this codebase run 100-500 bytes; anything larger than the last class
  // bypasses the arena entirely (null-arena header).
  static constexpr std::size_t kGranularity = 64;
  static constexpr std::size_t kClasses = 64;

  struct Header;

  void* bucket_alloc(std::size_t size_class);
  void bucket_free(Header* header) noexcept;

  void* free_lists_[kClasses] = {};
  std::uint64_t fresh_ = 0;
  std::uint64_t carved_bytes_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t peak_ = 0;
};

/// Mixin providing pooled frame allocation; inherited by the coroutine
/// promise types (the compiler routes frame new/delete through the
/// promise's operators).
struct FramePooled {
  static void* operator new(std::size_t bytes) {
    return FrameArena::allocate_frame(bytes);
  }
  static void operator delete(void* frame) noexcept {
    FrameArena::deallocate_frame(frame);
  }
  static void operator delete(void* frame, std::size_t) noexcept {
    FrameArena::deallocate_frame(frame);
  }
};

}  // namespace pfsc::sim
