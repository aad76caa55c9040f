#include "sim/arena.hpp"

#include <cstdlib>

namespace pfsc::sim {

namespace {
thread_local FrameArena* t_current_arena = nullptr;
}  // namespace

/// Prefix stored immediately ahead of every frame handed out by
/// allocate_frame. 16 bytes keeps the frame itself on the usual
/// max_align_t boundary.
struct alignas(16) FrameArena::Header {
  FrameArena* arena;     // owner, or nullptr for global-allocator frames
  std::size_t size_class;  // index into free_lists_ (unused when arena==nullptr)
};

FrameArena::~FrameArena() {
  PFSC_ASSERT(outstanding_ == 0);
  for (void* head : free_lists_) {
    while (head != nullptr) {
      void* next = *static_cast<void**>(head);
      ::operator delete(head);
      head = next;
    }
  }
}

FrameArena* FrameArena::exchange_current(FrameArena* arena) {
  FrameArena* prev = t_current_arena;
  t_current_arena = arena;
  return prev;
}

void* FrameArena::allocate_frame(std::size_t bytes) {
  FrameArena* arena = t_current_arena;
  const std::size_t total = sizeof(Header) + bytes;
  // Size class = blocks of kGranularity covering header+frame, minus one.
  const std::size_t size_class = (total + kGranularity - 1) / kGranularity - 1;
  if (arena == nullptr || size_class >= kClasses) {
    auto* header = static_cast<Header*>(::operator new(total));
    header->arena = nullptr;
    header->size_class = 0;
    return header + 1;
  }
  return arena->bucket_alloc(size_class);
}

void FrameArena::deallocate_frame(void* frame) noexcept {
  if (frame == nullptr) return;
  Header* header = static_cast<Header*>(frame) - 1;
  if (header->arena == nullptr) {
    ::operator delete(header);
    return;
  }
  header->arena->bucket_free(header);
}

void* FrameArena::bucket_alloc(std::size_t size_class) {
  if (++outstanding_ > peak_) peak_ = outstanding_;
  void*& head = free_lists_[size_class];
  if (head != nullptr) {
    ++reused_;
    Header* header = static_cast<Header*>(head);
    head = *reinterpret_cast<void**>(header);
    header->arena = this;
    header->size_class = size_class;
    return header + 1;
  }
  ++fresh_;
  const std::size_t bytes = (size_class + 1) * kGranularity;
  carved_bytes_ += bytes;
  auto* header = static_cast<Header*>(::operator new(bytes));
  header->arena = this;
  header->size_class = size_class;
  return header + 1;
}

void FrameArena::bucket_free(Header* header) noexcept {
  PFSC_ASSERT(outstanding_ > 0);
  --outstanding_;
  void*& head = free_lists_[header->size_class];
  // Reuse the header's own storage as the free-list link.
  *reinterpret_cast<void**>(header) = head;
  head = header;
}

}  // namespace pfsc::sim
