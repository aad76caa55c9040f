#include "lustre/extent_map.hpp"

#include <algorithm>

namespace pfsc::lustre {

namespace {

/// Tail entries tolerated before a merge, on top of a quarter of the
/// settled extents.
constexpr std::size_t kTailSlack = 8;

}  // namespace

void ExtentMap::insert(Bytes offset, Bytes length) {
  if (length == 0) return;
  const Bytes end = offset + length;
  const auto settled = extents_.begin() + static_cast<std::ptrdiff_t>(sorted_);

  if (sorted_ < extents_.size()) {
    // Continues (or lies inside) the latest tail entry: grow it in place.
    Extent& last = extents_.back();
    if (last.start <= offset && offset <= last.end) {
      last.end = std::max(last.end, end);
      return;
    }
  } else if (sorted_ == 0 || offset > extents_.back().end) {
    // Past the settled end with nothing pending: append settled.
    extents_.push_back({offset, end});
    ++sorted_;
    total_ += length;
    return;
  }

  // The settled extent starting at or before `offset`, if it reaches it,
  // grows in place unless that would reach its successor.
  auto next = std::upper_bound(
      extents_.begin(), settled, offset,
      [](Bytes off, const Extent& e) { return off < e.start; });
  if (next != extents_.begin()) {
    Extent& prev = *(next - 1);
    if (prev.end >= offset) {
      if (prev.end >= end) return;  // already covered
      if (next == settled || next->start > end) {
        total_ += end - prev.end;
        prev.end = end;
        return;
      }
    }
  }

  extents_.push_back({offset, end});
  if (extents_.size() - sorted_ > kTailSlack + sorted_ / 4) merge();
}

void ExtentMap::merge() const {
  const auto mid = extents_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  const auto by_start = [](const Extent& a, const Extent& b) {
    return a.start < b.start;
  };
  std::sort(mid, extents_.end(), by_start);
  std::inplace_merge(extents_.begin(), mid, extents_.end(), by_start);
  // Coalesce overlapping and adjacent neighbours in one compacting pass.
  std::size_t out = 0;
  total_ = 0;
  for (std::size_t i = 1; i < extents_.size(); ++i) {
    if (extents_[i].start <= extents_[out].end) {
      extents_[out].end = std::max(extents_[out].end, extents_[i].end);
    } else {
      total_ += extents_[out].end - extents_[out].start;
      extents_[++out] = extents_[i];
    }
  }
  total_ += extents_[out].end - extents_[out].start;
  extents_.resize(out + 1);
  // A file holds one map for its lifetime and most collapse to a few
  // extents: give back the room the tail grew into.
  if (extents_.capacity() > 2 * extents_.size()) extents_.shrink_to_fit();
  sorted_ = extents_.size();
}

bool ExtentMap::covers(Bytes offset, Bytes length) const {
  if (length == 0) return true;
  settle();
  auto it = std::upper_bound(
      extents_.begin(), extents_.end(), offset,
      [](Bytes off, const Extent& e) { return off < e.start; });
  if (it == extents_.begin()) return false;
  --it;
  return it->start <= offset && it->end >= offset + length;
}

}  // namespace pfsc::lustre
