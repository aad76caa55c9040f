#include "lustre/extent_map.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace pfsc::lustre {

void ExtentMap::insert(Bytes offset, Bytes length) {
  if (length == 0) return;
  const Bytes start = offset;
  Bytes end = offset + length;

  // The extent before `start` grows in place when it reaches start.
  auto next = extents_.upper_bound(start);
  if (next != extents_.begin()) {
    auto prev = std::prev(next);
    if (prev->second >= start) {
      if (prev->second >= end) return;  // already covered
      total_ += end - prev->second;
      prev->second = end;
      absorb(prev, next);
      return;
    }
  }
  if (next == extents_.end() || next->first > end) {
    extents_.emplace_hint(next, start, end);
    total_ += length;
    return;
  }
  // No predecessor reaches start but a successor starts within range:
  // re-key that successor's node to `start` instead of allocating one.
  const auto hint = std::next(next);
  auto node = extents_.extract(next);
  total_ -= node.mapped() - node.key();
  node.key() = start;
  node.mapped() = std::max(end, node.mapped());
  total_ += node.mapped() - start;
  absorb(extents_.insert(hint, std::move(node)), hint);
}

void ExtentMap::absorb(Map::iterator grown, Map::iterator next) {
  while (next != extents_.end() && next->first <= grown->second) {
    if (next->second > grown->second) {
      total_ += next->second - grown->second;
      grown->second = next->second;
    }
    total_ -= next->second - next->first;
    next = extents_.erase(next);
  }
}

bool ExtentMap::covers(Bytes offset, Bytes length) const {
  if (length == 0) return true;
  auto it = extents_.upper_bound(offset);
  if (it == extents_.begin()) return false;
  --it;
  return it->first <= offset && it->second >= offset + length;
}

Bytes ExtentMap::covered_bytes(Bytes offset, Bytes length) const {
  if (length == 0) return 0;
  const Bytes end = offset + length;
  Bytes covered = 0;
  auto it = extents_.upper_bound(offset);
  if (it != extents_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > offset) it = prev;
  }
  for (; it != extents_.end() && it->first < end; ++it) {
    const Bytes lo = std::max(offset, it->first);
    const Bytes hi = std::min(end, it->second);
    if (hi > lo) covered += hi - lo;
  }
  return covered;
}

Bytes ExtentMap::end_offset() const {
  if (extents_.empty()) return 0;
  return extents_.rbegin()->second;
}

void ExtentMap::clear() {
  extents_.clear();
  total_ = 0;
}

}  // namespace pfsc::lustre
