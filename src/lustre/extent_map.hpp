// Ordered set of written byte extents.
//
// The simulator does not move payload bytes, but it must still answer "was
// this range ever written?" so integrity tests can prove that reads observe
// exactly what writes produced (Lustre files, PLFS index resolution,
// collective-buffer reassembly).
//
// Layout: one flat vector. Its first `sorted_` entries are the settled set
// (sorted, disjoint, non-adjacent); the entries after them are a tail of
// inserts not yet merged. An insert that grows a settled extent without
// reaching its successor, or that lies past the settled end, stays in the
// settled prefix; one that continues the latest tail entry grows it. Any
// other insert joins the tail, which is sorted and merged in one linear
// pass once it outgrows 8 + a quarter of the settled set (amortised
// O(log n) per insert). Queries merge a pending tail first, so every
// answer is exact.
#pragma once

#include <cstddef>
#include <vector>

#include "support/units.hpp"

namespace pfsc::lustre {

class ExtentMap {
 public:
  /// Mark [offset, offset+length) written; coalesces adjacent/overlapping.
  void insert(Bytes offset, Bytes length);

  /// True iff every byte of [offset, offset+length) has been written.
  bool covers(Bytes offset, Bytes length) const;

  /// Total distinct bytes written.
  Bytes total_bytes() const {
    settle();
    return total_;
  }

  std::size_t extent_count() const {
    settle();
    return extents_.size();
  }

 private:
  struct Extent {
    Bytes start;
    Bytes end;  // exclusive
  };

  /// Merge a pending tail into the settled prefix.
  void settle() const {
    if (sorted_ != extents_.size()) merge();
  }
  void merge() const;

  // Settling is invisible to callers, so the const queries may do it.
  mutable std::vector<Extent> extents_;
  mutable std::size_t sorted_ = 0;  // length of the settled prefix
  mutable Bytes total_ = 0;         // bytes in the settled prefix
};

}  // namespace pfsc::lustre
