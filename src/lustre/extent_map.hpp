// Ordered set of written byte extents.
//
// The simulator does not move payload bytes, but it must still answer "was
// this range ever written?" so integrity tests can prove that reads observe
// exactly what writes produced (Lustre files, PLFS index resolution,
// collective-buffer reassembly).
#pragma once

#include <map>

#include "support/units.hpp"

namespace pfsc::lustre {

class ExtentMap {
 public:
  /// Mark [offset, offset+length) written; coalesces adjacent/overlapping.
  void insert(Bytes offset, Bytes length);

  /// True iff every byte of [offset, offset+length) has been written.
  bool covers(Bytes offset, Bytes length) const;

  /// Bytes of [offset, offset+length) that have been written.
  Bytes covered_bytes(Bytes offset, Bytes length) const;

  /// Total distinct bytes written.
  Bytes total_bytes() const { return total_; }

  /// One past the highest written byte (file size under append semantics).
  Bytes end_offset() const;

  std::size_t extent_count() const { return extents_.size(); }
  void clear();

 private:
  using Map = std::map<Bytes, Bytes>;  // start -> end (exclusive)

  /// Merge into `grown` every extent from `next` on that it reaches.
  void absorb(Map::iterator grown, Map::iterator next);

  Map extents_;
  Bytes total_ = 0;
};

}  // namespace pfsc::lustre
