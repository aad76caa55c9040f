// Stripe layout: how Lustre maps a file's byte range onto OST objects.
//
// A file with stripe size S over OSTs [o_0..o_{c-1}] places byte f in
// stripe index k = f / S; stripe k lives on object o_{k mod c} at object
// offset (k / c) * S + (f mod S). `segments()` decomposes an arbitrary
// extent into maximal per-object contiguous runs, the unit from which the
// client builds bulk RPCs.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "support/units.hpp"

namespace pfsc::lustre {

using OstIndex = std::uint32_t;
using ObjectId = std::uint64_t;

/// What a user asks for (MPI-IO hints).
struct StripeSettings {
  StripeSettings() = default;
  StripeSettings(std::uint32_t count, Bytes size, std::int32_t offset = -1)
      : stripe_count(count), stripe_size(size), stripe_offset(offset) {}

  std::uint32_t stripe_count = 0;  // 0 = file-system default
  Bytes stripe_size = 0;           // 0 = file-system default
  /// Starting OST index, or -1 for allocator's choice. With an explicit
  /// offset, OSTs are assigned sequentially from that index (real Lustre
  /// semantics for the stripe_offset hint).
  std::int32_t stripe_offset = -1;
  /// Expected final file size (0 = unknown). Never changes the layout by
  /// itself: when the stripe count is otherwise defaulted and the file
  /// system carries a PflSpec, the MDS picks the count from this hint's
  /// size class (pfl.hpp) — the modelled analogue of a PFL composite
  /// layout's first matching component.
  Bytes size_hint = 0;
};
// StripeSettings travels by value through coroutine parameters, and GCC
// 12's coroutine codegen double-frees by-value aggregate parameters with
// non-trivially-destructible members (verified with a minimal repro).
// Keeping the settings trivially destructible sidesteps the bug.
static_assert(std::is_trivially_destructible_v<StripeSettings>,
              "StripeSettings crosses coroutine parameter boundaries by "
              "value and must stay trivially destructible (GCC 12)");

/// A resolved layout: stripe size plus the ordered OSTs and their objects.
struct StripeLayout {
  Bytes stripe_size = 0;
  std::vector<OstIndex> osts;
  std::vector<ObjectId> objects;  // parallel to `osts`

  std::uint32_t stripe_count() const { return static_cast<std::uint32_t>(osts.size()); }
};

/// One per-object contiguous run of a file extent.
struct LayoutSegment {
  std::uint32_t layout_index = 0;  // index into StripeLayout::osts/objects
  Bytes object_offset = 0;
  Bytes length = 0;
  Bytes file_offset = 0;
};

/// Decompose file extent [offset, offset+length) into per-object runs,
/// in file-offset order. Runs never cross a stripe boundary.
std::vector<LayoutSegment> segments(const StripeLayout& layout, Bytes offset,
                                    Bytes length);

/// Map a single file offset to its location (layout index, object offset).
LayoutSegment locate(const StripeLayout& layout, Bytes offset);

}  // namespace pfsc::lustre
