// MDS-side OST placement policies: how the allocator picks the OST set of
// a new file when the caller gives no explicit stripe_offset.
//
// The paper's lscratchc assigns "targets at random (based on current
// usage, to maintain an approximately even capacity)" — that is
// PlacementKind::uniform_random, the default, and its draw sequence is
// pinned bit-for-bit by the golden regression tests. The other kinds act
// on the contention model instead of merely feeding it:
//
//   round_robin    a striding cursor over all OSTs (perfectly even
//                  assignment; an ablation).
//   load_aware     pick the `want` least-demanded healthy OSTs, where
//                  demand is the MDS's live allocated-object count per
//                  OST. Minimises the predicted per-OST overlap (Eq. 1-4:
//                  max occupancy -> ceil(D_req / D_total) when demand is
//                  balanced) for concurrently allocated files.
//   node_affine    pick the least-demanded *contiguous* band of `want`
//                  healthy OSTs (bbThemis-style bulk assignment: files
//                  get disjoint index ranges while each file still spans
//                  many OSS, so non-overlapping jobs never share an OST).
//
// All policies read only MDS state (per-OST demand maintained at
// create/unlink), never live server-side counters.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "lustre/layout.hpp"
#include "support/rng.hpp"

namespace pfsc::lustre {

enum class PlacementKind : std::uint8_t {
  uniform_random,  // paper's lscratchc behaviour (the default)
  round_robin,     // even striding cursor (historical ablation)
  load_aware,      // least-demand OSTs first (contention-aware)
  node_affine,     // least-demand contiguous band (bulk assignment)
};

const char* placement_kind_name(PlacementKind kind);

/// What a placement decision may consult: all fields are MDS state.
/// `demand` is the live allocated-object count per OST
/// (FileSystem::objects_per_ost).
struct PlacementView {
  std::uint32_t ost_count = 0;
  const std::vector<bool>* failed = nullptr;
  const std::vector<std::uint64_t>* demand = nullptr;

  bool healthy(OstIndex ost) const { return !(*failed)[ost]; }
  std::uint64_t load(OstIndex ost) const { return (*demand)[ost]; }
};

/// One policy instance per FileSystem; stateful kinds (round_robin's
/// cursor) keep their state here.
class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  virtual PlacementKind kind() const = 0;

  /// Choose `want` distinct healthy OSTs. The caller guarantees
  /// 1 <= want <= healthy count; `rng` is the file system's allocator
  /// stream (only uniform_random draws from it — deterministic policies
  /// must not, so switching kinds never perturbs unrelated draws).
  virtual std::vector<OstIndex> choose(std::uint32_t want,
                                       const PlacementView& view,
                                       Rng& rng) = 0;
};

std::unique_ptr<PlacementPolicy> make_placement(PlacementKind kind);

}  // namespace pfsc::lustre
