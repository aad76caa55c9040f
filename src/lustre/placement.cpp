#include "lustre/placement.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "support/error.hpp"

namespace pfsc::lustre {

namespace {

/// Healthy OSTs in index order.
std::vector<OstIndex> healthy_osts(const PlacementView& view) {
  std::vector<OstIndex> healthy;
  healthy.reserve(view.ost_count);
  for (OstIndex ost = 0; ost < view.ost_count; ++ost) {
    if (view.healthy(ost)) healthy.push_back(ost);
  }
  return healthy;
}

/// The historical default: build the healthy vector, then one
/// sample_without_replacement draw. The exact rng call sequence is pinned
/// by the golden regression tests — do not reorder.
class UniformRandomPlacement final : public PlacementPolicy {
 public:
  PlacementKind kind() const override { return PlacementKind::uniform_random; }

  std::vector<OstIndex> choose(std::uint32_t want, const PlacementView& view,
                               Rng& rng) override {
    const std::vector<OstIndex> healthy = healthy_osts(view);
    const auto picks = rng.sample_without_replacement(
        static_cast<std::uint32_t>(healthy.size()), want);
    std::vector<OstIndex> chosen;
    chosen.reserve(want);
    for (const auto p : picks) chosen.push_back(healthy[p]);
    return chosen;
  }
};

/// A cursor striding over all OSTs, skipping failed ones (the cursor
/// still advances past them).
class RoundRobinPlacement final : public PlacementPolicy {
 public:
  PlacementKind kind() const override { return PlacementKind::round_robin; }

  std::vector<OstIndex> choose(std::uint32_t want, const PlacementView& view,
                               Rng& /*rng*/) override {
    std::vector<OstIndex> chosen;
    chosen.reserve(want);
    for (std::uint32_t scanned = 0;
         chosen.size() < want && scanned < view.ost_count; ++scanned) {
      const OstIndex idx = next_;
      next_ = (next_ + 1) % view.ost_count;
      if (view.healthy(idx)) chosen.push_back(idx);
    }
    return chosen;
  }

 private:
  std::uint32_t next_ = 0;
};

/// Contention-aware: the `want` least-demanded healthy OSTs, ties broken
/// by lowest index. Keeps per-OST demand within one object of flat, so
/// the max per-OST overlap of concurrent files approaches the
/// ceil(D_req / D_total) floor instead of Eq. 1-4's binomial tail.
class LoadAwarePlacement final : public PlacementPolicy {
 public:
  PlacementKind kind() const override { return PlacementKind::load_aware; }

  std::vector<OstIndex> choose(std::uint32_t want, const PlacementView& view,
                               Rng& /*rng*/) override {
    std::vector<OstIndex> healthy = healthy_osts(view);
    std::sort(healthy.begin(), healthy.end(),
              [&view](OstIndex a, OstIndex b) {
                if (view.load(a) != view.load(b)) {
                  return view.load(a) < view.load(b);
                }
                return a < b;
              });
    healthy.resize(std::min<std::size_t>(want, healthy.size()));
    return healthy;
  }
};

/// Bulk assignment: the contiguous run of `want` healthy OSTs (in index
/// order, no wrap) with the smallest total demand, ties broken by the
/// earliest start. Because OST i is served by OSS (i mod oss_count),
/// a band still spans many OSS, but two non-overlapping bands never share
/// an OST — the property bbThemis exploits to keep each target owned by
/// one writer set.
class NodeAffinePlacement final : public PlacementPolicy {
 public:
  PlacementKind kind() const override { return PlacementKind::node_affine; }

  std::vector<OstIndex> choose(std::uint32_t want, const PlacementView& view,
                               Rng& /*rng*/) override {
    const std::vector<OstIndex> healthy = healthy_osts(view);
    if (healthy.size() < want) return {};
    std::uint64_t window = 0;
    for (std::uint32_t i = 0; i < want; ++i) window += view.load(healthy[i]);
    std::uint64_t best = window;
    std::size_t best_start = 0;
    for (std::size_t start = 1; start + want <= healthy.size(); ++start) {
      window -= view.load(healthy[start - 1]);
      window += view.load(healthy[start + want - 1]);
      if (window < best) {
        best = window;
        best_start = start;
      }
    }
    return {healthy.begin() + static_cast<std::ptrdiff_t>(best_start),
            healthy.begin() + static_cast<std::ptrdiff_t>(best_start + want)};
  }
};

}  // namespace

const char* placement_kind_name(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::uniform_random: return "uniform_random";
    case PlacementKind::round_robin: return "round_robin";
    case PlacementKind::load_aware: return "load_aware";
    case PlacementKind::node_affine: return "node_affine";
  }
  return "?";
}

std::unique_ptr<PlacementPolicy> make_placement(PlacementKind kind) {
  switch (kind) {
    case PlacementKind::uniform_random:
      return std::make_unique<UniformRandomPlacement>();
    case PlacementKind::round_robin:
      return std::make_unique<RoundRobinPlacement>();
    case PlacementKind::load_aware:
      return std::make_unique<LoadAwarePlacement>();
    case PlacementKind::node_affine:
      return std::make_unique<NodeAffinePlacement>();
  }
  throw UsageError("make_placement: unknown PlacementKind");
}

}  // namespace pfsc::lustre
