// RunPlan: how to sweep a Scenario.
//
// A plan is a set of named sweep axes (cartesian product), a repetition
// count and a base seed. `expand(base)` materialises the full point grid:
// every point carries its own fully-configured Scenario copy plus the
// per-repetition seeds, derived deterministically from the base seed in
// (point-major, repetition-minor) order *before* anything runs. Execution
// order therefore cannot affect any seed, which is what makes
// ParallelRunner(threads=N) bit-identical to the serial path.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace pfsc::harness {

/// One sweep dimension: a field name, the values to visit, and the setter
/// that applies a value to a Scenario. Values are doubles (large-enough for
/// byte sizes and process counts).
struct Axis {
  std::string name;
  std::vector<double> values;
  std::function<void(Scenario&, double)> apply;
};

/// A fully-expanded plan point: the grid coordinates (one value per axis),
/// the configured scenario, and the seeds of its repetitions.
struct PlanPoint {
  std::vector<double> coords;
  Scenario scenario;
  std::vector<std::uint64_t> seeds;  // one per repetition
};

class RunPlan {
 public:
  /// Add a sweep axis. Axis names must be unique: two axes driving the same
  /// field would silently overwrite each other, so the overlap throws.
  RunPlan& sweep(Axis axis);
  RunPlan& sweep(std::string name, std::vector<double> values,
                 std::function<void(Scenario&, double)> apply);

  /// Convenience axes for the fields every paper sweep touches.
  RunPlan& sweep_nprocs(std::vector<double> values);
  RunPlan& sweep_striping_factor(std::vector<double> values);
  RunPlan& sweep_striping_unit(std::vector<double> values);

  RunPlan& repetitions(unsigned reps);
  RunPlan& base_seed(std::uint64_t seed);

  /// Seed policy. per_point_rep (default): every (point, repetition) pair
  /// gets an independent seed. per_rep: repetition r shares one seed across
  /// all points — the common-random-numbers design that pairs sweep points
  /// for direct comparison (e.g. ad_lustre vs ad_plfs on the same draw).
  enum class SeedMode { per_point_rep, per_rep };
  RunPlan& seed_mode(SeedMode mode);

  unsigned reps() const { return reps_; }
  std::uint64_t seed() const { return seed_; }
  const std::vector<Axis>& axes() const { return axes_; }
  std::vector<std::string> axis_names() const;

  /// Number of grid points (product of axis sizes; 1 with no axes).
  std::size_t point_count() const;

  /// Materialise the cartesian grid over `base`. Axes apply in the order
  /// they were added; the last axis varies fastest.
  std::vector<PlanPoint> expand(const Scenario& base) const;

 private:
  std::vector<Axis> axes_;
  unsigned reps_ = 1;
  std::uint64_t seed_ = 1;
  SeedMode mode_ = SeedMode::per_point_rep;
};

}  // namespace pfsc::harness
