#include "harness/run_plan.hpp"

#include "support/rng.hpp"

namespace pfsc::harness {

RunPlan& RunPlan::sweep(Axis axis) {
  PFSC_REQUIRE(!axis.name.empty(), "RunPlan: axis needs a name");
  PFSC_REQUIRE(!axis.values.empty(), "RunPlan: axis needs at least one value");
  PFSC_REQUIRE(axis.apply != nullptr, "RunPlan: axis needs an apply function");
  for (const auto& existing : axes_) {
    PFSC_REQUIRE(existing.name != axis.name,
                 "RunPlan: overlapping sweep axes: '" + axis.name +
                     "' is already swept");
  }
  axes_.push_back(std::move(axis));
  return *this;
}

RunPlan& RunPlan::sweep(std::string name, std::vector<double> values,
                        std::function<void(Scenario&, double)> apply) {
  Axis axis;
  axis.name = std::move(name);
  axis.values = std::move(values);
  axis.apply = std::move(apply);
  return sweep(std::move(axis));
}

RunPlan& RunPlan::sweep_nprocs(std::vector<double> values) {
  return sweep("nprocs", std::move(values), [](Scenario& s, double v) {
    s.nprocs = static_cast<int>(v);
  });
}

RunPlan& RunPlan::sweep_striping_factor(std::vector<double> values) {
  return sweep("striping_factor", std::move(values), [](Scenario& s, double v) {
    s.ior.hints.striping_factor = static_cast<std::uint32_t>(v);
  });
}

RunPlan& RunPlan::sweep_striping_unit(std::vector<double> values) {
  return sweep("striping_unit", std::move(values), [](Scenario& s, double v) {
    s.ior.hints.striping_unit = static_cast<Bytes>(v);
  });
}

RunPlan& RunPlan::repetitions(unsigned reps) {
  PFSC_REQUIRE(reps >= 1, "RunPlan: repetitions must be positive");
  reps_ = reps;
  return *this;
}

RunPlan& RunPlan::base_seed(std::uint64_t seed) {
  seed_ = seed;
  return *this;
}

RunPlan& RunPlan::seed_mode(SeedMode mode) {
  mode_ = mode;
  return *this;
}

std::vector<std::string> RunPlan::axis_names() const {
  std::vector<std::string> names;
  names.reserve(axes_.size());
  for (const auto& axis : axes_) names.push_back(axis.name);
  return names;
}

std::size_t RunPlan::point_count() const {
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.values.size();
  return n;
}

std::vector<PlanPoint> RunPlan::expand(const Scenario& base) const {
  const std::size_t points = point_count();
  std::vector<PlanPoint> out;
  out.reserve(points);

  // All seeds are drawn here, before anything runs, in (point-major,
  // rep-minor) order: execution order can never change a seed.
  Rng seeder(seed_);
  std::vector<std::uint64_t> shared_rep_seeds;
  if (mode_ == SeedMode::per_rep) {
    shared_rep_seeds.reserve(reps_);
    for (unsigned r = 0; r < reps_; ++r) shared_rep_seeds.push_back(seeder.next_u64());
  }

  for (std::size_t p = 0; p < points; ++p) {
    PlanPoint point;
    point.scenario = base;
    // Decompose the flat index into per-axis indices (last axis fastest).
    std::size_t rest = p;
    point.coords.resize(axes_.size());
    for (std::size_t a = axes_.size(); a-- > 0;) {
      const auto& axis = axes_[a];
      const std::size_t i = rest % axis.values.size();
      rest /= axis.values.size();
      point.coords[a] = axis.values[i];
    }
    for (std::size_t a = 0; a < axes_.size(); ++a) {
      axes_[a].apply(point.scenario, point.coords[a]);
    }
    if (mode_ == SeedMode::per_rep) {
      point.seeds = shared_rep_seeds;
    } else {
      point.seeds.reserve(reps_);
      for (unsigned r = 0; r < reps_; ++r) point.seeds.push_back(seeder.next_u64());
    }
    out.push_back(std::move(point));
  }
  return out;
}

}  // namespace pfsc::harness
