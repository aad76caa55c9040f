#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace pfsc {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

namespace {

// Two-sided critical values of the t distribution, dof 1..30 then selected
// larger dofs; the final entry is the normal-approximation limit.
struct TTable {
  double confidence;
  double values[30];
  double dof40, dof60, dof120, inf;
};

constexpr TTable kTables[] = {
    {0.90,
     {6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.895, 1.860, 1.833, 1.812,
      1.796, 1.782, 1.771, 1.761, 1.753, 1.746, 1.740, 1.734, 1.729, 1.725,
      1.721, 1.717, 1.714, 1.711, 1.708, 1.706, 1.703, 1.701, 1.699, 1.697},
     1.684, 1.671, 1.658, 1.645},
    {0.95,
     {12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
      2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
      2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042},
     2.021, 2.000, 1.980, 1.960},
    {0.99,
     {63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169,
      3.106, 3.055, 3.012, 2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845,
      2.831, 2.819, 2.807, 2.797, 2.787, 2.779, 2.771, 2.763, 2.756, 2.750},
     2.704, 2.660, 2.617, 2.576},
};

}  // namespace

double student_t_critical(double confidence, std::size_t dof) {
  PFSC_REQUIRE(dof >= 1, "student_t_critical: dof must be >= 1");
  for (const auto& table : kTables) {
    if (std::abs(table.confidence - confidence) < 1e-9) {
      if (dof <= 30) return table.values[dof - 1];
      if (dof <= 40) return table.dof40;
      if (dof <= 60) return table.dof60;
      if (dof <= 120) return table.dof120;
      return table.inf;
    }
  }
  throw UsageError("student_t_critical: unsupported confidence level");
}

ConfidenceInterval confidence_interval(std::span<const double> samples,
                                       double confidence) {
  RunningStats stats;
  for (double s : samples) stats.add(s);
  return confidence_interval(stats, confidence);
}

ConfidenceInterval confidence_interval(const RunningStats& stats,
                                       double confidence) {
  ConfidenceInterval ci;
  ci.mean = stats.mean();
  if (stats.count() < 2) {
    ci.lower = ci.upper = ci.mean;
    return ci;
  }
  const double t = student_t_critical(confidence, stats.count() - 1);
  ci.half_width = t * stats.stddev() / std::sqrt(static_cast<double>(stats.count()));
  ci.lower = ci.mean - ci.half_width;
  ci.upper = ci.mean + ci.half_width;
  return ci;
}

double mean_of(std::span<const double> samples) {
  RunningStats stats;
  for (double s : samples) stats.add(s);
  return stats.mean();
}

double jain_index(std::span<const double> shares) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double s : shares) {
    PFSC_REQUIRE(s >= 0.0, "jain_index: shares must be non-negative");
    sum += s;
    sum_sq += s * s;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(shares.size()) * sum_sq);
}

void QueueArea::advance(double now, std::size_t depth) {
  if (!seen) {
    seen = true;
    first = now;
  }
  area += static_cast<double>(depth) * (now - last);
  last = now;
}

void QueueArea::merge(const QueueArea& other) {
  if (!other.seen) return;
  area += other.area;
  first = seen ? std::min(first, other.first) : other.first;
  last = seen ? std::max(last, other.last) : other.last;
  seen = true;
}

}  // namespace pfsc
