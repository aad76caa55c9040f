// Summary statistics with Student-t confidence intervals.
//
// The paper reports five-repetition means with 95% confidence intervals
// (Table VII) and derives the ideal-scaling band of Figure 2 from the
// single-job CI; this module provides exactly those computations.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace pfsc {

/// Welford-style accumulator for mean and variance.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

struct ConfidenceInterval {
  double mean = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double half_width = 0.0;
};

/// Two-sided Student-t critical value for the given confidence level
/// (supported levels: 0.90, 0.95, 0.99) and degrees of freedom.
double student_t_critical(double confidence, std::size_t dof);

/// Mean with a two-sided Student-t confidence interval.
ConfidenceInterval confidence_interval(std::span<const double> samples,
                                       double confidence = 0.95);
ConfidenceInterval confidence_interval(const RunningStats& stats,
                                       double confidence = 0.95);

double mean_of(std::span<const double> samples);

/// Jain fairness index (sum x)^2 / (n * sum x^2) over non-negative shares:
/// 1.0 for perfectly equal allocations, 1/n when one share takes all.
/// Empty or all-zero inputs count as perfectly fair (1.0).
double jain_index(std::span<const double> shares);

/// Time-weighted integral of a queue's depth, kept exactly as the depth
/// changes, between its first and its last change (`seen` false: the
/// depth never changed).
struct QueueArea {
  double area = 0.0;  // request-seconds
  double first = 0.0;
  double last = 0.0;
  bool seen = false;

  /// Account `depth`, held since the last change, up to `now`; call just
  /// before the depth changes.
  void advance(double now, std::size_t depth);
  /// Fold in another queue: the span runs from the earliest first to the
  /// latest last, so mean() becomes the mean total depth of both.
  void merge(const QueueArea& other);
  /// Time-weighted mean depth over [first, last]; 0 over an empty span.
  double mean() const { return last > first ? area / (last - first) : 0.0; }
};

}  // namespace pfsc
