// Small statistics helpers used by metrics rollups and bench reporting.
#pragma once

#include <cstddef>
#include <vector>

namespace saex {

/// Streaming mean/variance (Welford). O(1) memory; numerically stable.
class RunningStats {
 public:
  void add(double x) noexcept;
  void merge(const RunningStats& other) noexcept;
  void reset() noexcept;

  size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  double variance() const noexcept;  // population variance
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }
  double sum() const noexcept { return sum_; }

 private:
  size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Exact percentile over a stored sample (copies + sorts on query).
/// q in [0,1]; linear interpolation between order statistics.
double percentile(std::vector<double> values, double q);

}  // namespace saex
