// Time-series recording for figure-style outputs.
#pragma once

#include <vector>

#include "common/units.h"

namespace saex::metrics {

/// Accumulates byte events into fixed-width bins; reads back as a rate
/// series (bytes/sec per bin). This is how Fig. 12's throughput-over-time
/// curves are produced.
class RateSeries {
 public:
  /// bin_seconds must be finite and positive; anything else (0, negative,
  /// NaN, inf) falls back to the 1.0s default so add()/rates() can never
  /// divide by zero or index off a garbage bin number.
  explicit RateSeries(double bin_seconds = 1.0)
      : bin_(bin_seconds > 0 && bin_seconds <= kMaxBinSeconds ? bin_seconds
                                                              : 1.0) {}

  /// Largest accepted bin width (~31 years); also rejects +inf.
  static constexpr double kMaxBinSeconds = 1e9;

  void add(double t, Bytes bytes);

  double bin_seconds() const noexcept { return bin_; }
  /// Rate per bin in bytes/sec from t=0 through the last recorded event.
  std::vector<double> rates() const;
  /// Mean rate over the recorded span (0 if empty).
  double mean_rate() const;

 private:
  double bin_;
  std::vector<double> bytes_per_bin_;
};

}  // namespace saex::metrics
