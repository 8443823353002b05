#include "metrics/timeseries.h"

namespace saex::metrics {

void RateSeries::add(double t, Bytes bytes) {
  if (!(t >= 0)) t = 0;  // also catches NaN
  const size_t bin = static_cast<size_t>(t / bin_);
  if (bin >= bytes_per_bin_.size()) bytes_per_bin_.resize(bin + 1, 0.0);
  bytes_per_bin_[bin] += static_cast<double>(bytes);
}

std::vector<double> RateSeries::rates() const {
  std::vector<double> out(bytes_per_bin_.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = bytes_per_bin_[i] / bin_;
  return out;
}

double RateSeries::mean_rate() const {
  if (bytes_per_bin_.empty()) return 0.0;
  double total = 0.0;
  for (double b : bytes_per_bin_) total += b;
  return total / (static_cast<double>(bytes_per_bin_.size()) * bin_);
}

}  // namespace saex::metrics
