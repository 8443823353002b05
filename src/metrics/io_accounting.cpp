#include "metrics/io_accounting.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "prof/profiler.h"

namespace saex::metrics {

UtilizationTracker::UtilizationTracker(double capacity, double retain)
    : capacity_(capacity), retain_(retain) {
  assert(retain >= 0.0 && "retention horizon must be non-negative");
}

void UtilizationTracker::set_active(double t, double active) {
  SAEX_PROF_SCOPE(kMetrics);
  assert(t + 1e-12 >= last_t_ && "time went backwards");
  t = std::max(t, last_t_);
  // Same instant, same level: the new change point would be an exact
  // duplicate of the last one (identical t, integral, active), so queries
  // are unaffected by skipping it. Bursts of transfers joining an already
  // busy device at one timestamp otherwise grow history_ by one point each.
  if (t == last_t_ && active == active_) return;
  if (retain_ > 0.0) history_.push_back({last_t_, integral_, active_});
  integral_ += active_ * (t - last_t_);
  last_t_ = t;
  active_ = active;
  if (retain_ <= 0.0) return;

  // Keep the last point at or before the horizon (queries between it and
  // the next point extrapolate from it) and drop everything older.
  const double horizon = t - retain_;
  while (history_.size() - head_ >= 2 && history_[head_ + 1].t <= horizon) {
    ++head_;
  }
  if (head_ > 0 && 2 * head_ >= history_.size()) {
    history_.erase(history_.begin(),
                   history_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

double UtilizationTracker::integral_at(double t) const {
  if (t >= last_t_) return integral_ + active_ * (t - last_t_);
  // Binary search the last retained change point at or before t.
  const auto first = history_.begin() + static_cast<std::ptrdiff_t>(head_);
  auto it = std::upper_bound(
      first, history_.end(), t,
      [](double value, const Point& p) { return value < p.t; });
  if (it == first) {
    throw std::out_of_range("UtilizationTracker: query before the retained window");
  }
  --it;
  return it->integral + it->active * (t - it->t);
}

double UtilizationTracker::utilization(double t0, double t1) const {
  if (t1 <= t0 || capacity_ <= 0.0) return 0.0;
  return utilization_since(t0, integral_at(t0), t1);
}

double UtilizationTracker::utilization_since(double t0, double integral_t0,
                                             double t1) const {
  if (t1 <= t0 || capacity_ <= 0.0) return 0.0;
  return (integral_at(t1) - integral_t0) / (capacity_ * (t1 - t0));
}

}  // namespace saex::metrics
