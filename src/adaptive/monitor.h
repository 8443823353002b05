// [M]onitor — senses the managed thread pool over one tuning interval.
#pragma once

#include <algorithm>
#include <optional>

#include "adaptive/types.h"

namespace saex::adaptive {

/// Everything measured for one interval I_j (paper §5.1).
struct IntervalReport {
  int threads = 0;          // pool size j during this interval
  double start_time = 0.0;
  double end_time = 0.0;
  double epoll_wait = 0.0;  // ε_j: seconds blocked on I/O during the interval
  Bytes bytes = 0;          // bytes moved during the interval
  double disk_utilization = 0.0;
  uint64_t completions = 0;  // tasks completed within the interval

  double duration() const noexcept { return end_time - start_time; }

  /// Average fraction of pool-thread time spent blocked on I/O during the
  /// interval (can exceed 1 with overlapping read+write channels).
  double blocked_fraction() const noexcept {
    const double denom = static_cast<double>(threads) * duration();
    return denom > 0.0 ? epoll_wait / denom : 0.0;
  }

  /// µ_j in bytes/sec.
  double throughput() const noexcept {
    const double d = duration();
    return d > 0.0 ? static_cast<double>(bytes) / d : 0.0;
  }

  /// ζ_j = ε_j / µ_j (Eq. 1). Zero I/O yields ζ = 0: with neither wait time
  /// nor traffic the stage is not I/O-constrained at this size.
  ///
  /// ε is normalized per completed task before dividing by µ: interval I_j
  /// spans j completions, so its raw wait-time accumulation scales with j by
  /// construction and would bias every comparison toward smaller pools. The
  /// paper compares ζ across intervals of different j, which is only
  /// meaningful with the accumulation window held constant per unit of work.
  double congestion_index() const noexcept {
    const double mu = throughput();
    if (mu <= 0.0) return 0.0;
    const double per_task =
        epoll_wait / static_cast<double>(std::max<uint64_t>(completions, 1));
    return per_task / mu;
  }
};

class Monitor {
 public:
  explicit Monitor(Sensor& sensor) : sensor_(&sensor) {}

  /// Opens an interval at pool size `threads`.
  void begin_interval(double now, int threads);

  bool interval_open() const noexcept { return open_; }
  int interval_threads() const noexcept { return threads_; }
  double interval_start() const noexcept { return start_time_; }

  /// Closes the interval and returns the filtered measurements.
  IntervalReport end_interval(double now);

 private:
  Sensor* sensor_;
  bool open_ = false;
  int threads_ = 0;
  double start_time_ = 0.0;
  IoSample start_sample_{};
};

}  // namespace saex::adaptive
