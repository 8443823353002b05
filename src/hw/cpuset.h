// Per-node CPU model: a fixed number of cores serving compute requests FIFO.
//
// A compute request occupies one core for its duration; if all cores are
// busy it queues. The busy tracker feeds the per-stage CPU% rollups (Fig. 1).
// It keeps no change-point history: the rollups snapshot its integral at
// stage start and read it again at stage end.
#pragma once

#include <deque>

#include "metrics/io_accounting.h"
#include "sim/simulation.h"

namespace saex::hw {

class CpuSet {
 public:
  /// `speed_factor` scales compute durations (heterogeneity).
  CpuSet(sim::Simulation& sim, int cores, double speed_factor = 1.0);
  CpuSet(const CpuSet&) = delete;
  CpuSet& operator=(const CpuSet&) = delete;

  /// Runs `seconds` of compute on one core; `done` fires at completion.
  void execute(double seconds, sim::Callback done);

  int cores() const noexcept { return cores_; }
  int busy_cores() const noexcept { return busy_; }
  int queued() const noexcept { return static_cast<int>(queue_.size()); }

  const metrics::UtilizationTracker& busy_tracker() const noexcept { return busy_tracker_; }
  metrics::UtilizationTracker& busy_tracker() noexcept { return busy_tracker_; }

  double total_busy_seconds() const noexcept { return busy_tracker_.integral_at(sim_.now()); }

 private:
  struct Request {
    double seconds;
    sim::Callback done;
  };

  void start(Request req);
  void finish(sim::Callback done);

  sim::Simulation& sim_;
  int cores_;
  double speed_factor_;
  int busy_ = 0;
  std::deque<Request> queue_;
  metrics::UtilizationTracker busy_tracker_;
};

}  // namespace saex::hw
