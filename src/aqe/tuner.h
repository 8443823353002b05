// Per-stage multi-knob tuner: an online cost model over observed reduce-task
// bytes and service times that jointly suggests (coalesce target, reduce
// parallelism, pool-size hint) for the NEXT shuffle stage.
//
// The model is the classic two-parameter task-time fit
//
//     service_seconds ≈ fixed_cost + per_byte × input_bytes
//
// updated by accumulated least squares across stages (durations and bytes
// are sorted ascending and paired rank-to-rank, which is deterministic and
// robust to the scheduler reporting completions out of task order). Given W
// total shuffle bytes and S cluster task slots, the tuner picks the coalesce
// target t on a geometric grid that minimizes the modeled makespan
//
//     waves(W, t, S) × (fixed_cost + per_byte × t),
//
// i.e. it trades per-task overhead (favors large t) against wave granularity
// (favors small t). The pool-size hint is a stage-granularity hill-climb
// over observed per-pool throughputs: it *seeds* each executor's pool before
// the stage starts. The paper's per-interval MAPE-K controller
// (src/adaptive/) does not climb from that seed: its first interval still
// counts at c_min, and its first decision resizes to the step after c_min.
#pragma once

#include <map>
#include <vector>

#include "common/units.h"

namespace saex::aqe {

/// One finished shuffle stage, as observed by the driver.
struct StageObservation {
  std::vector<double> durations;  // per-task service seconds
  std::vector<Bytes> bytes;       // per-task input bytes
  int pool_size = 0;              // thread-pool width the stage settled at
  double makespan = 0.0;          // stage wall-clock seconds
  Bytes total_bytes = 0;          // stage input bytes
};

class StageTuner {
 public:
  /// Folds one finished stage into the cost model and pool statistics.
  void observe_stage(const StageObservation& obs);

  /// True once at least two distinct task sizes have been fitted (the model
  /// is under-determined before that).
  bool ready() const noexcept;

  double fixed_cost() const noexcept;  // seconds per task
  double per_byte() const noexcept;    // seconds per input byte

  /// Modeled-makespan argmin over a geometric grid of coalesce targets
  /// (1 MiB … 1 GiB, ×2). `slots` is the cluster-wide task slot count;
  /// returns `fallback` until the model is ready. Deterministic.
  Bytes choose_target(Bytes total_bytes, int slots, Bytes fallback) const;

  /// Pool-size hint for the next stage: the best observed pool so far, with
  /// one-step exploration to an untried neighbor (bounded to [1, 64]).
  /// Returns `current` until any stage has been observed.
  int choose_pool_hint(int current) const;

  int stages_observed() const noexcept { return stages_observed_; }

 private:
  // Accumulated least-squares sums over (bytes, seconds) pairs.
  double sum_x_ = 0.0, sum_y_ = 0.0, sum_xx_ = 0.0, sum_xy_ = 0.0;
  double n_ = 0.0;
  Bytes min_x_ = 0, max_x_ = 0;  // spread guard for ready()
  int stages_observed_ = 0;

  // pool size -> best observed throughput (bytes per makespan second).
  std::map<int, double> pool_throughput_;
};

}  // namespace saex::aqe
