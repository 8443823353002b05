// The MAPE-K feedback loop tying Monitor→Analyze→Plan→Execute together over
// a shared knowledge base (paper §5, Kephart & Chess blueprint). It is the
// `dynamic` ThreadPolicy.
//
// The knowledge is the record of the latest stage: every measured interval
// and the settled decision. Tests assert convergence through it and the
// real-thread example prints it; nothing reads it back to seed a later
// stage, so the next stage start replaces it and memory stays bounded.
//
// Event-driven: the owning executor reports stage starts and task
// completions; in completions mode an interval I_j closes after j
// completions at pool size j, in fixed-time mode (ablation) at the first
// completion a fixed period after it opened. After a rollback or reaching
// the bound the loop freezes until the next stage.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "adaptive/analyzer.h"
#include "adaptive/monitor.h"
#include "adaptive/types.h"

namespace saex::adaptive {

struct StageRecord {
  int64_t stage_key = -1;                 // the stage's uid
  std::vector<IntervalReport> intervals;  // in exploration order
  int settled_threads = 0;                // size in force when stage ended
  bool rolled_back = false;
  bool reached_bound = false;
};

class AdaptiveController final : public ThreadPolicy {
 public:
  AdaptiveController(ControllerConfig config, Sensor& sensor,
                     PoolEffector& pool, SchedulerNotifier notifier);

  /// Resets tuning for a new stage: pool -> c_min (c_max when descending),
  /// first interval opens, and a fresh record keyed by the stage's uid
  /// replaces the previous stage's.
  void on_stage_start(const StageContext& stage, double now) override;

  /// Counts a completion and closes the interval once it is due.
  void on_task_complete(double now) override;

  /// Finalizes the stage record (also called implicitly by the next
  /// on_stage_start).
  void on_stage_end(double now) override;

  std::string name() const override { return "dynamic"; }

  bool frozen() const noexcept { return frozen_; }
  /// The latest stage's record.
  const StageRecord& knowledge() const noexcept { return knowledge_; }

 private:
  void close_interval_and_decide(double now);

  Monitor monitor_;
  Analyzer analyzer_;
  PoolEffector* pool_;
  SchedulerNotifier notifier_;
  StageRecord knowledge_;

  bool stage_open_ = false;
  bool frozen_ = true;
  int completions_in_interval_ = 0;
  std::optional<IntervalReport> previous_;
};

}  // namespace saex::adaptive
