// The MAPE-K feedback loop tying Monitor→Analyze→Plan→Execute together over
// a shared knowledge base (paper §5, Kephart & Chess blueprint). It is the
// `dynamic` ThreadPolicy.
//
// Event-driven: the owning executor reports stage starts and task
// completions; in completions mode an interval I_j closes after j
// completions at pool size j, in fixed-time mode (ablation) at the first
// completion a fixed period after it opened. After a rollback or reaching
// the bound the loop freezes until the next stage.
#pragma once

#include <cstdint>
#include <optional>

#include "adaptive/analyzer.h"
#include "adaptive/knowledge.h"
#include "adaptive/monitor.h"
#include "adaptive/types.h"

namespace saex::adaptive {

class AdaptiveController final : public ThreadPolicy {
 public:
  AdaptiveController(ControllerConfig config, Sensor& sensor,
                     PoolEffector& pool, SchedulerNotifier notifier);

  /// Resets tuning for a new stage: pool -> c_min (c_max when descending),
  /// first interval opens. The knowledge base keys the stage by its uid.
  void on_stage_start(const StageContext& stage, double now) override;

  /// Counts a completion and closes the interval once it is due.
  void on_task_complete(double now) override;

  /// Finalizes the stage record (also called implicitly by the next
  /// on_stage_start).
  void on_stage_end(double now) override;

  std::string name() const override { return "dynamic"; }

  bool frozen() const noexcept { return frozen_; }
  const KnowledgeBase& knowledge() const noexcept { return knowledge_; }

 private:
  void close_interval_and_decide(double now);
  void settle(bool rolled_back, bool reached_bound);

  Monitor monitor_;
  Analyzer analyzer_;
  PoolEffector* pool_;
  SchedulerNotifier notifier_;
  KnowledgeBase knowledge_;

  int64_t stage_key_ = -1;
  bool stage_open_ = false;
  bool frozen_ = true;
  int completions_in_interval_ = 0;
  std::optional<IntervalReport> previous_;
  bool rolled_back_ = false;
  bool reached_bound_ = false;
};

}  // namespace saex::adaptive
