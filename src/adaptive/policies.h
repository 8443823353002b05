// Thread-pool sizing policies the engine's executors are parameterized by.
//
//  * FixedPolicy        — a pool size fixed per stage by a function of the
//                         stage: `default` (Spark's behaviour, pool size =
//                         virtual cores, always) and `static` (the paper's
//                         §4 static solution, a user-supplied size for
//                         I/O-tagged stages, default elsewhere) from
//                         saex.executor.policy, and the benches' `per-stage`
//                         (explicit size per stage ordinal; the "static
//                         BestFit" baseline and the sweep benches).
//  * AimdPolicy         — a congestion-control baseline for the ablation.
//  * AdaptiveController — the paper's §5 self-adaptive executors (MAPE-K),
//                         in controller.h.
#pragma once

#include <functional>
#include <string>

#include "adaptive/monitor.h"
#include "adaptive/types.h"

namespace saex::adaptive {

class FixedPolicy final : public ThreadPolicy {
 public:
  using SizeOf = std::function<int(const StageContext&)>;

  FixedPolicy(std::string name, PoolEffector& pool, SchedulerNotifier notifier,
              SizeOf size_of);
  void on_stage_start(const StageContext& stage, double now) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  PoolEffector* pool_;
  SchedulerNotifier notifier_;
  SizeOf size_of_;
};

/// AIMD baseline (not from the paper): additive-increase /
/// multiplicative-decrease on interval throughput, never freezing. A
/// classic congestion-control transplant that the ablation bench compares
/// against the paper's hill climber — it reacts forever (no settling) and
/// probes in +1 steps, so it both converges slower and keeps oscillating.
class AimdPolicy final : public ThreadPolicy {
 public:
  AimdPolicy(ControllerConfig config, Sensor& sensor, PoolEffector& pool,
             SchedulerNotifier notifier);
  void on_stage_start(const StageContext& stage, double now) override;
  void on_task_complete(double now) override;
  std::string name() const override { return "aimd"; }

 private:
  void apply(int threads);

  ControllerConfig config_;
  Monitor monitor_;
  PoolEffector* pool_;
  SchedulerNotifier notifier_;
  int completions_ = 0;
  double prev_throughput_ = 0.0;
};

}  // namespace saex::adaptive
