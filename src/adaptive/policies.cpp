#include "adaptive/policies.h"

#include <algorithm>

namespace saex::adaptive {

FixedPolicy::FixedPolicy(std::string name, PoolEffector& pool,
                         SchedulerNotifier notifier, SizeOf size_of)
    : name_(std::move(name)),
      pool_(&pool),
      notifier_(std::move(notifier)),
      size_of_(std::move(size_of)) {}

void FixedPolicy::on_stage_start(const StageContext& stage, double /*now*/) {
  resize_pool(*pool_, notifier_, pool_->pool_size(), size_of_(stage));
}

AimdPolicy::AimdPolicy(ControllerConfig config, Sensor& sensor,
                       PoolEffector& pool, SchedulerNotifier notifier)
    : config_(config),
      monitor_(sensor),
      pool_(&pool),
      notifier_(std::move(notifier)) {}

void AimdPolicy::apply(int threads) {
  resize_pool(*pool_, notifier_, pool_->pool_size(),
              std::clamp(threads, config_.min_threads, config_.max_threads));
}

void AimdPolicy::on_stage_start(const StageContext& /*stage*/, double now) {
  // AIMD carries its size across stages (no per-stage reset) — part of why
  // it adapts poorly to stage changes.
  if (monitor_.interval_open()) (void)monitor_.end_interval(now);
  prev_throughput_ = 0.0;
  completions_ = 0;
  if (pool_->pool_size() < config_.min_threads ||
      pool_->pool_size() > config_.max_threads) {
    apply(config_.min_threads);
  }
  monitor_.begin_interval(now, pool_->pool_size());
}

void AimdPolicy::on_task_complete(double now) {
  if (!monitor_.interval_open()) monitor_.begin_interval(now, pool_->pool_size());
  if (++completions_ < pool_->pool_size()) return;
  completions_ = 0;
  const IntervalReport report = monitor_.end_interval(now);
  const double mu = report.throughput();
  if (prev_throughput_ > 0.0 && mu < 0.9 * prev_throughput_) {
    apply(pool_->pool_size() / 2);  // multiplicative decrease
  } else {
    apply(pool_->pool_size() + 1);  // additive increase
  }
  prev_throughput_ = mu;
  monitor_.begin_interval(now, pool_->pool_size());
}

}  // namespace saex::adaptive
