#include "adaptive/controller.h"

#include "common/format.h"
#include "common/log.h"
#include "conf/config.h"
#include "prof/profiler.h"

namespace saex::adaptive {

ControllerConfig ControllerConfig::from_config(const conf::Config& config,
                                               int virtual_cores) {
  ControllerConfig c;
  c.min_threads = static_cast<int>(config.get_int("saex.dynamic.minThreads"));
  c.max_threads = static_cast<int>(config.get_int("saex.dynamic.maxThreads"));
  if (c.max_threads <= 0) c.max_threads = virtual_cores;
  if (c.min_threads < 1 || c.min_threads > c.max_threads) {
    throw conf::ConfigError(strfmt::format(
        "saex.dynamic.minThreads must be >= 1 and <= saex.dynamic.maxThreads "
        "(got {} and {})",
        c.min_threads, c.max_threads));
  }
  c.rollback = config.get_bool("saex.dynamic.rollback");
  c.descending = config.get_bool("saex.dynamic.descending");
  const std::string metric = config.get_string("saex.dynamic.metric");
  if (metric == "zeta") {
    c.metric = Metric::kZeta;
  } else if (metric == "epoll") {
    c.metric = Metric::kEpollOnly;
  } else if (metric == "diskutil") {
    c.metric = Metric::kDiskUtil;
  } else {
    throw conf::ConfigError(strfmt::format(
        "unknown saex.dynamic.metric '{}' (want zeta | epoll | diskutil)",
        metric));
  }
  const std::string mode = config.get_string("saex.dynamic.intervalMode");
  if (mode == "completions") {
    c.interval_mode = IntervalMode::kCompletions;
  } else if (mode == "fixed") {
    c.interval_mode = IntervalMode::kFixedTime;
  } else {
    throw conf::ConfigError(strfmt::format(
        "unknown saex.dynamic.intervalMode '{}' (want completions | fixed)",
        mode));
  }
  return c;
}

AdaptiveController::AdaptiveController(ControllerConfig config, Sensor& sensor,
                                       PoolEffector& pool,
                                       SchedulerNotifier notifier)
    : monitor_(sensor),
      analyzer_(config),
      pool_(&pool),
      notifier_(std::move(notifier)) {}

void AdaptiveController::on_stage_start(const StageContext& stage, double now) {
  if (stage_open_) on_stage_end(now);

  knowledge_ = StageRecord{};
  knowledge_.stage_key = stage.stage_uid;
  stage_open_ = true;
  frozen_ = false;
  previous_.reset();
  completions_in_interval_ = 0;

  const int first = analyzer_.first_threads();
  resize_pool(*pool_, notifier_, pool_->pool_size(), first);
  monitor_.begin_interval(now, first);
}

void AdaptiveController::on_task_complete(double now) {
  if (!stage_open_ || frozen_) return;
  ++completions_in_interval_;
  const ControllerConfig& c = analyzer_.config();
  // Paper §5.1: interval I_j ends once j tasks completed at pool size j; the
  // fixed-time ablation ends it at the first completion one period after it
  // opened.
  const bool due =
      c.interval_mode == IntervalMode::kCompletions
          ? completions_in_interval_ >= monitor_.interval_threads()
          : now - monitor_.interval_start() + 1e-9 >= kFixedIntervalSeconds;
  if (due) close_interval_and_decide(now);
}

void AdaptiveController::close_interval_and_decide(double now) {
  SAEX_PROF_SCOPE(kAdaptive);
  const IntervalReport report = monitor_.end_interval(now);
  knowledge_.intervals.push_back(report);

  const Decision decision = analyzer_.decide(previous_, report);
  SAEX_DEBUG("stage {}: interval j={} eps={:.3f}s mu={:.1f}MB/s zeta={:.5f} -> {}",
             knowledge_.stage_key, report.threads, report.epoll_wait,
             report.throughput() / 1e6, report.congestion_index(),
             decision.reason);

  // The decision is relative to the size the interval ran at, which is the
  // pool's size: the controller is the only owner of its width.
  resize_pool(*pool_, notifier_, report.threads, decision.target_threads);

  if (decision.action == Decision::Action::kContinueClimb) {
    previous_ = report;
    completions_in_interval_ = 0;
    monitor_.begin_interval(now, decision.target_threads);
  } else {
    frozen_ = true;
    knowledge_.rolled_back = decision.action == Decision::Action::kRollback;
    knowledge_.reached_bound = decision.action == Decision::Action::kHold;
  }
}

void AdaptiveController::on_stage_end(double now) {
  if (!stage_open_) return;
  if (monitor_.interval_open()) {
    // Stage ran out of tasks mid-interval; keep the partial measurement for
    // the record but make no decision from it.
    const IntervalReport partial = monitor_.end_interval(now);
    if (partial.duration() > 0.0) knowledge_.intervals.push_back(partial);
  }
  knowledge_.settled_threads = pool_->pool_size();
  stage_open_ = false;
  frozen_ = true;
}

}  // namespace saex::adaptive
