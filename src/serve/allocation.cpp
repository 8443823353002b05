#include "serve/allocation.h"

#include <algorithm>

#include "common/log.h"

namespace saex::serve {

AllocationOptions AllocationOptions::from_config(const conf::Config& config) {
  AllocationOptions o;
  o.enabled = config.get_bool("spark.dynamicAllocation.enabled");
  o.min_executors =
      static_cast<int>(config.get_int("spark.dynamicAllocation.minExecutors"));
  o.max_executors =
      static_cast<int>(std::min<int64_t>(
          config.get_int("spark.dynamicAllocation.maxExecutors"), 1 << 30));
  o.initial_executors = static_cast<int>(
      config.get_int("spark.dynamicAllocation.initialExecutors"));
  o.idle_timeout =
      config.get_duration_seconds("spark.dynamicAllocation.executorIdleTimeout");
  o.backlog_timeout = config.get_duration_seconds(
      "spark.dynamicAllocation.schedulerBacklogTimeout");
  o.sustained_backlog_timeout = config.get_duration_seconds(
      "spark.dynamicAllocation.sustainedSchedulerBacklogTimeout");
  return o;
}

ExecutorAllocationManager::ExecutorAllocationManager(
    sim::Simulation& sim, engine::TaskScheduler& scheduler, int num_executors,
    AllocationOptions options, std::function<bool()> has_work,
    engine::EventLog* event_log)
    : sim_(sim),
      scheduler_(scheduler),
      num_executors_(num_executors),
      options_(options),
      has_work_(std::move(has_work)),
      event_log_(event_log),
      idle_since_(static_cast<size_t>(num_executors), -1.0) {}

void ExecutorAllocationManager::start() {
  if (!options_.enabled) return;
  const int floor = std::max(options_.min_executors, 0);
  const int initial = std::clamp(
      std::max(options_.initial_executors, floor), 0, num_executors_);
  // Executors [initial, N) start deallocated; the backlog timeout grants
  // them back as demand materializes.
  for (int n = initial; n < num_executors_; ++n) {
    scheduler_.set_executor_active(n, false);
  }
}

void ExecutorAllocationManager::notify_work() {
  if (!options_.enabled || timer_armed_) return;
  timer_armed_ = true;
  sim_.schedule_after(kAllocationTick, [this] { tick(); });
}

void ExecutorAllocationManager::tick() {
  timer_armed_ = false;
  const double now = sim_.now();

  // --- backlog: grant executors in exponentially growing batches ----------
  const int pending = scheduler_.pending_task_count();
  if (pending > 0) {
    if (backlog_since_ < 0.0) backlog_since_ = now;
    const bool first = last_grant_time_ < backlog_since_;
    const double since = first ? backlog_since_ : last_grant_time_;
    const double timeout =
        first ? options_.backlog_timeout : options_.sustained_backlog_timeout;
    const int active = scheduler_.active_executor_count();
    const int headroom =
        std::min(options_.max_executors, num_executors_) - active;
    if (now - since >= timeout && headroom > 0) {
      grant(std::min({next_batch_, headroom, pending}));
      last_grant_time_ = now;
      next_batch_ *= 2;
    }
  } else {
    backlog_since_ = -1.0;
    next_batch_ = 1;
  }

  // --- idle timeout: release executors down to minExecutors ---------------
  // Highest node ids first, so release and grant orders mirror each other.
  for (int n = num_executors_ - 1; n >= 0; --n) {
    const size_t i = static_cast<size_t>(n);
    if (!scheduler_.executor_active(n)) {
      idle_since_[i] = -1.0;
      continue;
    }
    if (scheduler_.assigned_count(n) > 0) {
      idle_since_[i] = -1.0;
      continue;
    }
    if (idle_since_[i] < 0.0) idle_since_[i] = now;
    if (now - idle_since_[i] >= options_.idle_timeout &&
        scheduler_.active_executor_count() >
            std::max(options_.min_executors, 0)) {
      release(n);
    }
  }

  // Keep evaluating while the server has work, or while idle executors above
  // the floor remain to be released (Spark keeps releasing after the last
  // job); once both are false the tick stops and the simulation can drain.
  const bool can_release = scheduler_.active_executor_count() >
                           std::max(options_.min_executors, 0);
  if ((has_work_ && has_work_()) || can_release) {
    timer_armed_ = true;
    sim_.schedule_after(kAllocationTick, [this] { tick(); });
  }
}

void ExecutorAllocationManager::grant(int count) {
  // Lowest inactive node first (deterministic). Dead executors (fault
  // injection) are gone until a chaos rejoin revives them, and quarantined
  // nodes (health breaker open) must not be granted either — a grant would
  // just hand tasks to the flapping node the breaker excluded.
  for (int n = 0; n < num_executors_ && count > 0; ++n) {
    if (scheduler_.executor_dead(n) || scheduler_.executor_quarantined(n) ||
        scheduler_.executor_active(n)) {
      continue;
    }
    scheduler_.set_executor_active(n, true);
    idle_since_[static_cast<size_t>(n)] = -1.0;
    ++granted_total_;
    --count;
    SAEX_DEBUG("dynalloc: granted executor {} at {:.3f}s", n, sim_.now());
    if (event_log_ != nullptr) {
      event_log_->record(engine::Event{engine::EventKind::kExecutorGranted,
                                       sim_.now(), -1, -1, -1, n,
                                       scheduler_.active_executor_count(),
                                       {}});
    }
  }
}

void ExecutorAllocationManager::release(int node_id) {
  scheduler_.set_executor_active(node_id, false);
  idle_since_[static_cast<size_t>(node_id)] = -1.0;
  ++released_total_;
  SAEX_DEBUG("dynalloc: released executor {} at {:.3f}s", node_id, sim_.now());
  if (event_log_ != nullptr) {
    event_log_->record(engine::Event{engine::EventKind::kExecutorReleased,
                                     sim_.now(), -1, -1, -1, node_id,
                                     scheduler_.active_executor_count(),
                                     {}});
  }
}

}  // namespace saex::serve
