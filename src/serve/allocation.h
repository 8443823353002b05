// Dynamic executor allocation (spark.dynamicAllocation.*) for the job
// server.
//
// Spark's ExecutorAllocationManager, mapped onto the simulator: the cluster
// owns a fixed set of executors, and "allocation" toggles which of them are
// schedulable. A sustained task backlog requests executors in exponentially
// growing batches (1, 2, 4, ...); an executor idle past the idle timeout is
// released (its running tasks, if any, always finish first — deactivation
// only stops new offers). A freshly granted executor re-enters the offer
// loop cold, so the first task it receives fires the scheduler's
// executor-engaged hook and its adaptive policy restarts the hill climb at
// c_min.
//
// The manager evaluates on a fixed tick (saex.serve.allocationTick) driven by
// the simulation clock; the tick re-arms only while the server reports
// outstanding work, so a drained simulation still terminates.
#pragma once

#include <functional>
#include <vector>

#include "conf/config.h"
#include "engine/event_log.h"
#include "engine/task_scheduler.h"
#include "sim/simulation.h"

namespace saex::serve {

struct AllocationOptions {
  bool enabled = false;
  int min_executors = 0;
  int max_executors = 1 << 30;
  int initial_executors = 0;
  double idle_timeout = 60.0;              // executorIdleTimeout
  double backlog_timeout = 1.0;            // schedulerBacklogTimeout
  double sustained_backlog_timeout = 1.0;  // sustainedSchedulerBacklogTimeout
  double tick = 0.25;                      // saex.serve.allocationTick

  static AllocationOptions from_config(const conf::Config& config);
};

class ExecutorAllocationManager {
 public:
  /// `has_work` reports whether the server still has running or queued jobs;
  /// while it returns true the evaluation tick keeps re-arming.
  ExecutorAllocationManager(sim::Simulation& sim,
                            engine::TaskScheduler& scheduler, int num_executors,
                            AllocationOptions options,
                            std::function<bool()> has_work,
                            engine::EventLog* event_log = nullptr);

  /// Applies the initial allocation (deactivates executors beyond
  /// max(initial, min)). Call once before the first submission.
  void start();

  /// (Re)arms the evaluation tick; called by the server whenever new work
  /// arrives. Idempotent while a tick is pending.
  void notify_work();

  int granted_total() const noexcept { return granted_total_; }
  int released_total() const noexcept { return released_total_; }

 private:
  void tick();
  void grant(int count);
  void release(int node_id);

  sim::Simulation& sim_;
  engine::TaskScheduler& scheduler_;
  int num_executors_;
  AllocationOptions options_;
  std::function<bool()> has_work_;
  engine::EventLog* event_log_;

  bool timer_armed_ = false;
  double backlog_since_ = -1.0;  // <0: no current backlog
  double last_grant_time_ = -1.0;
  int next_batch_ = 1;                 // doubles per consecutive grant
  std::vector<double> idle_since_;     // per node; <0 when busy/inactive
  int granted_total_ = 0;
  int released_total_ = 0;
};

}  // namespace saex::serve
