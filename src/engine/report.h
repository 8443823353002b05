// Per-stage and per-job measurement rollups — the quantities the paper's
// figures are drawn from.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"

namespace saex::engine {

struct ExecutorStageStats {
  int node = 0;
  int threads_settled = 0;       // pool size when the stage ended
  double blocked_seconds = 0.0;  // ε accrued during this stage
  Bytes io_bytes = 0;            // bytes moved by this executor's tasks
};

struct StageStats {
  int ordinal = 0;
  std::string name;
  bool io_tagged = false;
  int num_tasks = 0;
  double start_time = 0.0;
  double end_time = 0.0;

  Bytes input_bytes = 0;
  Bytes disk_read = 0;      // cluster-wide during the stage
  Bytes disk_written = 0;
  Bytes net_bytes = 0;

  double cpu_utilization = 0.0;   // mean over nodes (Fig. 1 bar height)
  double disk_utilization = 0.0;  // mean over nodes (Fig. 5)
  double iowait_fraction = 0.0;   // mpstat-style iowait (Fig. 1 color)

  int threads_total = 0;  // Σ executors' settled threads (Fig. 8 labels)
  // Σ successful task durations — the stage's slot-seconds.
  double task_seconds = 0.0;
  // Task duration distribution (successful attempts of the stage's own task
  // set; lineage-recovery tasks running beside it are not counted). p50/p95
  // are exact order statistics, interpolated as saex::percentile does.
  double task_p50 = 0.0;
  double task_p95 = 0.0;
  double task_max = 0.0;
  std::vector<ExecutorStageStats> executors;  // run_job only

  double duration() const noexcept { return end_time - start_time; }
};

struct JobReport {
  std::string app_name;
  std::string policy_name;
  double total_runtime = 0.0;
  Bytes input_bytes = 0;
  Bytes total_disk_bytes = 0;  // Table 2's "I/O activity"
  // Cumulative kernel events the owning Simulation had processed when the
  // job finished (throughput accounting for BENCH_*.json trajectories).
  uint64_t events_processed = 0;
  std::vector<StageStats> stages;

  // Job bookkeeping, set by both drivers (run_job's pool is "default").
  // render() and to_csv() print none of it.
  int job_id = -1;
  std::string pool;
  bool failed = false;          // a stage aborted (task out of attempts)
  bool cancelled = false;       // SparkContext::cancel_job (deadline)
  double submit_time = 0.0;
  double first_launch_time = -1.0;  // first task dispatch of any stage
  double finish_time = 0.0;

  /// Multi-line human-readable summary (stage table + totals).
  std::string render() const;

  /// Machine-readable per-stage rows (header + one line per stage) for
  /// spreadsheet/pandas analysis.
  std::string to_csv() const;
};

}  // namespace saex::engine
