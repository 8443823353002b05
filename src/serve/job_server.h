// Multi-tenant job server: long-running Spark-style scheduling of concurrent
// jobs on one shared simulated cluster.
//
// Layers, submission to execution:
//
//   submit() → admission control (bounded in-flight jobs, bounded queue,
//   per-client quota; typed Admission result) → FIFO dequeue as slots free →
//   SparkContext::submit_job() (event-driven runnable stage set) → shared
//   TaskScheduler arbitrating slots across jobs in FIFO or FAIR pool order →
//   optional dynamic executor allocation growing/shrinking the active
//   executor set with the backlog.
//
// The server installs the scheduler's executor-engaged hook so an executor's
// adaptive policy restarts its MAPE-K hill climb (at c_min) whenever the
// executor picks up work after being idle — including right after a dynamic
// allocation grant.
//
// Everything runs on the cluster's simulation clock; replay() of a fixed
// trace with a fixed seed is deterministic down to the per-job reports.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/context.h"
#include "resilience/health.h"
#include "resilience/resilience.h"
#include "serve/allocation.h"
#include "serve/trace.h"

namespace saex::serve {

/// Typed admission outcome of submit().
enum class Admission {
  kAccepted,            // started immediately
  kQueued,              // waiting for a concurrency slot
  kRejectedQueueFull,   // backpressure: queue at saex.serve.maxQueuedJobs
  kRejectedClientQuota, // client exceeded saex.serve.maxJobsPerClient
  kRejectedDeadlineInfeasible,  // non-positive relative deadline: no
                                // schedule can meet it, reject up front
};

std::string_view admission_name(Admission a) noexcept;
inline bool admitted(Admission a) noexcept {
  return a == Admission::kAccepted || a == Admission::kQueued;
}

/// How an admitted submission settled.
enum class JobOutcome {
  kNone,       // not settled yet (or never admitted)
  kFinished,   // ran to completion
  kFailed,     // failed terminally (retry budget exhausted or zero)
  kShedDeadline,       // deadline lapsed while queued / awaiting retry
  kCancelledDeadline,  // cancelled mid-run at its deadline
};

std::string_view outcome_name(JobOutcome o) noexcept;

/// Parses "name:weight:minShare,..." (weight and minShare optional, e.g.
/// "interactive:3:32,batch"). Throws conf::ConfigError on malformed input.
std::vector<engine::PoolSpec> parse_pools(const std::string& spec);

struct JobServerOptions {
  int max_concurrent_jobs = 8;
  int max_queued_jobs = 64;
  int max_jobs_per_client = 0;  // 0 = unlimited
  engine::SchedulingMode mode = engine::SchedulingMode::kFifo;
  std::vector<engine::PoolSpec> pools;
  AllocationOptions allocation;

  /// Relative deadline applied to submissions that carry none (<0: none).
  double default_deadline = -1.0;
  /// When false, deadlines are recorded for SLO accounting but never
  /// enforced (no shedding, no cancellation) — the bench baseline.
  bool enforce_deadlines = true;
  resilience::RetryPolicy retry;
  resilience::HealthOptions health;

  /// Reads saex.scheduler.* / saex.serve.* / saex.resilience.* /
  /// spark.dynamicAllocation.*.
  static JobServerOptions from_config(const conf::Config& config);
};

/// One submission's lifecycle, rejected or finished.
struct JobRecord {
  int submission_id = -1;  // server-side id, dense in submission order
  int job_id = -1;         // engine job id (−1 until started)
  std::string name;
  std::string client;
  std::string pool;
  Admission admission = Admission::kAccepted;
  double submit_time = 0.0;
  double start_time = -1.0;   // left the queue (−1: rejected)
  double finish_time = -1.0;  // report delivered (−1: not finished)
  bool failed = false;
  JobOutcome outcome = JobOutcome::kNone;
  double deadline = -1.0;  // absolute sim time (−1: none)
  int retries = 0;         // completed retry attempts (0 = first try only)
  // Sim time each failed attempt was retried at (size == retries).
  std::vector<double> retry_times;
  engine::JobReport report;  // last attempt's report

  /// Submission → first task actually running (the user-visible queue wait:
  /// admission queue + slot wait inside the scheduler).
  double queue_wait() const noexcept;
  double makespan() const noexcept {
    return finish_time >= 0.0 ? finish_time - submit_time : 0.0;
  }
};

struct PoolStats {
  std::string pool;
  int weight = 1;
  int min_share = 0;
  int jobs = 0;
  int failed = 0;
  double queue_wait_mean = 0.0;
  double queue_wait_p95 = 0.0;
  double makespan_mean = 0.0;
  double makespan_p95 = 0.0;
  double slot_seconds = 0.0;  // Σ successful task durations
};

struct ServeReport {
  std::string mode;    // FIFO | FAIR
  std::string policy;  // executor thread policy name
  std::vector<JobRecord> jobs;  // by submission id (incl. rejected)
  std::vector<PoolStats> pools;

  int submitted = 0;
  int started = 0;
  int finished = 0;
  int failed = 0;
  int rejected_queue_full = 0;
  int rejected_client_quota = 0;
  int rejected_deadline = 0;  // non-positive deadline: infeasible up front
  int shed = 0;       // deadline lapsed while queued / awaiting retry
  int cancelled = 0;  // cancelled mid-run at the deadline
  int64_t retries = 0;  // Σ retry attempts across all jobs
  // SLO attainment: jobs carrying a deadline (and not rejected) vs those
  // that finished successfully within it.
  int slo_tracked = 0;
  int slo_met = 0;
  int executors_granted = 0;
  int executors_released = 0;
  int executors_lost = 0;  // fault injection: executors dead at drain time
  // Node-health circuit breaker (caller-filled, like the executor counters:
  // not derivable from job records; the sharded merge sums them).
  int quarantines = 0;
  int probes = 0;
  int reinstatements = 0;

  double total_time = 0.0;      // first submission → last finish
  double makespan_sum = 0.0;    // Σ per-job makespans (aggregate latency)
  double queue_wait_p95 = 0.0;  // across all finished jobs
  /// Jain index over per-pool weight-normalized slot-seconds: 1 = every pool
  /// received service exactly proportional to its weight.
  double fairness_index = 1.0;

  const PoolStats* pool(const std::string& name) const noexcept;
  /// Admission counts, fairness, and the per-pool table.
  std::string render() const;
  /// One row per submission (id, pool, workload, waits, makespan, outcome).
  std::string render_jobs() const;
};

/// Builds the record-derived part of a ServeReport (admission counts,
/// per-pool rollups, percentiles, Jain fairness) from finished job records.
/// Shared by JobServer::drain() and the sharded merge (src/shard/), so a
/// merged multi-shard report aggregates byte-for-byte like a serial one.
/// Executor counters (granted/released/lost) are the caller's to fill.
ServeReport build_serve_report(std::vector<JobRecord> records,
                               engine::SchedulingMode mode,
                               const std::vector<engine::PoolSpec>& pool_specs);

class JobServer {
 public:
  using Builder = std::function<engine::Rdd(engine::SparkContext&)>;

  JobServer(engine::SparkContext& ctx, JobServerOptions options);
  /// Options from ctx.config().
  explicit JobServer(engine::SparkContext& ctx);

  /// Admission-controlled submission. `build` is invoked when the job
  /// actually starts (and again on every retry attempt). Returns the typed
  /// admission decision; rejected submissions are recorded but never run.
  /// `deadline` is relative to the submission instant (<0: fall back to
  /// saex.serve.defaultDeadline; still <0: no deadline). With deadlines
  /// enforced a non-positive relative deadline is rejected as infeasible.
  Admission submit(std::string name, std::string client, std::string pool,
                   Builder build, double deadline = -1.0);

  /// Schedules every trace job's submission at its arrival time (loading the
  /// shared inputs first), then drains the simulation and reports.
  ServeReport replay(const std::vector<TraceJob>& trace,
                     const TraceOptions& trace_options = {});

  /// Runs the simulation until all admitted jobs finished; builds the report.
  ServeReport drain();

  int running_jobs() const noexcept { return static_cast<int>(running_.size()); }
  int queued_jobs() const noexcept { return static_cast<int>(queue_.size()); }
  const std::vector<JobRecord>& records() const noexcept { return records_; }
  ExecutorAllocationManager& allocation() noexcept { return *allocation_; }
  const JobServerOptions& options() const noexcept { return options_; }

 private:
  void start_job(int submission_id);
  void on_job_finished(int submission_id, engine::JobReport report);
  void on_deadline(int submission_id);
  void shed_job(JobRecord& rec);
  void settle(JobRecord& rec, double finish_time);
  void requeue_retry(int submission_id);
  void pump_queue();
  bool has_work() const noexcept;
  int client_load(const std::string& client) const noexcept;

  engine::SparkContext* ctx_;
  JobServerOptions options_;
  std::unique_ptr<ExecutorAllocationManager> allocation_;
  std::unique_ptr<resilience::NodeHealthTracker> health_;
  uint64_t retry_seed_ = 0;  // cluster seed: retry jitter is replayable

  std::vector<JobRecord> records_;      // by submission id
  std::map<int, Builder> builders_;     // pending builds by submission id
  std::deque<int> queue_;               // queued submission ids (FIFO)
  std::vector<int> running_;            // running submission ids
  std::set<int> retry_wait_;            // in retry backoff, not yet requeued
};

}  // namespace saex::serve
