// SparkContext: the engine's public entry point.
//
// Owns the DFS, the shuffle and cache registries, one ExecutorRuntime per
// node (as in the paper's deployment: one executor per machine using all 32
// virtual cores), the driver-side TaskScheduler, and the thread-policy
// wiring. run_job() builds the stage DAG and executes stages sequentially,
// returning the measured JobReport; submit_job() runs them as a concurrent
// runnable set. Both drivers share one job and stage lifecycle
// (open_job/open_stage/close_stage/close_job); only the loop differs.
//
//   hw::Cluster cluster(hw::ClusterSpec::das5(4));
//   engine::SparkContext ctx(cluster, conf::Config{});
//   ctx.dfs().load_input("/in", gib(120), 4);
//   auto out = ctx.text_file("/in").sort_by_key("sort", {0.001, 1.0})
//                 .save_as_text_file("/out");
//   engine::JobReport report = ctx.run_job(out, "terasort");
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adaptive/policies.h"
#include "aqe/aqe.h"
#include "aqe/tuner.h"
#include "conf/config.h"
#include "dfs/dfs.h"
#include "engine/dag_scheduler.h"
#include "engine/event_log.h"
#include "engine/executor_runtime.h"
#include "engine/plan.h"
#include "engine/report.h"
#include "engine/shuffle.h"
#include "engine/task_scheduler.h"
#include "fault/fault.h"
#include "hw/cluster.h"
#include "metrics/registry.h"

namespace saex::engine {

/// run_job() throws this when a stage exhausts its retry budget (instead of
/// a bare runtime_error, so callers can tell a typed job failure from an
/// engine bug). Derives from runtime_error: pre-existing catch sites hold.
class StageAbortedError : public std::runtime_error {
 public:
  StageAbortedError(int stage_ordinal, const std::string& what)
      : std::runtime_error(what), stage_ordinal_(stage_ordinal) {}
  int stage_ordinal() const noexcept { return stage_ordinal_; }

 private:
  int stage_ordinal_;
};

class SparkContext {
 public:
  /// Creates a policy for one executor. Arguments: the executor's sensor,
  /// effector, the driver notifier, and the node's virtual core count.
  using PolicyFactory = std::function<std::unique_ptr<adaptive::ThreadPolicy>(
      adaptive::Sensor&, adaptive::PoolEffector&, adaptive::SchedulerNotifier,
      int virtual_cores)>;

  SparkContext(hw::Cluster& cluster, conf::Config config);
  ~SparkContext();  // out of line: JobRun is incomplete here
  SparkContext(const SparkContext&) = delete;
  SparkContext& operator=(const SparkContext&) = delete;

  dfs::Dfs& dfs() noexcept { return *dfs_; }
  const conf::Config& config() const noexcept { return config_; }
  hw::Cluster& cluster() noexcept { return *cluster_; }

  /// Overrides the policy chosen from saex.executor.policy. Must be called
  /// before run_job; replaces every executor's policy.
  void set_policy_factory(PolicyFactory factory);

  /// Plan construction.
  Rdd text_file(const std::string& path) { return plans_.text_file(path); }
  PlanBuilder& plan_builder() noexcept { return plans_; }

  /// Builds the DAG for `action`, runs its stages in order, returns metrics.
  JobReport run_job(const Rdd& action, std::string app_name = "app");

  /// Event-driven concurrent submission (the saex::serve path). Builds the
  /// DAG, then drives a *runnable stage set*: a stage is submitted to the
  /// shared TaskScheduler the moment its parents within the job complete, so
  /// stages of independent jobs (and independent stages of one job, e.g. the
  /// two map sides of a join) run concurrently. `on_done` fires when the
  /// job's last stage drains (report.failed set if a stage aborted). The
  /// caller drives the simulation loop (sim().step()); returns the job id.
  ///
  /// Executor thread policies are NOT reset per stage on this path — with
  /// concurrent jobs there is no single "current stage" per executor.
  /// Install the TaskScheduler's executor-engaged hook (serve::JobServer
  /// does) to restart each executor's MAPE-K climb when it picks up work.
  int submit_job(const Rdd& action, std::string app_name, std::string pool,
                 std::function<void(JobReport)> on_done);

  /// Jobs submitted via submit_job that have not finished yet.
  int active_jobs() const noexcept { return static_cast<int>(jobs_.size()); }

  /// Cancels an in-flight submit_job run (deadline enforcement): its live
  /// task sets are aborted (pending tasks dropped, running copies drain and
  /// their slots are reclaimed) and `on_done` fires with report.failed and
  /// report.cancelled set. Returns false if the job already finished. The
  /// completion callback may fire synchronously (no copies in flight).
  bool cancel_job(int job_id);

  ExecutorRuntime& executor(int node_id) {
    return *executors_[static_cast<size_t>(node_id)];
  }
  /// Application event log (job/stage/task/resize events; see EventLog for
  /// the JSON-lines and Chrome-trace exporters).
  EventLog& event_log() noexcept { return event_log_; }
  const EventLog& event_log() const noexcept { return event_log_; }
  int num_executors() const noexcept { return static_cast<int>(executors_.size()); }
  TaskScheduler& scheduler() noexcept { return *scheduler_; }
  ShuffleManager& shuffles() noexcept { return *shuffles_; }
  /// Snapshot of the engine counters under their names, read from their
  /// owners: engine/tasks/{dispatched,finished,failed,speculative} and
  /// engine/executor_resizes from the TaskScheduler (finished means
  /// tasks_succeeded()), aqe/replans from this context.
  metrics::Registry metrics() const;

  // --- fault tolerance -----------------------------------------------------

  /// Kills the executor on `node`: its running attempts drain as
  /// kExecutorLost, it receives no further offers, its shuffle map outputs
  /// and cached partitions are gone, and lineage recovery resubmits the
  /// producing stages for the lost shuffle partitions. Idempotent. Called by
  /// the armed FaultPlan (saex.fault.killNode) or directly by tests.
  void kill_executor(int node_id);

  /// Reverses kill_executor for a chaos rejoin (saex.fault.chaos): a fresh,
  /// empty executor becomes schedulable again on the same node id. Its old
  /// shuffle outputs and cached partitions stay lost — recovery already ran
  /// at kill time. Idempotent (no-op on a live node). Called by the armed
  /// FaultPlan or directly by tests.
  void revive_executor(int node_id);

  /// Observes node-attributed faults: an executor loss, or a shuffle fetch
  /// failure blamed on its source node. Feeds the serve layer's node-health
  /// circuit breaker (resilience::NodeHealthTracker).
  using NodeFaultHook = std::function<void(int node)>;
  void set_node_fault_hook(NodeFaultHook hook) {
    node_fault_hook_ = std::move(hook);
  }

  fault::FaultState& fault_state() noexcept { return *fault_state_; }
  /// Non-null only when saex.fault.enabled is true.
  fault::FaultPlan* fault_plan() noexcept { return fault_plan_.get(); }
  /// Shuffles whose lost partitions are being recomputed right now.
  int recovering_shuffles() const noexcept {
    return static_cast<int>(shuffle_lineage_.rebuilding.size());
  }

  // --- storage layer -------------------------------------------------------

  /// Per-node BlockManagers (saex.storage.*): budget, eviction policy,
  /// hit/miss/spill/evict counters.
  storage::StorageManager& storage() noexcept { return *storage_; }
  const storage::StorageManager& storage() const noexcept { return *storage_; }

 private:
  struct StageBaseline;
  struct JobRun;

  // Lineage recovery state for shuffle map outputs lost with an executor,
  // keyed by shuffle id.
  struct Lineage {
    std::map<int, Stage> producers;               // id -> producing stage
    std::map<int, int> rebuilding;                // id -> rebuilds in flight
    std::map<int, std::vector<uint64_t>> parked;  // id -> sets waiting on it
  };

  void install_policies();
  std::vector<TaskSpec> make_tasks(const Stage& stage) const;
  // AQE (saex.aqe.*): re-tiles a shuffle consumer stage from the observed
  // per-partition map-output bytes — partition coalescing + skew splitting —
  // just before the stage is submitted. No-op with AQE off, for non-shuffle
  // stages, and when the plan comes back as the identity tiling, so disabled
  // runs stay bitwise identical to the pre-AQE engine.
  void maybe_replan_stage(Stage& stage);
  // Feeds the per-stage tuner with the finished stage's task durations/bytes
  // and applies its pool-size hint before the next stage (run_job path only).
  void tuner_observe_stage(const Stage& stage, const std::vector<double>& durations,
                           const std::vector<Bytes>& task_bytes,
                           double makespan);
  void apply_tuner_pool_hint(const Stage& stage);

  // Job and stage bookkeeping shared by run_job and submit_job. Only
  // `per_executor` runs (run_job's figures) get StageStats::executors: the
  // serve path retains every report, and per-node rows would grow its live
  // memory with cluster size (SCALING.md).
  std::unique_ptr<JobRun> open_job(const Rdd& action, std::string app_name,
                                   std::string pool, bool per_executor);
  void open_stage(JobRun& run, const Stage& stage, int app_ordinal);
  void close_stage(JobRun& run, const Stage& stage,
                   const TaskScheduler::TaskSetResult& result);
  JobReport close_job(JobRun& run);

  void submit_ready_stages(JobRun& run);
  void submit_stage_of(JobRun& run, Stage& stage);
  void on_stage_finished(JobRun& run, Stage& stage,
                         const TaskScheduler::TaskSetResult& result);
  void maybe_finish_job(JobRun& run);

  FetchFailureAction on_fetch_failure(uint64_t set_id, int shuffle_id,
                                      int src_node);
  void record_producers(const Stage& stage);
  // Resubmits the producer of shuffle `shuffle_id` for exactly `partitions`
  // at job_id -1; on_rebuilt releases the sets parked on it once the last
  // rebuild lands.
  void resubmit(int shuffle_id, const std::vector<int>& partitions);
  void on_rebuilt(int shuffle_id, bool failed);
  // True while an input shuffle of `stage` is being rebuilt: its tasks
  // would only fail and park, so both drivers hold the stage back.
  bool input_rebuilding(const Stage& stage) const;

  hw::Cluster* cluster_;
  conf::Config config_;
  std::unique_ptr<dfs::Dfs> dfs_;
  std::unique_ptr<ShuffleManager> shuffles_;
  std::unique_ptr<CacheRegistry> caches_;
  std::unique_ptr<storage::StorageManager> storage_;
  std::vector<std::unique_ptr<ExecutorRuntime>> executors_;
  std::unique_ptr<TaskScheduler> scheduler_;
  std::unique_ptr<DagScheduler> dag_;
  EventLog event_log_;
  PlanBuilder plans_;
  PolicyFactory policy_factory_;
  std::string policy_name_;
  int job_counter_ = 0;
  int app_stage_counter_ = 0;
  std::map<int, std::unique_ptr<JobRun>> jobs_;  // in-flight submit_job runs

  // Fault injection + lineage recovery.
  std::unique_ptr<fault::FaultState> fault_state_;
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  NodeFaultHook node_fault_hook_;
  Lineage shuffle_lineage_;

  // Adaptive query execution (src/aqe/).
  aqe::AqeOptions aqe_;
  std::unique_ptr<aqe::StageTuner> tuner_;  // non-null iff saex.aqe.tuner
  int64_t replans_ = 0;  // stages AQE re-tiled
};

/// Builds the PolicyFactory implied by `config` ("saex.executor.policy" =
/// default | static | dynamic | aimd). Exposed so benches can construct
/// sweep variants (e.g. a per-stage FixedPolicy for static BestFit) the same
/// way.
SparkContext::PolicyFactory policy_factory_from_config(const conf::Config& config);

}  // namespace saex::engine
