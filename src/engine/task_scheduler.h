// Driver-side task scheduler.
//
// Mirrors Spark's TaskSchedulerImpl: it tracks each executor's advertised
// pool size and currently assigned tasks, offers tasks locality-first, and
// assigns greedily as slots free up. All driver↔executor interactions cross
// a message boundary with a small latency, including the protocol extension
// the paper adds in §5.4: ThreadPoolResized(executor, newSize), without
// which the driver's free-core registry would diverge from the executor's
// actual capacity after an adaptive resize.
//
// Multi-job extension (saex::serve): any number of task sets — one per
// (job, stage) — may be in flight at once, exactly like Spark's TaskSetManagers.
// Free slots are offered to task sets in an order decided by the scheduling
// mode: FIFO (by job, then submission) or FAIR (named pools with weight and
// minShare, Spark's FairSchedulingAlgorithm). Executors can be deactivated /
// reactivated at runtime (dynamic allocation): inactive executors receive no
// offers but finish what they are running. Both SparkContext drivers submit
// through submit_stage(): the batch run_job one stage at a time, the serve
// path a runnable set.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adaptive/types.h"
#include "engine/event_log.h"
#include "engine/executor_runtime.h"
#include "engine/stage.h"
#include "sim/simulation.h"

namespace saex::engine {

/// Cross-job slot arbitration (spark.scheduler.mode / saex.scheduler.mode).
enum class SchedulingMode { kFifo, kFair };

/// What the driver decides a fetch failure means (Spark's DAGScheduler
/// handling of FetchFailed): charge it like an ordinary failure (transient
/// drop, or cached data lost with its executor), retry for free, or retry
/// for free *after* parking the whole set while lineage recovery rebuilds
/// the lost map outputs.
enum class FetchFailureAction { kCharge, kRetry, kHold };

/// A FAIR scheduler pool (Spark's fairscheduler.xml entry): a task set in a
/// pool below its minShare outranks every satisfied pool; among satisfied
/// pools, the one with the lowest runningTasks/weight ratio goes first.
struct PoolSpec {
  std::string name = "default";
  int weight = 1;
  int min_share = 0;  // slots
};

class TaskScheduler {
 public:
  struct Options {
    double message_latency = 0.0005;
    // Fault tolerance (spark.task.maxFailures): attempts per task before the
    // stage is aborted.
    int max_task_failures = 4;
    // Speculative execution (spark.speculation.*): once `quantile` of the
    // stage's tasks finished, a task running longer than `multiplier` x the
    // median successful duration gets a duplicate attempt; the first
    // completion wins.
    bool speculation = false;
    double speculation_multiplier = 1.5;
    double speculation_quantile = 0.75;
    double speculation_interval = 0.1;  // spark.speculation.interval
    // Delay scheduling (spark.locality.wait): an executor defers stealing a
    // task that prefers other nodes until this long after the stage start.
    double locality_wait = 3.0;
    // Blacklisting (spark.blacklist.*): after this many failed attempts on
    // one executor within a stage, that executor gets no more of its tasks.
    bool blacklist_enabled = false;
    int max_failed_tasks_per_executor = 2;
    EventLog* event_log = nullptr;
  };

  /// What the driver learns when a task set (one stage of one job) drains.
  struct TaskSetResult {
    bool failed = false;  // a task exhausted spark.task.maxFailures
    int num_tasks = 0;
    std::vector<double> durations;   // successful task durations
    double submit_time = 0.0;        // when the set entered the scheduler
    double first_launch_time = -1.0; // first task dispatch (-1: never ran)
    double finish_time = 0.0;
  };
  using TaskSetDone = std::function<void(const TaskSetResult&)>;

  /// Fired when an executor with no assigned tasks receives its first task
  /// of a set — the serve path uses it to (re)start the executor's adaptive
  /// policy for the stage it is about to work on.
  using ExecutorEngagedHook = std::function<void(int node_id, const Stage&)>;

  /// Consulted on every TaskFailure::kFetchFailed status update; the
  /// SparkContext (which knows shuffle lineage) decides the action. No hook
  /// installed means every fetch failure is charged.
  using FetchFailureHook = std::function<FetchFailureAction(
      uint64_t set_id, int shuffle_id, int src_node)>;

  /// Fired after every task status update with the cumulative finished-task
  /// count — drives count-triggered fault injection (FaultPlan).
  using TaskFinishHook = std::function<void(int64_t finished)>;

  /// Fired after every task status update with the executing node and
  /// whether the attempt succeeded — probe feedback for the node-health
  /// circuit breaker (resilience::NodeHealthTracker). Executor-lost
  /// outcomes are NOT reported here: the node's death is attributed once
  /// via the kill path, not per stranded attempt.
  using TaskOutcomeHook = std::function<void(int node_id, bool success)>;

  TaskScheduler(sim::Simulation& sim, std::vector<ExecutorRuntime*> executors,
                Options options);
  // Separate overload: Options' default member initializers are not usable
  // as a default argument inside the enclosing class definition.
  TaskScheduler(sim::Simulation& sim, std::vector<ExecutorRuntime*> executors)
      : TaskScheduler(sim, std::move(executors), Options{}) {}

  // --- multi-job API -------------------------------------------------------

  void set_scheduling_mode(SchedulingMode mode) noexcept { mode_ = mode; }
  /// Registers (or redefines) a FAIR pool. Unknown pools referenced by
  /// submit_stage fall back to weight 1 / minShare 0 (as Spark does).
  void define_pool(PoolSpec spec);
  const std::vector<PoolSpec>& pools() const noexcept { return pool_specs_; }

  /// Submits one stage's tasks as a concurrently schedulable task set;
  /// `on_done` fires (after the status-update latency) when every task
  /// succeeded or the set was aborted. Returns the task-set id.
  uint64_t submit_stage(const Stage& stage, std::vector<TaskSpec> tasks,
                        int job_id, std::string pool, TaskSetDone on_done);

  /// Marks an executor schedulable / unschedulable (dynamic allocation).
  /// Deactivation never kills running tasks; the executor just stops
  /// receiving offers.
  void set_executor_active(int node_id, bool active);
  bool executor_active(int node_id) const;
  int active_executor_count() const noexcept;

  /// Tasks not yet running (pending across all in-flight sets) — the
  /// dynamic-allocation backlog signal.
  int pending_task_count() const noexcept {
    return static_cast<int>(pending_total_);
  }

  void set_executor_engaged_hook(ExecutorEngagedHook hook) {
    engaged_hook_ = std::move(hook);
  }
  void set_fetch_failure_hook(FetchFailureHook hook) {
    fetch_hook_ = std::move(hook);
  }
  void set_task_finish_hook(TaskFinishHook hook) {
    task_finish_hook_ = std::move(hook);
  }
  void set_task_outcome_hook(TaskOutcomeHook hook) {
    task_outcome_hook_ = std::move(hook);
  }

  // --- fault tolerance -----------------------------------------------------

  /// Permanently removes an executor from scheduling (fault injection).
  /// Unlike deactivation this is irreversible: set_executor_active(id, true)
  /// on a dead executor is ignored. Running tasks are not touched here —
  /// killing the ExecutorRuntime makes them drain as kExecutorLost.
  void kill_executor(int node_id);
  bool executor_dead(int node_id) const;
  int dead_executor_count() const noexcept;

  /// Reverses kill_executor for a chaos rejoin: the node's fresh, empty
  /// executor becomes schedulable again (active, previous advertised size).
  /// A node that is not dead is left untouched.
  void revive_executor(int node_id);

  /// Health quarantine (resilience::NodeHealthTracker): a quarantined
  /// executor keeps its running tasks but receives no offers — like
  /// deactivation, but orthogonal to dynamic allocation's active flag so
  /// the two controllers cannot fight over one bit. Ignored for dead
  /// executors.
  void set_executor_quarantined(int node_id, bool quarantined);
  bool executor_quarantined(int node_id) const;
  int quarantined_executor_count() const noexcept;

  /// Parks / unparks a task set: a held set keeps its running copies but
  /// receives no new offers — used while lineage recovery rebuilds the
  /// shuffle outputs or cache partitions its tasks read.
  void hold_set(uint64_t id, bool held);
  /// Aborts a task set: pending tasks are dropped, in-flight copies drain,
  /// then on_done fires with result.failed = true.
  void abort_set(uint64_t id);
  /// Holds every running set whose stage reads `shuffle_id` and returns their
  /// ids. Called when that shuffle loses map outputs: launching further tasks
  /// would build fetch plans from the surviving partial outputs and silently
  /// read incomplete data (Spark's MetadataFetchFailed case).
  std::vector<uint64_t> hold_sets_reading(int shuffle_id);

  /// Fetch failures observed (before the driver's charge/retry/hold call).
  int64_t fetch_failures() const noexcept { return fetch_failures_; }
  /// Attempts that died with their executor (free retries).
  int64_t executor_lost_failures() const noexcept {
    return executor_lost_failures_;
  }

  // --- invariant counters (tests) -----------------------------------------

  /// Times a task was dispatched to an executor whose assigned count had
  /// already reached its advertised size, or to an inactive executor.
  /// Always 0 unless the slot accounting is broken.
  int64_t dispatch_overcommits() const noexcept { return dispatch_overcommits_; }
  /// Task attempts launched, speculative copies included.
  int64_t tasks_dispatched() const noexcept { return tasks_dispatched_; }
  /// Status updates received: every attempt that ended, however it ended.
  int64_t tasks_finished() const noexcept { return tasks_finished_; }
  /// Attempts that completed their task (a losing copy that finishes after
  /// the winner is not counted).
  int64_t tasks_succeeded() const noexcept { return tasks_succeeded_; }
  /// Attempts that failed, executor losses and fetch failures included.
  int64_t tasks_failed() const noexcept { return tasks_failed_; }
  int64_t speculative_launches() const noexcept { return speculative_launches_; }
  /// §5.4 resize notifications applied to a known executor.
  int64_t executor_resizes() const noexcept { return executor_resizes_; }

  /// The §5.4 protocol extension: executor → driver resize notification.
  /// Public for tests; normally invoked via make_notifier().
  void on_executor_resized(int node_id, int new_size);

  /// Takes every executor's current pool size as its advertised size at
  /// once, without waiting for the resize notifications. The batch driver
  /// calls it after its policies resized the pools at stage start. Offers
  /// nothing itself: the next submit_stage does.
  void sync_pool_sizes();

  /// Builds the SchedulerNotifier an executor's policy calls on resize; it
  /// delivers on_executor_resized after the message latency.
  adaptive::SchedulerNotifier make_notifier(int node_id);

  int advertised_size(int node_id) const;
  int assigned_count(int node_id) const;

 private:
  struct ExecState {
    ExecutorRuntime* exec;
    int advertised = 0;
    int assigned = 0;
    bool active = true;
    bool dead = false;
    bool quarantined = false;  // health breaker open: no offers
  };

  struct TaskState {
    int attempts = 0;
    int running_copies = 0;
    bool done = false;
    double launch_time = 0.0;        // of the oldest running copy
    std::vector<size_t> copy_execs;  // executors currently running a copy
  };

  struct TaskSet {
    uint64_t id = 0;
    int job_id = 0;
    std::string pool;
    Stage stage;  // owned copy: callers need not keep theirs alive
    std::vector<TaskSpec> tasks;
    std::vector<TaskState> state;
    // partition -> index into tasks/state, directly indexed by partition
    // number (-1: not in this set). Recovery sets carry a partition *subset*,
    // so partition numbers cannot index state directly.
    std::vector<int32_t> task_index;
    // Indices of pending tasks (!done, no running copy), ascending — the
    // offer loop scans this instead of every task in the set.
    std::vector<int32_t> pending;
    size_t remaining = 0;
    int running = 0;  // dispatched copies (incl. in-flight launch messages)
    // Pending tasks with no locality preference — an O(1) "could any free
    // executor take a task from this set" test for the offer fast path.
    int pref_free_pending = 0;
    // Union of preferred nodes over pending tasks (ascending, deduped),
    // built lazily once per try_assign (stamped with the offer epoch). It
    // may over-approximate as tasks dispatch within one call; pick_task_for
    // re-validates, so stale entries cost a failed pick, never a wrong one.
    std::vector<int> pref_nodes;
    uint64_t pref_epoch = 0;
    bool failed = false;
    bool held = false;  // parked during lineage recovery
    bool locality_timer_armed = false;
    TaskSetResult result;
    TaskSetDone on_done;
    // Per-set blacklisting (spark.blacklist.stage.*), indexed by executor.
    std::vector<int> exec_failures;
    std::vector<bool> exec_blacklisted;

    size_t state_index(int partition) const noexcept {
      return static_cast<size_t>(task_index[static_cast<size_t>(partition)]);
    }
  };

  TaskSet* find_set(uint64_t id) noexcept;
  /// In-flight task sets in slot-offer order under the current scheduling
  /// mode; valid until the next submit/finish/erase.
  const std::vector<TaskSet*>& offer_order();
  void try_assign();
  // Exhaustive offer loop: every executor x every set. Kept for modes whose
  // eligibility is executor-specific (speculation copy placement, per-set
  // blacklists); also the semantic reference for try_assign_fast.
  void try_assign_scan();
  // Sparse offer loop producing the identical dispatch and event sequence:
  // only executors with free slots are visited (free_bits_), and only when
  // some set could actually hand them a task (pref_free_pending / locality
  // candidates). O(dispatches), not O(executors x sets).
  void try_assign_fast();
  bool offer_to(size_t exec_idx);
  double locality_deadline(const TaskSet& set) const noexcept;
  bool set_wait_over(const TaskSet& set) const noexcept;
  bool any_generic_set() const noexcept;
  void build_candidates();
  const std::vector<int>& pref_union(TaskSet& set);
  void arm_locality_timer(TaskSet& set);
  void arm_deferred_timers();
  void pending_remove(TaskSet& set, size_t task_idx) noexcept;
  void pending_insert(TaskSet& set, size_t task_idx);
  void pending_clear(TaskSet& set) noexcept;
  void update_free_bit(size_t exec_idx) noexcept;
  bool exec_free(size_t exec_idx) const noexcept {
    return (free_bits_[exec_idx >> 6] >> (exec_idx & 63)) & 1u;
  }
  size_t next_free_exec(size_t from) const noexcept;
  int exec_index_of(int node_id) const noexcept;
  std::optional<size_t> pick_task_for(TaskSet& set, size_t exec_idx);
  void dispatch(TaskSet& set, size_t task_idx, size_t exec_idx,
                bool speculative);
  void on_task_finished(uint64_t set_id, const TaskSpec& spec, size_t exec_idx,
                        const TaskOutcome& outcome);
  // Marks `set` failed: pending tasks dropped, every task done; running
  // copies still drain before maybe_finish_set fires on_done.
  void fail_set(TaskSet& set) noexcept;
  void maybe_finish_set(TaskSet& set);
  void erase_set(uint64_t id) noexcept;
  void schedule_speculation_check();
  const PoolSpec& pool_spec(const std::string& name) const noexcept;

  sim::Simulation& sim_;
  std::vector<ExecState> execs_;
  // Bit e set iff execs_[e] can accept a task (active, assigned <
  // advertised) — lets the offer loop skip straight to executors with free
  // slots instead of scanning all of them (a 10k-node cluster is mostly
  // idle or mostly full at any instant).
  std::vector<uint64_t> free_bits_;
  std::vector<int32_t> node_to_exec_;  // node id -> execs_ index (-1: none)
  // Pending tasks across all in-flight sets; 0 means an offer pass cannot
  // dispatch anything and try_assign returns without touching executors.
  int64_t pending_total_ = 0;
  uint64_t offer_epoch_ = 0;           // stamps per-set pref_nodes caches
  std::vector<size_t> cand_scratch_;   // reused by build_candidates()
  Options options_;
  SchedulingMode mode_ = SchedulingMode::kFifo;
  std::vector<PoolSpec> pool_specs_{PoolSpec{}};
  ExecutorEngagedHook engaged_hook_;
  FetchFailureHook fetch_hook_;
  TaskFinishHook task_finish_hook_;
  TaskOutcomeHook task_outcome_hook_;

  // In-flight task sets, sorted by ascending id (ids are handed out
  // monotonically, so submission order keeps the vector sorted; find is a
  // binary search). unique_ptr keeps TaskSet addresses stable across vector
  // mutations while offers hold references.
  std::vector<std::unique_ptr<TaskSet>> sets_;
  std::vector<TaskSet*> offer_scratch_;  // reused by offer_order()
  uint64_t next_set_id_ = 1;
  bool speculation_timer_armed_ = false;

  int64_t dispatch_overcommits_ = 0;
  int64_t tasks_dispatched_ = 0;
  int64_t tasks_finished_ = 0;
  int64_t tasks_succeeded_ = 0;
  int64_t tasks_failed_ = 0;
  int64_t speculative_launches_ = 0;
  int64_t executor_resizes_ = 0;
  int64_t fetch_failures_ = 0;
  int64_t executor_lost_failures_ = 0;
};

}  // namespace saex::engine
