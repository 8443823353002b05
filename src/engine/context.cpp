#include "engine/context.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>
#include <stdexcept>

#include "adaptive/controller.h"
#include "common/format.h"
#include "common/log.h"
#include "common/stats.h"

namespace saex::engine {

SparkContext::PolicyFactory policy_factory_from_config(
    const conf::Config& config) {
  const std::string policy = config.get_string("saex.executor.policy");
  const int io_threads = static_cast<int>(config.get_int("saex.static.ioThreads"));
  if (policy == "static") {
    if (io_threads < 1) {
      throw conf::ConfigError(strfmt::format(
          "saex.static.ioThreads must be >= 1 (got {})", io_threads));
    }
    return [io_threads](adaptive::Sensor&, adaptive::PoolEffector& pool,
                        adaptive::SchedulerNotifier notifier, int vcores) {
      return std::make_unique<adaptive::FixedPolicy>(
          "static", pool, std::move(notifier),
          [io_threads, vcores](const adaptive::StageContext& stage) {
            return stage.io_tagged ? io_threads : vcores;
          });
    };
  }
  if (policy == "dynamic") {
    // ControllerConfig is captured by value; vcores resolves maxThreads=0.
    conf::Config snapshot = config;
    return [snapshot](adaptive::Sensor& sensor, adaptive::PoolEffector& pool,
                      adaptive::SchedulerNotifier notifier, int vcores) {
      const auto cc = adaptive::ControllerConfig::from_config(snapshot, vcores);
      return std::make_unique<adaptive::AdaptiveController>(
          cc, sensor, pool, std::move(notifier));
    };
  }
  if (policy == "aimd") {
    conf::Config snapshot = config;
    return [snapshot](adaptive::Sensor& sensor, adaptive::PoolEffector& pool,
                      adaptive::SchedulerNotifier notifier, int vcores) {
      const auto cc = adaptive::ControllerConfig::from_config(snapshot, vcores);
      return std::make_unique<adaptive::AimdPolicy>(cc, sensor, pool,
                                                    std::move(notifier));
    };
  }
  if (policy != "default") {
    throw conf::ConfigError(
        strfmt::format("unknown saex.executor.policy '{}'", policy));
  }
  return [](adaptive::Sensor&, adaptive::PoolEffector& pool,
            adaptive::SchedulerNotifier notifier, int vcores) {
    return std::make_unique<adaptive::FixedPolicy>(
        "default", pool, std::move(notifier),
        [vcores](const adaptive::StageContext&) { return vcores; });
  };
}

SparkContext::SparkContext(hw::Cluster& cluster, conf::Config config)
    : cluster_(&cluster), config_(std::move(config)) {
  event_log_.set_enabled(config_.get_bool("saex.eventLog.enabled"));
  dfs::Dfs::Options dfs_options;
  dfs_options.block_size = config_.get_bytes("spark.files.maxPartitionBytes");
  dfs_options.seed = cluster.spec().seed ^ 0x5a5a5a5aULL;
  dfs_ = std::make_unique<dfs::Dfs>(cluster, dfs_options);
  shuffles_ = std::make_unique<ShuffleManager>(cluster.size());
  caches_ = std::make_unique<CacheRegistry>();

  EngineEnv env;
  env.sim = &cluster.sim();
  env.cluster = &cluster;
  env.dfs = dfs_.get();
  env.shuffles = shuffles_.get();
  env.caches = caches_.get();

  // Per-node storage budget: an explicit saex.storage.memory override wins;
  // otherwise derive it from the (previously dormant) spark.memory.* /
  // spark.storage.* knobs, honoring the legacy-mode switch.
  storage::BlockManager::Options bm_options;
  bm_options.memory_budget = config_.get_bytes("saex.storage.memory");
  if (bm_options.memory_budget == 0) {
    const double mem =
        static_cast<double>(cluster.spec().memory_per_node);
    bm_options.memory_budget = static_cast<Bytes>(
        config_.get_bool("spark.memory.useLegacyMode")
            ? mem * config_.get_double("spark.storage.memoryFraction")
            : mem * config_.get_double("spark.memory.fraction") *
                  config_.get_double("spark.memory.storageFraction"));
  }
  bm_options.policy = config_.get_string("saex.storage.policy");
  if (!storage::is_valid_eviction_policy(bm_options.policy)) {
    throw conf::ConfigError(strfmt::format(
        "unknown saex.storage.policy '{}' (valid: none, lru, clock, s3fifo, "
        "tinylfu)",
        bm_options.policy));
  }
  storage_ = std::make_unique<storage::StorageManager>(cluster.size(),
                                                      bm_options);
  env.storage = storage_.get();

  aqe_ = aqe::AqeOptions::from_config(config_);
  if (aqe_.enabled && aqe_.tuner) tuner_ = std::make_unique<aqe::StageTuner>();
  env.event_log = &event_log_;

  // Fault truth exists even with injection off (then it is entirely
  // passive), so tests can kill executors directly.
  const fault::FaultSpec fault_spec = fault::FaultSpec::from_config(config_);
  fault_state_ = std::make_unique<fault::FaultState>(
      cluster.size(), cluster.spec().seed ^ fault_spec.seed,
      fault_spec.fetch_fail_prob, fault_spec.fetch_fail_node,
      fault_spec.task_failures);
  env.fault = fault_state_.get();

  const int vcores = static_cast<int>(config_.get_int("spark.executor.cores"));
  std::vector<ExecutorRuntime*> raw;
  for (int n = 0; n < cluster.size(); ++n) {
    executors_.push_back(std::make_unique<ExecutorRuntime>(env, n, vcores));
    raw.push_back(executors_.back().get());
  }
  TaskScheduler::Options sched_options;
  sched_options.max_task_failures =
      static_cast<int>(config_.get_int("spark.task.maxFailures"));
  sched_options.speculation = config_.get_bool("spark.speculation");
  sched_options.speculation_multiplier =
      config_.get_double("spark.speculation.multiplier");
  sched_options.speculation_quantile =
      config_.get_double("spark.speculation.quantile");
  sched_options.speculation_interval =
      config_.get_duration_seconds("spark.speculation.interval");
  sched_options.locality_wait =
      config_.get_duration_seconds("spark.locality.wait");
  sched_options.blacklist_enabled = config_.get_bool("spark.blacklist.enabled");
  sched_options.max_failed_tasks_per_executor = static_cast<int>(
      config_.get_int("spark.blacklist.stage.maxFailedTasksPerExecutor"));
  sched_options.event_log = &event_log_;
  scheduler_ = std::make_unique<TaskScheduler>(cluster.sim(), raw,
                                               sched_options);
  scheduler_->set_fetch_failure_hook(
      [this](uint64_t set_id, int shuffle_id, int src_node) {
        return on_fetch_failure(set_id, shuffle_id, src_node);
      });
  scheduler_->set_task_finish_hook([this](int64_t finished) {
    if (fault_plan_) fault_plan_->notify_task_finished(finished);
  });
  if (fault_spec.enabled) {
    fault::FaultPlan::Hooks hooks;
    hooks.kill_executor = [this](int node) { kill_executor(node); };
    hooks.rejoin_executor = [this](int node) { revive_executor(node); };
    hooks.node_alive = [this](int node) {
      return fault_state_->node_alive(node);
    };
    hooks.degrade_disk = [this](int node, double factor) {
      if (node < 0 || node >= cluster_->size()) {
        SAEX_WARN("ignoring disk degrade on node {}: cluster has nodes 0..{}",
                  node, cluster_->size() - 1);
        return;
      }
      cluster_->node(node).set_disk_speed_factor(factor);
      event_log_.record(Event{EventKind::kDiskDegraded, cluster_->sim().now(),
                              -1, -1, -1, node,
                              static_cast<int64_t>(factor * 100.0), {}});
    };
    fault_plan_ = std::make_unique<fault::FaultPlan>(fault_spec, cluster.sim(),
                                                     std::move(hooks));
    fault_plan_->arm();
  }

  dag_ = std::make_unique<DagScheduler>(
      *dfs_, static_cast<int>(config_.get_int("spark.default.parallelism")));

  policy_factory_ = policy_factory_from_config(config_);
  policy_name_ = config_.get_string("saex.executor.policy");
  install_policies();
}

SparkContext::~SparkContext() = default;

metrics::Registry SparkContext::metrics() const {
  metrics::Registry m;
  const auto set = [&m](const char* name, int64_t value) {
    m.set(name, static_cast<double>(value));
  };
  set("engine/tasks/dispatched", scheduler_->tasks_dispatched());
  set("engine/tasks/finished", scheduler_->tasks_succeeded());
  set("engine/tasks/failed", scheduler_->tasks_failed());
  set("engine/tasks/speculative", scheduler_->speculative_launches());
  set("engine/executor_resizes", scheduler_->executor_resizes());
  set("aqe/replans", replans_);
  return m;
}

void SparkContext::set_policy_factory(PolicyFactory factory) {
  policy_factory_ = std::move(factory);
  policy_name_ = "custom";
  install_policies();
}

void SparkContext::install_policies() {
  for (auto& exec : executors_) {
    auto policy = policy_factory_(*exec, *exec,
                                  scheduler_->make_notifier(exec->node_id()),
                                  exec->virtual_cores());
    policy_name_ = policy->name();
    exec->set_policy(std::move(policy));
  }
}

std::vector<TaskSpec> SparkContext::make_tasks(const Stage& stage) const {
  std::vector<TaskSpec> tasks;
  tasks.reserve(static_cast<size_t>(stage.num_tasks));
  const double cpu_per_byte =
      stage.cpu_seconds_per_input_mib / static_cast<double>(kMiB);

  for (int p = 0; p < stage.num_tasks; ++p) {
    TaskSpec t;
    t.stage_uid = stage.uid;
    t.partition = p;
    switch (stage.source) {
      case StageSource::kDfs: {
        const dfs::FileInfo* file = dfs_->lookup(stage.input_path);
        assert(file != nullptr);
        const dfs::Block& block = file->blocks[static_cast<size_t>(p)];
        t.input_bytes = block.size;
        t.preferred_nodes = block.replicas;
        break;
      }
      case StageSource::kShuffle: {
        for (const int sid : stage.in_shuffle_ids) {
          for (const Bytes b : shuffles_->fetch_plan(
                   sid, stage.reduce_slice(p), stage.sliced_partitions())) {
            t.input_bytes += b;
          }
        }
        break;
      }
      case StageSource::kCached: {
        const auto& part = caches_->partition(stage.in_cache_id, p);
        t.input_bytes = part.mem_bytes + part.spilled_bytes;
        if (part.node >= 0) t.preferred_nodes = {part.node};
        break;
      }
      case StageSource::kNone:
        break;
    }
    t.cpu_seconds = cpu_per_byte * static_cast<double>(t.input_bytes);
    t.output_bytes = static_cast<Bytes>(static_cast<double>(t.input_bytes) *
                                        stage.output_ratio);
    t.cache_bytes = static_cast<Bytes>(static_cast<double>(t.input_bytes) *
                                       stage.cache_ratio);
    tasks.push_back(std::move(t));
  }
  return tasks;
}

void SparkContext::maybe_replan_stage(Stage& stage) {
  if (!aqe_.enabled || stage.source != StageSource::kShuffle) return;
  if (!stage.reduce_slices.empty()) return;  // already re-planned
  const int R =
      stage.reduce_partitions > 0 ? stage.reduce_partitions : stage.num_tasks;
  if (R <= 1) return;

  // Actual per-partition bytes, summed over the stage's input shuffles
  // (two for joins). Every producer has finished by now — run_job runs
  // stages sequentially, and submit_ready_stages gates on parent completion
  // — so these are committed map-output statistics, not estimates.
  std::vector<Bytes> bytes(static_cast<size_t>(R), 0);
  Bytes total = 0;
  for (const int sid : stage.in_shuffle_ids) {
    const std::vector<Bytes> part = shuffles_->reduce_partition_bytes(sid, R);
    for (int r = 0; r < R; ++r) {
      bytes[static_cast<size_t>(r)] += part[static_cast<size_t>(r)];
      total += part[static_cast<size_t>(r)];
    }
  }
  if (total == 0) return;

  // The tuner (when enabled) overrides the static coalesce target with the
  // argmin of its fitted per-task cost model; it keeps the static target
  // until the model has seen enough spread to be determined.
  aqe::AqeOptions opt = aqe_;
  if (opt.min_partitions == 0) {
    opt.min_partitions = std::max(
        1, static_cast<int>(config_.get_int("spark.default.parallelism")));
  }
  if (tuner_ != nullptr) {
    const int slots =
        static_cast<int>(executors_.size()) *
        static_cast<int>(config_.get_int("spark.executor.cores"));
    opt.target_partition_bytes =
        tuner_->choose_target(total, slots, opt.target_partition_bytes);
  }

  const aqe::AqePlan plan = aqe::plan_reduce_stage(bytes, opt);
  if (plan.identity) return;

  stage.reduce_partitions = R;
  stage.reduce_slices = plan.slices;
  stage.num_tasks = static_cast<int>(plan.slices.size());
  ++replans_;
  event_log_.record(Event{EventKind::kStageReplanned, cluster_->sim().now(),
                          -1, stage.ordinal, -1, -1, stage.num_tasks,
                          stage.name});
  SAEX_INFO(
      "AQE re-planned stage {} '{}': {} partitions -> {} tasks "
      "({} coalesced away, {} skew-split)",
      stage.ordinal, stage.name, R, stage.num_tasks, plan.merged_partitions,
      plan.split_partitions);
}

void SparkContext::tuner_observe_stage(const Stage& stage,
                                       const std::vector<double>& durations,
                                       const std::vector<Bytes>& task_bytes,
                                       double makespan) {
  if (tuner_ == nullptr || stage.source != StageSource::kShuffle) return;
  aqe::StageObservation obs;
  obs.durations = durations;
  obs.bytes = task_bytes;
  obs.pool_size = executors_.empty() ? 0 : executors_.front()->pool_size();
  obs.makespan = makespan;
  obs.total_bytes = stage.input_bytes;
  tuner_->observe_stage(obs);
}

void SparkContext::apply_tuner_pool_hint(const Stage& stage) {
  if (tuner_ == nullptr || stage.source != StageSource::kShuffle) return;
  if (tuner_->stages_observed() == 0) return;
  const int hint = tuner_->choose_pool_hint(executors_.front()->pool_size());
  if (hint <= 0) return;
  // Seed every executor's pool. The dynamic policy's open interval still
  // counts at c_min, so its first decision resizes from c_min, not the seed.
  for (auto& exec : executors_) exec->set_pool_size(hint);
}

// ---------------------------------------------------------------------------
// Fault tolerance: executor loss and lineage recovery.
//
// Killing an executor loses everything its *process* held: registered
// shuffle map outputs and cached RDD partitions. DFS blocks live in the
// datanode and survive. Lost shuffle map outputs are rebuilt from lineage
// (resubmit / on_rebuilt): the producing stage is resubmitted for exactly
// the lost partitions (Spark's lineage resubmission) while the task sets
// reading them stay parked (held), from loss time until the rebuild lands.
// Cached partitions lost with their executor are not rebuilt: their readers
// are charged, exhaust the retry budget, and the job fails with a typed
// abort.
// ---------------------------------------------------------------------------

void SparkContext::kill_executor(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(executors_.size())) {
    SAEX_WARN("ignoring kill of executor {}: cluster has nodes 0..{}", node_id,
              executors_.size() - 1);
    return;
  }
  if (!fault_state_->node_alive(node_id)) return;  // idempotent
  const double now = cluster_->sim().now();
  SAEX_WARN("executor {} lost at t={:.3f}", node_id, now);
  fault_state_->mark_dead(node_id);
  event_log_.record(
      Event{EventKind::kExecutorLost, now, -1, -1, -1, node_id, 0, {}});
  if (node_fault_hook_) node_fault_hook_(node_id);
  // Order matters: stop offers first, then fail the running attempts, then
  // drop the map outputs so recovery sees the final loss.
  scheduler_->kill_executor(node_id);
  executors_[static_cast<size_t>(node_id)]->kill();
  const std::map<int, std::vector<int>> lost = shuffles_->on_node_lost(node_id);
  for (const auto& [shuffle_id, partitions] : lost) {
    // Park every running reader *now*, not on its first fetch failure: once
    // on_node_lost dropped the dead node's commits, a newly launched reader
    // would plan its fetches from the surviving partial outputs and silently
    // read incomplete data (Spark's MetadataFetchFailed case).
    for (const uint64_t id : scheduler_->hold_sets_reading(shuffle_id)) {
      shuffle_lineage_.parked[shuffle_id].push_back(id);
    }
    resubmit(shuffle_id, partitions);
  }
}

void SparkContext::revive_executor(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(executors_.size())) {
    SAEX_WARN("ignoring rejoin of executor {}: cluster has nodes 0..{}",
              node_id, executors_.size() - 1);
    return;
  }
  if (fault_state_->node_alive(node_id)) return;  // idempotent
  const double now = cluster_->sim().now();
  SAEX_WARN("executor {} rejoined at t={:.3f}", node_id, now);
  fault_state_->mark_alive(node_id);
  event_log_.record(
      Event{EventKind::kExecutorRevived, now, -1, -1, -1, node_id, 0, {}});
  // The runtime must be live before the scheduler revives the slot: revive's
  // try_assign may dispatch to the node in the same instant.
  executors_[static_cast<size_t>(node_id)]->revive();
  scheduler_->revive_executor(node_id);
}

void SparkContext::record_producers(const Stage& stage) {
  if (stage.sink == StageSink::kShuffleWrite && stage.out_shuffle_id >= 0) {
    // Reduce-partition weights (ShuffleTraits::skew) must be registered
    // before any consumer plans its fetches; the producer is always
    // submitted — and hence recorded — first.
    shuffles_->set_reduce_skew(stage.out_shuffle_id, stage.out_skew);
    shuffle_lineage_.producers.insert_or_assign(stage.out_shuffle_id, stage);
  }
}

FetchFailureAction SparkContext::on_fetch_failure(uint64_t set_id,
                                                  int shuffle_id,
                                                  int src_node) {
  // Cached data lost with its executor has no lineage here: charged, so
  // the retry budget bounds the job.
  if (shuffle_id < 0) return FetchFailureAction::kCharge;
  // Either way the failure is blamed on the source node — the health
  // breaker counts transient drops (flaky NIC) and dead-node fetches alike.
  if (node_fault_hook_ && src_node >= 0) node_fault_hook_(src_node);
  if (fault_state_->node_alive(src_node)) {
    // Transient seeded drop: the data is still there, charge and retry.
    return FetchFailureAction::kCharge;
  }
  if (shuffle_lineage_.rebuilding.count(shuffle_id) > 0) {
    // Rebuild in flight: park the set; on_rebuilt releases it.
    shuffle_lineage_.parked[shuffle_id].push_back(set_id);
    return FetchFailureAction::kHold;
  }
  // Recovery already finished (or the kill hook raced this status update):
  // a free retry re-plans its fetches against the rebuilt outputs.
  return FetchFailureAction::kRetry;
}

void SparkContext::resubmit(int shuffle_id,
                            const std::vector<int>& partitions) {
  // Every lost partition was committed by a stage open_stage recorded.
  const auto it = shuffle_lineage_.producers.find(shuffle_id);
  assert(it != shuffle_lineage_.producers.end() &&
         "lost shuffle has no producer");
  const Stage& producer = it->second;
  ++shuffle_lineage_.rebuilding[shuffle_id];
  SAEX_WARN("resubmitting stage {} '{}' for {} lost partitions of shuffle {}",
            producer.ordinal, producer.name, partitions.size(), shuffle_id);
  event_log_.record(Event{EventKind::kStageResubmitted, cluster_->sim().now(),
                          -1, producer.ordinal, -1, -1,
                          static_cast<int64_t>(partitions.size()),
                          producer.name});

  std::vector<TaskSpec> all = make_tasks(producer);
  std::vector<TaskSpec> tasks;
  tasks.reserve(partitions.size());
  for (const int p : partitions) {
    tasks.push_back(all[static_cast<size_t>(p)]);
  }
  // job_id -1 outranks every real job under FIFO, so the rebuild is not
  // starved by the very work that waits on it.
  scheduler_->submit_stage(
      producer, std::move(tasks), /*job_id=*/-1, "default",
      [this, shuffle_id](const TaskScheduler::TaskSetResult& result) {
        on_rebuilt(shuffle_id, result.failed);
      });
}

void SparkContext::on_rebuilt(int shuffle_id, bool failed) {
  const auto it = shuffle_lineage_.rebuilding.find(shuffle_id);
  assert(it != shuffle_lineage_.rebuilding.end() &&
         "rebuild finished for unknown shuffle");
  if (--it->second > 0) return;
  shuffle_lineage_.rebuilding.erase(it);

  std::vector<uint64_t> parked;
  if (const auto p = shuffle_lineage_.parked.find(shuffle_id);
      p != shuffle_lineage_.parked.end()) {
    parked = std::move(p->second);
    shuffle_lineage_.parked.erase(p);
  }
  std::sort(parked.begin(), parked.end());
  parked.erase(std::unique(parked.begin(), parked.end()), parked.end());
  if (failed) {
    SAEX_WARN("lineage recovery of shuffle {} failed; aborting dependents",
              shuffle_id);
    for (const uint64_t set_id : parked) scheduler_->abort_set(set_id);
    return;
  }
  for (const uint64_t set_id : parked) {
    // A set reading two rebuilding shuffles (a join) stays parked until the
    // last of them lands.
    bool still_parked = false;
    for (const auto& [other, sets] : shuffle_lineage_.parked) {
      if (std::find(sets.begin(), sets.end(), set_id) != sets.end()) {
        still_parked = true;
        break;
      }
    }
    if (!still_parked) scheduler_->hold_set(set_id, false);
  }
  // Stages deferred while their input was rebuilding can go now.
  for (auto& [job_id, run] : jobs_) submit_ready_stages(*run);
}

bool SparkContext::input_rebuilding(const Stage& stage) const {
  for (const int sid : stage.in_shuffle_ids) {
    if (shuffle_lineage_.rebuilding.count(sid) > 0) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Job and stage lifecycle, shared by both drivers.
//
// Per-stage rollups are window-based: cluster-wide counters are snapshotted
// when the stage is submitted and diffed when its task set drains, so with
// overlapping jobs a stage's disk/network bytes include the traffic of
// whatever else ran during its window. Utilizations are exact: each node's
// CPU and disk busy integrals are snapshotted at submit too (the trackers
// keep no history that far back). Task percentiles count only the stage's
// own task set, never a lineage-recovery set running beside it.
// ---------------------------------------------------------------------------

struct SparkContext::StageBaseline {
  int app_ordinal = 0;
  double start_time = 0.0;
  Bytes net_base = 0;
  std::vector<Bytes> disk_read, disk_written;
  std::vector<double> blocked;
  std::vector<Bytes> io_bytes;
  std::vector<double> cpu_busy, disk_busy;  // busy integrals at start_time
};

struct SparkContext::JobRun {
  int job_id = 0;
  std::string pool;
  JobPlan plan;
  bool per_executor = false;
  std::map<int, StageBaseline> open_stages;  // stage uid -> submit snapshot
  // submit_job's runnable set.
  std::map<int, int> pending_parents;  // stage uid -> unfinished parents
  std::set<int> submitted;             // stage uids handed to the scheduler
  std::map<int, uint64_t> live_sets;   // stage uid -> in-flight task-set id
  int in_flight = 0;
  size_t stages_done = 0;
  JobReport report;
  std::function<void(JobReport)> on_done;
};

std::unique_ptr<SparkContext::JobRun> SparkContext::open_job(
    const Rdd& action, std::string app_name, std::string pool,
    bool per_executor) {
  // The DAG scheduler persists across jobs: cached RDDs and shuffle outputs
  // materialized by earlier jobs are reused, not recomputed.
  auto run = std::make_unique<JobRun>();
  run->plan = dag_->build(action);
  for (const auto& [cache_id, info] : dag_->caches()) {
    if (!caches_->has(cache_id)) caches_->init(cache_id, info.partitions);
  }
  run->job_id = job_counter_++;
  run->pool = std::move(pool);
  run->per_executor = per_executor;
  JobReport& report = run->report;
  report.app_name = std::move(app_name);
  report.policy_name = policy_name_;
  report.job_id = run->job_id;
  report.pool = run->pool;
  report.submit_time = cluster_->sim().now();
  for (const Stage& stage : run->plan.stages) {
    if (stage.source == StageSource::kDfs && report.input_bytes == 0) {
      report.input_bytes = stage.input_bytes;
    }
  }
  event_log_.record(Event{EventKind::kJobStart, report.submit_time,
                          run->job_id, -1, -1, -1, 0, report.app_name});
  return run;
}

void SparkContext::open_stage(JobRun& run, const Stage& stage,
                              int app_ordinal) {
  const double now = cluster_->sim().now();
  StageBaseline& base = run.open_stages[stage.uid];
  base.app_ordinal = app_ordinal;
  base.start_time = now;
  base.net_base = cluster_->network().total_bytes();
  for (auto& exec : executors_) {
    const hw::Node& node = cluster_->node(exec->node_id());
    base.disk_read.push_back(node.disk().total_bytes_read());
    base.disk_written.push_back(node.disk().total_bytes_written());
    base.blocked.push_back(exec->io_counters().blocked_seconds);
    base.io_bytes.push_back(exec->io_counters().bytes_total());
    base.cpu_busy.push_back(node.cpu().busy_tracker().integral_at(now));
    base.disk_busy.push_back(node.disk().busy_tracker().integral_at(now));
  }
  event_log_.record(Event{EventKind::kStageStart, now, run.job_id, app_ordinal,
                          -1, -1, stage.num_tasks, stage.name});
  record_producers(stage);
}

void SparkContext::close_stage(JobRun& run, const Stage& stage,
                               const TaskScheduler::TaskSetResult& result) {
  const double stage_end = cluster_->sim().now();
  const StageBaseline& base = run.open_stages.at(stage.uid);
  event_log_.record(Event{EventKind::kStageEnd, stage_end, run.job_id,
                          base.app_ordinal, -1, -1, 0, stage.name});

  JobReport& report = run.report;
  if (result.first_launch_time >= 0.0 &&
      (report.first_launch_time < 0.0 ||
       result.first_launch_time < report.first_launch_time)) {
    report.first_launch_time = result.first_launch_time;
  }
  if (result.failed) {
    report.failed = true;
    SAEX_WARN("job {} stage {} aborted; failing the job", run.job_id,
              stage.ordinal);
  } else if (stage.sink == StageSink::kDfsWrite &&
             !dfs_->exists(stage.out_path)) {
    // Register the produced output file so downstream stages can read it.
    dfs_->create_output(stage.out_path, stage.output_bytes(), 0,
                        stage.out_replication);
  }

  StageStats stats;
  stats.ordinal = stage.ordinal;
  stats.name = stage.name;
  stats.io_tagged = stage.io_tagged;
  stats.num_tasks = stage.num_tasks;
  stats.start_time = base.start_time;
  stats.end_time = stage_end;
  stats.input_bytes = stage.input_bytes;
  stats.net_bytes = cluster_->network().total_bytes() - base.net_base;

  const double dur = std::max(stage_end - base.start_time, 1e-9);
  double cpu_sum = 0.0, disk_sum = 0.0, iowait_sum = 0.0;
  for (size_t i = 0; i < executors_.size(); ++i) {
    ExecutorRuntime& exec = *executors_[i];
    const hw::Node& node = cluster_->node(exec.node_id());
    const double cpu_util = node.cpu().busy_tracker().utilization_since(
        base.start_time, base.cpu_busy[i], stage_end);
    const double disk_util = node.disk().busy_tracker().utilization_since(
        base.start_time, base.disk_busy[i], stage_end);
    const double blocked =
        exec.io_counters().blocked_seconds - base.blocked[i];
    // mpstat-style iowait: cores idle while I/O is pending; bounded by the
    // idle fraction.
    const double cores = static_cast<double>(node.cpu().cores());
    const double iowait =
        std::min(blocked / (cores * dur), std::max(0.0, 1.0 - cpu_util));
    cpu_sum += cpu_util;
    disk_sum += disk_util;
    iowait_sum += iowait;
    stats.disk_read += node.disk().total_bytes_read() - base.disk_read[i];
    stats.disk_written +=
        node.disk().total_bytes_written() - base.disk_written[i];
    stats.threads_total += exec.pool_size();
    if (run.per_executor) {
      stats.executors.push_back(ExecutorStageStats{
          exec.node_id(), exec.pool_size(), blocked,
          exec.io_counters().bytes_total() - base.io_bytes[i]});
    }
  }
  const double n = static_cast<double>(executors_.size());
  stats.cpu_utilization = cpu_sum / n;
  stats.disk_utilization = disk_sum / n;
  stats.iowait_fraction = iowait_sum / n;

  for (const double d : result.durations) {
    stats.task_seconds += d;
    stats.task_max = std::max(stats.task_max, d);
  }
  stats.task_p50 = percentile(result.durations, 0.5);
  stats.task_p95 = percentile(result.durations, 0.95);
  report.stages.push_back(std::move(stats));
  run.open_stages.erase(stage.uid);
}

JobReport SparkContext::close_job(JobRun& run) {
  sim::Simulation& sim = cluster_->sim();
  JobReport& report = run.report;
  report.finish_time = sim.now();
  report.total_runtime = report.finish_time - report.submit_time;
  report.events_processed = sim.processed();
  std::sort(report.stages.begin(), report.stages.end(),
            [](const StageStats& a, const StageStats& b) {
              return a.ordinal < b.ordinal;
            });
  for (const StageStats& s : report.stages) {
    report.total_disk_bytes += s.disk_read + s.disk_written;
  }
  event_log_.record(Event{EventKind::kJobEnd, report.finish_time, run.job_id,
                          -1, -1, -1, 0, report.app_name});
  return std::move(report);
}

// ---------------------------------------------------------------------------
// Concurrent (event-driven) job submission — the saex::serve path.
//
// Instead of run_job()'s sequential stage loop, a JobRun tracks how many
// unfinished parents each stage has *within the job*; stages whose count is
// zero are submitted to the shared TaskScheduler immediately, and each
// stage-completion event unlocks its children. Stages of different jobs (and
// independent stages of one job) are therefore in flight together, arbitrated
// by the scheduler's FIFO/FAIR ordering.
// ---------------------------------------------------------------------------

int SparkContext::submit_job(const Rdd& action, std::string app_name,
                             std::string pool,
                             std::function<void(JobReport)> on_done) {
  std::unique_ptr<JobRun> run = open_job(action, std::move(app_name),
                                         std::move(pool),
                                         /*per_executor=*/false);
  run->on_done = std::move(on_done);
  // Count each stage's unfinished parents *within this plan*; parents built
  // by earlier jobs (reused shuffle/cache outputs) are already materialized.
  for (const Stage& stage : run->plan.stages) {
    int pending = 0;
    for (const int parent : stage.parent_uids) {
      if (run->plan.stage_by_uid(parent) != nullptr) ++pending;
    }
    run->pending_parents[stage.uid] = pending;
  }
  const int job_id = run->job_id;
  JobRun& ref = *run;
  jobs_.emplace(job_id, std::move(run));
  submit_ready_stages(ref);
  return job_id;
}

void SparkContext::submit_ready_stages(JobRun& run) {
  if (run.report.failed) return;  // an aborted stage cancels the rest
  for (Stage& stage : run.plan.stages) {
    if (run.pending_parents.at(stage.uid) > 0 ||
        run.submitted.count(stage.uid) > 0) {
      continue;
    }
    // A stage whose input is being rebuilt would only fail and park; defer
    // it until on_rebuilt resubmits.
    if (input_rebuilding(stage)) continue;
    run.submitted.insert(stage.uid);
    submit_stage_of(run, stage);
  }
}

void SparkContext::submit_stage_of(JobRun& run, Stage& stage) {
  // Re-plan before anything observes the stage shape (the kStageStart event
  // logs num_tasks; make_tasks sizes the task set).
  maybe_replan_stage(stage);
  open_stage(run, stage, app_stage_counter_++);
  ++run.in_flight;
  const int uid = stage.uid;
  const int job_id = run.job_id;
  const uint64_t set_id = scheduler_->submit_stage(
      stage, make_tasks(stage), job_id, run.pool,
      [this, job_id, uid](const TaskScheduler::TaskSetResult& result) {
        const auto it = jobs_.find(job_id);
        assert(it != jobs_.end() && "stage completed for a finished job");
        JobRun& r = *it->second;
        r.live_sets.erase(uid);
        Stage* stage = nullptr;
        for (Stage& s : r.plan.stages) {
          if (s.uid == uid) stage = &s;
        }
        assert(stage != nullptr);
        on_stage_finished(r, *stage, result);
      });
  // on_done never fires synchronously from submit_stage (the first dispatch
  // crosses the driver->executor message latency), so the id lands before
  // any completion can erase it.
  run.live_sets.emplace(uid, set_id);
}

bool SparkContext::cancel_job(int job_id) {
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return false;
  JobRun& run = *it->second;
  run.report.failed = true;
  run.report.cancelled = true;
  // Snapshot: each abort may synchronously fire its stage callback (no
  // copies in flight), mutating live_sets — and the last one finishes the
  // job and frees the JobRun.
  std::vector<uint64_t> sets;
  sets.reserve(run.live_sets.size());
  for (const auto& [uid, set_id] : run.live_sets) sets.push_back(set_id);
  for (const uint64_t set_id : sets) {
    if (jobs_.count(job_id) == 0) return true;  // finished mid-abort
    scheduler_->abort_set(set_id);
  }
  // Between stages (nothing in flight) the aborted job must still settle.
  if (const auto again = jobs_.find(job_id); again != jobs_.end()) {
    maybe_finish_job(*again->second);
  }
  return true;
}

void SparkContext::on_stage_finished(
    JobRun& run, Stage& stage, const TaskScheduler::TaskSetResult& result) {
  --run.in_flight;
  ++run.stages_done;
  close_stage(run, stage, result);
  // Unlock children and keep the runnable set saturated.
  if (!run.report.failed) {
    for (Stage& child : run.plan.stages) {
      for (const int parent : child.parent_uids) {
        if (parent == stage.uid) --run.pending_parents.at(child.uid);
      }
    }
    submit_ready_stages(run);
  }
  maybe_finish_job(run);
}

void SparkContext::maybe_finish_job(JobRun& run) {
  const bool all_done =
      !run.report.failed && run.stages_done == run.plan.stages.size();
  const bool aborted = run.report.failed && run.in_flight == 0;
  if (!all_done && !aborted) return;
  JobReport report = close_job(run);
  auto on_done = std::move(run.on_done);
  jobs_.erase(report.job_id);  // `run` is dangling from here on
  if (on_done) on_done(std::move(report));
}

// The paper's batch driver: stages run one at a time in plan order, and
// every executor's policy restarts its MAPE-K climb at each stage (§5).
JobReport SparkContext::run_job(const Rdd& action, std::string app_name) {
  // The run never enters jobs_: on_rebuilt's submit_ready_stages
  // would otherwise submit its stages concurrently.
  const std::unique_ptr<JobRun> run = open_job(
      action, std::move(app_name), "default", /*per_executor=*/true);
  sim::Simulation& sim = cluster_->sim();
  for (Stage& stage : run->plan.stages) {
    // A mid-stage executor kill may have left lineage recovery in flight;
    // a consumer stage must not plan its fetches until the rebuild lands.
    while (input_rebuilding(stage)) {
      if (!sim.step()) {
        throw std::runtime_error(strfmt::format(
            "stage {} deadlocked waiting for lineage recovery",
            stage.ordinal));
      }
    }
    // Re-plan before anything observes the stage shape: the consumed
    // shuffle's map outputs are fully committed at this point (stages run
    // sequentially here), which is exactly the AQE interception window.
    maybe_replan_stage(stage);
    const double stage_start = sim.now();

    // Stage start: every executor's policy (re)sizes its pool. The ordinal
    // is application-wide (continues across jobs) so per-stage policies see
    // the same numbering the paper's figures use.
    const adaptive::StageContext sctx{
        static_cast<int64_t>(run->job_id) * 1000 + stage.ordinal,
        app_stage_counter_++, stage.io_tagged};
    for (auto& exec : executors_) {
      exec->policy().on_stage_start(sctx, stage_start);
    }
    // The AQE tuner's pool-size seed overrides the policy's opening width.
    apply_tuner_pool_hint(stage);
    // Offer the stage against the sizes just set, not the ones the §5.4
    // notifications will deliver a message latency later.
    scheduler_->sync_pool_sizes();

    open_stage(*run, stage, sctx.stage_ordinal);
    std::vector<TaskSpec> tasks = make_tasks(stage);
    std::vector<Bytes> task_bytes;
    if (tuner_ != nullptr) {
      task_bytes.reserve(tasks.size());
      for (const TaskSpec& t : tasks) task_bytes.push_back(t.input_bytes);
    }
    std::optional<TaskScheduler::TaskSetResult> result;
    scheduler_->submit_stage(
        stage, std::move(tasks), run->job_id, run->pool,
        [&result](const TaskScheduler::TaskSetResult& r) { result = r; });
    uint64_t steps = 0;
    while (!result) {
      if (!sim.step()) {
        throw std::runtime_error(strfmt::format(
            "stage {} deadlocked: no pending events but tasks incomplete",
            stage.ordinal));
      }
      if ((++steps & 0xfffff) == 0) {
        SAEX_DEBUG("stage {}: {} steps, sim time {:.1f}s, pending {}",
                   stage.ordinal, steps, sim.now(), sim.pending());
      }
    }
    const double stage_end = sim.now();
    for (auto& exec : executors_) exec->policy().on_stage_end(stage_end);
    tuner_observe_stage(stage, result->durations, task_bytes,
                        stage_end - stage_start);
    close_stage(*run, stage, *result);
    if (result->failed) {
      throw StageAbortedError(
          stage.ordinal,
          strfmt::format(
              "stage {} aborted: a task exceeded spark.task.maxFailures",
              stage.ordinal));
    }
    SAEX_INFO("stage {} '{}' finished in {} (threads {}/{})", stage.ordinal,
              stage.name, format_duration(stage_end - stage_start),
              run->report.stages.back().threads_total,
              num_executors() *
                  static_cast<int>(config_.get_int("spark.executor.cores")));
  }
  return close_job(*run);
}

}  // namespace saex::engine
