// Simulated Spark executor: one per node, owning a resizable pool of task
// slots, the task execution state machine, the I/O accounting the MAPE-K
// loop senses, and the thread policy that resizes the pool.
//
// A running task alternates chunked blocking I/O (DFS reads, shuffle
// fetches, shuffle/DFS writes) with compute on the node's cores — the
// closed-loop structure that makes thread count interact with disk
// contention. Time spent blocked on I/O completions accumulates as the
// paper's "epoll wait time" ε; bytes moved accumulate as the numerator
// of throughput µ.
#pragma once

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "adaptive/types.h"
#include "dfs/dfs.h"
#include "engine/shuffle.h"
#include "fault/fault.h"
#include "engine/stage.h"
#include "hw/cluster.h"
#include "metrics/io_accounting.h"
#include "common/rng.h"
#include "engine/event_log.h"
#include "storage/block_manager.h"

namespace saex::engine {

/// Where cached RDD partitions live at runtime (the cluster-wide block
/// directory; per-node budgets and eviction live in storage::BlockManager).
class CacheRegistry {
 public:
  struct Partition {
    int node = -1;
    Bytes mem_bytes = 0;
    Bytes spilled_bytes = 0;
  };

  /// Registers a cache. Idempotent for a matching partition count; a
  /// *different* count for an existing id throws std::logic_error (silently
  /// resizing would drop live partition state).
  void init(int cache_id, int partitions);
  bool has(int cache_id) const noexcept {
    return parts_.find(cache_id) != parts_.end();
  }
  Partition& partition(int cache_id, int p) {
    return parts_.at(cache_id).at(static_cast<size_t>(p));
  }
  const Partition& partition(int cache_id, int p) const {
    return parts_.at(cache_id).at(static_cast<size_t>(p));
  }

 private:
  std::map<int, std::vector<Partition>> parts_;
};

/// Shared references every executor needs.
struct EngineEnv {
  sim::Simulation* sim = nullptr;
  hw::Cluster* cluster = nullptr;
  dfs::Dfs* dfs = nullptr;
  ShuffleManager* shuffles = nullptr;
  CacheRegistry* caches = nullptr;
  Bytes io_chunk = mib(4);  // granularity of blocking I/O requests
  // Per-node BlockManagers (cached-RDD budget + eviction policy + hit/miss
  // counters); overflow past the budget spills to disk. Required.
  storage::StorageManager* storage = nullptr;
  // Fraction of local shuffle reads served by the OS page cache (the map
  // output was just written); the rest hits the disk.
  double shuffle_cache_fraction = 0.15;
  // Concurrent in-flight fetches per reduce task (Spark fetches shuffle
  // blocks from several hosts at once, spark.reducer.maxSizeInFlight).
  int fetch_parallelism = 2;
  // Flow-batched network data plane (saex.net.flowBatch): coalesce every
  // shuffle block a reduce task pulls from one source node into a single
  // hw::Network flow (one setup latency, one completion) instead of one
  // transfer per io_chunk per block; up to fetch_parallelism flow segments
  // stay in flight per task, as in per-chunk mode. Off reproduces the
  // per-chunk model bitwise; fault rolls and open-stream accounting stay
  // block-granular either way.
  bool net_flow_batch = false;
  // Fault truth shared across the cluster (saex::fault): dead executors,
  // seeded shuffle-fetch drops and the task-attempt failure probability
  // (saex.sim.*; draws are deterministic per cluster seed, node and task).
  // Null disables every fault check.
  fault::FaultState* fault = nullptr;
  // Optional application event log (owned by the SparkContext).
  EventLog* event_log = nullptr;
};

/// Why a task attempt failed; drives the driver's recovery decision.
enum class TaskFailure {
  kNone,          // success
  kInjected,      // the attempt itself died (saex.sim.taskFailureProb):
                  // charged against spark.task.maxFailures
  kExecutorLost,  // the executor died under it: free retry elsewhere
  kFetchFailed,   // a shuffle/cache fetch failed: the driver decides whether
                  // the source data is gone (lineage recovery) or the drop
                  // was transient (charged retry)
};

struct TaskOutcome {
  bool success = true;
  TaskFailure failure = TaskFailure::kNone;
  int fetch_src = -1;      // kFetchFailed: node the fetch targeted
  int fetch_shuffle = -1;  // kFetchFailed: shuffle id (-1: cached data)
};

class ExecutorRuntime final : public adaptive::PoolEffector,
                              public adaptive::Sensor {
 public:
  /// Completion callback; `outcome.success` is false when the attempt
  /// failed and the driver should decide how (whether) to retry it.
  using TaskDone = std::function<void(const TaskSpec&, const TaskOutcome&)>;

  ExecutorRuntime(EngineEnv env, int node_id, int virtual_cores);
  ~ExecutorRuntime() override;
  ExecutorRuntime(const ExecutorRuntime&) = delete;
  ExecutorRuntime& operator=(const ExecutorRuntime&) = delete;

  // adaptive::PoolEffector — the [E]xecute phase's effector.
  void set_pool_size(int threads) override;
  int pool_size() const override { return pool_target_; }

  // adaptive::Sensor — the [M]onitor phase's sensor.
  adaptive::IoSample sample() override;

  void set_policy(std::unique_ptr<adaptive::ThreadPolicy> policy);
  adaptive::ThreadPolicy& policy() { return *policy_; }
  const adaptive::ThreadPolicy& policy() const { return *policy_; }

  int node_id() const noexcept { return node_id_; }
  int virtual_cores() const noexcept { return virtual_cores_; }
  int running() const noexcept { return running_; }
  bool has_free_slot() const noexcept { return running_ < pool_target_; }

  /// Starts a task; `on_done` fires (executor-side) at completion.
  void launch(const TaskSpec& spec, const Stage& stage, TaskDone on_done);

  /// Kills running attempts of stage `stage_uid`'s `partition` (speculation
  /// losers). The attempt drains its in-flight I/O and reports failure; the
  /// driver ignores the result since the partition is already done. Keyed by
  /// (stage, partition) because concurrent jobs share the executor.
  void cancel_task(int stage_uid, int partition);

  /// Fault injection: the executor process dies. Every running attempt
  /// drains and reports TaskFailure::kExecutorLost; tasks launched at a dead
  /// executor (messages in flight at kill time) fail the same way. The
  /// executor never comes back — mark it dead in the scheduler too.
  void kill();
  /// Chaos rejoin: a fresh, empty executor process replaces the killed one
  /// on the same node id (storage and shuffle state were dropped at kill
  /// time). No-op on a live executor.
  void revive();
  bool alive() const noexcept { return alive_; }

  /// Reserves cache-storage memory for one chunk of `(cache_id, partition)`;
  /// returns the granted amount (the rest must spill to disk through the
  /// caller's write channel). The node's eviction policy may free committed
  /// blocks to make room — victims move to disk (a background write charged
  /// to this node's device, recorded in the CacheRegistry).
  Bytes reserve_storage(int cache_id, int partition, Bytes bytes);
  Bytes storage_used() const noexcept {
    return env_.storage->node(node_id_).mem_used();
  }

  const metrics::IoCounters& io_counters() const noexcept {
    return io_.snapshot();
  }

 private:
  struct TaskRun;

  void finish_task(TaskRun* run, const TaskOutcome& outcome);
  hw::Node& node() noexcept { return env_.cluster->node(node_id_); }

  EngineEnv env_;
  int node_id_;
  int virtual_cores_;
  int pool_target_;
  int running_ = 0;
  bool alive_ = true;
  std::unique_ptr<adaptive::ThreadPolicy> policy_;
  metrics::IoAccounting io_;
  Rng failure_rng_{0};
  std::list<std::unique_ptr<TaskRun>> active_;
};

}  // namespace saex::engine
