// Registers the 117 functional Spark 2.4 parameters (paper Table 1) plus the
// saex.* extension parameters that configure the adaptive executors.
//
// Category counts must match Table 1 exactly:
//   Shuffle 19, Compression and Serialization 16, Memory Management 14,
//   Execution Behavior 14, Network 13, Scheduling 32, Dynamic Allocation 9
//   = 117 total. tests/conf_test.cpp asserts these counts.

#include "conf/config.h"

namespace saex::conf {
namespace {

void define_shuffle(Registry& r) {
  using C = Category;
  using V = ValueType;
  const C c = C::kShuffle;
  r.define({"spark.reducer.maxSizeInFlight", c, V::kBytes, "48m",
            "Max map output fetched simultaneously per reduce task."});
  r.define({"spark.reducer.maxReqsInFlight", c, V::kInt, "2147483647",
            "Max remote fetch requests in flight per reduce task."});
  r.define({"spark.reducer.maxBlocksInFlightPerAddress", c, V::kInt, "2147483647",
            "Max shuffle blocks fetched concurrently from one host."});
  r.define({"spark.maxRemoteBlockSizeFetchToMem", c, V::kBytes, "2147483135",
            "Remote blocks above this size are streamed to disk."});
  r.define({"spark.shuffle.compress", c, V::kBool, "true",
            "Compress map output files."});
  r.define({"spark.shuffle.file.buffer", c, V::kBytes, "32k",
            "In-memory buffer per shuffle file output stream."});
  r.define({"spark.shuffle.io.maxRetries", c, V::kInt, "3",
            "Fetch retry count for IO-related exceptions."});
  r.define({"spark.shuffle.io.numConnectionsPerPeer", c, V::kInt, "1",
            "Connections reused across hosts for shuffle fetch."});
  r.define({"spark.shuffle.io.preferDirectBufs", c, V::kBool, "true",
            "Prefer off-heap buffers in shuffle block transfer."});
  r.define({"spark.shuffle.io.retryWait", c, V::kDurationSeconds, "5s",
            "Wait between shuffle fetch retries."});
  r.define({"spark.shuffle.service.enabled", c, V::kBool, "false",
            "Use the external shuffle service."});
  r.define({"spark.shuffle.service.port", c, V::kInt, "7337",
            "External shuffle service port."});
  r.define({"spark.shuffle.service.index.cache.size", c, V::kBytes, "100m",
            "Cache for shuffle index files in the external service."});
  r.define({"spark.shuffle.maxChunksBeingTransferred", c, V::kInt, "9223372036854775807",
            "Max chunks allowed in transfer on the shuffle service."});
  r.define({"spark.shuffle.sort.bypassMergeThreshold", c, V::kInt, "200",
            "Below this many reduce partitions, skip merge-sort."});
  r.define({"spark.shuffle.spill.compress", c, V::kBool, "true",
            "Compress data spilled during shuffles."});
  r.define({"spark.shuffle.accurateBlockThreshold", c, V::kBytes, "100m",
            "Record accurate sizes for shuffle blocks above this size."});
  r.define({"spark.shuffle.registration.timeout", c, V::kDurationSeconds, "5s",
            "Timeout for registration to the external shuffle service."});
  r.define({"spark.shuffle.registration.maxAttempts", c, V::kInt, "3",
            "Retries for registration to the external shuffle service."});
}

void define_compression_serialization(Registry& r) {
  using C = Category;
  using V = ValueType;
  const C c = C::kCompressionSerialization;
  r.define({"spark.broadcast.compress", c, V::kBool, "true",
            "Compress broadcast variables."});
  r.define({"spark.checkpoint.compress", c, V::kBool, "false",
            "Compress RDD checkpoints."});
  r.define({"spark.io.compression.codec", c, V::kString, "lz4",
            "Codec for internal data (RDDs, shuffle, broadcast)."});
  r.define({"spark.io.compression.lz4.blockSize", c, V::kBytes, "32k",
            "LZ4 block size."});
  r.define({"spark.io.compression.snappy.blockSize", c, V::kBytes, "32k",
            "Snappy block size."});
  r.define({"spark.io.compression.zstd.level", c, V::kInt, "1",
            "Zstd compression level."});
  r.define({"spark.io.compression.zstd.bufferSize", c, V::kBytes, "32k",
            "Zstd buffer size."});
  r.define({"spark.kryo.classesToRegister", c, V::kString, "",
            "Classes to register with Kryo."});
  r.define({"spark.kryo.referenceTracking", c, V::kBool, "true",
            "Track references to the same object in Kryo."});
  r.define({"spark.kryo.registrationRequired", c, V::kBool, "false",
            "Require explicit Kryo registration."});
  r.define({"spark.kryo.registrator", c, V::kString, "",
            "Custom Kryo registrator classes."});
  r.define({"spark.kryo.unsafe", c, V::kBool, "false",
            "Use unsafe-based Kryo serializer."});
  r.define({"spark.kryoserializer.buffer.max", c, V::kBytes, "64m",
            "Max Kryo buffer size."});
  r.define({"spark.kryoserializer.buffer", c, V::kBytes, "64k",
            "Initial Kryo buffer size."});
  r.define({"spark.rdd.compress", c, V::kBool, "false",
            "Compress serialized cached partitions."});
  r.define({"spark.serializer", c, V::kString,
            "org.apache.spark.serializer.JavaSerializer",
            "Serializer for objects sent over the network or cached."});
}

void define_memory(Registry& r) {
  using C = Category;
  using V = ValueType;
  const C c = C::kMemoryManagement;
  r.define({"spark.memory.fraction", c, V::kDouble, "0.6",
            "Fraction of heap used for execution and storage."});
  r.define({"spark.memory.storageFraction", c, V::kDouble, "0.5",
            "Storage share of the unified region immune to eviction."});
  r.define({"spark.memory.offHeap.enabled", c, V::kBool, "false",
            "Use off-heap memory for certain operations."});
  r.define({"spark.memory.offHeap.size", c, V::kBytes, "0",
            "Absolute off-heap memory size."});
  r.define({"spark.memory.useLegacyMode", c, V::kBool, "false",
            "Use the pre-1.6 static memory manager."});
  r.define({"spark.shuffle.memoryFraction", c, V::kDouble, "0.2",
            "(legacy) Heap fraction for shuffle aggregation."});
  r.define({"spark.storage.memoryFraction", c, V::kDouble, "0.6",
            "(legacy) Heap fraction for the storage region."});
  r.define({"spark.storage.unrollFraction", c, V::kDouble, "0.2",
            "(legacy) Storage fraction for unrolling blocks."});
  r.define({"spark.storage.replication.proactive", c, V::kBool, "false",
            "Proactively re-replicate cached blocks on executor loss."});
  r.define({"spark.cleaner.periodicGC.interval", c, V::kDurationSeconds, "30min",
            "How often to trigger GC for cleanup."});
  r.define({"spark.cleaner.referenceTracking", c, V::kBool, "true",
            "Enable context cleaning."});
  r.define({"spark.cleaner.referenceTracking.blocking", c, V::kBool, "true",
            "Block on cleanup tasks (except shuffle)."});
  r.define({"spark.cleaner.referenceTracking.blocking.shuffle", c, V::kBool, "false",
            "Block on shuffle cleanup tasks."});
  r.define({"spark.cleaner.referenceTracking.cleanCheckpoints", c, V::kBool, "false",
            "Clean checkpoint files when the reference goes away."});
}

void define_execution(Registry& r) {
  using C = Category;
  using V = ValueType;
  const C c = C::kExecutionBehavior;
  r.define({"spark.broadcast.blockSize", c, V::kBytes, "4m",
            "Block size for TorrentBroadcastFactory."});
  r.define({"spark.broadcast.checksum", c, V::kBool, "true",
            "Checksum broadcast blocks."});
  r.define({"spark.executor.cores", c, V::kInt, "32",
            "Number of task threads per executor. THE parameter this paper "
            "makes adaptive; the engine uses it as the default pool size."});
  r.define({"spark.default.parallelism", c, V::kInt, "128",
            "Default number of partitions for distributed shuffle ops."});
  r.define({"spark.executor.heartbeatInterval", c, V::kDurationSeconds, "10s",
            "Executor-to-driver heartbeat interval."});
  r.define({"spark.files.fetchTimeout", c, V::kDurationSeconds, "60s",
            "Timeout for fetching files added through addFile."});
  r.define({"spark.files.useFetchCache", c, V::kBool, "true",
            "Share a local cache of fetched files between executors."});
  r.define({"spark.files.overwrite", c, V::kBool, "false",
            "Overwrite files added through addFile."});
  r.define({"spark.files.maxPartitionBytes", c, V::kBytes, "128m",
            "Max bytes packed into one partition when reading files."});
  r.define({"spark.files.openCostInBytes", c, V::kBytes, "4m",
            "Estimated cost to open a file, in bytes scanned."});
  r.define({"spark.hadoop.cloneConf", c, V::kBool, "false",
            "Clone a Hadoop configuration per task."});
  r.define({"spark.hadoop.validateOutputSpecs", c, V::kBool, "true",
            "Validate output directories in saveAsHadoopFile."});
  r.define({"spark.storage.memoryMapThreshold", c, V::kBytes, "2m",
            "Memory-map blocks above this size when reading from disk."});
  r.define({"spark.hadoop.mapreduce.fileoutputcommitter.algorithm.version", c,
            V::kInt, "1", "File output committer algorithm version."});
}

void define_network(Registry& r) {
  using C = Category;
  using V = ValueType;
  const C c = C::kNetwork;
  r.define({"spark.rpc.message.maxSize", c, V::kInt, "128",
            "Max RPC message size in MiB (map output status etc.)."});
  r.define({"spark.blockManager.port", c, V::kInt, "0",
            "Port for all block managers to listen on."});
  r.define({"spark.driver.blockManager.port", c, V::kInt, "0",
            "Driver-specific block manager port."});
  r.define({"spark.driver.bindAddress", c, V::kString, "",
            "Address the driver binds listen sockets to."});
  r.define({"spark.driver.host", c, V::kString, "localhost",
            "Driver hostname advertised to executors."});
  r.define({"spark.driver.port", c, V::kInt, "0",
            "Driver RPC port."});
  r.define({"spark.network.timeout", c, V::kDurationSeconds, "120s",
            "Default timeout for all network interactions."});
  r.define({"spark.port.maxRetries", c, V::kInt, "16",
            "Retries when binding to a port."});
  r.define({"spark.rpc.numRetries", c, V::kInt, "3",
            "Times to retry an RPC before failing."});
  r.define({"spark.rpc.retry.wait", c, V::kDurationSeconds, "3s",
            "Wait between RPC retries."});
  r.define({"spark.rpc.askTimeout", c, V::kDurationSeconds, "120s",
            "Timeout for RPC ask operations."});
  r.define({"spark.rpc.lookupTimeout", c, V::kDurationSeconds, "120s",
            "Timeout for RPC remote endpoint lookup."});
  r.define({"spark.core.connection.ack.wait.timeout", c, V::kDurationSeconds,
            "60s", "Timeout waiting for connection acks."});
}

void define_scheduling(Registry& r) {
  using C = Category;
  using V = ValueType;
  const C c = C::kScheduling;
  r.define({"spark.cores.max", c, V::kInt, "-1",
            "Max total cores for the application (standalone/Mesos)."});
  r.define({"spark.locality.wait", c, V::kDurationSeconds, "3s",
            "Wait before giving up a locality level."});
  r.define({"spark.locality.wait.node", c, V::kDurationSeconds, "3s",
            "Locality wait for node locality."});
  r.define({"spark.locality.wait.process", c, V::kDurationSeconds, "3s",
            "Locality wait for process locality."});
  r.define({"spark.locality.wait.rack", c, V::kDurationSeconds, "3s",
            "Locality wait for rack locality."});
  r.define({"spark.scheduler.maxRegisteredResourcesWaitingTime", c,
            V::kDurationSeconds, "30s",
            "Max wait for resources to register before scheduling."});
  r.define({"spark.scheduler.minRegisteredResourcesRatio", c, V::kDouble, "0.8",
            "Resource ratio to reach before scheduling begins."});
  r.define({"spark.scheduler.mode", c, V::kString, "FIFO",
            "Job scheduling mode: FIFO or FAIR."});
  r.define({"spark.scheduler.revive.interval", c, V::kDurationSeconds, "1s",
            "Interval for the scheduler to revive worker offers."});
  r.define({"spark.scheduler.listenerbus.eventqueue.capacity", c, V::kInt,
            "10000", "Capacity of the listener bus event queue."});
  r.define({"spark.blacklist.enabled", c, V::kBool, "false",
            "Enable executor/node blacklisting."});
  r.define({"spark.blacklist.timeout", c, V::kDurationSeconds, "1h",
            "How long a blacklisted executor stays excluded."});
  r.define({"spark.blacklist.task.maxTaskAttemptsPerExecutor", c, V::kInt, "1",
            "Task retries on one executor before blacklisting it."});
  r.define({"spark.blacklist.task.maxTaskAttemptsPerNode", c, V::kInt, "2",
            "Task retries on one node before blacklisting it."});
  r.define({"spark.blacklist.stage.maxFailedTasksPerExecutor", c, V::kInt, "2",
            "Failed tasks per executor before stage-level blacklist."});
  r.define({"spark.blacklist.stage.maxFailedExecutorsPerNode", c, V::kInt, "2",
            "Blacklisted executors per node before node-level blacklist."});
  r.define({"spark.blacklist.application.maxFailedTasksPerExecutor", c, V::kInt,
            "2", "Failed tasks before app-level executor blacklist."});
  r.define({"spark.blacklist.application.maxFailedExecutorsPerNode", c, V::kInt,
            "2", "Blacklisted executors before app-level node blacklist."});
  r.define({"spark.blacklist.killBlacklistedExecutors", c, V::kBool, "false",
            "Kill executors when blacklisted for the whole application."});
  r.define({"spark.blacklist.application.fetchFailure.enabled", c, V::kBool,
            "false", "Blacklist executors immediately on fetch failure."});
  r.define({"spark.speculation", c, V::kBool, "false",
            "Enable speculative execution of slow tasks."});
  r.define({"spark.speculation.interval", c, V::kDurationSeconds, "100ms",
            "How often to check for speculatable tasks."});
  r.define({"spark.speculation.multiplier", c, V::kDouble, "1.5",
            "How many times slower than median before speculation."});
  r.define({"spark.speculation.quantile", c, V::kDouble, "0.75",
            "Fraction of tasks finished before speculation starts."});
  r.define({"spark.task.cpus", c, V::kInt, "1",
            "Cores allocated per task."});
  r.define({"spark.task.maxFailures", c, V::kInt, "4",
            "Task failures before giving up on the job."});
  r.define({"spark.task.reaper.enabled", c, V::kBool, "false",
            "Monitor killed tasks until they actually finish."});
  r.define({"spark.task.reaper.pollingInterval", c, V::kDurationSeconds, "10s",
            "Polling interval for the task reaper."});
  r.define({"spark.task.reaper.threadDump", c, V::kBool, "true",
            "Log thread dumps during task reaping."});
  r.define({"spark.task.reaper.killTimeout", c, V::kDurationSeconds, "-1",
            "Deadline after which the JVM is killed for a stuck task."});
  r.define({"spark.stage.maxConsecutiveAttempts", c, V::kInt, "4",
            "Consecutive stage attempts before aborting."});
  r.define({"spark.scheduler.blacklist.unschedulableTaskSetTimeout", c,
            V::kDurationSeconds, "120s",
            "Timeout before aborting an unschedulable task set."});
}

void define_dynamic_allocation(Registry& r) {
  using C = Category;
  using V = ValueType;
  const C c = C::kDynamicAllocation;
  r.define({"spark.dynamicAllocation.enabled", c, V::kBool, "false",
            "Scale executor count with workload."});
  r.define({"spark.dynamicAllocation.executorIdleTimeout", c,
            V::kDurationSeconds, "60s",
            "Remove an executor idle for this long."});
  r.define({"spark.dynamicAllocation.cachedExecutorIdleTimeout", c,
            V::kDurationSeconds, "-1",
            "Idle timeout for executors holding cached blocks."});
  r.define({"spark.dynamicAllocation.initialExecutors", c, V::kInt, "0",
            "Initial executor count with dynamic allocation."});
  r.define({"spark.dynamicAllocation.maxExecutors", c, V::kInt, "2147483647",
            "Upper bound on executors."});
  r.define({"spark.dynamicAllocation.minExecutors", c, V::kInt, "0",
            "Lower bound on executors."});
  r.define({"spark.dynamicAllocation.executorAllocationRatio", c, V::kDouble,
            "1.0", "Target executors relative to full parallelism."});
  r.define({"spark.dynamicAllocation.schedulerBacklogTimeout", c,
            V::kDurationSeconds, "1s",
            "Backlog duration before requesting executors."});
  r.define({"spark.dynamicAllocation.sustainedSchedulerBacklogTimeout", c,
            V::kDurationSeconds, "1s",
            "Backlog duration before subsequent executor requests."});
}

// saex.* extension parameters — the knobs of this paper's contribution.
// Registered in their own category so functional_count() still reports 117.
void define_adaptive_extension(Registry& r) {
  using C = Category;
  using V = ValueType;
  const C c = C::kAdaptiveExtension;
  r.define({"saex.executor.policy", c, V::kString, "default",
            "Thread-pool policy: default | static | dynamic | aimd."});
  r.define({"saex.static.ioThreads", c, V::kInt, "8",
            "Static solution: thread count used in I/O-tagged stages (>= 1)."});
  r.define({"saex.dynamic.minThreads", c, V::kInt, "2",
            "Hill climber lower bound c_min (paper: 2); >= 1 and <= the "
            "resolved maxThreads."});
  r.define({"saex.dynamic.maxThreads", c, V::kInt, "0",
            "Hill climber upper bound c_max; 0 = number of virtual cores."});
  r.define({"saex.dynamic.rollback", c, V::kBool, "true",
            "Roll back to the previous size and freeze when zeta worsens "
            "(ablation: keep climbing instead)."});
  r.define({"saex.dynamic.descending", c, V::kBool, "false",
            "Ablation: start at c_max and halve instead of ascending."});
  r.define({"saex.dynamic.metric", c, V::kString, "zeta",
            "Analyzed metric: zeta | epoll | diskutil (ablation); other "
            "values are rejected."});
  r.define({"saex.dynamic.intervalMode", c, V::kString, "completions",
            "Interval definition: completions (I_j = j task completions) | "
            "fixed (ablation: an interval closes at the first task "
            "completion 5 s or more after it opened); other values are "
            "rejected."});
  r.define({"saex.scheduler.mode", c, V::kString, "FIFO",
            "Multi-job slot arbitration in saex::serve: FIFO | FAIR."});
  r.define({"saex.scheduler.pools", c, V::kString, "",
            "FAIR pool definitions: 'name:weight:minShare,...' (e.g. "
            "'interactive:3:32,batch:1:0'). Unlisted pools get weight 1, "
            "minShare 0."});
  r.define({"saex.serve.maxConcurrentJobs", c, V::kInt, "8",
            "Admission control: jobs running at once (>= 1); excess "
            "submissions queue."});
  r.define({"saex.serve.maxQueuedJobs", c, V::kInt, "64",
            "Admission control: queue capacity (>= 0); submissions beyond it "
            "are rejected with a typed result (backpressure)."});
  r.define({"saex.serve.maxJobsPerClient", c, V::kInt, "0",
            "Admission control: per-client cap on queued+running jobs "
            "(0 = unlimited)."});
  r.define({"saex.serve.defaultDeadline", c, V::kDurationSeconds, "-1",
            "Relative deadline (from submit) applied to trace jobs that "
            "carry none of their own; negative disables deadlines."});
  r.define({"saex.serve.enforceDeadlines", c, V::kBool, "true",
            "Act on deadlines: shed queued jobs whose deadline lapses, "
            "cancel running jobs past deadline. False still records SLO "
            "attainment (observe-only baseline)."});
  r.define({"saex.serve.maxRetries", c, V::kInt, "0",
            "Failed/aborted jobs re-enter the admission queue up to this "
            "many times (0 = a failure settles immediately)."});
  r.define({"saex.serve.retryBackoff", c, V::kDurationSeconds, "1s",
            "Base retry delay; retry k waits backoff*2^(k-1) (plus jitter), "
            "capped by retryBackoffMax."});
  r.define({"saex.serve.retryBackoffMax", c, V::kDurationSeconds, "30s",
            "Upper bound on the exponential retry delay."});
  r.define({"saex.serve.retryJitter", c, V::kDouble, "0.5",
            "Jitter fraction: the delay is scaled by (1 + jitter*u), u drawn "
            "per (submission, attempt) from the server seed."});
  r.define({"saex.resilience.quarantine", c, V::kBool, "false",
            "Node health circuit breaker: quarantine nodes accumulating "
            "executor-lost/fetch-failure faults out of offers and dynamic "
            "allocation (see docs/FAULT_MODEL.md)."});
  r.define({"saex.resilience.quarantineThreshold", c, V::kInt, "3",
            "Faults within quarantineWindow that trip a node's breaker."});
  r.define({"saex.resilience.quarantineWindow", c, V::kDurationSeconds, "30s",
            "Sliding window over which node faults are counted."});
  r.define({"saex.resilience.quarantineCooldown", c, V::kDurationSeconds, "60s",
            "Quarantine duration before a half-open probe; the first task "
            "outcome on the probed node closes or re-opens the breaker."});
  r.define({"saex.sim.taskFailureProb", c, V::kDouble, "0",
            "Fault injection: probability a task attempt dies partway "
            "through (exercises spark.task.maxFailures retries)."});
  r.define({"saex.fault.enabled", c, V::kBool, "false",
            "Master switch for the seeded FaultPlan (saex::fault); when "
            "false every other saex.fault.* key is inert."});
  r.define({"saex.fault.seed", c, V::kInt, "0",
            "Extra seed XORed into the cluster seed for fault randomness "
            "(shuffle-fetch drops); same seed => bitwise-identical replay."});
  r.define({"saex.fault.killNode", c, V::kInt, "-1",
            "Executor (node id) the kill trigger targets; -1 disables the "
            "kill injection."});
  r.define({"saex.fault.killTime", c, V::kDurationSeconds, "-1",
            "Simulated time at which the target executor dies; negative "
            "disables the time trigger."});
  r.define({"saex.fault.killAfterTasks", c, V::kInt, "-1",
            "Kill the target executor once this many task attempts finished "
            "cluster-wide; negative disables the count trigger."});
  r.define({"saex.fault.slowNode", c, V::kInt, "-1",
            "Node whose disk degrades at slowTime (straggler injection); "
            "-1 disables."});
  r.define({"saex.fault.slowFactor", c, V::kDouble, "0.3",
            "Disk speed factor applied to the slow node (fraction of its "
            "configured bandwidth, > 0)."});
  r.define({"saex.fault.slowTime", c, V::kDurationSeconds, "0s",
            "Simulated time at which the slow node's disk degrades."});
  r.define({"saex.fault.fetchFailProb", c, V::kDouble, "0",
            "Probability an individual remote shuffle fetch is dropped "
            "(transient network fault); the attempt fails and is retried."});
  r.define({"saex.fault.fetchFailNode", c, V::kInt, "-1",
            "Restrict fetchFailProb drops to fetches whose SOURCE is this "
            "node (a flaky NIC); -1 applies the probability to every "
            "remote fetch."});
  r.define({"saex.fault.chaos", c, V::kString, "",
            "Chaos churn schedule: comma/whitespace-separated "
            "kill:<node>@<seconds> and rejoin:<node>@<seconds> events "
            "(# comments allowed); empty disables. See docs/FAULT_MODEL.md."});
  r.define({"saex.storage.policy", c, V::kString, "none",
            "Per-node BlockManager eviction policy: none (no active "
            "eviction; an overflowing write spills its own tail) | lru | "
            "clock | s3fifo | tinylfu."});
  r.define({"saex.storage.memory", c, V::kBytes, "0",
            "Per-node storage budget override; 0 derives it from "
            "spark.memory.fraction x spark.memory.storageFraction (or "
            "spark.storage.memoryFraction under spark.memory.useLegacyMode) "
            "x node memory."});
  r.define({"saex.shard.count", c, V::kInt, "1",
            "Sharded serve path: number of independent driver/scheduler "
            "shards the cluster's nodes are partitioned into (1 = the "
            "single-driver path)."});
  r.define({"saex.shard.workers", c, V::kInt, "1",
            "Worker threads replaying the shards; execution-only (any "
            "worker count produces bitwise-identical reports for a fixed "
            "shard count)."});
  r.define({"saex.shard.placement", c, V::kString, "hash",
            "Cross-shard job router: hash (by client id) | least (greedy "
            "least-estimated-load in arrival order) | rr (round-robin)."});
  r.define({"saex.aqe.enabled", c, V::kBool, "false",
            "Adaptive query execution (src/aqe/): re-plan shuffle consumer "
            "stages at submission from actual map-output statistics "
            "(partition coalescing + skew splitting). Off keeps every "
            "schedule bitwise identical to the pre-AQE engine."});
  r.define({"saex.aqe.targetPartitionBytes", c, V::kBytes, "64m",
            "Coalesce target: adjacent reduce partitions merge until each "
            "physical task fetches at least this many bytes; also the split "
            "granularity for skewed partitions."});
  r.define({"saex.aqe.skewFactor", c, V::kDouble, "4.0",
            "A reduce partition larger than skewFactor x the median "
            "partition size (and larger than targetPartitionBytes) is split "
            "into range sub-tasks."});
  r.define({"saex.aqe.maxSplits", c, V::kInt, "16",
            "Upper bound on sub-tasks a skewed partition splits into."});
  r.define({"saex.aqe.minPartitions", c, V::kInt, "0",
            "Coalescing never reduces a stage below this many tasks "
            "(0 = spark.default.parallelism)."});
  r.define({"saex.net.flowBatch", c, V::kBool, "false",
            "Ignored: every remote shuffle block is fetched chunk by chunk. "
            "Accepted so that configurations which set it still load."});
  r.define({"saex.eventLog.enabled", c, V::kBool, "true",
            "Application event log (the spark.eventLog analogue exported by "
            "saexsim --eventlog/--trace). Disable for very long serve "
            "replays: the log grows by several events per task and is "
            "unbounded live memory."});
}

Registry build_registry() {
  Registry r;
  define_shuffle(r);
  define_compression_serialization(r);
  define_memory(r);
  define_execution(r);
  define_network(r);
  define_scheduling(r);
  define_dynamic_allocation(r);
  define_adaptive_extension(r);
  return r;
}

}  // namespace

const Registry& spark_registry() {
  static const Registry registry = build_registry();
  return registry;
}

}  // namespace saex::conf
