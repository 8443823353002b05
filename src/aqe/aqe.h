// Adaptive query execution (AQE): runtime re-planning of shuffle consumer
// stages from the *actual* map-output statistics the ShuffleManager holds
// once every producer task has committed.
//
// Spark 3.x introduced this loop on top of the DAG scheduler; here it
// composes with the paper's self-adaptive executors: AQE fixes the task
// *shapes* (how many reduce tasks, over which partition ranges) while the
// per-interval MAPE-K hill-climb in src/adaptive/ fixes the thread-pool
// width that executes them.
//
// Two re-plan rules, applied at the shuffle-stage boundary:
//
//   * Partition coalescing — adjacent logical reduce partitions are merged
//     until each physical task fetches at least saex.aqe.targetPartitionBytes
//     (amortizes per-task fixed costs on tiny-partition shapes).
//   * Skew splitting — a partition larger than saex.aqe.skewFactor × the
//     median partition size is split into up to saex.aqe.maxSplits range
//     sub-tasks (breaks the one-hot-partition critical path). The sub-task
//     byte apportionment is exact (floor-difference), so the split re-merges
//     deterministically to the original partition's bytes.
//
// The identity plan is represented by an EMPTY slice list: with AQE off (or
// when re-planning changes nothing) the Stage is untouched and every task
// fetches its own partition {p, p, 0, 1} — bitwise-identical schedules.
#pragma once

#include <vector>

#include "common/units.h"
#include "engine/stage.h"

namespace saex::conf {
class Config;
}

namespace saex::aqe {

/// Typed view of the saex.aqe.* configuration keys.
struct AqeOptions {
  bool enabled = false;
  Bytes target_partition_bytes = 64 * kMiB;
  double skew_factor = 4.0;
  int max_splits = 16;
  // Coalescing floor; 0 = the driver substitutes spark.default.parallelism
  // (Spark's own minPartitionNum default), so coalescing never starves the
  // cluster's task slots.
  int min_partitions = 0;

  /// Reads and validates the saex.aqe.* keys; throws conf::ConfigError on
  /// out-of-range values (non-positive target, skewFactor < 1, ...).
  static AqeOptions from_config(const conf::Config& config);
};

/// Result of re-planning one shuffle consumer stage.
struct AqePlan {
  std::vector<engine::ReduceSlice> slices;
  bool identity = true;      // one task per partition, no splits
  int merged_partitions = 0; // partitions absorbed into a wider neighbor task
  int split_partitions = 0;  // partitions broken into sub-tasks
};

/// Plans the physical reduce tiling for a stage whose logical partitions
/// received `partition_bytes` (from ShuffleManager::reduce_partition_bytes,
/// summed over the stage's input shuffles). Deterministic: depends only on
/// the byte vector and options.
AqePlan plan_reduce_stage(const std::vector<Bytes>& partition_bytes,
                          const AqeOptions& opt);

}  // namespace saex::aqe
