// Physical stages and task specifications produced by the DAG scheduler.
#pragma once

#include <string>
#include <vector>

#include "common/units.h"

namespace saex::engine {

enum class StageSource { kDfs, kShuffle, kCached, kNone };
enum class StageSink { kShuffleWrite, kDfsWrite, kDriver };

/// One physical reduce task of an AQE-re-planned shuffle stage: a contiguous
/// range [first, last] of the logical reduce partitions (partition
/// coalescing), or — when first == last and num_splits > 1 — sub-range
/// `split_index` of a skew-split hot partition. The identity tiling (one
/// slice per partition, no splits) is represented by an EMPTY slice list on
/// the Stage; Stage::reduce_slice gives its slices as {p, p, 0, 1}.
struct ReduceSlice {
  int first = 0;
  int last = 0;
  int split_index = 0;
  int num_splits = 1;

  bool operator==(const ReduceSlice& o) const noexcept {
    return first == o.first && last == o.last &&
           split_index == o.split_index && num_splits == o.num_splits;
  }
};

struct Stage {
  int uid = 0;       // unique across the application
  int ordinal = 0;   // execution position within the job (paper's stage number)
  std::string name;
  bool io_tagged = false;  // §4: reads or writes the DFS

  StageSource source = StageSource::kNone;
  std::string input_path;              // kDfs
  std::vector<int> in_shuffle_ids;     // kShuffle (two for joins)
  int in_cache_id = -1;                // kCached

  int num_tasks = 0;
  Bytes input_bytes = 0;  // statically propagated total

  // Reduce-side physical traits of the consumed shuffle (see ShuffleTraits).
  double spill_fraction = 0.0;
  double scatter = 1.0;

  // AQE (src/aqe/): the LOGICAL reduce partition count of the consumed
  // shuffle (0 = num_tasks; set for kShuffle stages by the DAG scheduler so
  // it survives a re-plan that changes num_tasks), and the physical task
  // tiling chosen by the runtime re-planner. Empty slices = identity tiling
  // (one task per logical partition — the only shape that exists with AQE
  // off).
  int reduce_partitions = 0;
  std::vector<ReduceSlice> reduce_slices;
  // Zipf exponent of the produced shuffle's reduce-partition weights
  // (ShuffleTraits::skew of the boundary node; 0 = uniform). The driver
  // registers it with the ShuffleManager before the stage runs.
  double out_skew = 0.0;

  // Pipelined cost aggregate over the stage's narrow chain.
  double cpu_seconds_per_input_mib = 0.0;
  double output_ratio = 1.0;  // stage output bytes / stage input bytes

  // Mid-chain cache materialization (bytes relative to stage input).
  int cache_out_id = -1;
  double cache_ratio = 0.0;

  StageSink sink = StageSink::kDriver;
  int out_shuffle_id = -1;
  std::string out_path;
  int out_replication = 1;

  std::vector<int> parent_uids;

  Bytes output_bytes() const noexcept {
    return static_cast<Bytes>(static_cast<double>(input_bytes) * output_ratio);
  }
  /// Task `p`'s slice of the consumed shuffle, out of sliced_partitions().
  ReduceSlice reduce_slice(int p) const {
    return reduce_slices.empty() ? ReduceSlice{p, p, 0, 1}
                                 : reduce_slices[static_cast<size_t>(p)];
  }
  int sliced_partitions() const noexcept {
    return reduce_slices.empty() ? num_tasks : reduce_partitions;
  }
};

/// One schedulable unit: processes one partition of a stage.
struct TaskSpec {
  int stage_uid = 0;
  int partition = 0;
  Bytes input_bytes = 0;
  double cpu_seconds = 0.0;
  Bytes output_bytes = 0;
  Bytes cache_bytes = 0;
  // Preferred nodes (block replicas); empty = no locality preference.
  std::vector<int> preferred_nodes;
};

}  // namespace saex::engine
