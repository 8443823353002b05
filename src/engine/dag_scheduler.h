// DAG scheduler: splits a logical plan into pipelined stages at shuffle
// boundaries, exactly as Spark's DAGScheduler does.
//
//  * Narrow ops (map/filter/flatMap) are fused into their stage; their CPU
//    cost and size ratios are folded into stage-level aggregates.
//  * kShuffle/kJoin nodes end the producing stage (whose sink becomes a
//    shuffle write) and start a consuming stage.
//  * Stages whose source is textFile or whose sink is saveAs*File are
//    I/O-tagged (paper §4's structural heuristic).
//  * Total byte sizes are propagated statically through the deterministic
//    cost model, so the scheduler can size every task before execution.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dfs/dfs.h"
#include "engine/plan.h"
#include "engine/stage.h"

namespace saex::engine {

struct JobPlan {
  std::vector<Stage> stages;  // in execution (topological) order

  const Stage* stage_by_uid(int uid) const noexcept {
    for (const auto& s : stages) {
      if (s.uid == uid) return &s;
    }
    return nullptr;
  }
};

class DagScheduler {
 public:
  /// `default_parallelism` sizes shuffles whose node left partitions at 0.
  DagScheduler(const dfs::Dfs& dfs, int default_parallelism);

  /// Builds the stage DAG for the action `final` (throws std::runtime_error
  /// on malformed plans, e.g. reading a missing input file).
  JobPlan build(const Rdd& final);

 private:
  // Returns the uid of the stage that materializes `node`'s output, creating
  // it (and its ancestors) if necessary. `out` collects stages in topo order.
  int build_stage_for(const RddNodeRef& node, std::vector<Stage>& out);
  // `skew`: reduce-partition weight exponent of the shuffle being produced
  // (from the consuming wide op's ShuffleTraits; joins pass their traits to
  // both implicit input shuffles).
  int materialize_shuffle(const RddNodeRef& node, std::vector<Stage>& out,
                          double skew);

  const dfs::Dfs* dfs_;
  int default_parallelism_;
  int next_stage_uid_ = 0;
  int next_shuffle_id_ = 0;
  int next_cache_id_ = 0;
  // node id -> shuffle id already materialized (plans can share subtrees)
  std::map<int, int> shuffle_by_node_;
  std::map<int, int> stage_by_node_;
  std::map<int, int> cache_by_node_;
  // shuffle id -> producing stage uid / statically propagated output bytes.
  // Both persist across build() calls: later jobs reuse shuffle outputs that
  // earlier jobs materialized (as Spark does).
  std::map<int, int> shuffle_producer_;
  std::map<int, Bytes> shuffle_bytes_;
  // cache id -> (partitions, bytes) of the cached RDD
  struct CacheInfo {
    int partitions;
    Bytes bytes;
    int producer_uid;
  };
  std::map<int, CacheInfo> caches_;

 public:
  const std::map<int, CacheInfo>& caches() const noexcept { return caches_; }
};

}  // namespace saex::engine
