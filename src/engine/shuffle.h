// Shuffle bookkeeping: map-output registry and reduce-side fetch planning.
//
// Map tasks write their shuffle output to the local disk (like Spark's
// sort-based shuffle) and register the byte count here. A reduce task for
// partition r fetches 1/R of every map node's output: the local share is a
// disk read, remote shares are a remote disk read + network transfer.
//
// Registration is per map partition with first-commit-wins semantics, as in
// Spark's MapOutputTracker: when speculation races two copies of the same
// map task, only the first StatusUpdate commits its output — the loser's
// bytes are discarded, never double-counted. Losing a node loses every
// partition committed there (on_node_lost), which is what drives
// lineage-based resubmission of the producing stage.
//
// Reduce-partition weights: by default every reduce partition gets an equal
// share of each node's output (remainder bytes to low partitions). A shuffle
// may instead carry a Zipf skew exponent (ShuffleTraits::skew, registered by
// the driver via set_reduce_skew), under which partition r's weight is
// 1/(r+1)^alpha. Both cases share one cumulative-share formulation, so range
// (coalesced) and sub-range (skew-split) fetch plans are exact: bytes never
// appear or vanish when the AQE layer re-tiles a reduce stage.
//
// Each shuffle keeps its committed output as a node-sorted list holding only
// the nodes with output (like Spark's MapOutputTracker, which keeps one
// status per map task, not one per node), so planning a reduce task's
// fetches costs O(map nodes), not O(cluster nodes): idle nodes cost nothing.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "common/units.h"
#include "engine/stage.h"

namespace saex::engine {

/// One entry of a fetch plan: `bytes` (never 0) to pull from the map output
/// committed on node `src`. ExecutorRuntime::launch turns each entry into
/// one input segment (a remote one is fetched chunk by chunk).
struct FetchShare {
  int src;
  Bytes bytes;
};

class ShuffleManager {
 public:
  explicit ShuffleManager(int num_nodes) : num_nodes_(num_nodes) {}

  /// Commits map `partition`'s output bytes on `node`. Returns false (and
  /// changes nothing) if that partition already has a committed copy — a
  /// losing speculative duplicate.
  bool register_map_output(int shuffle_id, int node, int partition,
                           Bytes bytes);

  /// Declares the shuffle's reduce-partition weight profile: partition r
  /// weighs 1/(r+1)^alpha (alpha <= 0 keeps the uniform default). Idempotent;
  /// must be set before the first fetch_plan/stats call for the shuffle.
  void set_reduce_skew(int shuffle_id, double alpha);

  /// The non-empty shares a reduce task running on node `reader` fetches
  /// for `slice` of the shuffle's `num_partitions` logical reduce
  /// partitions: partitions [first, last], or sub-split `split_index` of
  /// `num_splits` when first == last. Stage::reduce_slice gives every task
  /// its slice; the identity tiling is {p, p, 0, 1}. Rotation order: the
  /// first node >= `reader` (the local share, if the reader holds output),
  /// then the nodes above it, wrapping around to the lowest, so fetch load
  /// spreads evenly. Deterministic: with uniform weights, remainder bytes go
  /// to low partitions.
  std::vector<FetchShare> fetch_plan(int shuffle_id, const ReduceSlice& slice,
                                     int num_partitions, int reader) const;

  /// Per-reduce-partition fetch totals (summed over nodes) — the map-output
  /// statistics the AQE planner re-plans from. O(map nodes * R), no
  /// commit-array rescans; deterministic for a deterministic replay.
  std::vector<Bytes> reduce_partition_bytes(int shuffle_id,
                                            int num_partitions) const;

  /// Per-MAP-partition committed output bytes (index = map partition,
  /// 0 for uncommitted). A copy of the commit registry exposed as a stats
  /// accessor so callers never walk commit arrays themselves.
  std::vector<Bytes> map_partition_bytes(int shuffle_id) const;

  /// Drops every partition committed on `node` (executor loss). Returns
  /// shuffle id -> the map partitions that must be recomputed, for the
  /// driver's lineage-based stage resubmission.
  std::map<int, std::vector<int>> on_node_lost(int node);

  Bytes total_output(int shuffle_id) const noexcept;
  Bytes node_output(int shuffle_id, int node) const noexcept;
  bool has_shuffle(int shuffle_id) const noexcept {
    // True once any commit was ever registered — node loss may later remove
    // every commit, but the shuffle itself stays known (as with the old
    // outputs_ map, whose entry survived on_node_lost).
    return shuffle_id >= 0 &&
           static_cast<size_t>(shuffle_id) < shuffles_.size() &&
           shuffles_[static_cast<size_t>(shuffle_id)].created;
  }
  bool partition_committed(int shuffle_id, int partition) const noexcept;
  /// Commits rejected because the partition was already committed (always 0
  /// unless speculation raced two copies past the driver's cancellation).
  int64_t duplicate_commits() const noexcept { return duplicate_commits_; }

 private:
  struct NodeOutput {
    int node;
    Bytes bytes;  // committed bytes on `node`, never 0
  };
  // Shuffle ids are handed out densely from 0 (DagScheduler's counter), so
  // everything is directly indexed: no map hops on the per-task commit and
  // fetch-plan paths.
  struct ShuffleState {
    bool created = false;
    double skew = 0.0;                 // reduce-weight Zipf exponent (0=uniform)
    std::vector<NodeOutput> outputs;   // sorted by node, nodes with output only
    std::vector<int32_t> commit_node;  // partition -> node (-1: uncommitted)
    std::vector<Bytes> commit_bytes;   // partition -> committed copy's bytes
    // Lazily built cumulative weight prefix for the skewed case: cum_w[r] =
    // (sum of w_0..w_{r-1}) / (sum of all R weights), size R+1. Rebuilt when
    // a different R is requested (R is fixed per shuffle in practice).
    mutable std::vector<double> cum_w;
  };

  ShuffleState& state_for(int shuffle_id);
  // Bytes of `total` assigned to reduce partitions [0, upto) of R. Exact
  // (cum_share(R) == total), monotone, and for the uniform case bitwise
  // equal to the historical base+remainder split.
  static Bytes cum_share(const ShuffleState& s, Bytes total, int upto, int R);
  static void ensure_weights(const ShuffleState& s, int R);

  int num_nodes_;
  std::vector<ShuffleState> shuffles_;  // indexed by shuffle id
  int64_t duplicate_commits_ = 0;
};

}  // namespace saex::engine
