// Shard topology: a static, contiguous partition of the cluster's nodes into
// per-shard sub-clusters, each driven by its own scheduler and event kernel.
//
// Shards are as even as possible: with N nodes and S shards the first
// N mod S shards get one extra node. Node ids are global in user-facing
// surfaces (CLI flags, fault injection) and translated to shard-local ids at
// the boundary, so a 10k-node scenario reads identically whether it runs on
// one kernel or sixteen.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "conf/config.h"

namespace saex::shard {

/// Parsed saex.shard.* options.
struct ShardOptions {
  int count = 1;             // saex.shard.count: drivers/kernels
  int workers = 1;           // saex.shard.workers: OS threads replaying them
  std::string placement = "hash";  // saex.shard.placement: hash | least | rr

  /// Reads and validates saex.shard.*; throws conf::ConfigError on a count or
  /// worker count < 1, or an unknown placement policy.
  static ShardOptions from_config(const conf::Config& config);
};

class ShardTopology {
 public:
  /// Partitions `total_nodes` nodes into `shard_count` contiguous shards.
  /// Throws conf::ConfigError if the count is < 1 or exceeds the node count.
  ShardTopology(int total_nodes, int shard_count);

  int shards() const noexcept { return shard_count_; }
  int total_nodes() const noexcept { return total_nodes_; }

  /// Nodes owned by `shard`.
  int shard_size(int shard) const noexcept {
    return begin_[static_cast<size_t>(shard) + 1] -
           begin_[static_cast<size_t>(shard)];
  }
  /// First global node id owned by `shard`.
  int shard_begin(int shard) const noexcept {
    return begin_[static_cast<size_t>(shard)];
  }
  /// Owning shard of a global node id (O(1): ranges are near-uniform).
  int shard_of(int global_node) const noexcept;
  /// Global node id -> id within its owning shard's sub-cluster.
  int local_node(int global_node) const noexcept {
    return global_node - shard_begin(shard_of(global_node));
  }
  /// Inverse of local_node.
  int global_node(int shard, int local) const noexcept {
    return shard_begin(shard) + local;
  }

 private:
  int total_nodes_ = 0;
  int shard_count_ = 0;
  std::vector<int> begin_;  // size shards+1; begin_[s]..begin_[s+1) is shard s
};

}  // namespace saex::shard
