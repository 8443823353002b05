// Per-node block storage: the executor-process memory that holds cached RDD
// partitions under a bounded budget, mirroring Spark's MemoryStore. Bytes on
// disk have their own owners: ShuffleManager holds map-output bytes and the
// CacheRegistry each cache partition's spilled tail.
//
// The BlockManager is pure deterministic bookkeeping — it decides *what*
// happens (how many bytes of a write fit in memory, which committed blocks
// the eviction policy sacrifices to make room) and reports the consequences
// to the caller, which owns the physical side effects (charging spill writes
// to the simulated hw::Disk, updating the cluster-wide CacheRegistry). That
// keeps this layer free of simulation dependencies and unit-testable on
// canned traces.
//
// Budget semantics by policy:
//   none           — no active eviction: a write is granted memory up to the
//                    remaining budget and its own overflow spills (the
//                    pre-BlockManager semantics, bit-for-bit).
//   lru/clock/...  — the policy evicts committed blocks to admit the write;
//                    every victim spills to disk and leaves the map.
//
// Blocks being written are pinned (never their own victim, never anyone
// else's) until commit() or release(); reads touch() the policy so
// recency/frequency state reflects the access trace. Every committed entry
// holds bytes in memory.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/units.h"
#include "storage/eviction.h"

namespace saex::storage {

/// Identity of a block: (cache id, partition) packed into a BlockKey so
/// eviction policies stay POD-keyed.
struct BlockId {
  int id = 0;
  int partition = 0;

  BlockKey key() const noexcept {
    return (static_cast<BlockKey>(static_cast<uint32_t>(id)) << 32) |
           static_cast<BlockKey>(static_cast<uint32_t>(partition));
  }
  static BlockId from_key(BlockKey key) noexcept {
    BlockId b;
    b.id = static_cast<int>(static_cast<uint32_t>(key >> 32));
    b.partition = static_cast<int>(static_cast<uint32_t>(key));
    return b;
  }
};

class BlockManager {
 public:
  struct Options {
    Bytes memory_budget = 0;  // 0 = unbounded
    std::string policy = "none";
  };

  /// One block evicted to make room for a reservation; the caller spills
  /// its bytes.
  struct Evicted {
    BlockId id;
    Bytes mem_bytes = 0;  // bytes that left memory
  };

  struct Reservation {
    Bytes granted = 0;             // bytes of the request admitted to memory
    std::vector<Evicted> evicted;  // consequences the caller must apply
  };

  BlockManager(int node_id, const Options& options);

  // --- write path ----------------------------------------------------------

  /// Grows `id`'s in-memory footprint by up to `bytes` (one chunk of an
  /// in-progress write), evicting committed blocks if the policy allows.
  /// The block is pinned until commit(). Ungranted bytes are the caller's
  /// to spill through its write channel.
  Reservation reserve(BlockId id, Bytes bytes);

  /// Finishes a write: unpins the block and hands it to the eviction policy
  /// (a block granted no memory leaves the map instead).
  void commit(BlockId id);

  /// Abandons a write (the attempt failed or was cancelled): erases the
  /// pinned block and returns its bytes to the budget. No-op for a block
  /// that is not being written.
  void release(BlockId id);

  // --- read path -----------------------------------------------------------

  /// Records a read of `id` for the hit/miss counters and the policy's
  /// recency/frequency state. `mem_hit` = the read was served entirely from
  /// memory (no disk segment).
  void touch(BlockId id, bool mem_hit);

  /// Executor death: every block this process held is gone.
  void drop_all();

  // --- introspection -------------------------------------------------------

  int node_id() const noexcept { return node_id_; }
  Bytes memory_budget() const noexcept { return options_.memory_budget; }
  Bytes mem_used() const noexcept { return mem_used_; }
  const std::string& policy_name() const noexcept { return options_.policy; }
  size_t num_blocks() const noexcept { return blocks_.size(); }

  int64_t hits() const noexcept { return hits_; }
  int64_t misses() const noexcept { return misses_; }
  int64_t evictions() const noexcept { return evictions_; }
  Bytes evicted_spill_bytes() const noexcept { return evict_spill_bytes_; }

 private:
  struct Block {
    Bytes mem_bytes = 0;
    bool pinned = false;  // write in progress: not evictable
  };

  Block& block(BlockKey key) { return blocks_[key]; }
  bool over_budget(Bytes incoming) const noexcept;

  int node_id_;
  Options options_;
  std::unique_ptr<EvictionPolicy> policy_;  // null for "none"
  std::map<BlockKey, Block> blocks_;
  Bytes mem_used_ = 0;

  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  Bytes evict_spill_bytes_ = 0;
};

/// Cluster-wide owner of one BlockManager per node, plus the aggregate
/// counters benches report.
class StorageManager {
 public:
  StorageManager(int num_nodes, const BlockManager::Options& options);

  BlockManager& node(int node_id) {
    return *nodes_[static_cast<size_t>(node_id)];
  }
  const BlockManager& node(int node_id) const {
    return *nodes_[static_cast<size_t>(node_id)];
  }
  int num_nodes() const noexcept { return static_cast<int>(nodes_.size()); }
  const std::string& policy_name() const noexcept { return policy_name_; }

  int64_t total_hits() const noexcept;
  int64_t total_misses() const noexcept;
  int64_t total_evictions() const noexcept;
  Bytes total_evicted_spill_bytes() const noexcept;
  /// hits / (hits + misses); 1.0 when no cached reads happened.
  double hit_rate() const noexcept;

 private:
  std::vector<std::unique_ptr<BlockManager>> nodes_;
  std::string policy_name_;
};

}  // namespace saex::storage
