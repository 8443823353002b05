#include "storage/block_manager.h"

#include <cassert>

#include "prof/profiler.h"

namespace saex::storage {

BlockManager::BlockManager(int node_id, const Options& options)
    : node_id_(node_id),
      options_(options),
      policy_(make_eviction_policy(options.policy)) {}

bool BlockManager::over_budget(Bytes incoming) const noexcept {
  return options_.memory_budget > 0 &&
         mem_used_ + incoming > options_.memory_budget;
}

BlockManager::Reservation BlockManager::reserve(BlockId id, Bytes bytes) {
  SAEX_PROF_SCOPE(kStorage);
  Reservation res;
  Block& b = block(id.key());
  b.pinned = true;

  // Active eviction: free committed blocks until the chunk fits (or nothing
  // evictable remains). The victim loop is bounded by the resident count:
  // victim() removes its pick from the policy, and skipped picks are stashed
  // outside it until the loop exits.
  if (policy_ != nullptr) {
    std::vector<BlockKey> skipped;
    while (over_budget(bytes) && !policy_->empty()) {
      const BlockKey vkey = policy_->victim();
      const auto it = blocks_.find(vkey);
      assert(it != blocks_.end() && "policy tracked an unknown block");
      Block& victim = it->second;
      const BlockId vid = BlockId::from_key(vkey);
      // Never evict blocks of the RDD currently being written (Spark's
      // MemoryStore rule): spilling a sibling partition to admit this one
      // only trades one partition of the cache under construction for
      // another, at the cost of a disk write. Pinned blocks (mid-write on
      // this node) are likewise untouchable.
      if (victim.pinned || vid.id == id.id) {
        skipped.push_back(vkey);
        continue;
      }
      mem_used_ -= victim.mem_bytes;
      ++evictions_;
      evict_spill_bytes_ += victim.mem_bytes;
      res.evicted.push_back(Evicted{vid, victim.mem_bytes});
      blocks_.erase(it);
    }
    // Re-track the survivors in selection order (deterministic; they rejoin
    // at each policy's insertion point).
    for (const BlockKey key : skipped) policy_->on_insert(key);
  }

  // Grant whatever fits; the remainder is the caller's to spill. With
  // policy "none" this is exactly the legacy reserve_storage arithmetic.
  const Bytes room =
      options_.memory_budget > 0
          ? (mem_used_ < options_.memory_budget
                 ? options_.memory_budget - mem_used_
                 : 0)
          : bytes;
  res.granted = bytes < room ? bytes : room;
  b.mem_bytes += res.granted;
  mem_used_ += res.granted;
  return res;
}

void BlockManager::commit(BlockId id) {
  const auto it = blocks_.find(id.key());
  if (it == blocks_.end()) return;
  if (it->second.mem_bytes == 0) {
    blocks_.erase(it);
    return;
  }
  it->second.pinned = false;
  if (policy_ != nullptr) policy_->on_insert(id.key());
}

void BlockManager::release(BlockId id) {
  const auto it = blocks_.find(id.key());
  if (it == blocks_.end() || !it->second.pinned) return;
  mem_used_ -= it->second.mem_bytes;
  if (policy_ != nullptr) policy_->on_remove(id.key());
  blocks_.erase(it);
}

void BlockManager::touch(BlockId id, bool mem_hit) {
  SAEX_PROF_SCOPE(kStorage);
  if (mem_hit) {
    ++hits_;
  } else {
    ++misses_;
  }
  if (policy_ != nullptr) policy_->on_access(id.key());
}

void BlockManager::drop_all() {
  for (const auto& [key, b] : blocks_) {
    if (policy_ != nullptr) policy_->on_remove(key);
  }
  blocks_.clear();
  mem_used_ = 0;
}

// ---------------------------------------------------------------------------
// StorageManager
// ---------------------------------------------------------------------------

StorageManager::StorageManager(int num_nodes,
                               const BlockManager::Options& options)
    : policy_name_(options.policy) {
  nodes_.reserve(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    nodes_.push_back(std::make_unique<BlockManager>(n, options));
  }
}

int64_t StorageManager::total_hits() const noexcept {
  int64_t sum = 0;
  for (const auto& n : nodes_) sum += n->hits();
  return sum;
}

int64_t StorageManager::total_misses() const noexcept {
  int64_t sum = 0;
  for (const auto& n : nodes_) sum += n->misses();
  return sum;
}

int64_t StorageManager::total_evictions() const noexcept {
  int64_t sum = 0;
  for (const auto& n : nodes_) sum += n->evictions();
  return sum;
}

Bytes StorageManager::total_evicted_spill_bytes() const noexcept {
  Bytes sum = 0;
  for (const auto& n : nodes_) sum += n->evicted_spill_bytes();
  return sum;
}

double StorageManager::hit_rate() const noexcept {
  const int64_t h = total_hits();
  const int64_t m = total_misses();
  return h + m == 0 ? 1.0 : static_cast<double>(h) / static_cast<double>(h + m);
}

}  // namespace saex::storage
