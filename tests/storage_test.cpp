// saex::storage — per-node BlockManager and pluggable eviction policies:
// canned-trace conformance for lru/clock/s3fifo/tinylfu, budget and spill
// accounting, pinning, release of abandoned writes and the same-RDD
// exclusion rule, CacheRegistry re-init semantics, and the engine
// integration paths (spill-then-reload determinism, hit/miss counting, and
// the memory of failed cache-writing attempts).
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/format.h"
#include "common/units.h"
#include "conf/config.h"
#include "engine/context.h"
#include "hw/cluster.h"
#include "storage/block_manager.h"
#include "storage/eviction.h"
#include "workloads/workloads.h"

namespace saex {
namespace {

using storage::BlockId;
using storage::BlockManager;
using storage::EvictionPolicy;
using storage::make_eviction_policy;

// ---------- eviction-policy conformance on canned traces ----------

std::vector<storage::BlockKey> drain(EvictionPolicy& p) {
  std::vector<storage::BlockKey> order;
  while (!p.empty()) order.push_back(p.victim());
  return order;
}

TEST(EvictionPolicy, FactoryKnowsEveryName) {
  EXPECT_EQ(make_eviction_policy("none"), nullptr);
  for (const char* name : {"lru", "clock", "s3fifo", "tinylfu"}) {
    const auto p = make_eviction_policy(name);
    ASSERT_NE(p, nullptr) << name;
    EXPECT_STREQ(p->name(), name);
    EXPECT_TRUE(p->empty());
  }
  EXPECT_THROW(make_eviction_policy("arc"), std::invalid_argument);
  EXPECT_TRUE(storage::is_valid_eviction_policy("s3fifo"));
  EXPECT_FALSE(storage::is_valid_eviction_policy("fifo2"));
}

TEST(EvictionPolicy, LruEvictsLeastRecentlyUsed) {
  const auto p = make_eviction_policy("lru");
  p->on_insert(1);
  p->on_insert(2);
  p->on_insert(3);
  p->on_access(1);  // 1 becomes most recent
  EXPECT_EQ(drain(*p), (std::vector<storage::BlockKey>{2, 3, 1}));
}

TEST(EvictionPolicy, LruReinsertCountsAsAccess) {
  const auto p = make_eviction_policy("lru");
  p->on_insert(1);
  p->on_insert(2);
  p->on_insert(1);  // duplicate insert = touch
  EXPECT_EQ(p->size(), 2u);
  EXPECT_EQ(p->victim(), 2u);
}

TEST(EvictionPolicy, ClockGivesSecondChanceToReferencedBlocks) {
  const auto p = make_eviction_policy("clock");
  p->on_insert(1);
  p->on_insert(2);
  p->on_insert(3);
  p->on_access(1);  // sets 1's reference bit
  // The hand clears 1's bit, passes it over, and takes 2; then 3; then 1.
  EXPECT_EQ(drain(*p), (std::vector<storage::BlockKey>{2, 3, 1}));
}

TEST(EvictionPolicy, ClockSurvivesRemoveUnderTheHand) {
  const auto p = make_eviction_policy("clock");
  p->on_insert(1);
  p->on_insert(2);
  p->on_insert(3);
  EXPECT_EQ(p->victim(), 1u);  // hand now rests on 2
  p->on_remove(2);
  EXPECT_EQ(p->victim(), 3u);
  EXPECT_TRUE(p->empty());
}

TEST(EvictionPolicy, S3FifoOneHitWondersLeaveThroughSmall) {
  const auto p = make_eviction_policy("s3fifo");
  for (storage::BlockKey k = 1; k <= 4; ++k) p->on_insert(k);
  p->on_access(2);  // 2 proved itself: promoted instead of evicted
  EXPECT_EQ(p->victim(), 1u);
  EXPECT_EQ(p->victim(), 3u);  // 2 moved to main, 3 is next one-hit wonder
  EXPECT_EQ(p->size(), 2u);
}

TEST(EvictionPolicy, S3FifoGhostHitReinsertsIntoMain) {
  const auto p = make_eviction_policy("s3fifo");
  p->on_insert(1);
  EXPECT_EQ(p->victim(), 1u);  // leaves through small, remembered as ghost
  p->on_insert(1);             // ghost hit: admitted straight to main
  p->on_insert(2);             // newcomer in small
  EXPECT_EQ(p->victim(), 2u);  // small is drained before main
  EXPECT_EQ(p->victim(), 1u);
}

TEST(EvictionPolicy, TinyLfuEvictsColdestFifoOnTies) {
  const auto p = make_eviction_policy("tinylfu");
  p->on_insert(1);
  p->on_insert(2);
  p->on_insert(3);
  p->on_access(3);
  p->on_access(3);
  p->on_access(2);
  // Frequencies: 1 -> 1, 2 -> 2, 3 -> 3; coldest first, then by age.
  EXPECT_EQ(drain(*p), (std::vector<storage::BlockKey>{1, 2, 3}));
}

TEST(EvictionPolicy, TinyLfuTiesKeepInsertionOrder) {
  const auto p = make_eviction_policy("tinylfu");
  p->on_insert(7);
  p->on_insert(8);
  p->on_insert(9);
  EXPECT_EQ(drain(*p), (std::vector<storage::BlockKey>{7, 8, 9}));
}

// ---------- BlockManager bookkeeping ----------

BlockId cache_block(int cache_id, int partition) {
  return BlockId{cache_id, partition};
}

TEST(BlockId, KeyRoundTripsBothKinds) {
  for (const BlockId id : {cache_block(17, 4093), cache_block(3, 127)}) {
    const BlockId back = BlockId::from_key(id.key());
    EXPECT_EQ(back.id, id.id);
    EXPECT_EQ(back.partition, id.partition);
  }
  // The cache id sits in the high word, the partition in the low one.
  EXPECT_EQ(cache_block(17, 4093).key(), (storage::BlockKey{17} << 32) | 4093);
}

TEST(BlockManager, PolicyNoneGrantsUpToBudgetAndNeverEvicts) {
  BlockManager bm(0, {mib(100), "none"});
  const auto r1 = bm.reserve(cache_block(1, 0), mib(60));
  EXPECT_EQ(r1.granted, mib(60));
  bm.commit(cache_block(1, 0));
  const auto r2 = bm.reserve(cache_block(2, 0), mib(60));
  EXPECT_EQ(r2.granted, mib(40));  // the remainder is the caller's to spill
  EXPECT_TRUE(r2.evicted.empty());
  EXPECT_EQ(bm.mem_used(), mib(100));
  EXPECT_EQ(bm.evictions(), 0);
}

TEST(BlockManager, ZeroBudgetMeansUnbounded) {
  BlockManager bm(0, {0, "lru"});
  EXPECT_EQ(bm.reserve(cache_block(1, 0), gib(50)).granted, gib(50));
  EXPECT_EQ(bm.reserve(cache_block(2, 0), gib(50)).granted, gib(50));
  EXPECT_EQ(bm.evictions(), 0);
}

TEST(BlockManager, LruSpillsCommittedVictimToAdmitNewBlock) {
  BlockManager bm(0, {mib(100), "lru"});
  bm.reserve(cache_block(1, 0), mib(60));
  bm.commit(cache_block(1, 0));
  const auto r = bm.reserve(cache_block(2, 0), mib(60));
  EXPECT_EQ(r.granted, mib(60));
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].id.id, 1);
  EXPECT_EQ(r.evicted[0].mem_bytes, mib(60));
  EXPECT_EQ(bm.mem_used(), mib(60));
  EXPECT_EQ(bm.evicted_spill_bytes(), mib(60));
  EXPECT_EQ(bm.num_blocks(), 1u);  // the spilled victim left the map
}

// The map holds only blocks with bytes in memory, under every policy: each
// 60 MiB write through a 100 MiB budget spills the one resident block.
TEST(BlockManager, EveryPolicyKeepsOnlyResidentBlocks) {
  for (const char* policy : {"lru", "clock", "s3fifo", "tinylfu"}) {
    BlockManager bm(0, {mib(100), policy});
    for (int cache_id = 1; cache_id <= 8; ++cache_id) {
      bm.reserve(cache_block(cache_id, 0), mib(60));
      bm.commit(cache_block(cache_id, 0));
    }
    EXPECT_EQ(bm.num_blocks(), 1u) << policy;
    EXPECT_EQ(bm.mem_used(), mib(60)) << policy;
    EXPECT_EQ(bm.evictions(), 7) << policy;
  }
}

TEST(BlockManager, BlockGrantedNoMemoryLeavesTheMapAtCommit) {
  BlockManager bm(0, {mib(100), "none"});
  bm.reserve(cache_block(1, 0), mib(100));
  bm.commit(cache_block(1, 0));
  EXPECT_EQ(bm.reserve(cache_block(2, 0), mib(10)).granted, 0u);
  bm.commit(cache_block(2, 0));
  EXPECT_EQ(bm.num_blocks(), 1u);
}

TEST(BlockManager, ReleaseReturnsAnAbandonedWritesMemory) {
  BlockManager bm(0, {mib(100), "lru"});
  bm.reserve(cache_block(1, 0), mib(60));
  bm.release(cache_block(1, 0));
  EXPECT_EQ(bm.mem_used(), 0u);
  EXPECT_EQ(bm.num_blocks(), 0u);
  // A retry starts from an empty entry and gets the whole budget back.
  EXPECT_EQ(bm.reserve(cache_block(1, 0), mib(100)).granted, mib(100));
  bm.commit(cache_block(1, 0));
  // A committed block is not an abandoned write: release leaves it alone.
  bm.release(cache_block(1, 0));
  EXPECT_EQ(bm.mem_used(), mib(100));
  EXPECT_EQ(bm.num_blocks(), 1u);
}

TEST(BlockManager, UncommittedBlocksArePinnedAgainstEviction) {
  BlockManager bm(0, {mib(100), "lru"});
  bm.reserve(cache_block(1, 0), mib(60));  // no commit: still pinned
  const auto r = bm.reserve(cache_block(2, 0), mib(60));
  EXPECT_EQ(r.granted, mib(40));  // nothing evictable, partial grant
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_EQ(bm.evictions(), 0);
}

TEST(BlockManager, NeverEvictsPartitionsOfTheRddBeingWritten) {
  BlockManager bm(0, {mib(100), "lru"});
  bm.reserve(cache_block(1, 0), mib(60));
  bm.commit(cache_block(1, 0));
  // A sibling partition of cache 1 must not sacrifice partition 0 (that
  // recompute would ping-pong); it takes the partial grant instead.
  const auto same = bm.reserve(cache_block(1, 1), mib(60));
  EXPECT_EQ(same.granted, mib(40));
  EXPECT_TRUE(same.evicted.empty());
  bm.commit(cache_block(1, 1));
  // A different cache may evict both of them.
  const auto other = bm.reserve(cache_block(2, 0), mib(100));
  EXPECT_EQ(other.evicted.size(), 2u);
  EXPECT_EQ(other.granted, mib(100));
}

TEST(BlockManager, TouchFeedsHitMissCountersAndMetrics) {
  BlockManager bm(3, {mib(100), "lru"});
  bm.reserve(cache_block(1, 0), mib(10));
  bm.commit(cache_block(1, 0));
  bm.touch(cache_block(1, 0), /*mem_hit=*/true);
  bm.touch(cache_block(1, 0), /*mem_hit=*/true);
  bm.touch(cache_block(1, 0), /*mem_hit=*/false);
  EXPECT_EQ(bm.hits(), 2);
  EXPECT_EQ(bm.misses(), 1);
}

TEST(BlockManager, DropAllForgetsEverything) {
  BlockManager bm(0, {mib(100), "lru"});
  bm.reserve(cache_block(1, 0), mib(40));
  bm.commit(cache_block(1, 0));
  bm.drop_all();
  EXPECT_EQ(bm.mem_used(), 0u);
  EXPECT_EQ(bm.num_blocks(), 0u);
  // And the policy's tracking is empty: a full-budget write evicts nothing.
  EXPECT_TRUE(bm.reserve(cache_block(2, 0), mib(100)).evicted.empty());
}

// ---------- CacheRegistry re-init semantics ----------

TEST(CacheRegistry, InitIsIdempotentForMatchingPartitionCount) {
  engine::CacheRegistry reg;
  reg.init(1, 8);
  reg.partition(1, 3).node = 2;
  reg.partition(1, 3).mem_bytes = mib(5);
  reg.init(1, 8);  // same shape: keeps live partition state
  EXPECT_EQ(reg.partition(1, 3).node, 2);
  EXPECT_EQ(reg.partition(1, 3).mem_bytes, mib(5));
}

TEST(CacheRegistry, InitWithDifferentPartitionCountThrows) {
  engine::CacheRegistry reg;
  reg.init(1, 8);
  EXPECT_THROW(reg.init(1, 4), std::logic_error);
  EXPECT_THROW(reg.init(1, 16), std::logic_error);
}

// ---------- engine integration ----------

conf::Config storage_config(const std::string& policy, Bytes budget) {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  c.set("saex.storage.policy", policy);
  if (budget > 0) c.set("saex.storage.memory", strfmt::format("{}", budget));
  return c;
}

// Runs `spec` on a fresh 4-node cluster and returns the concatenated
// per-job reports plus the storage counters.
std::string run_workload(const workloads::WorkloadSpec& spec,
                         conf::Config config, int64_t* evictions = nullptr,
                         double* hit_rate = nullptr) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  engine::SparkContext ctx(cluster, std::move(config));
  std::string out;
  for (const engine::Rdd& action : spec.build(ctx)) {
    out += ctx.run_job(action, spec.name).render();
    out += "\n";
  }
  if (evictions != nullptr) *evictions = ctx.storage().total_evictions();
  if (hit_rate != nullptr) *hit_rate = ctx.storage().hit_rate();
  return out;
}

std::string run_kmeans(conf::Config config) {
  return run_workload(workloads::kmeans(mib(512), 2), std::move(config));
}

// 4 cached RDDs x 128 MiB contending for the per-node budget: the only
// workload shape where eviction policies actually fire (a lone cache can
// never evict itself under the same-RDD exclusion rule).
std::string run_churn(conf::Config config, int64_t* evictions = nullptr,
                      double* hit_rate = nullptr) {
  return run_workload(workloads::cache_churn(mib(128), 4, 2),
                      std::move(config), evictions, hit_rate);
}

TEST(StorageEngine, UnknownPolicyIsATypedConfigError) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config c;
  c.set("saex.storage.policy", "mru");
  EXPECT_THROW(engine::SparkContext(cluster, std::move(c)), conf::ConfigError);
}

TEST(StorageEngine, UnboundedLruMatchesPolicyNoneBitwise) {
  // With a budget nothing overflows, an active policy never fires: the run
  // must reproduce the no-BlockManager behavior byte for byte.
  const std::string none = run_kmeans(storage_config("none", gib(1024)));
  const std::string lru = run_kmeans(storage_config("lru", gib(1024)));
  EXPECT_EQ(none, lru);
}

TEST(StorageEngine, SpillThenReloadIsDeterministic) {
  for (const char* policy : {"lru", "clock", "s3fifo", "tinylfu"}) {
    int64_t evictions1 = 0, evictions2 = 0;
    const std::string a =
        run_churn(storage_config(policy, mib(64)), &evictions1);
    const std::string b =
        run_churn(storage_config(policy, mib(64)), &evictions2);
    EXPECT_EQ(a, b) << policy;
    EXPECT_EQ(evictions1, evictions2) << policy;
    EXPECT_GT(evictions1, 0) << policy;  // the budget is genuinely tight
  }
}

TEST(StorageEngine, BoundedRunCountsHitsAndMisses) {
  int64_t evictions = 0;
  double hit_rate = 0.0;
  run_churn(storage_config("lru", mib(64)), &evictions, &hit_rate);
  EXPECT_GT(evictions, 0);
  EXPECT_GT(hit_rate, 0.0);
  EXPECT_LT(hit_rate, 1.0);  // some reads had to go through disk
}

// A cache-writing attempt that fails on a live executor never commits its
// block: its memory goes back to the budget, so the retries leave exactly
// the four committed 128 MiB partitions of a failure-free run.
TEST(StorageEngine, FailedCacheWriteReleasesItsReservation) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config c = storage_config("none", 0);
  c.set_double("saex.sim.taskFailureProb", 0.2);
  c.set_int("spark.task.maxFailures", 20);
  engine::SparkContext ctx(cluster, std::move(c));
  const workloads::WorkloadSpec spec = workloads::kmeans(mib(512), 2);
  for (const engine::Rdd& action : spec.build(ctx)) {
    EXPECT_FALSE(ctx.run_job(action, spec.name).failed);
  }
  ASSERT_GT(ctx.scheduler().tasks_failed(), 0);
  Bytes mem_used = 0;
  size_t blocks = 0;
  for (int n = 0; n < ctx.storage().num_nodes(); ++n) {
    mem_used += ctx.storage().node(n).mem_used();
    blocks += ctx.storage().node(n).num_blocks();
  }
  EXPECT_EQ(mem_used, mib(512));
  EXPECT_EQ(blocks, 4u);
}

// The BlockManager holds cached partitions only: a shuffle job with no
// cache() leaves every node's block map empty. Map-output bytes are the
// ShuffleManager's to hold.
TEST(StorageEngine, ShuffleJobWithoutCacheHoldsNoBlocks) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  engine::SparkContext ctx(cluster, std::move(c));
  const workloads::WorkloadSpec spec = workloads::terasort(gib(2));
  for (const engine::Rdd& action : spec.build(ctx)) {
    EXPECT_FALSE(ctx.run_job(action, spec.name).failed);
  }
  EXPECT_GT(ctx.shuffles().total_output(/*shuffle_id=*/0), 0u);
  for (int n = 0; n < ctx.storage().num_nodes(); ++n) {
    EXPECT_EQ(ctx.storage().node(n).num_blocks(), 0u) << "node " << n;
  }
}

}  // namespace
}  // namespace saex
