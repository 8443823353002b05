// saex::storage — per-node BlockManager and pluggable eviction policies:
// canned-trace conformance for lru/clock/s3fifo/tinylfu, budget and
// spill/drop accounting, pinning and the same-RDD exclusion rule,
// CacheRegistry re-init semantics, and the engine integration paths
// (spill-then-reload determinism, evicted-block recompute from lineage,
// recompute interplay with executor kills, cache-locality scheduling).
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
#include "metrics/registry.h"
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
  BlockManager bm(0, {mib(100), "none", true});
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
  BlockManager bm(0, {0, "lru", true});
  EXPECT_EQ(bm.reserve(cache_block(1, 0), gib(50)).granted, gib(50));
  EXPECT_EQ(bm.reserve(cache_block(2, 0), gib(50)).granted, gib(50));
  EXPECT_EQ(bm.evictions(), 0);
}

TEST(BlockManager, LruSpillsCommittedVictimToAdmitNewBlock) {
  BlockManager bm(0, {mib(100), "lru", /*spill_on_evict=*/true});
  bm.reserve(cache_block(1, 0), mib(60));
  bm.commit(cache_block(1, 0));
  const auto r = bm.reserve(cache_block(2, 0), mib(60));
  EXPECT_EQ(r.granted, mib(60));
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_EQ(r.evicted[0].id.id, 1);
  EXPECT_EQ(r.evicted[0].mem_bytes, mib(60));
  EXPECT_TRUE(r.evicted[0].spilled);
  EXPECT_EQ(bm.mem_used(), mib(60));
  EXPECT_EQ(bm.evicted_spill_bytes(), mib(60));
  EXPECT_EQ(bm.num_blocks(), 2u);
}

TEST(BlockManager, SpillOnEvictFalseDropsTheVictimEntirely) {
  BlockManager bm(0, {mib(100), "lru", /*spill_on_evict=*/false});
  bm.reserve(cache_block(1, 0), mib(60));
  bm.commit(cache_block(1, 0));
  const auto r = bm.reserve(cache_block(2, 0), mib(60));
  ASSERT_EQ(r.evicted.size(), 1u);
  EXPECT_FALSE(r.evicted[0].spilled);
  EXPECT_EQ(bm.evicted_drop_bytes(), mib(60));
  EXPECT_EQ(bm.num_blocks(), 1u);  // only the incoming block remains
}

TEST(BlockManager, UncommittedBlocksArePinnedAgainstEviction) {
  BlockManager bm(0, {mib(100), "lru", true});
  bm.reserve(cache_block(1, 0), mib(60));  // no commit: still pinned
  const auto r = bm.reserve(cache_block(2, 0), mib(60));
  EXPECT_EQ(r.granted, mib(40));  // nothing evictable, partial grant
  EXPECT_TRUE(r.evicted.empty());
  EXPECT_EQ(bm.evictions(), 0);
}

TEST(BlockManager, NeverEvictsPartitionsOfTheRddBeingWritten) {
  BlockManager bm(0, {mib(100), "lru", true});
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
  BlockManager bm(3, {mib(100), "lru", true});
  bm.reserve(cache_block(1, 0), mib(10));
  bm.commit(cache_block(1, 0));
  bm.touch(cache_block(1, 0), /*mem_hit=*/true);
  bm.touch(cache_block(1, 0), /*mem_hit=*/true);
  bm.touch(cache_block(1, 0), /*mem_hit=*/false);
  EXPECT_EQ(bm.hits(), 2);
  EXPECT_EQ(bm.misses(), 1);
}

TEST(BlockManager, DropAllForgetsEverything) {
  BlockManager bm(0, {mib(100), "lru", true});
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

conf::Config storage_config(const std::string& policy, Bytes budget,
                            bool spill_on_evict = true) {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  c.set("saex.storage.policy", policy);
  if (budget > 0) c.set("saex.storage.memory", strfmt::format("{}", budget));
  c.set_bool("saex.storage.spillOnEvict", spill_on_evict);
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

// Two cached RDDs fighting over one tight budget with spillOnEvict=false:
// materializing B drops A's partitions, and the next read of A must rebuild
// them from lineage instead of aborting the job.
TEST(StorageEngine, EvictedBlocksAreRecomputedFromLineage) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config c = storage_config("lru", mib(80), /*spill_on_evict=*/false);
  engine::SparkContext ctx(cluster, std::move(c));
  ctx.dfs().load_input("/A/in", mib(256), 4);
  ctx.dfs().load_input("/B/in", mib(512), 4);
  const engine::Rdd a =
      ctx.text_file("/A/in").map("parseA", {0.05, 1.0}).cache();
  const engine::Rdd b =
      ctx.text_file("/B/in").map("parseB", {0.05, 1.0}).cache();

  ctx.run_job(a.map("scanA1", {0.05, 0.001}).collect(), "warm-a");
  ctx.run_job(b.map("scanB1", {0.05, 0.001}).collect(), "evict-a");
  const engine::JobReport r =
      ctx.run_job(a.map("scanA2", {0.05, 0.001}).collect(), "reload-a");

  EXPECT_FALSE(r.failed);
  EXPECT_GT(ctx.metrics().counter_value("storage/recomputes"), 0.0);
  EXPECT_EQ(ctx.recovering_caches(), 0);  // every rebuild drained
}

// The recompute path composes with executor loss: partitions dropped by
// eviction are rebuilt on the surviving nodes after a kill.
TEST(StorageEngine, RecomputeSurvivesExecutorKill) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config c = storage_config("lru", mib(48), /*spill_on_evict=*/false);
  engine::SparkContext ctx(cluster, std::move(c));
  ctx.dfs().load_input("/A/in", mib(256), 4);
  ctx.dfs().load_input("/B/in", mib(512), 4);
  const engine::Rdd a =
      ctx.text_file("/A/in").map("parseA", {0.05, 1.0}).cache();
  const engine::Rdd b =
      ctx.text_file("/B/in").map("parseB", {0.05, 1.0}).cache();

  ctx.run_job(a.map("scanA1", {0.05, 0.001}).collect(), "warm-a");
  ctx.run_job(b.map("scanB1", {0.05, 0.001}).collect(), "evict-a");
  ctx.kill_executor(0);
  EXPECT_EQ(ctx.storage().node(0).num_blocks(), 0u);  // blocks died with it

  const engine::JobReport r =
      ctx.run_job(a.map("scanA2", {0.05, 0.001}).collect(), "reload-a");
  EXPECT_FALSE(r.failed);
  EXPECT_GT(ctx.metrics().counter_value("storage/recomputes"), 0.0);
}

// A running reader trips over partitions that another job's cache writes
// dropped (spillOnEvict=false) after the reader was submitted: the trip
// parks its task set, the producing stage rebuilds every dropped partition
// once, and both jobs finish.
TEST(StorageEngine, ReaderTrippingOverADroppedPartitionIsParkedAndRebuilt) {
  for (const int cores : {1, 2, 4, 8}) {
    hw::Cluster cluster(hw::ClusterSpec::das5(4));
    conf::Config c = storage_config("lru", mib(48), /*spill_on_evict=*/false);
    c.set("saex.executor.policy", "default");
    c.set_int("spark.executor.cores", cores);
    engine::SparkContext ctx(cluster, std::move(c));
    ctx.dfs().load_input("/A/in", mib(128), 4, mib(2));
    ctx.dfs().load_input("/C/in", mib(512), 4, mib(8));
    const engine::Rdd a =
        ctx.text_file("/A/in").map("parseA", {0.05, 1.0}).cache();
    const engine::Rdd cached_c =
        ctx.text_file("/C/in").map("parseC", {0.01, 1.0}).cache();
    ctx.run_job(a.count(), "warm-a");

    int finished = 0, failed = 0;
    const auto on_done = [&](engine::JobReport r) {
      ++finished;
      if (r.failed) ++failed;
    };
    ctx.submit_job(cached_c.count(), "fill-c", "default", on_done);
    ctx.submit_job(a.map("scanA", {2.0, 0.001}).collect(), "scan-a",
                   "default", on_done);
    while (finished < 2 && cluster.sim().step()) {
    }

    int trips = 0;
    for (const engine::Event& e :
         ctx.event_log().of_kind(engine::EventKind::kFetchFailed)) {
      if (e.value < 0) ++trips;  // no shuffle id: a cached-partition miss
    }
    EXPECT_EQ(finished, 2) << cores << " cores";
    EXPECT_EQ(failed, 0) << cores << " cores";
    EXPECT_GT(trips, 0) << cores << " cores";
    // All 64 partitions of A were dropped and rebuilt exactly once.
    EXPECT_EQ(ctx.metrics().counter_value("storage/recomputes"), 64.0)
        << cores << " cores";
    EXPECT_EQ(ctx.recovering_caches(), 0) << cores << " cores";
  }
}

TEST(StorageEngine, ShuffleLocalityPreferenceIsDeterministic) {
  auto run = [] {
    hw::Cluster cluster(hw::ClusterSpec::das5(4));
    conf::Config c;
    c.set("spark.default.parallelism", "16");
    c.set_bool("saex.storage.shuffleLocality", true);
    engine::SparkContext ctx(cluster, std::move(c));
    const workloads::WorkloadSpec spec = workloads::terasort(gib(2));
    std::string out;
    for (const engine::Rdd& action : spec.build(ctx)) {
      out += ctx.run_job(action, spec.name).render();
    }
    return out;
  };
  const std::string a = run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run());
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
