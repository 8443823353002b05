// Shuffle manager, executor runtime (task state machine, ε/µ accounting,
// cache spill) and driver-side task scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "engine/executor_runtime.h"
#include "engine/shuffle.h"
#include "engine/task_scheduler.h"
#include "hw/cluster.h"

namespace saex::engine {
namespace {

// ---------- ShuffleManager ----------

// A sparse fetch plan as one entry per node, 0 where it has no share. Every
// share is non-zero and names its source node once.
std::vector<Bytes> densify(const std::vector<FetchShare>& plan, int nodes) {
  std::vector<Bytes> dense(static_cast<size_t>(nodes), 0);
  for (const FetchShare& share : plan) {
    EXPECT_NE(share.bytes, 0) << "node " << share.src;
    EXPECT_EQ(dense.at(static_cast<size_t>(share.src)), 0)
        << "node " << share.src << " listed twice";
    dense.at(static_cast<size_t>(share.src)) = share.bytes;
  }
  return dense;
}

std::vector<std::pair<int, Bytes>> as_pairs(const std::vector<FetchShare>& plan) {
  std::vector<std::pair<int, Bytes>> out;
  for (const FetchShare& share : plan) out.emplace_back(share.src, share.bytes);
  return out;
}

TEST(ShuffleManager, FetchPlanConservesBytes) {
  ShuffleManager sm(4);
  sm.register_map_output(0, 0, 0, 1000);
  sm.register_map_output(0, 1, 1, 777);
  sm.register_map_output(0, 2, 2, 1);
  const int R = 7;
  std::vector<Bytes> totals(4, 0);
  for (int r = 0; r < R; ++r) {
    const auto plan =
        densify(sm.fetch_plan(0, ReduceSlice{r, r, 0, 1}, R, /*reader=*/r % 4), 4);
    for (int n = 0; n < 4; ++n) totals[static_cast<size_t>(n)] += plan[static_cast<size_t>(n)];
  }
  EXPECT_EQ(totals[0], 1000);
  EXPECT_EQ(totals[1], 777);
  EXPECT_EQ(totals[2], 1);
  EXPECT_EQ(totals[3], 0);
  EXPECT_EQ(sm.total_output(0), 1778);
}

TEST(ShuffleManager, AccumulatesMultipleMapTasks) {
  ShuffleManager sm(2);
  sm.register_map_output(3, 0, 0, 100);
  sm.register_map_output(3, 0, 1, 150);
  EXPECT_EQ(sm.node_output(3, 0), 250);
  EXPECT_TRUE(sm.has_shuffle(3));
  EXPECT_FALSE(sm.has_shuffle(4));
}

TEST(ShuffleManager, UnknownShuffleGivesEmptyPlan) {
  ShuffleManager sm(3);
  const auto sparse = sm.fetch_plan(9, ReduceSlice{0, 0, 0, 1}, 4, /*reader=*/1);
  EXPECT_TRUE(sparse.empty());
  const auto plan = densify(sparse, 3);
  for (const Bytes b : plan) EXPECT_EQ(b, 0);
  EXPECT_EQ(sm.total_output(9), 0);
}

// Reference model of the pre-flattening ShuffleManager: nested maps keyed by
// shuffle -> node byte totals and shuffle -> partition commit records, and
// the dense fetch plan (one entry per cluster node) with its rotation. The
// flat array implementation and its sparse, node-sorted plan must be
// observably identical to it.
struct MapShuffleRef {
  explicit MapShuffleRef(int nodes) : num_nodes(nodes) {}

  void set_reduce_skew(int shuffle, double alpha) { skew[shuffle] = alpha; }

  // Bytes of `total` that reduce partitions [0, upto) of R receive: the
  // uniform base+remainder split, or the normalized Zipf weight prefix.
  Bytes cum_share(int shuffle, Bytes total, int upto, int R) const {
    if (upto <= 0) return 0;
    if (upto >= R) return total;
    const auto it = skew.find(shuffle);
    if (it == skew.end()) {
      return static_cast<Bytes>(upto) * (total / R) +
             std::min<Bytes>(upto, total % R);
    }
    double sum = 0.0;
    double below = 0.0;
    for (int r = 0; r < R; ++r) {
      sum += std::pow(static_cast<double>(r + 1), -it->second);
      if (r + 1 == upto) below = sum;
    }
    return static_cast<Bytes>(static_cast<double>(total) * (below / sum));
  }

  // Every node's bytes for `slice` of R partitions, 0 where it holds none.
  std::vector<Bytes> fetch_plan(int shuffle, const ReduceSlice& slice,
                                int R) const {
    std::vector<Bytes> plan(static_cast<size_t>(num_nodes), 0);
    for (int n = 0; n < num_nodes; ++n) {
      const Bytes total = node_output(shuffle, n);
      const Bytes share = cum_share(shuffle, total, slice.last + 1, R) -
                          cum_share(shuffle, total, slice.first, R);
      const Bytes k = slice.num_splits;
      plan[static_cast<size_t>(n)] =
          share * (slice.split_index + 1) / k - share * slice.split_index / k;
    }
    return plan;
  }

  // The non-empty entries a reader on `node_id` visits: (node_id + i) % n.
  static std::vector<std::pair<int, Bytes>> rotate_fetch_plan(
      const std::vector<Bytes>& plan, int node_id) {
    const int n = static_cast<int>(plan.size());
    std::vector<std::pair<int, Bytes>> out;
    for (int i = 0; i < n; ++i) {
      const int src = (node_id + i) % n;
      if (plan[static_cast<size_t>(src)] != 0) {
        out.emplace_back(src, plan[static_cast<size_t>(src)]);
      }
    }
    return out;
  }

  bool register_map_output(int shuffle, int node, int partition, Bytes bytes) {
    auto& commits = commits_by_shuffle[shuffle];
    outputs.try_emplace(shuffle);  // shuffle becomes known even on duplicates
    if (commits.count(partition)) return false;
    commits[partition] = {node, bytes};
    outputs[shuffle][node] += bytes;
    return true;
  }

  std::map<int, std::vector<int>> on_node_lost(int node) {
    std::map<int, std::vector<int>> lost;
    for (auto& [shuffle, commits] : commits_by_shuffle) {
      for (auto it = commits.begin(); it != commits.end();) {
        if (it->second.first == node) {
          outputs[shuffle][node] -= it->second.second;
          lost[shuffle].push_back(it->first);
          it = commits.erase(it);
        } else {
          ++it;
        }
      }
    }
    return lost;
  }

  Bytes node_output(int shuffle, int node) const {
    auto it = outputs.find(shuffle);
    if (it == outputs.end()) return 0;
    auto nit = it->second.find(node);
    return nit == it->second.end() ? 0 : nit->second;
  }

  bool partition_committed(int shuffle, int partition) const {
    auto it = commits_by_shuffle.find(shuffle);
    return it != commits_by_shuffle.end() && it->second.count(partition) > 0;
  }

  int num_nodes;
  std::map<int, double> skew;  // shuffle -> Zipf exponent (absent: uniform)
  std::map<int, std::map<int, Bytes>> outputs;
  std::map<int, std::map<int, std::pair<int, Bytes>>> commits_by_shuffle;
};

TEST(ShuffleManager, OnNodeLostMatchesMapReferenceModel) {
  // Two clusters: 4 nodes that all commit, and 64 nodes with commits on only
  // a handful of them, so most readers hold no output and the sparse plan's
  // rotation has to start between, before or after the committing nodes.
  struct Cluster {
    int nodes;
    std::vector<int> committers;
  };
  for (const Cluster& cluster :
       {Cluster{4, {0, 1, 2, 3}}, Cluster{64, {3, 17, 18, 40, 63}}}) {
    SCOPED_TRACE(testing::Message() << cluster.nodes << " nodes");
    const int kNodes = cluster.nodes;
    const int kShuffles = 3;
    const int kPartitions = 20;  // 16 random commits + 4 zero-byte ones
    const int R = 8;
    ShuffleManager sm(kNodes);
    MapShuffleRef ref(kNodes);
    // Shuffle 1 carries Zipf skew 1.2; shuffles 0 and 2 are uniform.
    sm.set_reduce_skew(1, 1.2);
    ref.set_reduce_skew(1, 1.2);
    auto committer = [&](uint64_t draw) {
      return cluster.committers[draw % cluster.committers.size()];
    };

    // Deterministic pseudo-random commit pattern, including duplicate
    // commits (speculative losers) that both implementations must reject
    // identically.
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng]() {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    for (int i = 0; i < 200; ++i) {
      const int shuffle = static_cast<int>(next() % kShuffles);
      const int node = committer(next());
      const int partition = static_cast<int>(next() % 16);
      const Bytes bytes = static_cast<Bytes>(next() % 10000 + 1);
      EXPECT_EQ(sm.register_map_output(shuffle, node, partition, bytes),
                ref.register_map_output(shuffle, node, partition, bytes));
    }
    // Zero-byte commits: on a committing node, and on the node above the
    // last committer (on the 64-node cluster, one that holds no bytes
    // anywhere), then a duplicate of the latter.
    const int idle = (cluster.committers.back() + 1) % kNodes;
    for (int s = 0; s < kShuffles; ++s) {
      EXPECT_EQ(sm.register_map_output(s, cluster.committers[1], 16, 0),
                ref.register_map_output(s, cluster.committers[1], 16, 0));
      EXPECT_EQ(sm.register_map_output(s, idle, 17, 0),
                ref.register_map_output(s, idle, 17, 0));
      EXPECT_EQ(sm.register_map_output(s, idle, 17, 0),
                ref.register_map_output(s, idle, 17, 0));
    }

    // Identity slices, two ranges and the five sub-splits of partition 3.
    std::vector<ReduceSlice> slices;
    for (int p = 0; p < R; ++p) slices.push_back(ReduceSlice{p, p, 0, 1});
    slices.push_back(ReduceSlice{2, 5, 0, 1});
    slices.push_back(ReduceSlice{0, R - 1, 0, 1});
    for (int j = 0; j < 5; ++j) slices.push_back(ReduceSlice{3, 3, j, 5});

    auto expect_equivalent = [&] {
      for (int s = 0; s < kShuffles; ++s) {
        for (int n = 0; n < kNodes; ++n) {
          EXPECT_EQ(sm.node_output(s, n), ref.node_output(s, n))
              << "shuffle " << s << " node " << n;
        }
        for (int p = 0; p < kPartitions; ++p) {
          EXPECT_EQ(sm.partition_committed(s, p), ref.partition_committed(s, p))
              << "shuffle " << s << " partition " << p;
        }
        for (const ReduceSlice& slice : slices) {
          const std::vector<Bytes> dense = ref.fetch_plan(s, slice, R);
          for (int reader = 0; reader < kNodes; ++reader) {
            EXPECT_EQ(as_pairs(sm.fetch_plan(s, slice, R, reader)),
                      MapShuffleRef::rotate_fetch_plan(dense, reader))
                << "shuffle " << s << " slice {" << slice.first << ", "
                << slice.last << ", " << slice.split_index << ", "
                << slice.num_splits << "} reader " << reader;
          }
        }
      }
    };
    expect_equivalent();

    // Lose a node: same lost {shuffle -> partitions} map (values sorted the
    // same way), same surviving state, and the shuffle itself stays known.
    const int first_lost = cluster.committers[2];
    EXPECT_EQ(sm.on_node_lost(first_lost), ref.on_node_lost(first_lost));
    expect_equivalent();
    for (int s = 0; s < kShuffles; ++s) EXPECT_TRUE(sm.has_shuffle(s));

    // Recommit a few of the lost partitions elsewhere, then lose another
    // node.
    const int second_lost = cluster.committers[3];
    for (int p = 0; p < 16; p += 3) {
      const Bytes bytes = static_cast<Bytes>(next() % 5000 + 1);
      EXPECT_EQ(sm.register_map_output(1, second_lost, p, bytes),
                ref.register_map_output(1, second_lost, p, bytes));
    }
    expect_equivalent();
    EXPECT_EQ(sm.on_node_lost(second_lost), ref.on_node_lost(second_lost));
    expect_equivalent();

    // Losing a node with no commits reports nothing lost in both models.
    EXPECT_TRUE(sm.on_node_lost(first_lost).empty());
    EXPECT_TRUE(ref.on_node_lost(first_lost).empty());

    // Recommit onto the lost nodes: they rejoin the plan in node order.
    for (int p = 0; p < 16; p += 2) {
      const int node = p % 4 == 0 ? first_lost : second_lost;
      const Bytes bytes = static_cast<Bytes>(next() % 7000 + 1);
      EXPECT_EQ(sm.register_map_output(0, node, p, bytes),
                ref.register_map_output(0, node, p, bytes));
    }
    expect_equivalent();
  }
}

TEST(ShuffleManager, ShuffleStaysKnownAfterLosingEveryCommit) {
  ShuffleManager sm(2);
  sm.register_map_output(0, 1, 0, 500);
  const auto lost = sm.on_node_lost(1);
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost.at(0), std::vector<int>{0});
  EXPECT_TRUE(sm.has_shuffle(0));
  EXPECT_EQ(sm.total_output(0), 0);
  EXPECT_FALSE(sm.partition_committed(0, 0));
  // The partition can be recommitted after the loss.
  EXPECT_TRUE(sm.register_map_output(0, 0, 0, 500));
  EXPECT_EQ(sm.node_output(0, 0), 500);
}

// ---------- ExecutorRuntime ----------

struct Rig {
  // `storage` is the per-node cache budget (0 = unbounded) of policy-none
  // BlockManagers: no eviction, overflow spills.
  explicit Rig(int nodes = 2, Bytes storage = 0)
      : cluster(hw::ClusterSpec::das5(nodes)),
        dfs(cluster, {}),
        shuffles(nodes),
        blocks(nodes, storage::BlockManager::Options{storage, "none"}) {
    env.sim = &cluster.sim();
    env.cluster = &cluster;
    env.dfs = &dfs;
    env.shuffles = &shuffles;
    env.caches = &caches;
    env.storage = &blocks;
    for (int i = 0; i < nodes; ++i) {
      execs.push_back(std::make_unique<ExecutorRuntime>(env, i, 32));
    }
  }

  ExecutorRuntime& exec(int i) { return *execs[static_cast<size_t>(i)]; }

  hw::Cluster cluster;
  dfs::Dfs dfs;
  ShuffleManager shuffles;
  CacheRegistry caches;
  storage::StorageManager blocks;
  EngineEnv env;
  std::vector<std::unique_ptr<ExecutorRuntime>> execs;
};

Stage dfs_read_stage(const std::string& path, StageSink sink) {
  Stage s;
  s.uid = 1;
  s.source = StageSource::kDfs;
  s.input_path = path;
  s.sink = sink;
  s.out_shuffle_id = sink == StageSink::kShuffleWrite ? 0 : -1;
  return s;
}

TEST(ExecutorRuntime, RunsDfsReadTaskAndAccountsIo) {
  Rig rig;
  rig.dfs.load_input("/f", mib(128), 2);  // one block, replicated everywhere
  const Stage stage = dfs_read_stage("/f", StageSink::kDriver);

  TaskSpec spec;
  spec.partition = 0;
  spec.input_bytes = mib(128);
  spec.cpu_seconds = 1.0;

  bool done = false;
  rig.exec(0).launch(spec, stage, [&](const TaskSpec&, const TaskOutcome&) { done = true; });
  EXPECT_EQ(rig.exec(0).running(), 1);
  rig.cluster.sim().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.exec(0).running(), 0);

  const auto& io = rig.exec(0).io_counters();
  EXPECT_EQ(io.bytes_read, mib(128));
  EXPECT_EQ(io.bytes_written, 0);
  EXPECT_GT(io.blocked_seconds, 0.0);
  EXPECT_EQ(io.tasks_completed, 1u);
}

TEST(ExecutorRuntime, ShuffleWriteRegistersMapOutput) {
  Rig rig;
  rig.dfs.load_input("/f", mib(64), 2);
  Stage stage = dfs_read_stage("/f", StageSink::kShuffleWrite);
  stage.output_ratio = 0.5;

  TaskSpec spec;
  spec.partition = 0;
  spec.input_bytes = mib(64);
  spec.output_bytes = mib(32);

  rig.exec(0).launch(spec, stage, nullptr);
  rig.cluster.sim().run();
  EXPECT_EQ(rig.shuffles.node_output(0, 0), mib(32));
  EXPECT_EQ(rig.exec(0).io_counters().bytes_written, mib(32));
}

TEST(ExecutorRuntime, ShuffleFetchReadsLocalAndRemote) {
  Rig rig;
  rig.shuffles.register_map_output(0, 0, 0, mib(40));
  rig.shuffles.register_map_output(0, 1, 1, mib(40));

  Stage stage;
  stage.source = StageSource::kShuffle;
  stage.in_shuffle_ids = {0};
  stage.num_tasks = 1;  // this task fetches everything
  stage.sink = StageSink::kDriver;

  TaskSpec spec;
  spec.partition = 0;
  spec.input_bytes = mib(80);

  bool done = false;
  rig.exec(0).launch(spec, stage, [&](const TaskSpec&, const TaskOutcome&) { done = true; });
  rig.cluster.sim().run();
  EXPECT_TRUE(done);
  // All but the page-cached slice of the local half count as reads; the
  // remote half crossed the network.
  const Bytes cached = static_cast<Bytes>(static_cast<double>(mib(40)) *
                                          rig.env.shuffle_cache_fraction);
  EXPECT_EQ(rig.exec(0).io_counters().bytes_read, mib(80) - cached);
  EXPECT_EQ(rig.cluster.network().total_bytes(), mib(40));
}

TEST(ExecutorRuntime, ReduceSpillAddsDiskTraffic) {
  Rig rig;
  rig.shuffles.register_map_output(0, 0, 0, mib(64));

  Stage stage;
  stage.source = StageSource::kShuffle;
  stage.in_shuffle_ids = {0};
  stage.num_tasks = 1;
  stage.sink = StageSink::kDriver;
  stage.spill_fraction = 0.5;

  TaskSpec spec;
  spec.partition = 0;
  spec.input_bytes = mib(64);

  rig.exec(0).launch(spec, stage, nullptr);
  rig.cluster.sim().run();
  const auto& io = rig.exec(0).io_counters();
  // Fetched 64 (minus the page-cached slice, which still counts as read via
  // memory segments? no: memory segments do not count) + spill read-back.
  EXPECT_GT(io.bytes_written, mib(28));  // ~32 MiB spill written
  EXPECT_GT(io.bytes_read, mib(64) * 3 / 4);
}

TEST(ExecutorRuntime, CacheSpillsWhenBudgetExceeded) {
  Rig rig(2, /*storage=*/mib(10));
  rig.dfs.load_input("/f", mib(64), 2);
  rig.caches.init(0, 1);

  Stage stage = dfs_read_stage("/f", StageSink::kDriver);
  stage.cache_out_id = 0;
  stage.cache_ratio = 1.0;

  TaskSpec spec;
  spec.partition = 0;
  spec.input_bytes = mib(64);
  spec.cache_bytes = mib(64);

  rig.exec(0).launch(spec, stage, nullptr);
  rig.cluster.sim().run();

  const auto& part = rig.caches.partition(0, 0);
  EXPECT_EQ(part.node, 0);
  EXPECT_EQ(part.mem_bytes, mib(10));
  EXPECT_NEAR(static_cast<double>(part.spilled_bytes),
              static_cast<double>(mib(54)), static_cast<double>(mib(1)));
  EXPECT_GE(rig.exec(0).io_counters().bytes_written, part.spilled_bytes);
}

TEST(ExecutorRuntime, CachedReadFromMemoryIsFreeOfIo) {
  Rig rig;
  rig.caches.init(0, 1);
  auto& part = rig.caches.partition(0, 0);
  part.node = 0;
  part.mem_bytes = mib(32);
  part.spilled_bytes = 0;

  Stage stage;
  stage.source = StageSource::kCached;
  stage.in_cache_id = 0;
  stage.sink = StageSink::kDriver;

  TaskSpec spec;
  spec.partition = 0;
  spec.input_bytes = mib(32);
  spec.cpu_seconds = 0.5;

  bool done = false;
  rig.exec(0).launch(spec, stage, [&](const TaskSpec&, const TaskOutcome&) { done = true; });
  rig.cluster.sim().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.exec(0).io_counters().bytes_read, 0);
  EXPECT_DOUBLE_EQ(rig.exec(0).io_counters().blocked_seconds, 0.0);
}

TEST(ExecutorRuntime, PoolResizeRecordsHistory) {
  Rig rig;
  EventLog log;
  EngineEnv env = rig.env;
  env.event_log = &log;
  ExecutorRuntime exec(env, 0, 32);
  exec.set_pool_size(8);
  exec.set_pool_size(16);
  EXPECT_EQ(exec.pool_size(), 16);
  // One kPoolResize per change, carrying the new size.
  std::vector<Event> resizes = log.of_kind(EventKind::kPoolResize);
  ASSERT_EQ(resizes.size(), 2u);
  EXPECT_EQ(resizes[0].value, 8);
  EXPECT_EQ(resizes[1].value, 16);
  EXPECT_EQ(resizes[1].node, 0);
  exec.set_pool_size(0);  // clamped
  EXPECT_EQ(exec.pool_size(), 1);
  resizes = log.of_kind(EventKind::kPoolResize);
  ASSERT_EQ(resizes.size(), 3u);
  EXPECT_EQ(resizes[2].value, 1);
}

TEST(ExecutorRuntime, SensorSampleReflectsCounters) {
  Rig rig;
  rig.dfs.load_input("/f", mib(16), 2);
  const Stage stage = dfs_read_stage("/f", StageSink::kDriver);
  TaskSpec spec;
  spec.partition = 0;
  spec.input_bytes = mib(16);
  rig.exec(0).launch(spec, stage, nullptr);
  rig.cluster.sim().run();

  const adaptive::IoSample s = rig.exec(0).sample();
  EXPECT_EQ(s.bytes_total, mib(16));
  EXPECT_GT(s.epoll_wait_seconds, 0.0);
  EXPECT_EQ(s.tasks_completed, 1u);
}

// ---------- TaskScheduler ----------

struct SchedulerRig : Rig {
  SchedulerRig() : Rig(4) {
    std::vector<ExecutorRuntime*> raw;
    for (auto& e : execs) raw.push_back(e.get());
    scheduler = std::make_unique<TaskScheduler>(cluster.sim(), raw);
    dfs.load_input("/data", mib(128) * 64, 4);  // 64 blocks, full locality
    stage = dfs_read_stage("/data", StageSink::kDriver);
    stage.num_tasks = 64;
  }

  std::vector<TaskSpec> make_tasks(int n) {
    std::vector<TaskSpec> tasks;
    for (int p = 0; p < n; ++p) {
      TaskSpec t;
      t.partition = p;
      t.input_bytes = mib(128);
      t.cpu_seconds = 0.2;
      const auto& block =
          dfs.lookup("/data")->blocks[static_cast<size_t>(p)];
      t.preferred_nodes = block.replicas;
      tasks.push_back(t);
    }
    return tasks;
  }

  void submit(const Stage& s, std::vector<TaskSpec> tasks, bool& done) {
    scheduler->submit_stage(s, std::move(tasks), /*job_id=*/0, "default",
                            [&done](const TaskScheduler::TaskSetResult&) {
                              done = true;
                            });
  }

  std::unique_ptr<TaskScheduler> scheduler;
  Stage stage;
};

TEST(TaskScheduler, RunsAllTasksToCompletion) {
  SchedulerRig rig;
  bool done = false;
  rig.submit(rig.stage, rig.make_tasks(64), done);
  rig.cluster.sim().run();
  EXPECT_TRUE(done);
  uint64_t completed = 0;
  for (auto& e : rig.execs) completed += e->io_counters().tasks_completed;
  EXPECT_EQ(completed, 64u);
}

TEST(TaskScheduler, EmptyStageCompletesImmediately) {
  SchedulerRig rig;
  bool done = false;
  rig.submit(rig.stage, {}, done);
  rig.cluster.sim().run();
  EXPECT_TRUE(done);
}

TEST(TaskScheduler, RespectsAdvertisedPoolSize) {
  SchedulerRig rig;
  for (auto& e : rig.execs) e->set_pool_size(2);
  for (int n = 0; n < 4; ++n) rig.scheduler->on_executor_resized(n, 2);

  bool done = false;
  rig.submit(rig.stage, rig.make_tasks(64), done);
  // Sample concurrency as the simulation progresses.
  int peak = 0;
  while (!done && rig.cluster.sim().step()) {
    for (auto& e : rig.execs) peak = std::max(peak, e->running());
  }
  EXPECT_TRUE(done);
  EXPECT_LE(peak, 2);
}

TEST(TaskScheduler, ResizeMidStageChangesConcurrency) {
  SchedulerRig rig;
  for (auto& e : rig.execs) e->set_pool_size(1);
  for (int n = 0; n < 4; ++n) rig.scheduler->on_executor_resized(n, 1);

  bool done = false;
  rig.submit(rig.stage, rig.make_tasks(64), done);

  // Grow executor 0's pool mid-stage through the §5.4 protocol.
  rig.cluster.sim().schedule_at(1.0, [&] {
    rig.exec(0).set_pool_size(8);
    rig.scheduler->on_executor_resized(0, 8);
  });
  int peak0 = 0;
  while (!done && rig.cluster.sim().step()) {
    peak0 = std::max(peak0, rig.exec(0).running());
  }
  EXPECT_TRUE(done);
  EXPECT_GT(peak0, 4);
  EXPECT_EQ(rig.scheduler->advertised_size(0), 8);
}

TEST(TaskScheduler, NotifierDeliversResizeWithLatency) {
  SchedulerRig rig;
  auto notify = rig.scheduler->make_notifier(2);
  notify(5);
  EXPECT_EQ(rig.scheduler->advertised_size(2), 32);  // not yet delivered
  rig.cluster.sim().run();
  EXPECT_EQ(rig.scheduler->advertised_size(2), 5);
}

TEST(TaskScheduler, PrefersLocalTasks) {
  SchedulerRig rig;
  // Replication 1: every block has exactly one home node.
  rig.dfs.load_input("/local", mib(128) * 16, 1);
  Stage stage = dfs_read_stage("/local", StageSink::kDriver);
  stage.num_tasks = 16;
  std::vector<TaskSpec> tasks;
  for (int p = 0; p < 16; ++p) {
    TaskSpec t;
    t.partition = p;
    t.input_bytes = mib(128);
    t.preferred_nodes =
        rig.dfs.lookup("/local")->blocks[static_cast<size_t>(p)].replicas;
    tasks.push_back(t);
  }
  bool done = false;
  rig.submit(stage, std::move(tasks), done);
  rig.cluster.sim().run();
  EXPECT_TRUE(done);
  // With locality-first assignment and equal pools, no network traffic.
  EXPECT_EQ(rig.cluster.network().total_bytes(), 0);
}

}  // namespace
}  // namespace saex::engine
