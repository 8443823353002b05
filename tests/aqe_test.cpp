// saex::aqe: slice-aware fetch-plan exactness, the coalesce/split planner,
// and the engine-level guarantees — AQE off is bitwise-identical to the
// legacy path, AQE on is deterministic (including under the sharded serve
// path), and the re-plan actually pays on the skew and tiny-partition
// shapes.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "aqe/aqe.h"
#include "conf/config.h"
#include "engine/shuffle.h"
#include "serve/job_server.h"
#include "shard/sharded_server.h"
#include "workloads/workloads.h"

namespace saex {
namespace {

using engine::FetchShare;
using engine::ReduceSlice;
using engine::ShuffleManager;

// ---------- fetch-plan slices (the exactness AQE depends on) ----------

ShuffleManager make_manager(int nodes, int maps, double skew = 0.0) {
  ShuffleManager sm(nodes);
  if (skew > 0.0) sm.set_reduce_skew(0, skew);
  // Uneven map outputs across nodes so remainder handling is exercised.
  for (int m = 0; m < maps; ++m) {
    sm.register_map_output(0, m % nodes, m, mib(7) + m * 1337);
  }
  return sm;
}

Bytes plan_total(const std::vector<Bytes>& plan) {
  return std::accumulate(plan.begin(), plan.end(), Bytes{0});
}

// A sparse fetch plan as one entry per node, 0 where it has no share.
std::vector<Bytes> densify(const std::vector<FetchShare>& plan, int nodes) {
  std::vector<Bytes> dense(static_cast<size_t>(nodes), 0);
  for (const FetchShare& share : plan) {
    EXPECT_EQ(dense.at(static_cast<size_t>(share.src)), 0)
        << "node " << share.src << " listed twice";
    dense.at(static_cast<size_t>(share.src)) = share.bytes;
  }
  return dense;
}

// Fetch plan of slice {first, last, j, k} of R = 8 logical partitions on a
// 4-node manager (the size every make_manager call below uses), densified.
std::vector<Bytes> plan8(const ShuffleManager& sm, int first, int last,
                         int j = 0, int k = 1) {
  return densify(
      sm.fetch_plan(0, ReduceSlice{first, last, j, k}, 8, /*reader=*/0), 4);
}

// With uniform weights the identity slice {p, p, 0, 1} is the closed-form
// base+remainder split of every node's output: total/R each, one extra byte
// for the partitions below total%R.
TEST(AqeFetchPlan, TrivialSliceMatchesLegacyPlan) {
  const ShuffleManager sm = make_manager(4, 13);
  for (int p = 0; p < 8; ++p) {
    const std::vector<Bytes> plan = plan8(sm, p, p);
    ASSERT_EQ(plan.size(), 4u);
    for (int n = 0; n < 4; ++n) {
      const Bytes total = sm.node_output(0, n);
      EXPECT_EQ(plan[static_cast<size_t>(n)],
                total / 8 + (p < total % 8 ? 1 : 0))
          << "partition " << p << " node " << n;
    }
  }
}

TEST(AqeFetchPlan, RangeSliceSumsItsPartitions) {
  for (const double skew : {0.0, 1.2}) {
    const ShuffleManager sm = make_manager(4, 13, skew);
    const std::vector<Bytes> merged = plan8(sm, 2, 5);
    std::vector<Bytes> expect(4, 0);
    for (int p = 2; p <= 5; ++p) {
      const std::vector<Bytes> one = plan8(sm, p, p);
      for (size_t n = 0; n < one.size(); ++n) expect[n] += one[n];
    }
    EXPECT_EQ(merged, expect) << "skew " << skew;
  }
}

TEST(AqeFetchPlan, SubSplitsReassembleTheirPartitionExactly) {
  for (const double skew : {0.0, 1.2}) {
    const ShuffleManager sm = make_manager(4, 13, skew);
    const std::vector<Bytes> whole = plan8(sm, 3, 3);
    std::vector<Bytes> sum(4, 0);
    for (int j = 0; j < 5; ++j) {
      const std::vector<Bytes> part = plan8(sm, 3, 3, j, 5);
      for (size_t n = 0; n < part.size(); ++n) sum[n] += part[n];
    }
    EXPECT_EQ(sum, whole) << "skew " << skew;
  }
}

TEST(AqeFetchPlan, FullTilingConservesTotalOutput) {
  const ShuffleManager sm = make_manager(4, 16, 1.2);
  // [0,2] merged, 3 split x3, [4,7] merged — a full tiling of R = 8.
  Bytes covered = plan_total(plan8(sm, 0, 2)) +
                  plan_total(plan8(sm, 4, 7));
  for (int j = 0; j < 3; ++j) {
    covered += plan_total(plan8(sm, 3, 3, j, 3));
  }
  EXPECT_EQ(covered, sm.total_output(0));
}

TEST(AqeFetchPlan, ReducePartitionBytesMatchesPerPartitionPlans) {
  for (const double skew : {0.0, 1.4}) {
    const ShuffleManager sm = make_manager(4, 13, skew);
    const std::vector<Bytes> stats = sm.reduce_partition_bytes(0, 8);
    ASSERT_EQ(stats.size(), 8u);
    for (int p = 0; p < 8; ++p) {
      EXPECT_EQ(stats[static_cast<size_t>(p)],
                plan_total(plan8(sm, p, p)))
          << "skew " << skew << " partition " << p;
    }
  }
}

// Satellite: the stats accessors are a pure function of the committed
// outputs — two identical replays expose identical statistics.
TEST(AqeFetchPlan, StatsAreStableAcrossIdenticalReplays) {
  const ShuffleManager a = make_manager(4, 13, 1.2);
  const ShuffleManager b = make_manager(4, 13, 1.2);
  EXPECT_EQ(a.reduce_partition_bytes(0, 8), b.reduce_partition_bytes(0, 8));
  EXPECT_EQ(a.map_partition_bytes(0), b.map_partition_bytes(0));
  EXPECT_EQ(a.total_output(0), b.total_output(0));
}

TEST(AqeFetchPlan, MapPartitionBytesExposesCommits) {
  ShuffleManager sm(2);
  sm.register_map_output(0, 0, 0, 100);
  sm.register_map_output(0, 1, 2, 300);
  const std::vector<Bytes> stats = sm.map_partition_bytes(0);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0], 100);
  EXPECT_EQ(stats[1], 0);  // uncommitted
  EXPECT_EQ(stats[2], 300);
}

// ---------- the coalesce/split planner ----------

TEST(AqePlanner, CoalescesTinyPartitionsToTarget) {
  aqe::AqeOptions opt;
  opt.target_partition_bytes = mib(8);
  const std::vector<Bytes> bytes(64, mib(1));
  const aqe::AqePlan plan = aqe::plan_reduce_stage(bytes, opt);
  EXPECT_FALSE(plan.identity);
  ASSERT_EQ(plan.slices.size(), 8u);
  for (const ReduceSlice& s : plan.slices) {
    EXPECT_EQ(s.last - s.first + 1, 8);
    EXPECT_EQ(s.num_splits, 1);
  }
  EXPECT_EQ(plan.split_partitions, 0);
  EXPECT_EQ(plan.merged_partitions, 56);
}

TEST(AqePlanner, SplitsTheSkewedPartition) {
  aqe::AqeOptions opt;
  opt.target_partition_bytes = mib(16);
  opt.skew_factor = 4.0;
  std::vector<Bytes> bytes(64, mib(1));
  bytes[10] = mib(100);  // 100x the median, well over 4x
  const aqe::AqePlan plan = aqe::plan_reduce_stage(bytes, opt);
  EXPECT_FALSE(plan.identity);
  EXPECT_EQ(plan.split_partitions, 1);
  int sub_tasks = 0;
  for (const ReduceSlice& s : plan.slices) {
    if (s.first == 10 && s.last == 10) {
      EXPECT_EQ(s.num_splits, 7);  // ceil(100 MiB / 16 MiB)
      ++sub_tasks;
    }
  }
  EXPECT_EQ(sub_tasks, 7);
}

TEST(AqePlanner, SplitCountIsCappedByMaxSplits) {
  aqe::AqeOptions opt;
  opt.target_partition_bytes = mib(1);
  opt.max_splits = 4;
  std::vector<Bytes> bytes(16, mib(1) / 2);
  bytes[0] = mib(100);
  const aqe::AqePlan plan = aqe::plan_reduce_stage(bytes, opt);
  int subs = 0;
  for (const ReduceSlice& s : plan.slices) {
    if (s.first == 0) {
      EXPECT_EQ(s.num_splits, 4);
      ++subs;
    }
  }
  EXPECT_EQ(subs, 4);
}

TEST(AqePlanner, EvenPartitionsAtTargetAreIdentity) {
  aqe::AqeOptions opt;
  opt.target_partition_bytes = mib(64);
  const std::vector<Bytes> bytes(32, mib(64));
  const aqe::AqePlan plan = aqe::plan_reduce_stage(bytes, opt);
  EXPECT_TRUE(plan.identity);
  EXPECT_EQ(plan.slices.size(), 32u);
  EXPECT_EQ(plan.merged_partitions, 0);
  EXPECT_EQ(plan.split_partitions, 0);
}

TEST(AqePlanner, MinPartitionsCapsTheEffectiveTarget) {
  aqe::AqeOptions opt;
  opt.target_partition_bytes = mib(64);
  opt.min_partitions = 8;
  const std::vector<Bytes> bytes(64, mib(1));  // total 64 MiB
  const aqe::AqePlan plan = aqe::plan_reduce_stage(bytes, opt);
  // Without the cap everything would collapse into one 64 MiB task; the
  // floor keeps at least 8 tasks alive.
  EXPECT_GE(plan.slices.size(), 8u);
}

TEST(AqePlanner, TinyUniformStageIsNotSplit) {
  // Median ~0: the skew threshold alone would split everything; the
  // target-bytes clause must keep tiny uniform partitions split-free.
  aqe::AqeOptions opt;
  std::vector<Bytes> bytes(64, 1024);
  bytes[5] = 64 * 1024;  // 64x median but far below the 64 MiB target
  const aqe::AqePlan plan = aqe::plan_reduce_stage(bytes, opt);
  EXPECT_EQ(plan.split_partitions, 0);
}

TEST(AqeOptions, ValidatesConfigKeys) {
  conf::Config good;
  const aqe::AqeOptions opt = aqe::AqeOptions::from_config(good);
  EXPECT_FALSE(opt.enabled);
  EXPECT_EQ(opt.target_partition_bytes, 64 * kMiB);
  EXPECT_EQ(opt.min_partitions, 0);

  conf::Config bad_target;
  bad_target.set("saex.aqe.targetPartitionBytes", "0");
  EXPECT_THROW(aqe::AqeOptions::from_config(bad_target), conf::ConfigError);

  conf::Config bad_skew;
  bad_skew.set_double("saex.aqe.skewFactor", 0.5);
  EXPECT_THROW(aqe::AqeOptions::from_config(bad_skew), conf::ConfigError);

  conf::Config bad_splits;
  bad_splits.set_int("saex.aqe.maxSplits", 0);
  EXPECT_THROW(aqe::AqeOptions::from_config(bad_splits), conf::ConfigError);

  conf::Config bad_min;
  bad_min.set_int("saex.aqe.minPartitions", -1);
  EXPECT_THROW(aqe::AqeOptions::from_config(bad_min), conf::ConfigError);
}

// ---------- engine-level guarantees ----------

engine::JobReport run_sized(const workloads::WorkloadSpec& spec,
                            conf::Config config) {
  hw::ClusterSpec cs = hw::ClusterSpec::das5(4);
  cs.seed = 42;
  hw::Cluster cluster(cs);
  return workloads::run(spec, cluster, std::move(config));
}

std::string render(const engine::JobReport& r) {
  return r.render() + "\n" + r.to_csv();
}

conf::Config aqe_config() {
  conf::Config c;
  c.set_bool("saex.aqe.enabled", true);
  return c;
}

// AQE off (the default) stays bitwise-identical whether the keys are absent
// or explicitly disabled, across the whole preset catalogue at test sizes.
TEST(AqeGolden, ExplicitOffMatchesAbsentKeysOnEveryPreset) {
  std::vector<workloads::WorkloadSpec> presets = {
      workloads::terasort(gib(4)),   workloads::pagerank(gib(1), 2),
      workloads::aggregation(gib(2)), workloads::join(gib(2)),
      workloads::scan(gib(2)),        workloads::bayes(gib(1)),
      workloads::lda(gib(0.25)),      workloads::nweight(gib(0.25)),
      workloads::svm(gib(4)),         workloads::wordcount(gib(2)),
      workloads::sort(gib(2)),        workloads::kmeans(gib(2), 2),
  };
  for (const auto& spec : presets) {
    const std::string base = render(run_sized(spec, conf::Config{}));
    conf::Config off;
    off.set_bool("saex.aqe.enabled", false);
    EXPECT_EQ(render(run_sized(spec, std::move(off))), base) << spec.name;
  }
}

TEST(AqeGolden, UniformShapeIsIdentityEvenWithAqeOn) {
  const workloads::WorkloadSpec spec = workloads::sort(gib(2));
  const std::string off = render(run_sized(spec, conf::Config{}));
  const std::string on = render(run_sized(spec, aqe_config()));
  EXPECT_EQ(on, off);
}

TEST(AqeGolden, AqeOnRunsAreDeterministic) {
  const workloads::WorkloadSpec spec = workloads::skewshuffle(gib(2), 64, 1.2);
  const std::string first = render(run_sized(spec, aqe_config()));
  const std::string second = render(run_sized(spec, aqe_config()));
  EXPECT_EQ(first, second);
}

TEST(AqeEndToEnd, SkewSplittingBeatsBaselineByAQuarter) {
  const workloads::WorkloadSpec spec = workloads::skewshuffle(gib(2), 64, 1.2);
  const double off = run_sized(spec, conf::Config{}).total_runtime;
  const double on = run_sized(spec, aqe_config()).total_runtime;
  EXPECT_LE(on, 0.75 * off) << "off " << off << "s vs aqe " << on << "s";
}

TEST(AqeEndToEnd, CoalescingBeatsDynamicBaselineOnTinyPartitions) {
  const workloads::WorkloadSpec spec = workloads::tinyparts(gib(2), 8192);
  conf::Config dyn;
  dyn.set("saex.executor.policy", "dynamic");
  const double off = run_sized(spec, std::move(dyn)).total_runtime;
  conf::Config dyn_aqe = aqe_config();
  dyn_aqe.set("saex.executor.policy", "dynamic");
  const double on = run_sized(spec, std::move(dyn_aqe)).total_runtime;
  EXPECT_LE(on, 0.85 * off) << "off " << off << "s vs aqe " << on << "s";
}

TEST(AqeEndToEnd, ReplanShrinksTinyStageTaskCount) {
  const workloads::WorkloadSpec spec = workloads::tinyparts(gib(2), 8192);
  const engine::JobReport off = run_sized(spec, conf::Config{});
  const engine::JobReport on = run_sized(spec, aqe_config());
  ASSERT_EQ(off.stages.size(), on.stages.size());
  // The reduce stage collapses from 8192 micro-tasks to O(parallelism).
  EXPECT_EQ(off.stages.back().num_tasks, 8192);
  EXPECT_LT(on.stages.back().num_tasks, 1024);
  EXPECT_GE(on.stages.back().num_tasks, 128);
}

// ---------- sharded serve path with AQE on ----------

conf::Config shard_aqe_config(int shards, int workers) {
  conf::Config c;
  c.set("spark.default.parallelism", "64");
  c.set_int("saex.shard.count", shards);
  c.set_int("saex.shard.workers", workers);
  c.set_bool("saex.aqe.enabled", true);
  return c;
}

serve::TraceOptions aqe_trace(uint64_t seed = 7) {
  serve::TraceOptions t;
  t.num_jobs = 12;
  t.mean_interarrival = 1.0;
  t.num_clients = 6;
  t.seed = seed;
  t.small_input = mib(256);
  t.big_input = mib(512);
  t.dim_input = mib(128);
  return t;
}

std::string sharded_aqe_render(int shards, int workers,
                               const serve::TraceOptions& t) {
  hw::ClusterSpec spec = hw::ClusterSpec::das5(8);
  spec.seed = 42;
  shard::ShardedServer server(spec, shard_aqe_config(shards, workers));
  const shard::ShardedServeReport report =
      server.replay(serve::make_trace(t), t);
  return report.merged.render() + "\n" + report.render_jobs();
}

TEST(AqeSharded, WorkerCountDoesNotChangeTheMergedReport) {
  const serve::TraceOptions t = aqe_trace();
  const std::string w1 = sharded_aqe_render(4, 1, t);
  const std::string w2 = sharded_aqe_render(4, 2, t);
  const std::string w4 = sharded_aqe_render(4, 4, t);
  EXPECT_EQ(w1, w2);
  EXPECT_EQ(w1, w4);
}

TEST(AqeSharded, OneShardMatchesSerialJobServerWithAqe) {
  const serve::TraceOptions t = aqe_trace(11);
  conf::Config serial_config;
  serial_config.set("spark.default.parallelism", "64");
  serial_config.set_bool("saex.aqe.enabled", true);
  hw::ClusterSpec spec = hw::ClusterSpec::das5(8);
  spec.seed = 42;
  hw::Cluster cluster(spec);
  engine::SparkContext ctx(cluster, serial_config);
  serve::JobServer server(ctx);
  const serve::ServeReport serial = server.replay(serve::make_trace(t), t);

  EXPECT_EQ(sharded_aqe_render(1, 1, t),
            serial.render() + "\n" + serial.render_jobs());
}

}  // namespace
}  // namespace saex
