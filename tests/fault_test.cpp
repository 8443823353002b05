// saex::fault — failure injection and recovery: seeded kill replay,
// lineage resubmission of lost shuffle partitions, typed aborts for
// unrecoverable cached data, first-commit-wins shuffle registration, and
// the multi-tenant server surviving an executor loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/format.h"
#include "engine/context.h"
#include "fault/fault.h"
#include "serve/job_server.h"
#include "serve/trace.h"

namespace saex {
namespace {

using engine::EventKind;
using engine::JobReport;
using engine::SparkContext;
using engine::StageAbortedError;

conf::Config base_config() {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  return c;
}

// ---------- configuration ----------

TEST(FaultSpec, ReadsEveryKey) {
  conf::Config c;
  c.set_bool("saex.fault.enabled", true);
  c.set_int("saex.fault.seed", 99);
  c.set_int("saex.fault.killNode", 2);
  c.set("saex.fault.killTime", "45s");
  c.set_int("saex.fault.killAfterTasks", 500);
  c.set_int("saex.fault.slowNode", 1);
  c.set_double("saex.fault.slowFactor", 0.4);
  c.set("saex.fault.slowTime", "10s");
  c.set_double("saex.fault.fetchFailProb", 0.02);

  const fault::FaultSpec spec = fault::FaultSpec::from_config(c);
  EXPECT_TRUE(spec.enabled);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.kill_node, 2);
  EXPECT_DOUBLE_EQ(spec.kill_time, 45.0);
  EXPECT_EQ(spec.kill_after_tasks, 500);
  EXPECT_EQ(spec.slow_node, 1);
  EXPECT_DOUBLE_EQ(spec.slow_factor, 0.4);
  EXPECT_DOUBLE_EQ(spec.slow_time, 10.0);
  EXPECT_DOUBLE_EQ(spec.fetch_fail_prob, 0.02);
}

// A zero disk speed deadlocks the job; a negative one never finishes.
TEST(FaultSpec, RejectsNonPositiveSlowFactor) {
  for (const double factor : {0.0, -1.0}) {
    conf::Config c;
    c.set_bool("saex.fault.enabled", true);
    c.set_int("saex.fault.slowNode", 1);
    c.set_double("saex.fault.slowFactor", factor);
    EXPECT_THROW(fault::FaultSpec::from_config(c), conf::ConfigError)
        << "slowFactor " << factor;
  }
}

TEST(FaultSpec, DisabledIsInert) {
  const fault::FaultSpec spec = fault::FaultSpec::from_config(conf::Config{});
  EXPECT_FALSE(spec.enabled);
  EXPECT_EQ(spec.kill_node, -1);
  EXPECT_DOUBLE_EQ(spec.fetch_fail_prob, 0.0);
}

TEST(FaultState, TracksDeadNodesAndDrawsDeterministically) {
  fault::FaultState a(4, 42, 0.5);
  fault::FaultState b(4, 42, 0.5);
  EXPECT_TRUE(a.node_alive(2));
  EXPECT_TRUE(a.node_alive(-1));   // out of range: treated as alive
  EXPECT_TRUE(a.node_alive(100));
  a.mark_dead(2);
  EXPECT_FALSE(a.node_alive(2));
  EXPECT_EQ(a.dead_executors(), 1);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.drop_fetch(0, 1), b.drop_fetch(0, 1));
  }
  EXPECT_GT(a.fetch_drops(), 0);
}

// ---------- lineage recovery ----------

conf::Config kill_config(int node, int64_t after_tasks) {
  conf::Config c = base_config();
  c.set_bool("saex.fault.enabled", true);
  c.set_int("saex.fault.killNode", node);
  c.set_int("saex.fault.killAfterTasks", after_tasks);
  return c;
}

// Two-stage shuffle job; the kill fires after the map stage committed its
// outputs, so reduce tasks hit dead-node fetches and lineage recovery must
// recompute the lost map partitions.
JobReport run_shuffle_with_kill(SparkContext& ctx) {
  ctx.dfs().load_input("/in", gib(2), 4);
  return ctx.run_job(
      ctx.text_file("/in").reduce_by_key("g", {0.01, 1.0}, 1.0).count(),
      "killed");
}

TEST(LineageRecovery, ExecutorKillResubmitsLostMapPartitions) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  // 2 GiB / 128 MiB = 16 map tasks; fire after 18 finished attempts — the
  // reduce stage is underway with map outputs registered on every node.
  SparkContext ctx(cluster, kill_config(1, 18));
  const JobReport report = run_shuffle_with_kill(ctx);

  EXPECT_EQ(ctx.event_log().of_kind(EventKind::kExecutorLost).size(), 1u);
  EXPECT_GE(ctx.event_log().of_kind(EventKind::kStageResubmitted).size(), 1u);
  EXPECT_GT(report.total_runtime, 0.0);
  EXPECT_EQ(ctx.recovering_shuffles(), 0);  // recovery drained before finish

  // Recovery recomputed exactly the lost partitions: the registered shuffle
  // output matches a fault-free run of the same job byte for byte.
  hw::Cluster clean_cluster(hw::ClusterSpec::das5(4));
  SparkContext clean(clean_cluster, base_config());
  (void)run_shuffle_with_kill(clean);
  EXPECT_EQ(ctx.shuffles().total_output(0), clean.shuffles().total_output(0));
  for (int p = 0; p < 16; ++p) {
    EXPECT_TRUE(ctx.shuffles().partition_committed(0, p)) << "partition " << p;
  }
}

TEST(LineageRecovery, KillReplaysBitwiseIdentically) {
  auto run = [](std::string* event_log) {
    hw::Cluster cluster(hw::ClusterSpec::das5(4));
    SparkContext ctx(cluster, kill_config(1, 18));
    const JobReport report = run_shuffle_with_kill(ctx);
    *event_log = ctx.event_log().to_json_lines();
    return report.total_runtime;
  };
  std::string log_a, log_b;
  const double time_a = run(&log_a);
  const double time_b = run(&log_b);
  EXPECT_DOUBLE_EQ(time_a, time_b);
  EXPECT_EQ(log_a, log_b);  // full event stream, bit for bit
}

TEST(LineageRecovery, DeadExecutorReceivesNoFurtherTasks) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  SparkContext ctx(cluster, kill_config(2, 18));
  (void)run_shuffle_with_kill(ctx);

  const auto lost = ctx.event_log().of_kind(EventKind::kExecutorLost);
  ASSERT_EQ(lost.size(), 1u);
  const double kill_time = lost[0].time;
  for (const engine::Event& e :
       ctx.event_log().of_kind(EventKind::kTaskStart)) {
    if (e.node == 2) {
      EXPECT_LT(e.time, kill_time);
    }
  }
  EXPECT_FALSE(ctx.executor(2).alive());
  EXPECT_TRUE(ctx.scheduler().executor_dead(2));
  // A dynamic-allocation style reactivation attempt must be ignored.
  ctx.scheduler().set_executor_active(2, true);
  EXPECT_FALSE(ctx.scheduler().executor_active(2));
}

TEST(LineageRecovery, ExecutorLostAttemptsAreFreeRetries) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  // maxFailures 1: any *charged* failure would abort the stage, so the job
  // only survives the kill if in-flight attempts retry for free.
  conf::Config c = kill_config(1, 10);  // mid map stage
  c.set_int("spark.task.maxFailures", 1);
  SparkContext ctx(cluster, c);
  const JobReport report = run_shuffle_with_kill(ctx);
  EXPECT_GT(ctx.scheduler().executor_lost_failures(), 0);
  EXPECT_GT(report.total_runtime, 0.0);
}

TEST(LineageRecovery, CachedDataLossAbortsWithTypedError) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config c = base_config();
  c.set("spark.locality.wait", "0s");
  SparkContext ctx(cluster, c);
  ctx.dfs().load_input("/in", gib(2), 4);
  const engine::Rdd cached =
      ctx.text_file("/in").map("m", {0.01, 1.0}).cache();
  (void)ctx.run_job(cached.count(), "warmup");  // materialize the cache
  ASSERT_GT(ctx.storage().node(1).num_blocks(), 0u);

  ctx.kill_executor(1);  // its cached partitions are gone, no lineage here
  EXPECT_EQ(ctx.storage().node(1).num_blocks(), 0u);  // blocks died with it
  try {
    (void)ctx.run_job(cached.count(), "doomed");
    FAIL() << "expected StageAbortedError";
  } catch (const StageAbortedError& e) {
    EXPECT_GE(e.stage_ordinal(), 0);
  }
}

// One kill loses map outputs of both sides of a running join, so the join's
// task set is parked on two rebuilds at once. It must stay parked until the
// slower rebuild lands too: a task launched in between would plan its
// fetches from the half-rebuilt shuffle.
TEST(LineageRecovery, JoinParkedOnTwoRebuildsWaitsForBoth) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config c = base_config();
  c.set_bool("saex.fault.enabled", true);
  c.set_int("saex.fault.killNode", 1);
  c.set("saex.fault.killTime", "150s");
  SparkContext ctx(cluster, c);
  ctx.dfs().load_input("/l", gib(2), 4);
  ctx.dfs().load_input("/r", mib(512), 4, mib(128));
  const engine::Rdd l = ctx.text_file("/l").map("parseL", {0.02, 1.0});
  const engine::Rdd r = ctx.text_file("/r").map("parseR", {1.0, 1.0});
  bool done = false;
  JobReport report;
  ctx.submit_job(l.join(r, "join", {0.5, 0.5}, 1.0, 16).collect(), "join",
                 "default", [&](JobReport rep) {
                   report = std::move(rep);
                   done = true;
                 });

  // Plan ordinals: the two map sides are 0 and 1, the join stage is 2.
  constexpr int kJoinStage = 2;
  sim::Simulation& sim = cluster.sim();
  size_t seen = 0;
  double kill_time = -1.0;
  int peak_rebuilds = 0, starts_after_kill = 0, starts_during_rebuild = 0;
  while (!done && sim.step()) {
    peak_rebuilds = std::max(peak_rebuilds, ctx.recovering_shuffles());
    const std::vector<engine::Event>& events = ctx.event_log().events();
    for (; seen < events.size(); ++seen) {
      const engine::Event& e = events[seen];
      if (e.kind == EventKind::kExecutorLost) kill_time = e.time;
      if (e.kind != EventKind::kTaskStart || e.stage != kJoinStage ||
          kill_time < 0.0) {
        continue;
      }
      ++starts_after_kill;
      if (ctx.recovering_shuffles() > 0) ++starts_during_rebuild;
    }
  }

  ASSERT_TRUE(done);
  EXPECT_FALSE(report.failed);
  EXPECT_EQ(peak_rebuilds, 2);  // both join inputs rebuilt at once
  EXPECT_GT(starts_after_kill, 0);
  EXPECT_EQ(starts_during_rebuild, 0);
  EXPECT_EQ(ctx.recovering_shuffles(), 0);
}

TEST(LineageRecovery, OutOfRangeKillTargetIsIgnored) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  SparkContext ctx(cluster, base_config());
  ctx.dfs().load_input("/in", gib(1), 4);
  ctx.kill_executor(9);   // cluster has nodes 0..3
  ctx.kill_executor(-1);
  EXPECT_EQ(ctx.scheduler().dead_executor_count(), 0);
  EXPECT_EQ(ctx.event_log().of_kind(EventKind::kExecutorLost).size(), 0u);
  const JobReport r = ctx.run_job(
      ctx.text_file("/in").map("m", {0.01, 1.0}).count(), "unharmed");
  EXPECT_GT(r.total_runtime, 0.0);
}

// ---------- first-commit-wins shuffle registration ----------

TEST(ShuffleCommits, FirstCommitWinsAndDuplicatesAreCounted) {
  engine::ShuffleManager sm(4);
  EXPECT_TRUE(sm.register_map_output(0, /*node=*/0, /*partition=*/5, 100));
  // A losing speculative copy of partition 5 lands later from another node.
  EXPECT_FALSE(sm.register_map_output(0, /*node=*/3, /*partition=*/5, 100));
  EXPECT_EQ(sm.duplicate_commits(), 1);
  EXPECT_EQ(sm.total_output(0), 100);
  EXPECT_EQ(sm.node_output(0, 0), 100);
  EXPECT_EQ(sm.node_output(0, 3), 0);
  EXPECT_TRUE(sm.partition_committed(0, 5));
}

TEST(ShuffleCommits, NodeLossReturnsExactlyTheLostPartitions) {
  engine::ShuffleManager sm(4);
  sm.register_map_output(0, 0, 0, 100);
  sm.register_map_output(0, 1, 1, 200);
  sm.register_map_output(0, 1, 2, 300);
  sm.register_map_output(1, 1, 0, 50);
  const auto lost = sm.on_node_lost(1);
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost.at(0), (std::vector<int>{1, 2}));
  EXPECT_EQ(lost.at(1), (std::vector<int>{0}));
  EXPECT_EQ(sm.total_output(0), 100);  // node 0's commit survives
  EXPECT_EQ(sm.node_output(0, 1), 0);
  EXPECT_FALSE(sm.partition_committed(0, 2));
  // Recomputation re-commits the partition on a healthy node.
  EXPECT_TRUE(sm.register_map_output(0, 2, 2, 300));
  EXPECT_EQ(sm.total_output(0), 400);
}

TEST(ShuffleCommits, SpeculationNeverDoubleCountsMapOutput) {
  auto shuffle_bytes = [](bool speculation) {
    hw::ClusterSpec spec = hw::ClusterSpec::das5(4);
    spec.seed = 1234;
    spec.slow_disk_prob = 0.25;  // a straggler node provokes duplicates
    spec.slow_disk_factor = 0.25;
    hw::Cluster cluster(spec);
    conf::Config c;
    c.set("spark.default.parallelism", "16");
    c.set_bool("spark.speculation", speculation);
    c.set_double("spark.speculation.multiplier", 1.2);
    c.set_double("spark.speculation.quantile", 0.5);
    SparkContext ctx(cluster, c);
    ctx.dfs().load_input("/in", gib(4), 4);
    (void)ctx.run_job(
        ctx.text_file("/in").sort_by_key("s", {0.005, 1.0}).count(), "spec");
    return ctx.shuffles().total_output(0);
  };
  // Map-side bytes are a pure function of the input: speculative duplicate
  // attempts must not inflate the registered shuffle output.
  EXPECT_EQ(shuffle_bytes(true), shuffle_bytes(false));
}

// ---------- straggler injection ----------

TEST(SlowNode, DegradedDiskSlowsTheJobAndLogsTheEvent) {
  auto run = [](bool degrade) {
    hw::ClusterSpec spec = hw::ClusterSpec::das5(4);
    spec.disk_sigma = 0.0;
    spec.slow_disk_prob = 0.0;
    hw::Cluster cluster(spec);
    conf::Config c;
    c.set("spark.default.parallelism", "16");
    if (degrade) {
      c.set_bool("saex.fault.enabled", true);
      c.set_int("saex.fault.slowNode", 1);
      c.set_double("saex.fault.slowFactor", 0.2);
      c.set("saex.fault.slowTime", "5s");
    }
    SparkContext ctx(cluster, c);
    ctx.dfs().load_input("/in", gib(4), 4);
    const JobReport r =
        ctx.run_job(ctx.text_file("/in").save_as_text_file("/out"), "x");
    const size_t events =
        ctx.event_log().of_kind(EventKind::kDiskDegraded).size();
    return std::make_pair(r.total_runtime, events);
  };
  const auto [slow_time, slow_events] = run(true);
  const auto [fast_time, fast_events] = run(false);
  EXPECT_EQ(slow_events, 1u);
  EXPECT_EQ(fast_events, 0u);
  EXPECT_GT(slow_time, fast_time);
}

// ---------- the multi-tenant server under faults ----------

TEST(ServeFaults, ServerSurvivesAnExecutorKill) {
  hw::ClusterSpec spec = hw::ClusterSpec::das5(4);
  spec.seed = 42;
  hw::Cluster cluster(spec);
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  c.set_bool("saex.fault.enabled", true);
  c.set_int("saex.fault.killNode", 3);
  c.set("saex.fault.killTime", "20s");
  SparkContext ctx(cluster, c);
  serve::JobServer server(ctx);

  serve::TraceOptions trace;
  trace.num_jobs = 8;
  trace.mean_interarrival = 2.0;
  trace.seed = 7;
  trace.small_input = mib(256);
  trace.big_input = mib(512);
  trace.dim_input = mib(128);
  const serve::ServeReport report =
      server.replay(serve::make_trace(trace), trace);

  EXPECT_EQ(report.executors_lost, 1);
  EXPECT_EQ(report.finished, report.started);  // every admitted job drained
  EXPECT_EQ(report.failed, 0);  // shuffle losses are all recoverable
  EXPECT_EQ(ctx.event_log().of_kind(EventKind::kExecutorLost).size(), 1u);
}

}  // namespace
}  // namespace saex
