// Fault tolerance: task failure injection, retries, stage abort, and
// speculative execution.
#include <gtest/gtest.h>

#include "common/format.h"
#include "engine/context.h"

namespace saex::engine {
namespace {

conf::Config faulty_config(double failure_prob, int max_failures = 4) {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  c.set_double("saex.sim.taskFailureProb", failure_prob);
  c.set_int("spark.task.maxFailures", max_failures);
  return c;
}

TEST(FaultTolerance, RetriesMakeTheJobSucceed) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  SparkContext ctx(cluster, faulty_config(0.15));
  ctx.dfs().load_input("/in", gib(4), 4);
  const JobReport report =
      ctx.run_job(ctx.text_file("/in").map("m", {0.01, 1.0}).count(), "flaky");

  // With a 15% per-attempt failure rate over 32 tasks, failures are certain
  // under this seed; every one must have been retried transparently.
  const auto failures = ctx.event_log().of_kind(EventKind::kTaskFailed);
  EXPECT_GT(failures.size(), 0u);
  // Every partition eventually succeeded exactly once.
  EXPECT_EQ(ctx.event_log().of_kind(EventKind::kTaskEnd).size(), 32u);
  EXPECT_GT(report.total_runtime, 0.0);
}

TEST(FaultTolerance, FailedAttemptsCostTime) {
  auto run = [](double prob) {
    hw::Cluster cluster(hw::ClusterSpec::das5(4));
    SparkContext ctx(cluster, faulty_config(prob, /*max_failures=*/8));
    ctx.dfs().load_input("/in", gib(4), 4);
    return ctx.run_job(ctx.text_file("/in").count(), "x").total_runtime;
  };
  EXPECT_GT(run(0.22), run(0.0));
}

TEST(FaultTolerance, ExhaustedAttemptsAbortTheJob) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  // Every attempt fails and only one attempt is allowed.
  SparkContext ctx(cluster, faulty_config(1.0, /*max_failures=*/1));
  ctx.dfs().load_input("/in", mib(256), 2);
  EXPECT_THROW((void)ctx.run_job(ctx.text_file("/in").count(), "doomed"),
               std::runtime_error);
}

TEST(FaultTolerance, FailedAttemptsDoNotAdvanceTheTuningInterval) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config = faulty_config(1.0, /*max_failures=*/1);
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", mib(256), 2);
  try {
    (void)ctx.run_job(ctx.text_file("/in").count(), "doomed");
  } catch (const std::runtime_error&) {
  }
  // No attempt succeeded, so the executors report zero completions.
  for (int n = 0; n < 2; ++n) {
    EXPECT_EQ(ctx.executor(n).io_counters().tasks_completed, 0u);
  }
}

TEST(FaultTolerance, DeterministicGivenSeed) {
  auto run = [] {
    hw::Cluster cluster(hw::ClusterSpec::das5(4));
    SparkContext ctx(cluster, faulty_config(0.2));
    ctx.dfs().load_input("/in", gib(2), 4);
    return ctx.run_job(ctx.text_file("/in").count(), "x").total_runtime;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Speculation, DuplicatesStragglersOnSlowNodes) {
  // One pathologically slow disk; speculation should re-run its tasks
  // elsewhere and beat the no-speculation run.
  auto run = [](bool speculation) {
    hw::ClusterSpec spec = hw::ClusterSpec::das5(4);
    spec.seed = 1234;
    spec.slow_disk_prob = 0.0;
    hw::Cluster cluster(spec);
    // Manually: the cluster spec draws factors near 1; emulate a straggler
    // node by giving node 3's tasks a huge cpu cost? Simpler: rely on the
    // built-in outlier by forcing the probability.
    (void)cluster;
    hw::ClusterSpec slow = spec;
    slow.slow_disk_prob = 0.25;  // likely exactly one slow disk at 44% speed
    slow.slow_disk_factor = 0.25;
    hw::Cluster c2(slow);
    conf::Config config;
    config.set("spark.default.parallelism", "16");
    config.set_bool("spark.speculation", speculation);
    config.set_double("spark.speculation.multiplier", 1.4);
    config.set_double("spark.speculation.quantile", 0.5);
    SparkContext ctx(c2, config);
    ctx.dfs().load_input("/in", gib(8), 4);
    const JobReport r = ctx.run_job(ctx.text_file("/in").count(), "spec");
    return std::make_pair(r.total_runtime,
                          ctx.scheduler().speculative_launches());
  };
  const auto [with_time, with_launches] = run(true);
  const auto [without_time, without_launches] = run(false);
  EXPECT_EQ(without_launches, 0);
  EXPECT_GT(with_launches, 0);
  EXPECT_LT(with_time, without_time);
}

TEST(Speculation, NoStragglersNoSpeculation) {
  hw::ClusterSpec spec = hw::ClusterSpec::das5(4);
  spec.disk_sigma = 0.0;  // perfectly homogeneous
  spec.slow_disk_prob = 0.0;
  spec.cpu_sigma = 0.0;
  hw::Cluster cluster(spec);
  conf::Config config;
  config.set("spark.default.parallelism", "16");
  config.set_bool("spark.speculation", true);
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", gib(4), 4);
  (void)ctx.run_job(ctx.text_file("/in").count(), "uniform");
  EXPECT_EQ(ctx.scheduler().speculative_launches(), 0);
}

// Every engine counter name reads its owner, in a run with speculative
// copies and injected failures. "finished" means successes: it stays below
// tasks_finished(), which counts every status update, failures included.
TEST(Speculation, EngineCounterNamesReadTheirOwners) {
  hw::ClusterSpec spec = hw::ClusterSpec::das5(4);
  spec.seed = 1234;
  spec.slow_disk_prob = 0.25;
  spec.slow_disk_factor = 0.25;
  hw::Cluster cluster(spec);
  conf::Config config = faulty_config(0.1);
  config.set_bool("spark.speculation", true);
  config.set_double("spark.speculation.multiplier", 1.4);
  config.set_double("spark.speculation.quantile", 0.5);
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", gib(8), 4);
  (void)ctx.run_job(ctx.text_file("/in").count(), "spec-flaky");

  const TaskScheduler& s = ctx.scheduler();
  const metrics::Registry m = ctx.metrics();
  const auto as_double = [](int64_t v) { return static_cast<double>(v); };
  EXPECT_EQ(m.counter_value("engine/tasks/dispatched"),
            as_double(s.tasks_dispatched()));
  EXPECT_EQ(m.counter_value("engine/tasks/finished"),
            as_double(s.tasks_succeeded()));
  EXPECT_EQ(m.counter_value("engine/tasks/failed"),
            as_double(s.tasks_failed()));
  EXPECT_EQ(m.counter_value("engine/tasks/speculative"),
            as_double(s.speculative_launches()));
  EXPECT_EQ(m.counter_value("engine/executor_resizes"),
            as_double(s.executor_resizes()));
  EXPECT_GT(s.tasks_failed(), 0);
  EXPECT_GT(s.speculative_launches(), 0);
  EXPECT_LT(m.counter_value("engine/tasks/finished"),
            as_double(s.tasks_finished()));
}

}  // namespace
}  // namespace saex::engine

namespace saex::engine {
namespace {

TEST(DelayScheduling, LocalityWaitKeepsTasksLocal) {
  auto net_bytes = [](double wait_seconds) {
    hw::ClusterSpec spec = hw::ClusterSpec::das5(4);
    // One markedly slow node: fast nodes drain their local tasks first and
    // would steal the slow node's blocks unless delay scheduling holds them.
    spec.disk_sigma = 0.0;
    spec.slow_disk_prob = 0.0;
    hw::Cluster cluster(spec);
    cluster.sim();  // (cluster unused; the slow variant below is what runs)
    hw::ClusterSpec slow = spec;
    slow.seed = 5;
    slow.slow_disk_prob = 0.25;
    slow.slow_disk_factor = 0.3;
    hw::Cluster c2(slow);
    conf::Config config;
    config.set("spark.default.parallelism", "16");
    config.set_int("spark.executor.cores", 8);  // 2+ waves of tasks
    config.set("spark.locality.wait",
               strfmt::format("{:.1f}s", wait_seconds));
    SparkContext ctx(c2, config);
    // Replication 1: every block has exactly one home.
    ctx.dfs().load_input("/in", gib(8), 1, mib(64));
    (void)ctx.run_job(ctx.text_file("/in").count(), "local");
    return c2.network().total_bytes();
  };
  // A generous wait keeps everything node-local; no wait lets idle nodes
  // steal remote blocks (some cross-node traffic appears).
  EXPECT_EQ(net_bytes(600.0), 0);
  EXPECT_GT(net_bytes(0.0), 0);
}

TEST(DelayScheduling, LocalityTimerEndsTheWaitAtItsDeadline) {
  // Regression: the locality timer fired at submit + wait, but the wait was
  // tested as now - submit >= wait. Submitted at 1.1 s with a 3 s wait, the
  // timer fires at 4.1 s, where 4.1 - 1.1 == 2.9999999999999996 < 3: the
  // wait never ended and the timer re-armed at zero delay forever, one
  // timestamp, no progress. The event budget turns that hang into a failure.
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config;
  config.set("spark.locality.wait", "3s");
  SparkContext ctx(cluster, config);
  const dfs::FileInfo& file = ctx.dfs().load_input("/in", mib(64), 1);
  ASSERT_EQ(file.blocks.size(), 1u);
  // The single task prefers the block's only home, whose executor is
  // inactive; the other executor is active and free.
  const int home = file.blocks[0].replicas[0];
  ctx.scheduler().set_executor_active(home, false);

  sim::Simulation& sim = cluster.sim();
  bool finished = false;
  sim.schedule_at(1.1, [&] {
    ctx.submit_job(ctx.text_file("/in").count(), "remote", "default",
                   [&finished](const JobReport& r) { finished = !r.failed; });
  });
  int64_t budget = 100'000;
  while (!finished && budget > 0 && sim.step()) --budget;
  ASSERT_TRUE(finished) << "stuck at t=" << sim.now();
  // The task could only start once the wait ended, on the remote executor.
  const auto starts = ctx.event_log().of_kind(EventKind::kTaskStart);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_NE(starts[0].node, home);
  EXPECT_GE(starts[0].time, 1.1 + 3.0);
}

TEST(DelayScheduling, OneLocalityTimerPerSetArmedAtSubmit) {
  // A set with a preferring task gets exactly one re-offer event, at submit +
  // spark.locality.wait, armed at submit whether or not a pick has failed.
  // Submits one single-task set at 1.1 s while no executor is free (so no
  // pick runs) and returns the kernel's pending events afterwards.
  struct Pending {
    size_t count;
    double next_time;
  };
  const auto submit_unoffered = [](const char* wait, bool prefers) {
    hw::Cluster cluster(hw::ClusterSpec::das5(2));
    conf::Config config;
    config.set("spark.locality.wait", wait);
    SparkContext ctx(cluster, config);
    for (int n = 0; n < cluster.size(); ++n) {
      ctx.scheduler().set_executor_active(n, false);
    }
    TaskSpec task;
    task.partition = 0;
    if (prefers) task.preferred_nodes = {0};
    sim::Simulation& sim = cluster.sim();
    sim.schedule_at(1.1, [&] {
      ctx.scheduler().submit_stage(Stage{}, {task}, 0, "default", nullptr);
    });
    EXPECT_TRUE(sim.step());
    return Pending{sim.pending(), sim.next_time()};
  };
  const Pending armed = submit_unoffered("3s", true);
  EXPECT_EQ(armed.count, 1u);
  EXPECT_EQ(armed.next_time, 1.1 + 3.0);
  EXPECT_EQ(submit_unoffered("3s", false).count, 0u);
  EXPECT_EQ(submit_unoffered("0s", true).count, 0u);

  // With only a non-preferred executor free, the timer's offer pass steals
  // the task at the deadline; it starts one launch message later.
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config;
  config.set("spark.locality.wait", "3s");
  SparkContext ctx(cluster, config);
  const dfs::FileInfo& file = ctx.dfs().load_input("/in", mib(64), 1);
  const int home = file.blocks[0].replicas[0];
  ctx.scheduler().set_executor_active(home, false);
  sim::Simulation& sim = cluster.sim();
  sim.schedule_at(1.1, [&] {
    ctx.submit_job(ctx.text_file("/in").count(), "remote", "default",
                   [](const JobReport&) {});
  });
  sim.run();
  const auto starts = ctx.event_log().of_kind(EventKind::kTaskStart);
  ASSERT_EQ(starts.size(), 1u);
  EXPECT_NE(starts[0].node, home);
  EXPECT_EQ(starts[0].time,
            1.1 + 3.0 + TaskScheduler::Options{}.message_latency);
}

TEST(AimdPolicy, RunsAndStaysInBounds) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  conf::Config config;
  config.set("saex.executor.policy", "aimd");
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", gib(8), 4);
  const JobReport report =
      ctx.run_job(ctx.text_file("/in").save_as_text_file("/out"), "aimd");
  for (const auto& s : report.stages) {
    for (const auto& es : s.executors) {
      EXPECT_GE(es.threads_settled, 2);
      EXPECT_LE(es.threads_settled, 32);
    }
  }
  EXPECT_EQ(report.policy_name, "aimd");
}

TEST(Report, CsvHasHeaderAndOneRowPerStage) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config;
  config.set("spark.default.parallelism", "8");
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", mib(512), 2);
  const JobReport report = ctx.run_job(
      ctx.text_file("/in").reduce_by_key("g", {0.01, 1.0}, 1.0).count(), "csv");
  const std::string csv = report.to_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);  // header + 2 stages
  EXPECT_NE(csv.find("app,policy,stage"), std::string::npos);
  EXPECT_NE(csv.find("csv,default,0"), std::string::npos);
}

}  // namespace
}  // namespace saex::engine
