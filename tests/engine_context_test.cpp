// SparkContext end-to-end: job execution, reports, policies, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "adaptive/controller.h"
#include "engine/context.h"

namespace saex::engine {
namespace {

conf::Config small_config() {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  return c;
}

struct ContextRig {
  explicit ContextRig(conf::Config config = small_config(), int nodes = 4,
                      uint64_t seed = 42)
      : spec([&] {
          hw::ClusterSpec s = hw::ClusterSpec::das5(nodes);
          s.seed = seed;
          return s;
        }()),
        cluster(spec),
        ctx(cluster, std::move(config)) {}

  hw::ClusterSpec spec;
  hw::Cluster cluster;
  SparkContext ctx;
};

TEST(SparkContext, RunsSingleStageJob) {
  ContextRig rig;
  rig.ctx.dfs().load_input("/in", gib(1), 4);
  const Rdd out = rig.ctx.text_file("/in").map("m", {0.01, 1.0}).count();
  const JobReport report = rig.ctx.run_job(out, "tiny");

  ASSERT_EQ(report.stages.size(), 1u);
  EXPECT_EQ(report.app_name, "tiny");
  EXPECT_GT(report.total_runtime, 0.0);
  EXPECT_EQ(report.input_bytes, gib(1));
  EXPECT_EQ(report.stages[0].num_tasks, 8);
  EXPECT_EQ(report.stages[0].disk_read, gib(1));
  EXPECT_EQ(report.stages[0].disk_written, 0);
  EXPECT_GT(report.stages[0].disk_utilization, 0.0);
  EXPECT_EQ(report.stages[0].threads_total, 4 * 32);  // default policy
}

TEST(SparkContext, ShuffleBytesConserved) {
  ContextRig rig;
  rig.ctx.dfs().load_input("/in", gib(1), 4);
  const Rdd out = rig.ctx.text_file("/in")
                      .reduce_by_key("g", {0.01, 1.0}, 0.5, 0,
                                     ShuffleTraits{0.0, 1.0})
                      .count();
  const JobReport report = rig.ctx.run_job(out);
  ASSERT_EQ(report.stages.size(), 2u);

  // Everything the map stage wrote is fetched by the reduce stage.
  EXPECT_EQ(rig.ctx.shuffles().total_output(0), gib(0.5));
  Bytes fetched = 0;
  for (const auto& es : report.stages[1].executors) fetched += es.io_bytes;
  EXPECT_NEAR(static_cast<double>(fetched), static_cast<double>(gib(0.5)),
              static_cast<double>(gib(0.5)) * 0.2);  // page-cache slice is free
}

TEST(SparkContext, OutputFileRegisteredInDfs) {
  ContextRig rig;
  rig.ctx.dfs().load_input("/in", mib(256), 4);
  const Rdd out =
      rig.ctx.text_file("/in").map("m", {0.0, 0.5}).save_as_text_file("/out");
  (void)rig.ctx.run_job(out);
  const dfs::FileInfo* f = rig.ctx.dfs().lookup("/out");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->size, mib(128));
}

TEST(SparkContext, DeterministicAcrossRuns) {
  auto run_once = [] {
    ContextRig rig;
    rig.ctx.dfs().load_input("/in", gib(2), 4);
    const Rdd out = rig.ctx.text_file("/in")
                        .reduce_by_key("g", {0.02, 1.0}, 1.0)
                        .save_as_text_file("/out");
    return rig.ctx.run_job(out).total_runtime;
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(SparkContext, SeedChangesHeterogeneityAndRuntime) {
  auto run_seed = [](uint64_t seed) {
    ContextRig rig(small_config(), 4, seed);
    rig.ctx.dfs().load_input("/in", gib(2), 4);
    const Rdd out = rig.ctx.text_file("/in").count();
    return rig.ctx.run_job(out).total_runtime;
  };
  EXPECT_NE(run_seed(1), run_seed(2));
}

TEST(SparkContext, StaticPolicyFromConfig) {
  conf::Config config = small_config();
  config.set("saex.executor.policy", "static");
  config.set_int("saex.static.ioThreads", 8);
  ContextRig rig(std::move(config));
  rig.ctx.dfs().load_input("/in", gib(1), 4);

  const Rdd out = rig.ctx.text_file("/in")
                      .reduce_by_key("g", {0.01, 1.0}, 1.0, 0,
                                     ShuffleTraits{0.0, 1.0})
                      .count();
  const JobReport report = rig.ctx.run_job(out);
  ASSERT_EQ(report.stages.size(), 2u);
  EXPECT_EQ(report.policy_name, "static");
  // Stage 0 reads the DFS (I/O-tagged) -> 8 threads per executor.
  EXPECT_EQ(report.stages[0].threads_total, 4 * 8);
  // Stage 1 is a pure shuffle->driver stage: default threads.
  EXPECT_EQ(report.stages[1].threads_total, 4 * 32);
}

TEST(SparkContext, DynamicPolicyTunesAndReports) {
  conf::Config config;  // full default parallelism for enough tasks
  config.set("saex.executor.policy", "dynamic");
  ContextRig rig(std::move(config));
  rig.ctx.dfs().load_input("/in", gib(8), 4);

  const Rdd out = rig.ctx.text_file("/in").save_as_text_file("/copy");
  const JobReport report = rig.ctx.run_job(out);
  EXPECT_EQ(report.policy_name, "dynamic");
  // The controller settled somewhere within [c_min, c_max] on each executor.
  for (const auto& es : report.stages[0].executors) {
    EXPECT_GE(es.threads_settled, 2);
    EXPECT_LE(es.threads_settled, 32);
  }
  // Knowledge base recorded intervals for the stage.
  const auto* ctrl = dynamic_cast<const adaptive::AdaptiveController*>(
      &rig.ctx.executor(0).policy());
  ASSERT_NE(ctrl, nullptr);
  EXPECT_FALSE(ctrl->knowledge().intervals.empty());
}

// Fixed-time intervals close on task completions: some executor climbs past
// c_min instead of staying at its first size for the whole job.
TEST(SparkContext, FixedIntervalModeResizesPastMinThreads) {
  conf::Config config;
  config.set("saex.executor.policy", "dynamic");
  config.set("saex.dynamic.intervalMode", "fixed");
  ContextRig rig(std::move(config));
  rig.ctx.dfs().load_input("/in", gib(8), 4);
  (void)rig.ctx.run_job(rig.ctx.text_file("/in").save_as_text_file("/copy"));
  int largest = 0;
  for (const Event& e : rig.ctx.event_log().of_kind(EventKind::kPoolResize)) {
    largest = std::max(largest, static_cast<int>(e.value));
  }
  EXPECT_GT(largest, 2);
}

TEST(SparkContext, CustomPolicyFactoryInstalls) {
  ContextRig rig;
  rig.ctx.set_policy_factory([](adaptive::Sensor&, adaptive::PoolEffector& pool,
                                adaptive::SchedulerNotifier notifier, int) {
    return std::make_unique<adaptive::FixedPolicy>(
        "per-stage", pool, std::move(notifier),
        [](const adaptive::StageContext& stage) {
          return stage.stage_ordinal == 0 ? 4 : 32;
        });
  });
  rig.ctx.dfs().load_input("/in", gib(1), 4);
  const Rdd out = rig.ctx.text_file("/in").count();
  const JobReport report = rig.ctx.run_job(out);
  EXPECT_EQ(report.stages[0].threads_total, 4 * 4);
  EXPECT_EQ(report.policy_name, "per-stage");
}

TEST(SparkContext, UnknownPolicyThrows) {
  conf::Config config;
  config.set("saex.executor.policy", "wizard");
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  EXPECT_THROW(SparkContext(cluster, std::move(config)), conf::ConfigError);
}

// The executor clamps a pool to one thread, but the driver would be told 0.
TEST(SparkContext, StaticPolicyRejectsZeroIoThreads) {
  conf::Config config;
  config.set("saex.executor.policy", "static");
  config.set_int("saex.static.ioThreads", 0);
  EXPECT_THROW(policy_factory_from_config(config), conf::ConfigError);
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  EXPECT_THROW(SparkContext(cluster, std::move(config)), conf::ConfigError);
}

TEST(SparkContext, MultiJobStageOrdinalsContinue) {
  conf::Config config = small_config();
  config.set("saex.executor.policy", "static");
  config.set_int("saex.static.ioThreads", 4);
  ContextRig rig(std::move(config));
  rig.ctx.dfs().load_input("/in", gib(1), 4);

  (void)rig.ctx.run_job(rig.ctx.text_file("/in").count(), "job1");
  // Second job: its first stage is application-stage 1, not 0. A PerStage
  // policy keyed on ordinal 1 must fire (verified via the static policy's
  // I/O tagging instead: both stages are tagged, both get 4 threads).
  const JobReport r2 = rig.ctx.run_job(rig.ctx.text_file("/in").count(), "job2");
  EXPECT_EQ(r2.stages[0].threads_total, 4 * 4);
}

TEST(SparkContext, ReportRenderContainsStages) {
  ContextRig rig;
  rig.ctx.dfs().load_input("/in", mib(256), 4);
  const JobReport report = rig.ctx.run_job(rig.ctx.text_file("/in").count());
  const std::string text = report.render();
  EXPECT_NE(text.find("stage"), std::string::npos);
  EXPECT_NE(text.find("textFile(/in)"), std::string::npos);
  EXPECT_NE(text.find("runtime"), std::string::npos);
}

TEST(SparkContext, IowaitBoundedByIdleFraction) {
  ContextRig rig;
  rig.ctx.dfs().load_input("/in", gib(4), 4);
  const JobReport report = rig.ctx.run_job(rig.ctx.text_file("/in").count());
  for (const auto& s : report.stages) {
    EXPECT_GE(s.iowait_fraction, 0.0);
    EXPECT_LE(s.iowait_fraction + s.cpu_utilization, 1.0 + 1e-9);
  }
}

// ---------- one job and stage lifecycle for both drivers ----------

// Every field both drivers fill, doubles compared exactly. Per-executor rows
// are the batch driver's alone, so they are checked by the callers.
void expect_same_report(const JobReport& batch, const JobReport& serve) {
  EXPECT_EQ(batch.app_name, serve.app_name);
  EXPECT_EQ(batch.policy_name, serve.policy_name);
  EXPECT_EQ(batch.total_runtime, serve.total_runtime);
  EXPECT_EQ(batch.input_bytes, serve.input_bytes);
  EXPECT_EQ(batch.total_disk_bytes, serve.total_disk_bytes);
  EXPECT_EQ(batch.events_processed, serve.events_processed);
  EXPECT_EQ(batch.job_id, serve.job_id);
  EXPECT_EQ(batch.pool, serve.pool);
  EXPECT_EQ(batch.failed, serve.failed);
  EXPECT_EQ(batch.cancelled, serve.cancelled);
  EXPECT_EQ(batch.submit_time, serve.submit_time);
  EXPECT_EQ(batch.first_launch_time, serve.first_launch_time);
  EXPECT_EQ(batch.finish_time, serve.finish_time);
  ASSERT_EQ(batch.stages.size(), serve.stages.size());
  for (size_t i = 0; i < batch.stages.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "stage " << i);
    const StageStats& b = batch.stages[i];
    const StageStats& s = serve.stages[i];
    EXPECT_EQ(b.ordinal, s.ordinal);
    EXPECT_EQ(b.name, s.name);
    EXPECT_EQ(b.io_tagged, s.io_tagged);
    EXPECT_EQ(b.num_tasks, s.num_tasks);
    EXPECT_EQ(b.start_time, s.start_time);
    EXPECT_EQ(b.end_time, s.end_time);
    EXPECT_EQ(b.input_bytes, s.input_bytes);
    EXPECT_EQ(b.disk_read, s.disk_read);
    EXPECT_EQ(b.disk_written, s.disk_written);
    EXPECT_EQ(b.net_bytes, s.net_bytes);
    EXPECT_EQ(b.cpu_utilization, s.cpu_utilization);
    EXPECT_EQ(b.disk_utilization, s.disk_utilization);
    EXPECT_EQ(b.iowait_fraction, s.iowait_fraction);
    EXPECT_EQ(b.threads_total, s.threads_total);
    EXPECT_EQ(b.task_seconds, s.task_seconds);
    EXPECT_EQ(b.task_p50, s.task_p50);
    EXPECT_EQ(b.task_p95, s.task_p95);
    EXPECT_EQ(b.task_max, s.task_max);
    EXPECT_EQ(b.executors.size(), 4u);
    EXPECT_TRUE(s.executors.empty());
  }
  EXPECT_EQ(batch.render(), serve.render());
  EXPECT_EQ(batch.to_csv(), serve.to_csv());
}

// DFS read -> reduce_by_key into 8 partitions -> CPU-bound reduce -> save.
Rdd linear_job(SparkContext& ctx, Bytes input) {
  ctx.dfs().load_input("/in", input, 4);
  return ctx.text_file("/in")
      .reduce_by_key("g", {0.01, 1.0}, 1.0, 8, ShuffleTraits{0.0, 1.0})
      .map("reduce", {2.0, 0.1})
      .save_as_text_file("/out");
}

struct BothDrivers {
  JobReport batch, serve;
  int64_t resubmitted = 0;  // partitions lineage recovery rebuilt (serve)
};

// The same job through run_job and through submit_job plus a sim loop, on
// two identical contexts.
BothDrivers run_both_drivers(const conf::Config& config, Bytes input) {
  BothDrivers out;
  {
    ContextRig rig(config);
    out.batch = rig.ctx.run_job(linear_job(rig.ctx, input), "linear");
  }
  ContextRig rig(config);
  bool done = false;
  rig.ctx.submit_job(linear_job(rig.ctx, input), "linear", "default",
                     [&](JobReport r) {
                       out.serve = std::move(r);
                       done = true;
                     });
  while (!done && rig.cluster.sim().step()) {
  }
  EXPECT_TRUE(done);
  for (const Event& e : rig.ctx.event_log().events()) {
    if (e.kind == EventKind::kStageResubmitted) out.resubmitted += e.value;
  }
  return out;
}

TEST(SparkContext, BothDriversReportTheSameLinearJob) {
  const BothDrivers r = run_both_drivers(small_config(), gib(2));
  ASSERT_EQ(r.batch.stages.size(), 2u);
  EXPECT_EQ(r.batch.job_id, 0);
  EXPECT_EQ(r.batch.pool, "default");
  EXPECT_GT(r.batch.stages[1].task_seconds, 0.0);
  expect_same_report(r.batch, r.serve);
}

// The node killed mid-reduce holds more map partitions than there are reduce
// tasks: the batch stage's percentiles must still count only its own tasks,
// never the lineage-recovery set that runs beside them.
TEST(SparkContext, BothDriversReportTheSameJobAcrossAnExecutorKill) {
  conf::Config config = small_config();
  config.set_bool("saex.fault.enabled", true);
  config.set_int("saex.fault.killNode", 1);
  config.set("saex.fault.killTime", "500s");
  const BothDrivers r = run_both_drivers(config, gib(8));
  EXPECT_GT(r.resubmitted, 8);
  ASSERT_EQ(r.batch.stages.size(), 2u);
  EXPECT_FALSE(r.batch.failed);
  expect_same_report(r.batch, r.serve);
}

TEST(SparkContext, SpeculativeLaunchesNameTheirJob) {
  hw::ClusterSpec spec = hw::ClusterSpec::das5(4);
  spec.seed = 1234;
  spec.slow_disk_prob = 0.25;  // one slow disk: its tasks straggle
  spec.slow_disk_factor = 0.25;
  hw::Cluster cluster(spec);
  conf::Config config = small_config();
  config.set_bool("spark.speculation", true);
  config.set_double("spark.speculation.multiplier", 1.4);
  config.set_double("spark.speculation.quantile", 0.5);
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", gib(8), 4);
  for (int job = 0; job < 2; ++job) {
    (void)ctx.run_job(ctx.text_file("/in").count(), "spec");
  }
  int job = -1;
  std::map<int, int> launches;  // job id -> speculative launches
  for (const Event& e : ctx.event_log().events()) {
    if (e.kind == EventKind::kJobStart) job = e.job;
    if (e.kind != EventKind::kSpeculativeLaunch) continue;
    EXPECT_EQ(e.job, job);
    ++launches[e.job];
  }
  EXPECT_GT(launches[0], 0);
  EXPECT_GT(launches[1], 0);
}

}  // namespace
}  // namespace saex::engine
