// saex::serve: admission control, FAIR/FIFO arbitration, dynamic executor
// allocation, slot-accounting invariants, and replay determinism.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "common/format.h"
#include "serve/job_server.h"
#include "serve/trace.h"

namespace saex::serve {
namespace {

using engine::Rdd;
using engine::SchedulingMode;
using engine::SparkContext;

conf::Config serve_config() {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  return c;
}

struct ServeRig {
  explicit ServeRig(conf::Config config = serve_config(), int nodes = 4,
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

TraceOptions small_trace_options(uint64_t seed = 7) {
  TraceOptions t;
  t.num_jobs = 12;
  t.mean_interarrival = 1.0;
  t.seed = seed;
  t.small_input = mib(256);
  t.big_input = mib(512);
  t.dim_input = mib(128);
  return t;
}

// ---------- pool-definition parsing ----------

TEST(ParsePools, ParsesWeightAndMinShare) {
  const auto pools = parse_pools("interactive:3:32,batch:1:0,plain");
  ASSERT_EQ(pools.size(), 3u);
  EXPECT_EQ(pools[0].name, "interactive");
  EXPECT_EQ(pools[0].weight, 3);
  EXPECT_EQ(pools[0].min_share, 32);
  EXPECT_EQ(pools[1].name, "batch");
  EXPECT_EQ(pools[2].name, "plain");
  EXPECT_EQ(pools[2].weight, 1);
  EXPECT_EQ(pools[2].min_share, 0);
}

TEST(ParsePools, RejectsMalformedEntries) {
  EXPECT_THROW(parse_pools("interactive:x"), conf::ConfigError);
  EXPECT_THROW(parse_pools("interactive:0:1"), conf::ConfigError);
  EXPECT_THROW(parse_pools(":2:1"), conf::ConfigError);
  EXPECT_TRUE(parse_pools("").empty());
}

TEST(ParsePools, RejectsTrailingCharactersAndExtraFields) {
  // Each number field parses whole: 3x is malformed, not weight 3.
  EXPECT_THROW(parse_pools("interactive:3x:16,batch:1:0"), conf::ConfigError);
  EXPECT_THROW(parse_pools("interactive:3:16 ,batch:1:0"), conf::ConfigError);
  EXPECT_THROW(parse_pools("interactive:+3:16"), conf::ConfigError);
  // A fourth field is an error, not dropped; the message names the entry.
  EXPECT_THROW(parse_pools("interactive:3:16:"), conf::ConfigError);
  try {
    parse_pools("interactive:3:16:junk,batch:1:0");
    FAIL() << "a fourth field must throw";
  } catch (const conf::ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("'interactive:3:16:junk'"),
              std::string::npos)
        << e.what();
  }
  // Empty fields still keep their defaults.
  const auto pools = parse_pools("a::4,b:2:");
  ASSERT_EQ(pools.size(), 2u);
  EXPECT_EQ(pools[0].weight, 1);
  EXPECT_EQ(pools[0].min_share, 4);
  EXPECT_EQ(pools[1].weight, 2);
  EXPECT_EQ(pools[1].min_share, 0);
}

TEST(JobServerOptions, ReadsConfig) {
  conf::Config c = serve_config();
  c.set("saex.scheduler.mode", "fair");
  c.set("saex.scheduler.pools", "interactive:3:32,batch:1:0");
  c.set("saex.serve.maxConcurrentJobs", "5");
  const auto o = JobServerOptions::from_config(c);
  EXPECT_EQ(o.mode, SchedulingMode::kFair);
  ASSERT_EQ(o.pools.size(), 2u);
  EXPECT_EQ(o.max_concurrent_jobs, 5);

  c.set("saex.scheduler.mode", "lottery");
  EXPECT_THROW(JobServerOptions::from_config(c), conf::ConfigError);
}

// No concurrent slot would admit every job and run none.
TEST(JobServerOptions, RejectsNoSlotsAndNegativeQueue) {
  conf::Config c = serve_config();
  c.set_int("saex.serve.maxConcurrentJobs", 0);
  EXPECT_THROW(JobServerOptions::from_config(c), conf::ConfigError);
  c.set_int("saex.serve.maxConcurrentJobs", 1);
  c.set_int("saex.serve.maxQueuedJobs", -1);
  EXPECT_THROW(JobServerOptions::from_config(c), conf::ConfigError);
  c.set_int("saex.serve.maxQueuedJobs", 0);
  EXPECT_EQ(JobServerOptions::from_config(c).max_queued_jobs, 0);
}

// ---------- admission control ----------

JobServer::Builder tiny_job(int id) {
  return [id](SparkContext& ctx) {
    return ctx.text_file("/serve/small")
        .filter("where", 0.2, 0.4)
        .save_as_text_file(strfmt::format("/adm/out{}", id), 1);
  };
}

TEST(JobServer, AdmissionQueueAndBackpressure) {
  ServeRig rig;
  load_trace_inputs(rig.ctx, small_trace_options());
  JobServerOptions o;
  o.max_concurrent_jobs = 1;
  o.max_queued_jobs = 1;
  JobServer server(rig.ctx, o);

  EXPECT_EQ(server.submit("a", "c0", "default", tiny_job(0)),
            Admission::kAccepted);
  EXPECT_EQ(server.submit("b", "c0", "default", tiny_job(1)),
            Admission::kQueued);
  EXPECT_EQ(server.submit("c", "c0", "default", tiny_job(2)),
            Admission::kRejectedQueueFull);
  EXPECT_EQ(server.running_jobs(), 1);
  EXPECT_EQ(server.queued_jobs(), 1);

  const ServeReport report = server.drain();
  EXPECT_EQ(report.submitted, 3);
  EXPECT_EQ(report.started, 2);
  EXPECT_EQ(report.finished, 2);
  EXPECT_EQ(report.rejected_queue_full, 1);
  // The queued job waited for the first one's concurrency slot.
  EXPECT_GT(report.jobs[1].start_time, report.jobs[0].start_time);
  EXPECT_GE(report.jobs[1].queue_wait(), report.jobs[0].queue_wait());
  // Admission decisions land in the event log.
  EXPECT_EQ(rig.ctx.event_log().of_kind(engine::EventKind::kJobRejected).size(),
            1u);
  EXPECT_EQ(rig.ctx.event_log().of_kind(engine::EventKind::kJobDequeued).size(),
            1u);
}

TEST(JobServer, PerClientQuota) {
  ServeRig rig;
  load_trace_inputs(rig.ctx, small_trace_options());
  JobServerOptions o;
  o.max_concurrent_jobs = 1;
  o.max_queued_jobs = 8;
  o.max_jobs_per_client = 2;
  JobServer server(rig.ctx, o);

  EXPECT_EQ(server.submit("a", "c0", "default", tiny_job(0)),
            Admission::kAccepted);
  EXPECT_EQ(server.submit("b", "c0", "default", tiny_job(1)),
            Admission::kQueued);
  EXPECT_EQ(server.submit("c", "c0", "default", tiny_job(2)),
            Admission::kRejectedClientQuota);
  // A different tenant still gets in.
  EXPECT_EQ(server.submit("d", "c1", "default", tiny_job(3)),
            Admission::kQueued);
  const ServeReport report = server.drain();
  EXPECT_EQ(report.rejected_client_quota, 1);
  EXPECT_EQ(report.finished, 3);
}

// ---------- scheduling + invariants over a full trace ----------

ServeReport run_trace(conf::Config config, const TraceOptions& trace_options,
                      int64_t* dispatched = nullptr,
                      int64_t* finished = nullptr,
                      int64_t* overcommits = nullptr, int nodes = 4) {
  ServeRig rig(std::move(config), nodes);
  JobServer server(rig.ctx);
  const ServeReport report =
      server.replay(make_trace(trace_options), trace_options);
  if (dispatched != nullptr) {
    *dispatched = rig.ctx.scheduler().tasks_dispatched();
  }
  if (finished != nullptr) *finished = rig.ctx.scheduler().tasks_finished();
  if (overcommits != nullptr) {
    *overcommits = rig.ctx.scheduler().dispatch_overcommits();
  }
  return report;
}

TEST(JobServer, NoLostTasksAcrossSeeds) {
  for (const uint64_t seed : {7ull, 8ull, 9ull}) {
    conf::Config c = serve_config();
    c.set("saex.serve.maxConcurrentJobs", "4");
    int64_t dispatched = 0, finished = 0, overcommits = 0;
    const ServeReport report = run_trace(c, small_trace_options(seed),
                                         &dispatched, &finished, &overcommits);
    EXPECT_EQ(report.finished, report.started) << "seed " << seed;
    EXPECT_EQ(report.failed, 0) << "seed " << seed;
    EXPECT_EQ(dispatched, finished) << "seed " << seed;
    EXPECT_EQ(overcommits, 0) << "seed " << seed;
    for (const JobRecord& rec : report.jobs) {
      EXPECT_FALSE(rec.failed);
      EXPECT_GE(rec.queue_wait(), 0.0);
      for (const engine::StageStats& s : rec.report.stages) {
        EXPECT_EQ(static_cast<int>(s.num_tasks), s.num_tasks);
      }
    }
  }
}

// Adaptive policies resize executor pools mid-stage while several jobs share
// them; the §5.4 resize notifications must keep the driver's slot accounting
// exact (no dispatch may exceed an executor's advertised size).
TEST(JobServer, SlotAccountingExactUnderConcurrentResize) {
  conf::Config c = serve_config();
  c.set("saex.executor.policy", "dynamic");
  c.set("saex.scheduler.mode", "FAIR");
  c.set("saex.scheduler.pools", "interactive:3:16,batch:1:0");
  c.set("saex.serve.maxConcurrentJobs", "6");
  int64_t dispatched = 0, finished = 0, overcommits = 0;
  const ServeReport report = run_trace(c, small_trace_options(11), &dispatched,
                                       &finished, &overcommits);
  EXPECT_EQ(overcommits, 0);
  EXPECT_EQ(dispatched, finished);
  EXPECT_EQ(report.finished, report.started);
  EXPECT_EQ(report.policy, "dynamic");
}

// FAIR with a weighted interactive pool must cut the small jobs' queue wait
// relative to FIFO on the same trace (the batch sorts monopolize FIFO order).
// Two nodes with 8 cores each: 16 slots, so overlapping jobs genuinely
// contend and the offer order decides who waits.
TEST(JobServer, FairReducesInteractiveQueueWait) {
  TraceOptions t = small_trace_options(13);
  t.num_jobs = 16;
  t.mean_interarrival = 0.5;  // heavy contention

  conf::Config fifo = serve_config();
  fifo.set("spark.executor.cores", "8");
  fifo.set("saex.serve.maxConcurrentJobs", "16");
  conf::Config fair = fifo;
  fair.set("saex.scheduler.mode", "FAIR");
  fair.set("saex.scheduler.pools", "interactive:4:8,batch:1:0");

  const ServeReport r_fifo =
      run_trace(fifo, t, nullptr, nullptr, nullptr, /*nodes=*/2);
  const ServeReport r_fair =
      run_trace(fair, t, nullptr, nullptr, nullptr, /*nodes=*/2);
  const PoolStats* fifo_small = r_fifo.pool("interactive");
  const PoolStats* fair_small = r_fair.pool("interactive");
  ASSERT_NE(fifo_small, nullptr);
  ASSERT_NE(fair_small, nullptr);
  EXPECT_LT(fair_small->queue_wait_p95, fifo_small->queue_wait_p95);
  EXPECT_LT(fair_small->queue_wait_mean, fifo_small->queue_wait_mean);
}

// minShare: a pool below its minimum share outranks every satisfied pool.
// Four sorts oversubscribe the cluster (32 pending map tasks on 16 slots),
// so freed slots are contended: FIFO hands them to the earlier sort jobs,
// FAIR+minShare hands them to the needy interactive pool. Note neither mode
// preempts running tasks — only slot handoff differs, as in Spark.
TEST(JobServer, MinShareGrantsSlotsUnderSaturation) {
  auto scan_wait = [](const std::string& mode) {
    conf::Config c = serve_config();
    c.set("spark.executor.cores", "8");
    c.set("saex.scheduler.mode", mode);
    c.set("saex.scheduler.pools", "interactive:1:4,batch:1:0");
    c.set("saex.serve.maxConcurrentJobs", "8");
    ServeRig rig(c, /*nodes=*/2);
    load_trace_inputs(rig.ctx, small_trace_options());
    JobServer server(rig.ctx);

    auto submit = [&](const TraceJob& job) {
      server.submit(job.workload, job.client, job.pool,
                    [job](SparkContext& ctx) {
                      return build_trace_job(ctx, job);
                    });
    };
    for (int i = 0; i < 4; ++i) {
      submit(TraceJob{i, "c0", "batch", "sort", 0.0});
    }
    TraceJob scan{4, "c1", "interactive", "scan", 0.0};
    rig.cluster.sim().schedule_at(1.0, [&] { submit(scan); });
    const ServeReport report = server.drain();
    EXPECT_EQ(report.finished, 5);
    return report.jobs[4].queue_wait();
  };

  const double fifo_wait = scan_wait("FIFO");
  const double fair_wait = scan_wait("FAIR");
  EXPECT_LT(fair_wait, fifo_wait);
}

// ---------- dynamic allocation ----------

TEST(JobServer, DynamicAllocationGrowsAndShrinks) {
  conf::Config c = serve_config();
  c.set("spark.dynamicAllocation.enabled", "true");
  c.set("spark.dynamicAllocation.minExecutors", "1");
  c.set("spark.dynamicAllocation.initialExecutors", "1");
  c.set("spark.dynamicAllocation.executorIdleTimeout", "2s");
  c.set("spark.dynamicAllocation.schedulerBacklogTimeout", "500ms");
  c.set("spark.dynamicAllocation.sustainedSchedulerBacklogTimeout", "500ms");
  ServeRig rig(c);
  JobServer server(rig.ctx);
  EXPECT_EQ(rig.ctx.scheduler().active_executor_count(), 1);

  TraceOptions t = small_trace_options(17);
  t.num_jobs = 8;
  const ServeReport report = server.replay(make_trace(t), t);

  EXPECT_EQ(report.finished, report.started);
  EXPECT_GT(report.executors_granted, 0);   // backlog forced growth
  EXPECT_GT(report.executors_released, 0);  // idle timeout shrank it back
  EXPECT_EQ(rig.ctx.scheduler().dispatch_overcommits(), 0);
  // Released executors stop receiving offers; the floor holds.
  EXPECT_GE(rig.ctx.scheduler().active_executor_count(), 1);
  const auto granted =
      rig.ctx.event_log().of_kind(engine::EventKind::kExecutorGranted);
  EXPECT_EQ(static_cast<int>(granted.size()), report.executors_granted);
}

// ---------- determinism ----------

TEST(JobServer, ReplayIsDeterministic) {
  conf::Config c = serve_config();
  c.set("saex.scheduler.mode", "FAIR");
  c.set("saex.scheduler.pools", "interactive:3:32,batch:1:0");
  c.set("saex.executor.policy", "dynamic");
  c.set("spark.dynamicAllocation.enabled", "true");
  c.set("spark.dynamicAllocation.minExecutors", "1");

  const TraceOptions t = small_trace_options(23);
  const ServeReport a = run_trace(c, t);
  const ServeReport b = run_trace(c, t);

  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].admission, b.jobs[i].admission) << "job " << i;
    EXPECT_EQ(a.jobs[i].submit_time, b.jobs[i].submit_time) << "job " << i;
    EXPECT_EQ(a.jobs[i].start_time, b.jobs[i].start_time) << "job " << i;
    EXPECT_EQ(a.jobs[i].finish_time, b.jobs[i].finish_time) << "job " << i;
    EXPECT_EQ(a.jobs[i].report.first_launch_time,
              b.jobs[i].report.first_launch_time)
        << "job " << i;
    ASSERT_EQ(a.jobs[i].report.stages.size(), b.jobs[i].report.stages.size());
    for (size_t s = 0; s < a.jobs[i].report.stages.size(); ++s) {
      EXPECT_EQ(a.jobs[i].report.stages[s].end_time,
                b.jobs[i].report.stages[s].end_time)
          << "job " << i << " stage " << s;
    }
  }
  EXPECT_EQ(a.fairness_index, b.fairness_index);
  EXPECT_EQ(a.total_time, b.total_time);
}

// Speculation while several task sets compete for slots: sets that may
// launch copies are offered slots beside sets that only pending tasks can
// serve, which is where the offer loop's shortcuts apply (run_job offers one
// set at a time). Copies must land, no slot may be overcommitted, and the
// replay must stay a pure function of its seed.
TEST(JobServer, SpeculationAcrossConcurrentSetsIsExactAndDeterministic) {
  struct Run {
    ServeReport report;
    int64_t speculative = 0;
    int64_t overcommits = 0;
    std::string event_log;
  };
  auto replay = [] {
    conf::Config c = serve_config();
    c.set("saex.scheduler.mode", "FAIR");
    c.set("saex.scheduler.pools", "interactive:3:16,batch:1:0");
    c.set_bool("spark.speculation", true);
    c.set_bool("saex.fault.enabled", true);
    c.set_int("saex.fault.slowNode", 3);
    c.set_double("saex.fault.slowFactor", 0.2);
    TraceOptions t = small_trace_options(29);
    t.num_jobs = 24;
    ServeRig rig(c, /*nodes=*/16);
    JobServer server(rig.ctx);
    Run run;
    run.report = server.replay(make_trace(t), t);
    run.speculative = rig.ctx.scheduler().speculative_launches();
    run.overcommits = rig.ctx.scheduler().dispatch_overcommits();
    run.event_log = rig.ctx.event_log().to_json_lines();
    return run;
  };
  const Run a = replay();
  EXPECT_GT(a.speculative, 0);
  EXPECT_EQ(a.overcommits, 0);
  ASSERT_EQ(a.report.jobs.size(), 24u);
  EXPECT_EQ(a.report.finished, 24);
  for (const JobRecord& rec : a.report.jobs) {
    EXPECT_EQ(rec.outcome, JobOutcome::kFinished) << rec.name;
  }
  const Run b = replay();
  EXPECT_EQ(b.speculative, a.speculative);
  EXPECT_EQ(b.event_log, a.event_log);
}

// ---------- memory ----------

// Busy-time history is bounded by live state, not by simulated history: after
// a long replay the CPU trackers hold no change points (stage rollups
// snapshot their integrals) and each disk tracker holds only the executor
// sensor's window plus the one point that anchors its start.
TEST(JobServer, LongReplayKeepsOnlyTheSensorWindow) {
  conf::Config c = serve_config();
  c.set("saex.scheduler.mode", "FAIR");
  c.set("saex.scheduler.pools", "interactive:3:16,batch:1:0");
  c.set("saex.executor.policy", "dynamic");
  TraceOptions t = small_trace_options(15);
  t.num_jobs = 300;
  t.mean_interarrival = 0.5;
  t.small_input = mib(64);
  t.big_input = mib(128);
  t.dim_input = mib(32);
  ServeRig rig(c, /*nodes=*/16);
  JobServer server(rig.ctx);
  const ServeReport report = server.replay(make_trace(t), t);
  ASSERT_EQ(report.finished, 300);

  double stage_cpu_sum = 0.0;
  for (const JobRecord& rec : report.jobs) {
    for (const engine::StageStats& s : rec.report.stages) {
      stage_cpu_sum += s.cpu_utilization;
    }
  }
  EXPECT_GT(stage_cpu_sum, 0.0);  // the rollups still see the CPU work

  size_t disk_points = 0;
  for (int n = 0; n < rig.cluster.size(); ++n) {
    hw::Node& node = rig.cluster.node(n);
    EXPECT_EQ(node.cpu().busy_tracker().retained_points(), 0u) << "node " << n;
    EXPECT_GT(node.cpu().total_busy_seconds(), 0.0) << "node " << n;
    const metrics::UtilizationTracker& disk = node.disk().busy_tracker();
    const double horizon = disk.last_update() - hw::Disk::kUtilWindow;
    for (size_t i = 1; i < disk.retained_points(); ++i) {
      EXPECT_GT(disk.retained_time(i), horizon) << "node " << n << " point " << i;
    }
    if (disk.retained_points() > 0) {
      EXPECT_LE(disk.retained_time(0), horizon) << "node " << n;
    }
    disk_points += disk.retained_points();
  }
  EXPECT_GT(disk_points, 0u);
}

// Same seed must also give the same trace (pure function of options).
TEST(Trace, DeterministicAndSorted) {
  const TraceOptions t = small_trace_options(29);
  const auto a = make_trace(t);
  const auto b = make_trace(t);
  ASSERT_EQ(a.size(), b.size());
  double prev = 0.0;
  std::map<std::string, int> by_pool;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_time, b[i].arrival_time);
    EXPECT_EQ(a[i].workload, b[i].workload);
    EXPECT_EQ(a[i].client, b[i].client);
    EXPECT_GE(a[i].arrival_time, prev);
    prev = a[i].arrival_time;
    ++by_pool[a[i].pool];
  }
  EXPECT_GT(by_pool["interactive"], 0);
  EXPECT_GT(by_pool["batch"], 0);
}

// A negative length or mean gap is a caller error, not a degenerate trace:
// -3 jobs must not reach reserve(), and negative gaps must not pull every
// arrival to t = 0.
TEST(Trace, RejectsNegativeLengthOrGap) {
  TraceOptions t = small_trace_options();
  t.num_jobs = -3;
  EXPECT_THROW(make_trace(t), std::invalid_argument);
  t = small_trace_options();
  t.mean_interarrival = -1.0;
  EXPECT_THROW(make_trace(t), std::invalid_argument);
}

}  // namespace
}  // namespace saex::serve
