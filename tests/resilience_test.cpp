// saex::resilience + the serve layer's resilience wiring: seeded retry
// backoff, the node-health circuit breaker, chaos schedule parsing, the
// kill/rejoin churn path, job deadlines (shed / cancel / SLO accounting),
// and the cancellation tie-break determinism guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/format.h"
#include "engine/context.h"
#include "fault/fault.h"
#include "resilience/health.h"
#include "resilience/resilience.h"
#include "serve/job_server.h"
#include "serve/trace.h"
#include "shard/sharded_server.h"
#include "sim/simulation.h"

namespace saex {
namespace {

using engine::EventKind;
using engine::SparkContext;
using resilience::HealthOptions;
using resilience::NodeHealthTracker;
using resilience::RetryPolicy;
using serve::Admission;
using serve::JobOutcome;
using serve::JobServer;
using serve::JobServerOptions;
using serve::ServeReport;

// ---------- RetryPolicy ----------

TEST(RetryPolicy, ReadsConfig) {
  conf::Config c;
  c.set_int("saex.serve.maxRetries", 4);
  c.set("saex.serve.retryBackoff", "2s");
  c.set("saex.serve.retryBackoffMax", "40s");
  c.set_double("saex.serve.retryJitter", 0.25);
  const RetryPolicy p = RetryPolicy::from_config(c);
  EXPECT_EQ(p.max_retries, 4);
  EXPECT_DOUBLE_EQ(p.backoff, 2.0);
  EXPECT_DOUBLE_EQ(p.backoff_max, 40.0);
  EXPECT_DOUBLE_EQ(p.jitter, 0.25);
}

TEST(RetryPolicy, DelayIsAPureFunctionOfSeedSubmissionAndAttempt) {
  RetryPolicy p;
  p.backoff = 1.0;
  p.backoff_max = 30.0;
  p.jitter = 0.5;
  // Same inputs, same delay — regardless of call order or interleaving.
  const double d = p.delay(42, 7, 1);
  for (int i = 0; i < 4; ++i) {
    (void)p.delay(42, 99, 2);  // other jobs' draws must not perturb it
    EXPECT_DOUBLE_EQ(p.delay(42, 7, 1), d);
  }
  // Different submission / attempt / seed: independent streams.
  EXPECT_NE(p.delay(42, 8, 1), d);
  EXPECT_NE(p.delay(42, 7, 2), d);
  EXPECT_NE(p.delay(43, 7, 1), d);
}

TEST(RetryPolicy, DelayGrowsExponentiallyWithinJitterBounds) {
  RetryPolicy p;
  p.backoff = 1.0;
  p.backoff_max = 30.0;
  p.jitter = 0.5;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    const double base = std::min(30.0, std::ldexp(1.0, attempt - 1));
    const double d = p.delay(42, 0, attempt);
    EXPECT_GE(d, base);
    EXPECT_LT(d, base * 1.5);
  }
}

TEST(RetryPolicy, ZeroJitterIsExactAndDrawFree) {
  RetryPolicy p;
  p.backoff = 2.0;
  p.backoff_max = 10.0;
  p.jitter = 0.0;
  EXPECT_DOUBLE_EQ(p.delay(42, 3, 1), 2.0);
  EXPECT_DOUBLE_EQ(p.delay(42, 3, 2), 4.0);
  EXPECT_DOUBLE_EQ(p.delay(42, 3, 3), 8.0);
  EXPECT_DOUBLE_EQ(p.delay(42, 3, 4), 10.0);  // capped
  EXPECT_DOUBLE_EQ(p.delay(42, 3, 9), 10.0);
}

// ---------- NodeHealthTracker (circuit breaker) ----------

struct BreakerRig {
  explicit BreakerRig(HealthOptions options) {
    NodeHealthTracker::Hooks hooks;
    hooks.quarantine = [this](int n) { quarantined.push_back(n); };
    hooks.reinstate = [this](int n) { reinstated.push_back(n); };
    tracker = std::make_unique<NodeHealthTracker>(4, options, sim, hooks);
  }

  sim::Simulation sim;
  std::unique_ptr<NodeHealthTracker> tracker;
  std::vector<int> quarantined;
  std::vector<int> reinstated;
};

HealthOptions breaker_options() {
  HealthOptions o;
  o.enabled = true;
  o.threshold = 2;
  o.window = 5.0;
  o.cooldown = 10.0;
  return o;
}

TEST(NodeHealthTracker, TripsAtThresholdWithinWindowAndCoolsDown) {
  BreakerRig rig(breaker_options());
  rig.sim.schedule_at(1.0, [&] { rig.tracker->record_fault(0); });
  rig.sim.schedule_at(2.0, [&] {
    rig.tracker->record_fault(0);
    EXPECT_TRUE(rig.tracker->quarantined(0));
    EXPECT_FALSE(rig.tracker->quarantined(1));
  });
  // Probe succeeds after the cooldown half-opens the breaker at t=12.
  rig.sim.schedule_at(13.0, [&] {
    EXPECT_FALSE(rig.tracker->quarantined(0));  // half-open: schedulable
    rig.tracker->record_task_outcome(0, true);
  });
  rig.sim.run();
  EXPECT_EQ(rig.quarantined, (std::vector<int>{0}));
  EXPECT_EQ(rig.reinstated, (std::vector<int>{0}));
  EXPECT_EQ(rig.tracker->quarantines(), 1);
  EXPECT_EQ(rig.tracker->probes(), 1);
  EXPECT_EQ(rig.tracker->reinstatements(), 1);
}

TEST(NodeHealthTracker, OldFaultsOutsideTheWindowDoNotTrip) {
  BreakerRig rig(breaker_options());
  rig.sim.schedule_at(1.0, [&] { rig.tracker->record_fault(2); });
  rig.sim.schedule_at(20.0, [&] {
    rig.tracker->record_fault(2);  // first fault long expired
    EXPECT_FALSE(rig.tracker->quarantined(2));
  });
  rig.sim.run();
  EXPECT_EQ(rig.tracker->quarantines(), 0);
}

TEST(NodeHealthTracker, FailedProbeReopensForAnotherCooldown) {
  BreakerRig rig(breaker_options());
  rig.sim.schedule_at(1.0, [&] { rig.tracker->record_fault(1); });
  rig.sim.schedule_at(2.0, [&] { rig.tracker->record_fault(1); });
  // Half-open at t=12; the probe fails -> open again; half-open at t=23.
  rig.sim.schedule_at(13.0, [&] { rig.tracker->record_task_outcome(1, false); });
  rig.sim.schedule_at(24.0, [&] {
    rig.tracker->record_task_outcome(1, true);
    EXPECT_FALSE(rig.tracker->quarantined(1));
  });
  rig.sim.run();
  EXPECT_EQ(rig.tracker->quarantines(), 2);
  EXPECT_EQ(rig.tracker->probes(), 2);
  EXPECT_EQ(rig.tracker->reinstatements(), 1);
}

TEST(NodeHealthTracker, FaultsWhileOpenAreIgnored) {
  BreakerRig rig(breaker_options());
  rig.sim.schedule_at(1.0, [&] { rig.tracker->record_fault(3); });
  rig.sim.schedule_at(2.0, [&] { rig.tracker->record_fault(3); });
  rig.sim.schedule_at(3.0, [&] { rig.tracker->record_fault(3); });
  rig.sim.schedule_at(4.0, [&] { rig.tracker->record_fault(3); });
  rig.sim.schedule_at(13.0, [&] { rig.tracker->record_task_outcome(3, true); });
  rig.sim.run();
  EXPECT_EQ(rig.tracker->quarantines(), 1);  // not re-tripped while open
}

// ---------- chaos schedule parsing ----------

TEST(ChaosSpec, ParsesSortsAndRoundTrips) {
  const auto events = fault::parse_chaos("rejoin:1@20, kill:1@5 kill:2@5");
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, fault::ChaosEvent::Kind::kKill);
  EXPECT_EQ(events[0].node, 1);
  EXPECT_DOUBLE_EQ(events[0].time, 5.0);
  EXPECT_EQ(events[1].node, 2);  // stable order at equal times
  EXPECT_EQ(events[2].kind, fault::ChaosEvent::Kind::kRejoin);
  EXPECT_DOUBLE_EQ(events[2].time, 20.0);

  const std::string canon = fault::format_chaos(events);
  EXPECT_EQ(canon, "kill:1@5,kill:2@5,rejoin:1@20");
  const auto reparsed = fault::parse_chaos(canon);
  ASSERT_EQ(reparsed.size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(reparsed[i].kind, events[i].kind);
    EXPECT_EQ(reparsed[i].node, events[i].node);
    EXPECT_DOUBLE_EQ(reparsed[i].time, events[i].time);
  }
}

TEST(ChaosSpec, AcceptsNewlinesAndComments) {
  const auto events = fault::parse_chaos(
      "# churn plan\nkill:0@10  # first loss\n\nrejoin:0@30\n");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].node, 0);
  EXPECT_DOUBLE_EQ(events[1].time, 30.0);
  EXPECT_TRUE(fault::parse_chaos("").empty());
  EXPECT_TRUE(fault::parse_chaos("# only comments\n").empty());
}

TEST(ChaosSpec, RejectsMalformedEntries) {
  EXPECT_THROW(fault::parse_chaos("restart:1@5"), conf::ConfigError);
  EXPECT_THROW(fault::parse_chaos("kill:1"), conf::ConfigError);
  EXPECT_THROW(fault::parse_chaos("kill:x@5"), conf::ConfigError);
  EXPECT_THROW(fault::parse_chaos("kill:-1@5"), conf::ConfigError);
  EXPECT_THROW(fault::parse_chaos("kill:1@oops"), conf::ConfigError);
  EXPECT_THROW(fault::parse_chaos("kill:1@-3"), conf::ConfigError);
  // Node ids past INT_MAX once wrapped to another executor (2) or to -1,
  // and an infinite time never fired.
  EXPECT_THROW(fault::parse_chaos("kill:4294967298@10"), conf::ConfigError);
  EXPECT_THROW(fault::parse_chaos("kill:99999999999999999999@10"),
               conf::ConfigError);
  EXPECT_THROW(fault::parse_chaos("kill:1@inf"), conf::ConfigError);
}

TEST(FaultSpec, ReadsChaosAndFetchFailNode) {
  conf::Config c;
  c.set_bool("saex.fault.enabled", true);
  c.set("saex.fault.chaos", "kill:2@10,rejoin:2@20");
  c.set_int("saex.fault.fetchFailNode", 3);
  const fault::FaultSpec spec = fault::FaultSpec::from_config(c);
  ASSERT_EQ(spec.chaos.size(), 2u);
  EXPECT_EQ(spec.chaos[0].node, 2);
  EXPECT_EQ(spec.fetch_fail_node, 3);
}

TEST(FaultState, FetchFailNodeRestrictsDropsWithoutConsumingDraws) {
  // Same seed: stream positions must match whether or not unrelated
  // (non-targeted) fetches happened in between.
  fault::FaultState targeted(4, 42, 1.0, /*fetch_fail_node=*/2);
  fault::FaultState reference(4, 42, 1.0, 2);
  EXPECT_FALSE(targeted.drop_fetch(0, 1));  // not the target: never drops
  EXPECT_FALSE(targeted.drop_fetch(3, 1));
  EXPECT_EQ(targeted.drop_fetch(2, 0), reference.drop_fetch(2, 0));
  EXPECT_EQ(targeted.fetch_drops(), reference.fetch_drops());
}

// ---------- FaultPlan: kill re-fire regression + rejoin ----------

struct PlanRig {
  explicit PlanRig(fault::FaultSpec spec) {
    fault::FaultPlan::Hooks hooks;
    hooks.kill_executor = [this](int n) {
      alive[static_cast<size_t>(n)] = false;
      kills.push_back(n);
    };
    hooks.rejoin_executor = [this](int n) {
      alive[static_cast<size_t>(n)] = true;
      rejoins.push_back(n);
    };
    hooks.node_alive = [this](int n) { return alive[static_cast<size_t>(n)]; };
    plan = std::make_unique<fault::FaultPlan>(std::move(spec), sim, hooks);
  }

  sim::Simulation sim;
  std::vector<char> alive = std::vector<char>(8, 1);
  std::unique_ptr<fault::FaultPlan> plan;
  std::vector<int> kills;
  std::vector<int> rejoins;
};

TEST(FaultPlan, KillSpecDoesNotRefireOnAnAlreadyDeadNode) {
  // Chaos kills node 1 at t=2; the single-kill spec targets the same node at
  // t=5. The second trigger must see the node dead and NOT re-fire.
  fault::FaultSpec spec;
  spec.enabled = true;
  spec.kill_node = 1;
  spec.kill_time = 5.0;
  spec.chaos = fault::parse_chaos("kill:1@2");
  PlanRig rig(std::move(spec));
  rig.plan->arm();
  rig.sim.run();
  EXPECT_EQ(rig.kills, (std::vector<int>{1}));
  EXPECT_EQ(rig.plan->kills_fired(), 1);
}

TEST(FaultPlan, TimeAndCountTriggersFireTheSpecKillOnce) {
  fault::FaultSpec spec;
  spec.enabled = true;
  spec.kill_node = 2;
  spec.kill_time = 3.0;
  spec.kill_after_tasks = 10;
  PlanRig rig(std::move(spec));
  rig.plan->arm();
  rig.sim.run();  // time trigger fires at t=3
  EXPECT_TRUE(rig.plan->kill_fired());
  rig.plan->notify_task_finished(50);  // count trigger must now be inert
  EXPECT_EQ(rig.kills, (std::vector<int>{2}));
  EXPECT_EQ(rig.plan->kills_fired(), 1);
}

TEST(FaultPlan, RejoinRevivesOnlyDeadNodes) {
  fault::FaultSpec spec;
  spec.enabled = true;
  spec.chaos = fault::parse_chaos("kill:3@1,rejoin:3@4,rejoin:5@6");
  PlanRig rig(std::move(spec));
  rig.plan->arm();
  rig.sim.run();
  EXPECT_EQ(rig.kills, (std::vector<int>{3}));
  // rejoin:5 targets a live node: a no-op.
  EXPECT_EQ(rig.rejoins, (std::vector<int>{3}));
  EXPECT_EQ(rig.plan->rejoins_fired(), 1);
  EXPECT_TRUE(rig.alive[3]);
}

// ---------- serve-layer rig ----------

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

serve::TraceOptions small_trace_options(uint64_t seed = 7) {
  serve::TraceOptions t;
  t.num_jobs = 12;
  t.mean_interarrival = 1.0;
  t.seed = seed;
  t.small_input = mib(256);
  t.big_input = mib(512);
  t.dim_input = mib(128);
  return t;
}

JobServer::Builder tiny_job(int id) {
  return [id](SparkContext& ctx) {
    return ctx.text_file("/serve/small")
        .filter("where", 0.2, 0.4)
        .save_as_text_file(strfmt::format("/res/out{}", id), 1);
  };
}

int count_events(const engine::EventLog& log, EventKind kind) {
  int n = 0;
  for (const engine::Event& e : log.events()) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// ---------- chaos churn through the engine ----------

TEST(ChaosChurn, KillAndRejoinRestoreClusterCapacity) {
  conf::Config c = serve_config();
  c.set_bool("saex.fault.enabled", true);
  c.set("saex.fault.chaos", "kill:1@2,rejoin:1@10");
  ServeRig rig(std::move(c));
  JobServer server(rig.ctx);
  const ServeReport report =
      server.replay(serve::make_trace(small_trace_options()),
                    small_trace_options());

  EXPECT_EQ(rig.ctx.fault_plan()->kills_fired(), 1);
  EXPECT_EQ(rig.ctx.fault_plan()->rejoins_fired(), 1);
  // The rejoin restored the node: nothing is dead at drain time.
  EXPECT_EQ(rig.ctx.scheduler().dead_executor_count(), 0);
  EXPECT_EQ(report.executors_lost, 0);
  EXPECT_EQ(count_events(rig.ctx.event_log(), EventKind::kExecutorLost), 1);
  EXPECT_EQ(count_events(rig.ctx.event_log(), EventKind::kExecutorRevived), 1);
  EXPECT_EQ(report.finished, report.submitted);
}

TEST(ChaosChurn, RevivedExecutorRunsTasksAgain) {
  ServeRig rig;
  rig.ctx.dfs().load_input("/in", mib(512), 4);
  rig.ctx.kill_executor(1);
  EXPECT_EQ(rig.ctx.scheduler().dead_executor_count(), 1);
  rig.ctx.revive_executor(1);
  rig.ctx.revive_executor(1);  // idempotent
  EXPECT_EQ(rig.ctx.scheduler().dead_executor_count(), 0);

  const engine::JobReport report = rig.ctx.run_job(
      rig.ctx.text_file("/in").map("m", {0.01, 1.0}).count(), "revived");
  EXPECT_FALSE(report.failed);
  // The revived executor participated in the stage.
  ASSERT_FALSE(report.stages.empty());
  bool node1_ran = false;
  for (const engine::ExecutorStageStats& es : report.stages[0].executors) {
    if (es.node == 1 && es.io_bytes > 0) node1_ran = true;
  }
  EXPECT_TRUE(node1_ran);
}

// ---------- deadlines: rejection, shedding, cancellation, SLO ----------

TEST(Deadlines, NonPositiveDeadlineIsRejectedUpFront) {
  ServeRig rig;
  load_trace_inputs(rig.ctx, small_trace_options());
  JobServer server(rig.ctx);
  EXPECT_EQ(server.submit("zero", "c0", "default", tiny_job(0), 0.0),
            Admission::kRejectedDeadlineInfeasible);
  const ServeReport report = server.drain();
  EXPECT_EQ(report.rejected_deadline, 1);
  EXPECT_EQ(report.started, 0);
  EXPECT_NE(report.render().find("1 deadline-rejected"), std::string::npos);
}

TEST(Deadlines, QueuedJobPastItsDeadlineIsShed) {
  ServeRig rig;
  load_trace_inputs(rig.ctx, small_trace_options());
  JobServerOptions o;
  o.max_concurrent_jobs = 1;
  JobServer server(rig.ctx, o);
  // Job 0 occupies the only slot for its whole (multi-second) runtime; job 1
  // has a 0.5 s budget and must be shed while still queued.
  server.submit("long", "c0", "default", tiny_job(0));
  server.submit("tight", "c0", "default", tiny_job(1), 0.5);
  const ServeReport report = server.drain();

  EXPECT_EQ(report.shed, 1);
  EXPECT_EQ(report.cancelled, 0);
  const serve::JobRecord& shed = report.jobs[1];
  EXPECT_EQ(shed.outcome, JobOutcome::kShedDeadline);
  EXPECT_TRUE(shed.failed);
  EXPECT_LT(shed.start_time, 0.0);  // never left the queue
  EXPECT_DOUBLE_EQ(shed.finish_time, shed.deadline);
  EXPECT_EQ(count_events(rig.ctx.event_log(), EventKind::kJobShed), 1);
  // SLO: tracked but not met; job 0 had no deadline so it is not tracked.
  EXPECT_EQ(report.slo_tracked, 1);
  EXPECT_EQ(report.slo_met, 0);
  EXPECT_NE(report.render_jobs().find("shed"), std::string::npos);
}

TEST(Deadlines, RunningJobIsCancelledAtItsDeadline) {
  ServeRig rig;
  load_trace_inputs(rig.ctx, small_trace_options());
  JobServer server(rig.ctx);
  server.submit("doomed", "c0", "default", tiny_job(0), 0.5);
  const ServeReport report = server.drain();

  EXPECT_EQ(report.cancelled, 1);
  EXPECT_EQ(report.finished, 0);
  const serve::JobRecord& rec = report.jobs[0];
  EXPECT_EQ(rec.outcome, JobOutcome::kCancelledDeadline);
  EXPECT_TRUE(rec.report.cancelled);
  EXPECT_GE(rec.finish_time, rec.deadline);  // running copies drain first
  EXPECT_EQ(count_events(rig.ctx.event_log(), EventKind::kJobCancelled), 1);
  EXPECT_NE(report.render_jobs().find("cancelled"), std::string::npos);
}

TEST(Deadlines, GenerousDeadlineCountsTowardSlo) {
  ServeRig rig;
  load_trace_inputs(rig.ctx, small_trace_options());
  JobServer server(rig.ctx);
  server.submit("easy", "c0", "default", tiny_job(0), 600.0);
  const ServeReport report = server.drain();
  EXPECT_EQ(report.finished, 1);
  EXPECT_EQ(report.slo_tracked, 1);
  EXPECT_EQ(report.slo_met, 1);
  EXPECT_EQ(report.shed + report.cancelled, 0);
}

TEST(Deadlines, DefaultDeadlineAppliesWhenSubmissionCarriesNone) {
  conf::Config c = serve_config();
  c.set("saex.serve.defaultDeadline", "600s");
  ServeRig rig(std::move(c));
  load_trace_inputs(rig.ctx, small_trace_options());
  JobServer server(rig.ctx);
  server.submit("default-slo", "c0", "default", tiny_job(0));
  const ServeReport report = server.drain();
  EXPECT_EQ(report.slo_tracked, 1);
  EXPECT_EQ(report.slo_met, 1);
}

TEST(Deadlines, UnenforcedDeadlinesOnlyRecordSlo) {
  conf::Config c = serve_config();
  c.set_bool("saex.serve.enforceDeadlines", false);
  ServeRig rig(std::move(c));
  load_trace_inputs(rig.ctx, small_trace_options());
  JobServer server(rig.ctx);
  // Would be cancelled (or rejected, for the 0-budget one) under
  // enforcement; the baseline lets both run and only scores them.
  server.submit("tight", "c0", "default", tiny_job(0), 0.01);
  const ServeReport report = server.drain();
  EXPECT_EQ(report.finished, 1);
  EXPECT_EQ(report.cancelled + report.shed, 0);
  EXPECT_EQ(report.slo_tracked, 1);
  EXPECT_EQ(report.slo_met, 0);  // ran past the (unenforced) budget
}

// ---------- cancellation edges + tie-break determinism ----------

TEST(CancellationEdges, SameInstantDeadlineAndCompletionResolveToCancel) {
  // Submit a job, measure its natural finish; rerun with the deadline set to
  // exactly that instant. The deadline timer was scheduled at submission, so
  // FIFO tie-break fires it before the completion event: deterministic
  // cancel, bitwise-stable across reruns.
  double natural = -1.0;
  {
    ServeRig rig;
    load_trace_inputs(rig.ctx, small_trace_options());
    JobServer server(rig.ctx);
    server.submit("probe", "c0", "default", tiny_job(0));
    natural = server.drain().jobs[0].finish_time;
  }
  ASSERT_GT(natural, 0.0);
  std::string first_render;
  for (int run = 0; run < 2; ++run) {
    ServeRig rig;
    load_trace_inputs(rig.ctx, small_trace_options());
    JobServer server(rig.ctx);
    server.submit("dead-heat", "c0", "default", tiny_job(0), natural);
    const ServeReport report = server.drain();
    EXPECT_EQ(report.jobs[0].outcome, JobOutcome::kCancelledDeadline);
    EXPECT_EQ(report.cancelled, 1);
    if (run == 0) {
      first_render = report.render() + report.render_jobs();
    } else {
      EXPECT_EQ(report.render() + report.render_jobs(), first_render);
    }
  }
}

TEST(CancellationEdges, ReplayWithDeadlinesIsDeterministicAcrossReruns) {
  serve::TraceOptions t = small_trace_options();
  t.interactive_deadline = 8.0;
  t.batch_deadline = 60.0;
  auto run = [&] {
    conf::Config c = serve_config();
    c.set_int("saex.serve.maxConcurrentJobs", 2);
    ServeRig rig(std::move(c));
    JobServer server(rig.ctx);
    const ServeReport report = server.replay(serve::make_trace(t), t);
    return report.render() + "\n" + report.render_jobs();
  };
  const std::string a = run();
  EXPECT_EQ(a, run());
  // The tight interactive budget actually exercised shedding/cancelling.
  EXPECT_TRUE(a.find("shed") != std::string::npos ||
              a.find("cancelled") != std::string::npos);
}

TEST(CancellationEdges, OneShardMatchesSerialWithResilienceEnabled) {
  serve::TraceOptions t = small_trace_options(11);
  t.interactive_deadline = 8.0;
  t.batch_deadline = 90.0;

  auto resilience_config = [] {
    conf::Config c;
    c.set("spark.default.parallelism", "64");
    c.set_int("saex.serve.maxConcurrentJobs", 4);
    c.set_int("saex.serve.maxRetries", 1);
    c.set_bool("saex.resilience.quarantine", true);
    c.set_bool("saex.fault.enabled", true);
    c.set("saex.fault.chaos", "kill:1@4,rejoin:1@30");
    return c;
  };

  hw::ClusterSpec spec = hw::ClusterSpec::das5(8);
  hw::Cluster cluster(spec);
  SparkContext ctx(cluster, resilience_config());
  JobServer server(ctx);
  const ServeReport serial = server.replay(serve::make_trace(t), t);

  conf::Config sharded_config = resilience_config();
  sharded_config.set_int("saex.shard.count", 1);
  sharded_config.set_int("saex.shard.workers", 1);
  shard::ShardedServer sharded(spec, sharded_config);
  const shard::ShardedServeReport report = sharded.replay(serve::make_trace(t), t);

  EXPECT_EQ(report.merged.render() + "\n" + report.render_jobs(),
            serial.render() + "\n" + serial.render_jobs());
}

// ---------- retry with backoff ----------

TEST(Retry, ExhaustedRetriesSettleAsFailedWithBackoffSpacing) {
  conf::Config c = serve_config();
  c.set_double("saex.sim.taskFailureProb", 1.0);  // every attempt dies
  c.set_int("saex.serve.maxRetries", 2);
  c.set("saex.serve.retryBackoff", "2s");
  ServeRig rig(std::move(c));
  load_trace_inputs(rig.ctx, small_trace_options());
  JobServer server(rig.ctx);
  server.submit("hopeless", "c0", "default", tiny_job(0));
  const ServeReport report = server.drain();

  const serve::JobRecord& rec = report.jobs[0];
  EXPECT_EQ(rec.outcome, JobOutcome::kFailed);
  EXPECT_EQ(rec.retries, 2);
  ASSERT_EQ(rec.retry_times.size(), 2u);
  EXPECT_LT(rec.retry_times[0], rec.retry_times[1]);
  EXPECT_EQ(report.retries, 2);
  EXPECT_EQ(report.failed, 1);
  EXPECT_EQ(count_events(rig.ctx.event_log(), EventKind::kJobRetried), 2);
  EXPECT_NE(report.render_jobs().find("FAILED (r2)"), std::string::npos);
}

TEST(Retry, TaskFailuresAreRetriedUntilTheJobFinishes) {
  // Every task attempt dies with probability 0.6, so a task exhausts
  // spark.task.maxFailures (4) with probability 0.6^4 ~ 0.13 and aborts its
  // stage and the job attempt. The server re-runs the job with fresh draws
  // and, under this seed, a retry finishes before the budget of 5 runs out.
  conf::Config c = serve_config();
  c.set_double("saex.sim.taskFailureProb", 0.6);
  c.set_int("saex.serve.maxRetries", 5);
  c.set("saex.serve.retryBackoff", "1s");
  ServeRig rig(std::move(c));
  load_trace_inputs(rig.ctx, small_trace_options());
  JobServer server(rig.ctx);
  server.submit("flaky", "c0", "default", tiny_job(0));
  const ServeReport report = server.drain();
  const serve::JobRecord& rec = report.jobs[0];
  EXPECT_GE(rec.retries, 1);
  EXPECT_LE(rec.retries, 5);
  EXPECT_EQ(rec.outcome, JobOutcome::kFinished);
  EXPECT_GE(rec.finish_time, 0.0);
}

TEST(Retry, RetryWaitersAreShedAtTheirDeadline) {
  conf::Config c = serve_config();
  c.set_double("saex.sim.taskFailureProb", 1.0);
  c.set_int("saex.serve.maxRetries", 8);
  c.set("saex.serve.retryBackoff", "64s");  // parks the job in retry-wait
  ServeRig rig(std::move(c));
  load_trace_inputs(rig.ctx, small_trace_options());
  JobServer server(rig.ctx);
  server.submit("parked", "c0", "default", tiny_job(0), 30.0);
  const ServeReport report = server.drain();
  const serve::JobRecord& rec = report.jobs[0];
  // First attempt fails fast, the 64 s backoff crosses the 30 s deadline,
  // and the deadline timer sheds the parked retry.
  EXPECT_EQ(rec.outcome, JobOutcome::kShedDeadline);
  EXPECT_EQ(rec.retries, 1);
  EXPECT_DOUBLE_EQ(rec.finish_time, rec.deadline);
  EXPECT_EQ(report.shed, 1);
}

// ---------- quarantine through the serve layer ----------

TEST(Quarantine, FetchFailuresTripTheBreakerAndExcludeTheNode) {
  conf::Config c = serve_config();
  c.set_bool("saex.fault.enabled", true);
  c.set_double("saex.fault.fetchFailProb", 0.9);
  c.set_int("saex.fault.fetchFailNode", 1);
  c.set_bool("saex.resilience.quarantine", true);
  c.set_int("saex.resilience.quarantineThreshold", 3);
  c.set("saex.resilience.quarantineWindow", "30s");
  c.set("saex.resilience.quarantineCooldown", "15s");
  ServeRig rig(std::move(c));
  JobServer server(rig.ctx);
  const serve::TraceOptions t = small_trace_options();
  const ServeReport report = server.replay(serve::make_trace(t), t);

  EXPECT_GT(report.quarantines, 0);
  EXPECT_EQ(report.quarantines,
            count_events(rig.ctx.event_log(), EventKind::kNodeQuarantined));
  EXPECT_EQ(report.probes,
            count_events(rig.ctx.event_log(), EventKind::kNodeReinstated));
  EXPECT_GE(report.probes, 1);  // cooldown elapsed at least once
  // Every job still finished: quarantine sheds load, it does not lose work.
  EXPECT_EQ(report.finished, report.submitted);
  EXPECT_NE(report.render().find("quarantine:"), std::string::npos);
}

TEST(Quarantine, QuarantinedExecutorReceivesNoOffers) {
  ServeRig rig;
  rig.ctx.dfs().load_input("/in", mib(512), 4);
  rig.ctx.scheduler().set_executor_quarantined(1, true);
  EXPECT_TRUE(rig.ctx.scheduler().executor_quarantined(1));
  EXPECT_EQ(rig.ctx.scheduler().quarantined_executor_count(), 1);

  const engine::JobReport report = rig.ctx.run_job(
      rig.ctx.text_file("/in").map("m", {0.01, 1.0}).count(), "excluded");
  EXPECT_FALSE(report.failed);
  for (const engine::ExecutorStageStats& es : report.stages[0].executors) {
    if (es.node == 1) {
      EXPECT_EQ(es.io_bytes, 0);
    }
  }

  // Lifting the quarantine restores offers.
  rig.ctx.scheduler().set_executor_quarantined(1, false);
  EXPECT_EQ(rig.ctx.scheduler().quarantined_executor_count(), 0);
  const engine::JobReport after = rig.ctx.run_job(
      rig.ctx.text_file("/in").map("m2", {0.01, 1.0}).count(), "restored");
  bool node1_ran = false;
  for (const engine::ExecutorStageStats& es : after.stages[0].executors) {
    if (es.node == 1 && es.io_bytes > 0) node1_ran = true;
  }
  EXPECT_TRUE(node1_ran);
}

}  // namespace
}  // namespace saex
