// engine_perf — engine-layer hot-path throughput bench. Tracks the perf
// trajectory of the driver-side machinery that sits above the event kernel:
// `--json BENCH_engine.json` emits the machine-readable record future PRs
// extend (see docs/PERFORMANCE.md).
//
// Scenarios:
//   sched_churn     task-lifecycle churn: hundreds of small concurrent jobs
//                   through SparkContext::submit_job on one shared
//                   TaskScheduler — offer loop, pending-list maintenance,
//                   task-set create/erase
//   serve_trace     64-node cluster replaying a 1000-job multi-tenant trace
//                   through the JobServer (FAIR pools + admission control),
//                   the scale where scheduler bookkeeping dominates
//   serve_nodes_N   the 256-node serve trace (`saexsim serve --nodes N
//                   --jobs 300 --arrival-mean 2 --parallelism 64
//                   --max-queued 1024 --seed 1`) on N = 256, 1024 and 4096
//                   nodes: about the same work on ever more idle nodes, so
//                   ns/event shows what still costs per cluster node
//
// Events: every row reports simulation events processed.
//
// Usage: engine_perf [--smoke] [--json <path>]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "serve/job_server.h"

namespace {

using namespace saexbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void report_row(BenchJson& out, const std::string& name, double wall,
                uint64_t events) {
  out.record(name, wall, events);
  std::printf("%-16s %10.3fs  %12llu events  %12.0f events/s\n", name.c_str(),
              wall, static_cast<unsigned long long>(events),
              wall > 0 ? static_cast<double>(events) / wall : 0.0);
}

// Many tiny concurrent jobs over one shared input: every job is one 32-task
// scan stage, so the run is dominated by task-set bookkeeping (submit,
// offer, dispatch, status update, erase), not by simulated I/O.
void bench_sched_churn(bool smoke, BenchJson& out) {
  const int num_jobs = smoke ? 60 : 600;

  hw::ClusterSpec cs = hw::ClusterSpec::das5(8);
  cs.seed = 42;
  hw::Cluster cluster(cs);
  conf::Config config;
  config.set_int("spark.default.parallelism", 32);
  engine::SparkContext ctx(cluster, std::move(config));
  // 32 x 8 MiB blocks -> 32 tasks per job.
  ctx.dfs().load_input("/churn/in", mib(256), 3, mib(8));

  int done = 0;
  for (int j = 0; j < num_jobs; ++j) {
    const engine::Rdd job = ctx.text_file("/churn/in")
                                .filter("probe", 0.01)
                                .collect();
    ctx.submit_job(job, strfmt::format("churn{}", j), "default",
                   [&done](engine::JobReport) { ++done; });
  }
  const auto t0 = Clock::now();
  cluster.sim().run();
  report_row(out, "sched_churn", seconds_since(t0), cluster.sim().processed());
  if (done != num_jobs) {
    std::printf("sched_churn: only %d/%d jobs completed\n", done, num_jobs);
  }
}

// A 64-node cluster replaying a bursty 1000-job trace (smoke: 8 nodes, 100
// jobs): the multi-tenant configuration where the scheduler's offer loop
// and FAIR pool sort run at their highest rates.
void bench_serve_trace(bool smoke, BenchJson& out) {
  serve::TraceOptions t;
  t.num_jobs = smoke ? 100 : 1000;
  t.mean_interarrival = smoke ? 1.0 : 0.25;
  t.num_clients = 8;
  t.seed = 42;
  t.small_input = mib(256);
  t.big_input = gib(1.0);
  t.dim_input = mib(128);

  hw::ClusterSpec cs = hw::ClusterSpec::das5(smoke ? 8 : 64);
  cs.seed = t.seed;
  hw::Cluster cluster(cs);

  conf::Config config;
  config.set_int("spark.default.parallelism", 64);
  config.set("saex.scheduler.mode", "FAIR");
  config.set("saex.scheduler.pools", "interactive:3:16,batch:1:0");
  config.set_int("saex.serve.maxConcurrentJobs", 32);
  config.set_int("saex.serve.maxQueuedJobs", 1024);

  engine::SparkContext ctx(cluster, std::move(config));
  serve::JobServer server(ctx);
  const auto t0 = Clock::now();
  const serve::ServeReport report = server.replay(serve::make_trace(t), t);
  const double wall = seconds_since(t0);
  report_row(out, "serve_trace", wall, cluster.sim().processed());
  if (report.finished != t.num_jobs) {
    std::printf("serve_trace: %d/%d jobs finished (%d rejected, %d failed)\n",
                report.finished, t.num_jobs,
                report.rejected_queue_full + report.rejected_client_quota,
                report.failed);
  }
}

// The 256-node serve trace replayed on `nodes` nodes (smoke: 30 jobs). The
// keys are the ones `saexsim serve` sets by default, so the row runs the
// same simulation as the command line in the header.
void bench_serve_nodes(int nodes, bool smoke, BenchJson& out) {
  serve::TraceOptions t;
  t.num_jobs = smoke ? 30 : 300;
  t.mean_interarrival = 2.0;
  t.seed = 1;

  hw::ClusterSpec cs = hw::ClusterSpec::das5(nodes);
  cs.seed = t.seed;
  hw::Cluster cluster(cs);

  conf::Config config;
  config.set("saex.executor.policy", "dynamic");
  config.set_int("spark.default.parallelism", 64);
  config.set("saex.scheduler.mode", "FAIR");
  config.set("saex.scheduler.pools", "interactive:3:16,batch:1:0");
  config.set_int("saex.serve.maxConcurrentJobs", 8);
  config.set_int("saex.serve.maxQueuedJobs", 1024);

  engine::SparkContext ctx(cluster, std::move(config));
  serve::JobServer server(ctx);
  const auto t0 = Clock::now();
  const serve::ServeReport report = server.replay(serve::make_trace(t), t);
  const double wall = seconds_since(t0);
  const std::string name = strfmt::format("serve_nodes_{}", nodes);
  report_row(out, name, wall, cluster.sim().processed());
  if (report.finished != t.num_jobs) {
    std::printf("%s: %d/%d jobs finished\n", name.c_str(), report.finished,
                t.num_jobs);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const std::string json_path = json_path_arg(argc, argv);

  print_title("engine_perf",
              "engine-layer throughput (task-lifecycle churn, 64-node serve "
              "trace, 256/1024/4096-node serve sweep)",
              "events/sec must not regress vs the recorded BENCH_engine.json "
              "trajectory");

  BenchJson out;
  bench_sched_churn(smoke, out);
  bench_serve_trace(smoke, out);
  for (const int nodes : {256, 1024, 4096}) bench_serve_nodes(nodes, smoke, out);

  if (!json_path.empty()) {
    const bool ok = out.write("engine_perf", json_path);
    std::printf("%s %s\n", ok ? "wrote" : "FAILED to write", json_path.c_str());
    if (!ok) return 1;
  }
  return 0;
}
