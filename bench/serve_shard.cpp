// serve_shard — sharded serve-path throughput bench over `serve_trace_xl`,
// a heavy-tailed (Pareto-arrival) multi-tenant trace at driver-breaking
// scale: 10'000 nodes and 100'000 jobs in full mode (256 nodes / 2'000 jobs
// for --smoke). `--json BENCH_serve.json` emits the machine-readable record
// guarded by tools/check_bench.py in CI (see docs/PERFORMANCE.md and
// docs/SCALING.md).
//
// Scenarios:
//   serve_xl_serial  the whole trace on ONE driver/scheduler/event kernel
//                    (--shards 1): every per-event cost scales with the full
//                    cluster (offer walks, executor refresh, pool sorts)
//   serve_xl_shard4  the same trace routed across 4 shards advanced by 4
//                    workers (--shards 4 --workers 4): each kernel pays
//                    quarter-cluster constants, and kernels advance
//                    concurrently
//
// Determinism is asserted in-bench, not just in ctest: the 4-shard merged
// report must be bitwise-identical between 4 workers and 1 worker. Full mode
// additionally enforces the scaling acceptance bar: serve_xl_shard4 must
// reach >= 3x serve_xl_serial events/s.
//
// Usage: serve_shard [--smoke] [--json <path>]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "shard/sharded_server.h"

namespace {

using namespace saexbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

serve::TraceOptions xl_trace(bool smoke) {
  serve::TraceOptions t;
  t.num_jobs = smoke ? 2'000 : 100'000;
  // Heavy-tailed gaps: long quiet spells and dense arrival storms, scaled so
  // the server stays saturated for the whole run.
  t.arrival = "pareto";
  t.pareto_shape = 1.5;
  t.mean_interarrival = smoke ? 0.05 : 0.01;
  t.num_clients = 64;
  t.seed = 42;
  t.small_input = mib(64);
  t.big_input = mib(128);
  t.dim_input = mib(32);
  return t;
}

int xl_nodes(bool smoke) { return smoke ? 256 : 10'000; }

conf::Config xl_config(bool smoke, int shards, int workers) {
  conf::Config c;
  c.set_int("spark.default.parallelism", smoke ? 64 : 128);
  c.set("saex.scheduler.mode", "FAIR");
  c.set("saex.scheduler.pools", "interactive:3:16,batch:1:0");
  c.set_int("saex.serve.maxConcurrentJobs", 64);
  c.set_int("saex.serve.maxQueuedJobs", 1 << 20);
  c.set_int("saex.shard.count", shards);
  c.set_int("saex.shard.workers", workers);
  c.set("saex.shard.placement", "least");
  // 100k jobs × several task events each is tens of GB of live event log;
  // nothing exports it here.
  c.set_bool("saex.eventLog.enabled", false);
  return c;
}

struct XlRun {
  double wall = 0.0;
  uint64_t events = 0;
  int finished = 0;
  std::string merged;  // merged report bytes (determinism witness)
};

XlRun run_xl(bool smoke, int shards, int workers) {
  const serve::TraceOptions t = xl_trace(smoke);
  hw::ClusterSpec cs = hw::ClusterSpec::das5(xl_nodes(smoke));
  cs.seed = t.seed;

  shard::ShardedServer server(cs, xl_config(smoke, shards, workers));
  const auto t0 = Clock::now();
  const shard::ShardedServeReport report =
      server.replay(serve::make_trace(t), t);

  XlRun run;
  run.wall = seconds_since(t0);
  run.events = report.events;
  run.finished = report.merged.finished;
  run.merged = report.merged.render() + "\n" + report.render_jobs();
  return run;
}

void report_row(BenchJson& out, const std::string& name, const XlRun& run) {
  out.record(name, run.wall, run.events);
  std::printf("%-16s %10.3fs  %12llu events  %12.0f events/s\n", name.c_str(),
              run.wall, static_cast<unsigned long long>(run.events),
              run.wall > 0 ? static_cast<double>(run.events) / run.wall : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const std::string json_path = json_path_arg(argc, argv);
  const int jobs = xl_trace(smoke).num_jobs;

  print_title("serve_shard",
              "sharded serve path on the heavy-tailed serve_trace_xl trace "
              "(router + one JobServer replay per shard on the worker pool)",
              "4-shard merged report bitwise-identical across worker counts; "
              "full mode: serve_xl_shard4 >= 3x serve_xl_serial WALL speedup");

  BenchJson out;
  const XlRun serial = run_xl(smoke, /*shards=*/1, /*workers=*/1);
  report_row(out, "serve_xl_serial", serial);
  const XlRun shard4 = run_xl(smoke, /*shards=*/4, /*workers=*/4);
  report_row(out, "serve_xl_shard4", shard4);

  int rc = 0;
  if (serial.finished != jobs || shard4.finished != jobs) {
    std::printf("FAIL: not all jobs finished (serial %d, shard4 %d, want %d)\n",
                serial.finished, shard4.finished, jobs);
    rc = 1;
  }

  // Determinism witness: the merged report is a pure function of the
  // scenario (trace, shard count, seed) — the worker count must not leak in.
  const XlRun shard4_w1 = run_xl(smoke, /*shards=*/4, /*workers=*/1);
  if (shard4.merged != shard4_w1.merged) {
    std::printf("FAIL: 4-shard merged report differs between 4 workers and "
                "1 worker\n");
    rc = 1;
  } else {
    std::printf("determinism: 4-shard merged report identical for 4 and 1 "
                "workers (%zu bytes)\n", shard4.merged.size());
  }

  // The two scenarios do NOT process the same event total: each shard kernel
  // advances only its quarter of the cluster, so shard4's per-event work is
  // cheaper AND its event count is smaller than serial's. events/s therefore
  // understates the shard win; the honest scaling number is the wall-clock
  // ratio on the identical trace. Both are recorded; the >=3x CI bar guards
  // wall_speedup_vs_serial (see tools/check_bench.py guards).
  const double serial_eps =
      serial.wall > 0 ? static_cast<double>(serial.events) / serial.wall : 0;
  const double shard4_eps =
      shard4.wall > 0 ? static_cast<double>(shard4.events) / shard4.wall : 0;
  const double eps_ratio = serial_eps > 0 ? shard4_eps / serial_eps : 0;
  const double wall_speedup = shard4.wall > 0 ? serial.wall / shard4.wall : 0;
  out.set_metric("serve_xl_shard4", "wall_speedup_vs_serial", wall_speedup);
  std::printf("scaling: serve_xl_shard4 wall speedup %.2fx over "
              "serve_xl_serial (same trace; this is the guarded metric)\n",
              wall_speedup);
  std::printf("         events/s ratio %.2fx — NOT comparable (serial "
              "processed %llu events, shard4 %llu)\n",
              eps_ratio, static_cast<unsigned long long>(serial.events),
              static_cast<unsigned long long>(shard4.events));
  if (!smoke) {
    out.guard_min_value("wall_speedup_vs_serial", "serve_xl_shard4", 3.0);
    if (wall_speedup < 3.0) {
      std::printf("FAIL: full-mode scaling bar is 3.0x wall speedup\n");
      rc = 1;
    }
  }

  if (!json_path.empty()) {
    const bool ok = out.write("serve_shard", json_path);
    std::printf("%s %s\n", ok ? "wrote" : "FAILED to write", json_path.c_str());
    if (!ok) rc = 1;
  }
  return rc;
}
