// cache_policies — storage-layer sweep: eviction policy x memory budget on
// an iterative cached workload (workloads::cache_churn: several cached RDDs
// contending for the per-node budget, then skewed re-read rounds).
//
// For every (policy, budget) cell the bench reports the storage hit rate,
// eviction/spill volume, and the application makespan in simulated seconds —
// the end-to-end cost of each policy's victim choices (every victim spills,
// so a miss is a disk read of the spilled tail). Three invariants are
// asserted every run (full and --smoke), each failing the exit status:
//
//   hit rate    — among the policies that evict, a hit rate at least as
//                 high never comes with a longer makespan at the same
//                 bounded budget (so equal hit rates mean equal makespans).
//                 Policy "none" evicts nothing (a partition that does not
//                 fit spills on insert), so it is printed but not compared
//   determinism — the same (seed, policy, budget) cell run twice produces
//                 bitwise-identical JobReports
//   unbounded   — with a budget nothing overflows, every policy reproduces
//                 policy "none" (the pre-BlockManager goldens) byte for byte
//
// `--json BENCH_storage.json` emits the machine-readable record guarded by
// tools/check_bench.py (events/sec trajectory, like the other perf benches).
//
// Usage: cache_policies [--smoke] [--json <path>]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "storage/eviction.h"

namespace {

using namespace saexbench;
using Clock = std::chrono::steady_clock;

struct CellResult {
  std::string name;
  double wall_seconds = 0.0;   // real time
  uint64_t events = 0;         // simulation events processed
  double makespan = 0.0;       // simulated seconds, all jobs back to back
  double hit_rate = 1.0;
  int64_t evictions = 0;
  Bytes spilled = 0;
  std::string renders;         // concatenated JobReports (determinism guard)
};

workloads::WorkloadSpec churn_spec(bool smoke) {
  // Full: 6 x 1 GiB cached RDDs, 4 read rounds. Smoke: 4 x 512 MiB, 3
  // rounds — same contention shape, sized so fixed per-job costs amortize
  // comparably to the full run (check_bench compares events/sec).
  return smoke ? workloads::cache_churn(mib(512), 4, 3)
               : workloads::cache_churn(gib(1), 6, 4);
}

CellResult run_cell(const std::string& name, const std::string& policy,
                    Bytes budget_per_node, bool smoke) {
  const auto t0 = Clock::now();

  hw::ClusterSpec cs = hw::ClusterSpec::das5(4);
  cs.seed = 42;
  hw::Cluster cluster(cs);
  conf::Config config;
  config.set_int("spark.default.parallelism", 64);
  config.set("saex.storage.policy", policy);
  config.set("saex.storage.memory", strfmt::format("{}", budget_per_node));
  engine::SparkContext ctx(cluster, std::move(config));

  const workloads::WorkloadSpec spec = churn_spec(smoke);
  CellResult r;
  r.name = name;
  for (const engine::Rdd& action : spec.build(ctx)) {
    const engine::JobReport report = ctx.run_job(action, spec.name);
    r.events = report.events_processed;  // cumulative simulation counter
    r.renders += report.render();
    r.renders += "\n";
  }
  r.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  r.makespan = cluster.sim().now();
  r.hit_rate = ctx.storage().hit_rate();
  r.evictions = ctx.storage().total_evictions();
  r.spilled = ctx.storage().total_evicted_spill_bytes();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const std::string json_path = json_path_arg(argc, argv);

  print_title("cache_policies",
              "eviction policy x memory budget sweep on an iterative cached "
              "workload (hit rate + makespan per cell)",
              "bounded budgets: among the evicting policies, a hit rate at "
              "least as high never comes with a longer makespan; unbounded "
              "budget: every policy == policy none, bitwise");

  const workloads::WorkloadSpec probe = churn_spec(smoke);
  // Per-node bytes the workload wants cached; budgets are slices of it.
  const Bytes cached_per_node = probe.input_size / 4;
  struct BudgetTag {
    const char* tag;
    Bytes bytes;
  };
  const std::vector<BudgetTag> budgets = {
      {"25", cached_per_node / 4},
      {"50", cached_per_node / 2},
      {"inf", gib(1024)},
  };

  BenchJson out;
  std::printf("%-20s %10s %9s %10s %11s %12s\n", "scenario", "budget",
              "hit rate", "evictions", "spilled", "makespan");
  std::vector<CellResult> inf_cells;
  std::vector<std::vector<CellResult>> evicting(budgets.size());  // bounded
  double sweep_wall = 0.0;
  uint64_t sweep_events = 0;
  for (const std::string& policy : storage::eviction_policy_names()) {
    for (size_t bi = 0; bi < budgets.size(); ++bi) {
      const BudgetTag& b = budgets[bi];
      const std::string name = strfmt::format("cache_{}_{}", policy, b.tag);
      const CellResult r = run_cell(name, policy, b.bytes, smoke);
      sweep_wall += r.wall_seconds;
      sweep_events += r.events;
      std::printf("%-20s %10s %8.1f%% %10lld %11s %10.1fs\n", r.name.c_str(),
                  format_bytes(b.bytes).c_str(), r.hit_rate * 100.0,
                  static_cast<long long>(r.evictions),
                  format_bytes(r.spilled).c_str(), r.makespan);
      if (std::string(b.tag) == "inf") {
        inf_cells.push_back(r);
      } else if (policy != "none") {
        evicting[bi].push_back(r);
      }
    }
  }
  // One aggregate perf row: the individual cells are milliseconds each, too
  // small for a stable events/sec trajectory on their own.
  out.record("cache_sweep", sweep_wall, sweep_events);

  // Criterion: at each bounded budget, no evicting policy pays a longer
  // makespan for a hit rate at least as high as another's.
  bool hit_rate_ok = true;
  for (const std::vector<CellResult>& cells : evicting) {
    for (const CellResult& a : cells) {
      for (const CellResult& b : cells) {
        if (a.hit_rate >= b.hit_rate && a.makespan > b.makespan) {
          std::fprintf(stderr,
                       "FAIL: %s hits %.1f%% >= %s %.1f%% but runs %.1fs > "
                       "%.1fs\n",
                       a.name.c_str(), a.hit_rate * 100.0, b.name.c_str(),
                       b.hit_rate * 100.0, a.makespan, b.makespan);
          hit_rate_ok = false;
        }
      }
    }
  }
  std::printf("hit-rate criterion: %s\n",
              hit_rate_ok ? "OK, no evicting policy runs longer for as many "
                            "hits"
                          : "VIOLATED");

  // Guard 1: unbounded budget reproduces policy "none" for every policy.
  bool unbounded_ok = true;
  for (const CellResult& r : inf_cells) {
    if (r.renders != inf_cells.front().renders) {
      std::fprintf(stderr,
                   "FAIL: %s diverges from %s under an unbounded budget\n",
                   r.name.c_str(), inf_cells.front().name.c_str());
      unbounded_ok = false;
    }
  }
  std::printf("unbounded-budget guard: %s\n",
              unbounded_ok ? "all policies reproduce policy none bitwise"
                           : "FAIL");

  // Guard 2: a bounded cell re-run is bitwise deterministic.
  const CellResult d1 = run_cell("det", "lru", budgets[0].bytes, smoke);
  const CellResult d2 = run_cell("det", "lru", budgets[0].bytes, smoke);
  const bool deterministic =
      d1.renders == d2.renders && d1.evictions == d2.evictions;
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: lru/25%% cell is not deterministic\n");
  }
  std::printf("determinism guard: %s\n",
              deterministic ? "repeat run bitwise identical" : "FAIL");
  const int rc = hit_rate_ok && unbounded_ok && deterministic ? 0 : 1;

  if (!json_path.empty()) {
    const bool ok = out.write("cache_policies", json_path);
    std::printf("%s %s\n", ok ? "wrote" : "FAILED to write", json_path.c_str());
    if (!ok) return 1;
  }
  return rc;
}
