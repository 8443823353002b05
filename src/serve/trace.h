// Seeded multi-tenant arrival traces for the job server.
//
// A trace is a list of (arrival time, client, pool, workload template) rows
// drawn from a single Rng seed: exponential or heavy-tailed (Pareto/Lomax)
// inter-arrival times (bursty, as in production Spark clusters) and a
// small/large workload mix. Small
// interactive jobs (scan / aggregation over a shared small table) go to the
// "interactive" pool; heavy batch jobs (sort / join over a shared big table)
// go to "batch". Inputs are shared DFS files loaded once; each job writes a
// unique output path.
#pragma once

#include <string>
#include <vector>

#include "engine/context.h"

namespace saex::serve {

struct TraceJob {
  int id = 0;
  std::string client;    // submitting tenant ("client0"..)
  std::string pool;      // "interactive" | "batch"
  std::string workload;  // "scan" | "aggregation" | "sort" | "join"
  double arrival_time = 0.0;
  // Relative SLO deadline (<0: none / server default). Assigned per pool
  // from TraceOptions, deterministically — no extra RNG draws, so traces
  // with deadlines share arrivals/mix with the same-seed trace without.
  double deadline = -1.0;
};

struct TraceOptions {
  int num_jobs = 50;
  double mean_interarrival = 3.0;  // seconds (mean of the chosen law)
  // Inter-arrival law: "exp" (memoryless bursts) or "pareto" (heavy-tailed
  // Lomax gaps — long quiet spells punctuated by dense arrival storms, the
  // shape production multi-tenant traces show). Both laws are scaled so the
  // mean gap equals mean_interarrival.
  std::string arrival = "exp";
  double pareto_shape = 1.5;       // Lomax alpha (> 1 so the mean exists)
  double small_fraction = 0.6;     // share of interactive jobs
  int num_clients = 4;
  uint64_t seed = 42;

  // Per-pool relative deadlines stamped onto trace jobs (<0: none).
  double interactive_deadline = -1.0;
  double batch_deadline = -1.0;

  // Shared input sizes (loaded once per context).
  Bytes small_input = gib(1.0);  // scan/aggregation table
  Bytes big_input = gib(4.0);    // sort/join fact table
  Bytes dim_input = gib(0.5);    // join dimension table
};

/// Names of the workload templates build_trace_job understands, in the order
/// they are documented (small-pool templates first).
const std::vector<std::string>& trace_workload_names();

/// Draws a deterministic trace (sorted by arrival time). Throws
/// std::invalid_argument on an unknown arrival law, a pareto shape <= 1, a
/// negative job count or a negative mean inter-arrival gap.
std::vector<TraceJob> make_trace(const TraceOptions& options);

/// Loads the shared input files into the context's DFS (idempotent).
void load_trace_inputs(engine::SparkContext& ctx, const TraceOptions& options);

/// Builds the plan for one trace job on the shared context. Output paths are
/// unique per job id ("/serve/out/job<N>"). Throws std::invalid_argument for
/// an unknown workload template.
engine::Rdd build_trace_job(engine::SparkContext& ctx, const TraceJob& job);

}  // namespace saex::serve
