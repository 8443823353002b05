#include "serve/trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/format.h"
#include "common/rng.h"

namespace saex::serve {

const std::vector<std::string>& trace_workload_names() {
  static const std::vector<std::string> kNames{"scan", "aggregation", "sort",
                                              "join"};
  return kNames;
}

std::vector<TraceJob> make_trace(const TraceOptions& options) {
  Rng rng = Rng(options.seed).fork("serve.trace");
  Rng arrivals = rng.fork("arrivals");
  Rng mix = rng.fork("mix");
  Rng clients = rng.fork("clients");

  const bool pareto = options.arrival == "pareto";
  if (!pareto && options.arrival != "exp") {
    throw std::invalid_argument(strfmt::format(
        "unknown arrival distribution '{}' (valid: exp, pareto)",
        options.arrival));
  }
  if (pareto && options.pareto_shape <= 1.0) {
    throw std::invalid_argument(
        "pareto arrival shape must be > 1 (finite mean)");
  }
  if (options.num_jobs < 0) {
    throw std::invalid_argument(strfmt::format(
        "trace length must be >= 0 (got {})", options.num_jobs));
  }
  if (!(options.mean_interarrival >= 0.0)) {  // NaN too
    throw std::invalid_argument(strfmt::format(
        "mean inter-arrival gap must be >= 0 (got {})",
        options.mean_interarrival));
  }
  // Lomax(alpha, lambda) via inverse CDF with mean lambda / (alpha - 1);
  // lambda is solved from the requested mean gap.
  const double alpha = options.pareto_shape;
  const double lambda = options.mean_interarrival * (alpha - 1.0);
  auto next_gap = [&]() {
    if (!pareto) return arrivals.exponential(options.mean_interarrival);
    const double u = arrivals.next_double();  // in [0, 1)
    return lambda * (std::pow(1.0 - u, -1.0 / alpha) - 1.0);
  };

  std::vector<TraceJob> trace;
  trace.reserve(static_cast<size_t>(options.num_jobs));
  double t = 0.0;
  for (int i = 0; i < options.num_jobs; ++i) {
    t += next_gap();
    TraceJob job;
    job.id = i;
    job.arrival_time = t;
    job.client = strfmt::format(
        "client{}", clients.uniform_int(0, std::max(options.num_clients, 1) - 1));
    if (mix.chance(options.small_fraction)) {
      job.pool = "interactive";
      job.workload = mix.chance(0.5) ? "scan" : "aggregation";
      job.deadline = options.interactive_deadline;
    } else {
      job.pool = "batch";
      job.workload = mix.chance(0.5) ? "sort" : "join";
      job.deadline = options.batch_deadline;
    }
    trace.push_back(std::move(job));
  }
  return trace;
}

void load_trace_inputs(engine::SparkContext& ctx, const TraceOptions& options) {
  auto& dfs = ctx.dfs();
  const int repl = std::min(ctx.cluster().size(), 3);
  if (!dfs.exists("/serve/small")) {
    dfs.load_input("/serve/small", options.small_input, repl, mib(32));
  }
  if (!dfs.exists("/serve/big")) {
    dfs.load_input("/serve/big", options.big_input, repl, mib(64));
  }
  if (!dfs.exists("/serve/dim")) {
    dfs.load_input("/serve/dim", options.dim_input, repl, mib(32));
  }
}

engine::Rdd build_trace_job(engine::SparkContext& ctx, const TraceJob& job) {
  const std::string out = strfmt::format("/serve/out/job{}", job.id);
  // Stage CPU densities follow the paper's HiBench measurements (Fig. 1:
  // 6-15% CPU on the I/O-tagged stages, terasort 0.018-0.045 s/MiB) — the
  // trace is disk-dominated, which is the regime where adaptive executors
  // pay off by shrinking pools below the congestion knee.
  if (job.workload == "scan") {
    // Selective SELECT over the shared small table: one I/O-tagged stage.
    return ctx.text_file("/serve/small")
        .filter("where", 0.2, 0.02)
        .save_as_text_file(out, 1);
  }
  if (job.workload == "aggregation") {
    // GROUP BY over the small table: scan with partial aggregation, then a
    // spilling hash aggregate.
    return ctx.text_file("/serve/small")
        .map("scan+partialAgg", {0.06, 0.5})
        .reduce_by_key("groupBy", {0.02, 1.0}, 1.0, 0, {0.35, 1.3})
        .save_as_text_file(out, 1);
  }
  if (job.workload == "sort") {
    // Full sort of the big table: terasort's profile — every byte through
    // the shuffle, cheap streaming merge, disk-bound throughout.
    return ctx.text_file("/serve/big")
        .sort_by_key("sort", {0.045, 1.0})
        .map("merge", {0.028, 1.0})
        .save_as_text_file(out, 1);
  }
  if (job.workload == "join") {
    // Fact ⋈ dimension: two independent map sides, then the shuffle join —
    // the map sides run concurrently on the event-driven path.
    const engine::Rdd fact =
        ctx.text_file("/serve/big").map("scanFact", {0.05, 0.2});
    const engine::Rdd dim =
        ctx.text_file("/serve/dim").map("scanDim", {0.04, 0.5});
    return fact.join(dim, "hashJoin", {0.06, 1.0}, /*output_ratio=*/0.5, 0,
                     {0.3, 1.5})
        .save_as_text_file(out, 1);
  }
  throw std::invalid_argument(
      strfmt::format("unknown trace workload '{}'", job.workload));
}

}  // namespace saex::serve
