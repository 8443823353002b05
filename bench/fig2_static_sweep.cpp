// Figure 2: the runtime effect of the static solution on Terasort and
// PageRank — thread counts {32,16,8,4,2} for I/O-tagged stages plus the
// hypothetical per-stage BestFit. `--jobs N` runs the sweep's independent
// simulations in parallel (same results, less wall time). Exits 1 when the
// shape criterion is violated.
#include <algorithm>

#include "bench_common.h"

namespace {

using namespace saexbench;

using Runtimes = std::map<int, double>;  // I/O-stage threads -> runtime

/// Prints one app's sweep table and returns its runtimes.
Runtimes sweep_app(const workloads::WorkloadSpec& spec, double paper_default,
                   double paper_best_gain, int jobs) {
  auto sweep = static_sweep(spec, {}, jobs);
  const auto best_fit = best_fit_from_sweep(sweep);

  RunOptions bf;
  bf.per_stage_threads = best_fit;
  const engine::JobReport bf_report = run_workload(spec, bf);

  const double def = sweep.at(32).total_runtime;
  std::printf("\n%s  (paper: default ≈ %.0fs, best static setting ≈ -%.1f%%)\n",
              spec.name.c_str(), paper_default, paper_best_gain);
  TextTable t({"threads (I/O stages)", "runtime", "vs default", "stage times"});
  Runtimes runtimes;
  for (const int threads : {32, 16, 8, 4, 2}) {
    const auto& r = sweep.at(threads);
    runtimes[threads] = r.total_runtime;
    std::string stage_times;
    for (const auto& s : r.stages) {
      stage_times += format_duration(s.duration()) + " ";
    }
    t.add_row({threads == 32 ? "32 (default)" : strfmt::format("{}", threads),
               format_duration(r.total_runtime),
               percent_delta(def, r.total_runtime), stage_times});
  }
  std::string bf_label = "bestfit (";
  for (const auto& [ordinal, threads] : best_fit) {
    bf_label += strfmt::format("s{}={} ", ordinal, threads);
  }
  bf_label += ")";
  std::string bf_times;
  for (const auto& s : bf_report.stages) {
    bf_times += format_duration(s.duration()) + " ";
  }
  t.add_rule();
  t.add_row({bf_label, format_duration(bf_report.total_runtime),
             percent_delta(def, bf_report.total_runtime), bf_times});
  std::printf("%s", t.render().c_str());
  return runtimes;
}

/// Fraction of the default (32-thread) runtime that the best reduced
/// thread count saves.
double best_static_gain(const Runtimes& rt) {
  const double best = std::min({rt.at(16), rt.at(8), rt.at(4), rt.at(2)});
  return (rt.at(32) - best) / rt.at(32);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace saexbench;
  const int jobs = jobs_arg(argc, argv);
  print_title(
      "Figure 2", "runtime effect of the static solution (Terasort, PageRank)",
      "U-shape: an intermediate thread count (4-8) clearly beats both the "
      "default (32) and 2 threads for Terasort (paper: -39% at 8, bestfit "
      "-47.5%); PageRank's static gains are much smaller (paper: -19%) since "
      "only its read/write stages are tagged");

  const Runtimes tera = sweep_app(workloads::terasort(), 1750, 39.35, jobs);
  const Runtimes pr = sweep_app(workloads::pagerank(), 2600, 19.02, jobs);
  const double knee = std::min(tera.at(8), tera.at(4));
  const bool ok = knee < tera.at(32) && knee < tera.at(2) &&
                  best_static_gain(pr) < best_static_gain(tera);
  std::printf(
      "shape (Terasort: 4-8 threads beat 32 and 2; PageRank gains less): "
      "%s\n",
      ok ? "OK" : "VIOLATED");
  return ok ? 0 : 1;
}
