// Figure 5: average disk utilization across all nodes in the I/O stages of
// different applications, per static thread count. The paper marks the
// highest-utilization setting (red bar); for Terasort it coincides with the
// per-stage BestFit (4, 8, 8), corroborating the runtime results. Exits 1
// when the shape criterion is violated.
#include "bench_common.h"

int main() {
  using namespace saexbench;

  print_title(
      "Figure 5",
      "average disk utilization in I/O stages vs thread count (6 panels)",
      "Terasort stages: utilization peaks at an intermediate thread count "
      "(4-16); PageRank, Aggregation and Join stage 0: utilization falls "
      "monotonically as threads shrink (too few threads to keep the disk "
      "busy), so the default (32) peaks");

  struct Panel {
    workloads::WorkloadSpec spec;
    int stage;
  };
  const std::vector<Panel> panels = {
      {workloads::terasort(), 0}, {workloads::terasort(), 1},
      {workloads::terasort(), 2}, {workloads::pagerank(), 0},
      {workloads::aggregation(), 0}, {workloads::join(), 0},
  };

  // Cache the sweeps per workload (three Terasort panels share one sweep).
  std::map<std::string, std::map<int, engine::JobReport>> sweeps;
  for (const Panel& p : panels) {
    if (!sweeps.count(p.spec.name)) sweeps[p.spec.name] = static_sweep(p.spec);
  }

  bool ok = true;
  for (const Panel& p : panels) {
    const auto& sweep = sweeps.at(p.spec.name);
    std::printf("\n%s, stage %d\n", p.spec.name.c_str(), p.stage);
    TextTable t({"threads", "disk util", "bar", "peak"});
    int best_threads = 0;
    double best_util = -1;
    bool falling = true;  // each smaller count reads strictly lower
    double previous = std::numeric_limits<double>::infinity();
    for (const int threads : {32, 16, 8, 4, 2}) {
      const double util =
          sweep.at(threads).stages[static_cast<size_t>(p.stage)].disk_utilization;
      if (util > best_util) {
        best_util = util;
        best_threads = threads;
      }
      falling = falling && util < previous;
      previous = util;
    }
    ok = ok && (p.spec.name == "terasort"
                    ? best_threads >= 4 && best_threads <= 16
                    : falling);
    for (const int threads : {32, 16, 8, 4, 2}) {
      const double util =
          sweep.at(threads).stages[static_cast<size_t>(p.stage)].disk_utilization;
      t.add_row({strfmt::format("{}", threads), format_percent(util),
                 ascii_bar(util, 1.0, 30),
                 threads == best_threads ? "<-- highest" : ""});
    }
    std::printf("%s", t.render().c_str());
  }
  std::printf(
      "shape (Terasort stages peak at 4-16 threads; PageRank, Aggregation "
      "and Join stage 0 fall as threads shrink): %s\n",
      ok ? "OK" : "VIOLATED");
  return ok ? 0 : 1;
}
