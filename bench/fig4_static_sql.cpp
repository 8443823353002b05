// Figure 4: the static solution on the SQL applications (Aggregation, Join)
// — the workloads where reduced thread counts only hurt (limitation L3).
#include "bench_common.h"

int main() {
  using namespace saexbench;

  print_title(
      "Figure 4", "static solution on SQL applications (Aggregation, Join)",
      "monotone: every reduced thread count is worse than the default, and "
      "2 threads is drastically worse (paper Fig. 4: default best for both; "
      "2 threads ≈ 2.3x default for Aggregation, ≈ 4.5x for Join)");

  bool ok = true;
  for (const auto& spec : {workloads::aggregation(), workloads::join()}) {
    auto sweep = static_sweep(spec);
    const double def = sweep.at(32).total_runtime;
    std::printf("\n%s\n", spec.name.c_str());
    TextTable t({"threads (I/O stages)", "runtime", "vs default", "bar"});
    double prev = 0.0;
    bool monotone = true;
    for (const int threads : {32, 16, 8, 4, 2}) {
      const double rt = sweep.at(threads).total_runtime;
      if (rt + 1e-9 < prev) monotone = false;
      prev = rt;
      t.add_row({threads == 32 ? "32 (default)" : strfmt::format("{}", threads),
                 format_duration(rt), percent_delta(def, rt),
                 ascii_bar(rt, sweep.at(2).total_runtime, 36)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("shape (default best, worsening monotonically): %s\n",
                monotone ? "OK" : "VIOLATED");
    ok = ok && monotone;
  }
  return ok ? 0 : 1;
}
