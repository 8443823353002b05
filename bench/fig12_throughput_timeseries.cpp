// Figure 12: I/O throughput over time for Terasort stages 0 and 1, per
// static thread count, on HDD and SSD (executor 0's per-second series).
#include "bench_common.h"

namespace {

using namespace saexbench;

// Samples an executor's cumulative I/O bytes (the Monitor's µ counter) at
// every whole simulated second, from one event that re-arms itself. The
// successive differences are the executor's 1 s throughput bins.
class IoSampler {
 public:
  IoSampler(sim::Simulation& sim, const engine::ExecutorRuntime& exec)
      : sim_(sim), exec_(exec) {
    arm();
  }
  // The pending sample holds `this`.
  ~IoSampler() { sim_.cancel(next_); }
  IoSampler(const IoSampler&) = delete;
  IoSampler& operator=(const IoSampler&) = delete;

  /// Bytes/s in each whole second from t = 0 to the last second with any
  /// I/O; the current second is closed at now().
  std::vector<double> rates() const {
    std::vector<Bytes> totals = totals_;
    totals.push_back(exec_.io_counters().bytes_total());
    std::vector<double> out;
    for (size_t i = 1; i < totals.size(); ++i) {
      out.push_back(static_cast<double>(totals[i] - totals[i - 1]));
    }
    while (!out.empty() && out.back() == 0.0) out.pop_back();
    return out;
  }

 private:
  void arm() {
    next_ = sim_.schedule_at(static_cast<double>(totals_.size()), [this] {
      totals_.push_back(exec_.io_counters().bytes_total());
      arm();
    });
  }

  sim::Simulation& sim_;
  const engine::ExecutorRuntime& exec_;
  std::vector<Bytes> totals_{0};  // cumulative bytes at t = 0, 1, 2, ...
  sim::EventId next_ = sim::kInvalidEvent;
};

}  // namespace

int main() {
  using namespace saexbench;

  print_title(
      "Figure 12", "I/O throughput time series (Terasort stages 0-1, HDD/SSD)",
      "HDD: mean throughput varies strongly across thread counts (peak at "
      "4-8, default lowest); SSD: curves nearly uniform across counts and "
      "higher in absolute terms");

  const auto spec = workloads::terasort();

  for (const bool ssd : {false, true}) {
    std::printf("\n---- %s ----\n", ssd ? "SSD" : "HDD");
    std::map<int, std::vector<double>> means_per_stage;  // stage -> per-t mean

    for (const int threads : {32, 16, 8, 4, 2}) {
      // Fresh cluster per run; sample executor 0's 1-second rate series and
      // capture the stage boundaries.
      hw::ClusterSpec cs = ssd ? hw::ClusterSpec::das5_ssd(4) : hw::ClusterSpec::das5(4);
      hw::Cluster cluster(cs);
      conf::Config config;
      config.set("saex.executor.policy", "static");
      config.set_int("saex.static.ioThreads", threads);
      engine::SparkContext ctx(cluster, std::move(config));
      const auto actions = spec.build(ctx);
      const IoSampler sampler(cluster.sim(), ctx.executor(0));
      std::vector<engine::StageStats> stages;
      for (const auto& a : actions) {
        auto r = ctx.run_job(a, spec.name);
        for (auto& s : r.stages) stages.push_back(s);
      }

      const auto rates = sampler.rates();
      for (int stage = 0; stage < 2; ++stage) {
        const auto& s = stages[static_cast<size_t>(stage)];
        const size_t from = static_cast<size_t>(s.start_time);
        const size_t to =
            std::min(rates.size(), static_cast<size_t>(s.end_time) + 1);
        std::vector<double> window(rates.begin() + static_cast<long>(from),
                                   rates.begin() + static_cast<long>(to));
        double mean = 0;
        for (const double v : window) mean += v;
        mean /= std::max<size_t>(window.size(), 1);
        means_per_stage[stage].push_back(mean);

        // Downsample the window for a readable sparkline.
        std::vector<double> plot;
        const size_t step = std::max<size_t>(1, window.size() / 48);
        for (size_t i = 0; i < window.size(); i += step) plot.push_back(window[i]);
        std::printf("stage %d, %2d threads: mean %8s  %s\n", stage, threads,
                    format_rate(mean).c_str(), sparkline(plot).c_str());
      }
    }

    for (int stage = 0; stage < 2; ++stage) {
      const auto& means = means_per_stage[stage];
      double lo = means[0], hi = means[0];
      for (const double m : means) {
        lo = std::min(lo, m);
        hi = std::max(hi, m);
      }
      const double spread = (hi - lo) / hi;
      std::printf("stage %d mean-throughput spread across thread counts: %.0f%%"
                  " (%s: paper shows %s)\n",
                  stage, spread * 100, ssd ? "SSD" : "HDD",
                  ssd ? "nearly uniform curves" : "strong variation, peak at 4");
    }
  }
  return 0;
}
