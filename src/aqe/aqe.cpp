#include "aqe/aqe.h"

#include <algorithm>

#include "common/format.h"
#include "conf/config.h"

namespace saex::aqe {

AqeOptions AqeOptions::from_config(const conf::Config& config) {
  AqeOptions opt;
  opt.enabled = config.get_bool("saex.aqe.enabled");
  opt.target_partition_bytes = config.get_bytes("saex.aqe.targetPartitionBytes");
  opt.skew_factor = config.get_double("saex.aqe.skewFactor");
  opt.max_splits = static_cast<int>(config.get_int("saex.aqe.maxSplits"));
  opt.min_partitions = static_cast<int>(config.get_int("saex.aqe.minPartitions"));

  if (opt.target_partition_bytes <= 0) {
    throw conf::ConfigError(strfmt::format(
        "saex.aqe.targetPartitionBytes must be positive, got {}",
        opt.target_partition_bytes));
  }
  if (opt.skew_factor < 1.0) {
    throw conf::ConfigError(strfmt::format(
        "saex.aqe.skewFactor must be >= 1, got {:.3f}", opt.skew_factor));
  }
  if (opt.max_splits < 1) {
    throw conf::ConfigError(strfmt::format(
        "saex.aqe.maxSplits must be >= 1, got {}", opt.max_splits));
  }
  if (opt.min_partitions < 0) {
    throw conf::ConfigError(strfmt::format(
        "saex.aqe.minPartitions must be >= 0 (0 = default parallelism), "
        "got {}", opt.min_partitions));
  }
  return opt;
}

AqePlan plan_reduce_stage(const std::vector<Bytes>& partition_bytes,
                          const AqeOptions& opt) {
  AqePlan plan;
  const int R = static_cast<int>(partition_bytes.size());
  if (R == 0) return plan;

  Bytes total = 0;
  for (const Bytes b : partition_bytes) total += b;

  // Median partition size anchors the skew threshold (Spark's rule: a
  // partition is skewed when it exceeds BOTH skewFactor × median and the
  // coalesce target — the second clause stops us splitting uniformly tiny
  // stages whose median is near zero).
  std::vector<Bytes> sorted(partition_bytes);
  std::sort(sorted.begin(), sorted.end());
  const Bytes median = sorted[static_cast<size_t>(R) / 2];
  const double skew_threshold =
      opt.skew_factor * static_cast<double>(median);

  // Never coalesce below min_partitions tasks: cap the effective target at
  // an even share of the total.
  Bytes target = opt.target_partition_bytes;
  if (opt.min_partitions > 1 && total > 0) {
    target = std::min<Bytes>(
        target, std::max<Bytes>(1, total / opt.min_partitions));
  }

  int run_first = -1;     // open coalesce run [run_first, p)
  Bytes run_bytes = 0;
  const auto flush_run = [&](int upto) {
    if (run_first < 0) return;
    plan.slices.push_back(engine::ReduceSlice{run_first, upto - 1, 0, 1});
    plan.merged_partitions += (upto - 1) - run_first;
    run_first = -1;
    run_bytes = 0;
  };

  for (int p = 0; p < R; ++p) {
    const Bytes b = partition_bytes[static_cast<size_t>(p)];
    const bool skewed = opt.max_splits > 1 &&
                        static_cast<double>(b) > skew_threshold &&
                        b > opt.target_partition_bytes;
    if (skewed) {
      flush_run(p);
      const int splits = static_cast<int>(std::min<Bytes>(
          opt.max_splits,
          (b + opt.target_partition_bytes - 1) / opt.target_partition_bytes));
      const int m = std::max(2, splits);
      for (int j = 0; j < m; ++j) {
        plan.slices.push_back(engine::ReduceSlice{p, p, j, m});
      }
      ++plan.split_partitions;
      continue;
    }
    if (run_first < 0) run_first = p;
    run_bytes += b;
    if (run_bytes >= target) flush_run(p + 1);
  }
  flush_run(R);

  plan.identity = plan.split_partitions == 0 &&
                  static_cast<int>(plan.slices.size()) == R;
  return plan;
}

}  // namespace saex::aqe
