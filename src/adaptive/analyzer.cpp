#include "adaptive/analyzer.h"
#include "common/format.h"

#include <algorithm>

namespace saex::adaptive {
namespace {

// An interval improved when its metric beats the previous one by at least
// 2 %; more than 10 % worse triggers the rollback.
constexpr double kToleranceLower = 0.98;
constexpr double kToleranceUpper = 1.10;
// L3 guards (§5.2): when the interval moved almost no bytes, or the disk
// was mostly idle, the stage is not I/O-constrained at this size — ζ
// carries no contention signal and the climber keeps preferring more
// threads ("if the input/output size or the disk utilization is too low to
// justify using fewer threads, the performance metrics capture this").
constexpr double kMinThroughputBps = 1.0 * static_cast<double>(kMiB);
constexpr double kMinDiskUtilization = 0.55;

}  // namespace

int Analyzer::first_threads() const noexcept {
  return config_.descending ? config_.max_threads : config_.min_threads;
}

int Analyzer::next_threads(int current) const noexcept {
  if (config_.descending) {
    return std::max(current / 2, config_.min_threads);
  }
  return std::min(current * 2, config_.max_threads);
}

bool Analyzer::at_bound(int current) const noexcept {
  return next_threads(current) == current;
}

double Analyzer::metric_value(const IntervalReport& report) const noexcept {
  switch (config_.metric) {
    case Metric::kZeta:
      return report.congestion_index();
    case Metric::kEpollOnly:
      return report.epoll_wait;
    case Metric::kDiskUtil:
      // Utilization is maximized; minimize its complement. §5.2 explains why
      // this is a weak signal: near saturation all settings look alike.
      return 1.0 - report.disk_utilization;
  }
  return 0.0;
}

Decision Analyzer::decide(const std::optional<IntervalReport>& previous,
                          const IntervalReport& current) const {
  Decision d;

  if (!previous.has_value()) {
    if (at_bound(current.threads)) {
      d.action = Decision::Action::kHold;
      d.target_threads = current.threads;
      d.reason = "single feasible size";
    } else {
      d.action = Decision::Action::kContinueClimb;
      d.target_threads = next_threads(current.threads);
      d.reason = "first interval; keep exploring";
    }
    return d;
  }

  const double prev_value = metric_value(*previous);
  const double cur_value = metric_value(current);

  // L3 guard: with negligible I/O traffic — or a mostly idle disk AND tasks
  // that are not actually blocked — ζ carries no contention signal; a stage
  // this CPU-bound always prefers more threads. The blocked-time condition
  // matters because an idle disk can also mean a *network*-bound stage
  // (§5.2: ε and µ deliberately cover network I/O too), where climbing
  // further is exactly wrong.
  const bool low_io = (current.throughput() < kMinThroughputBps &&
                       previous->throughput() < kMinThroughputBps) ||
                      (current.disk_utilization < kMinDiskUtilization &&
                       current.blocked_fraction() < 0.5);

  const bool improved = cur_value < kToleranceLower * prev_value;
  const bool worsened = cur_value > kToleranceUpper * prev_value;

  if (!low_io && worsened && config_.rollback) {
    d.action = Decision::Action::kRollback;
    // One exploration step back down. After a normal climb this equals the
    // previous interval's size (the paper's c_j/2); after a fast-climb it
    // lands midway rather than overshooting all the way back.
    d.target_threads = config_.descending
                           ? std::min(current.threads * 2, config_.max_threads)
                           : std::max(current.threads / 2, config_.min_threads);
    d.reason = saex::strfmt::format(
        "metric worsened ({:.4g} -> {:.4g}); rollback to {}", prev_value,
        cur_value, d.target_threads);
    return d;
  }

  // Improved, indifferent, low-I/O, or rollback disabled (ablation): keep
  // climbing until the bound.
  if (at_bound(current.threads)) {
    d.action = Decision::Action::kHold;
    d.target_threads = current.threads;
    d.reason = "bound reached";
    return d;
  }
  d.action = Decision::Action::kContinueClimb;
  // When the disk is demonstrably idle no contention is possible at the
  // next size either, so the climber takes a double step: the settling-time
  // argument that justifies doubling (§5.2) justifies quadrupling here.
  d.target_threads = low_io ? next_threads(next_threads(current.threads))
                            : next_threads(current.threads);
  d.reason = low_io         ? "negligible I/O; fast-climb"
             : improved     ? "metric improved; keep climbing"
             : worsened     ? "worsened but rollback disabled (ablation)"
                            : "indifferent; prefer parallelism";
  return d;
}

}  // namespace saex::adaptive
