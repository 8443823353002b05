// The sensor data the MAPE-K loop consumes.
//
// Paper §5.1: the monitor tracks (1) epoll wait time ε — accumulated time
// tasks spend blocked waiting for I/O completions (the paper measures it
// with strace; our simulated executors account blocked time directly, and
// procmon/ provides the live-Linux equivalent) — and (2) I/O throughput µ —
// bytes moved by the tasks (disk AND shuffle/network, per the paper's
// argument for why ζ also works for network-bound stages).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/units.h"

namespace saex::metrics {

/// Monotone accumulators; the Monitor takes deltas between snapshots.
struct IoCounters {
  double blocked_seconds = 0.0;  // ε accumulator
  Bytes bytes_read = 0;          // disk + shuffle reads
  Bytes bytes_written = 0;       // disk + shuffle writes
  uint64_t tasks_completed = 0;

  Bytes bytes_total() const noexcept { return bytes_read + bytes_written; }
};

class IoAccounting {
 public:
  void add_blocked(double seconds) noexcept { counters_.blocked_seconds += seconds; }
  void add_read(Bytes b) noexcept { counters_.bytes_read += b; }
  void add_write(Bytes b) noexcept { counters_.bytes_written += b; }
  void task_completed() noexcept { ++counters_.tasks_completed; }

  const IoCounters& snapshot() const noexcept { return counters_; }

 private:
  IoCounters counters_;
};

/// Integral of "active units" over time for a capacity-k resource; answers
/// "average utilization over [t0, t1]" queries for disk-busy (Fig. 5),
/// CPU-busy and iowait (Fig. 1) rollups.
///
/// Retention contract: the running (last_t, active, integral) state answers
/// integral_at(t) for any t at or after the latest update. Earlier instants
/// are answerable only back to `retain` sim seconds before the latest
/// update: set_active keeps the last change point at or before that horizon
/// and drops every older one, so memory follows the updates inside the
/// window, not the whole run. A caller that needs an older start (a stage
/// rollup) snapshots integral_at(now) when its window opens and passes the
/// snapshot to utilization_since.
class UtilizationTracker {
 public:
  /// `retain` >= 0: 0 keeps no change points at all (no allocation ever);
  /// +infinity keeps the full history.
  UtilizationTracker(double capacity, double retain);

  /// Records that `active` units are busy from sim-time `t` onward.
  /// Times must be non-decreasing.
  void set_active(double t, double active);

  /// Busy-unit-seconds accumulated up to time t. Throws std::out_of_range
  /// when t precedes the retained window.
  double integral_at(double t) const;

  /// Mean utilization (0..1) over [t0, t1]; t0 must lie in the window.
  double utilization(double t0, double t1) const;

  /// Mean utilization over [t0, t1] given `integral_t0`, the value
  /// integral_at(t0) returned at sim time t0. Bitwise equal to
  /// utilization(t0, t1) on an unbounded tracker: change points recorded
  /// later at t0 itself add `active * 0`.
  double utilization_since(double t0, double integral_t0, double t1) const;

  double capacity() const noexcept { return capacity_; }
  double last_update() const noexcept { return last_t_; }
  /// Change points held for queries before last_update(), oldest first;
  /// all but the oldest lie within `retain` of last_update().
  size_t retained_points() const noexcept { return history_.size() - head_; }
  double retained_time(size_t i) const { return history_.at(head_ + i).t; }

 private:
  double capacity_;
  double retain_;
  double last_t_ = 0.0;
  double active_ = 0.0;
  double integral_ = 0.0;
  // Superseded states, (t, integral_at_t, active_after_t), for queries
  // before last_t_. Entries below head_ are dropped; the vector is
  // compacted once they make up half of it.
  struct Point {
    double t;
    double integral;
    double active;
  };
  std::vector<Point> history_;
  size_t head_ = 0;
};

}  // namespace saex::metrics
