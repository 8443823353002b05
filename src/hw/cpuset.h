// Per-node CPU model: a fixed number of cores serving compute requests FIFO.
//
// A compute request occupies one core for its duration; if all cores are
// busy it queues. The busy tracker feeds the per-stage CPU% rollups (Fig. 1).
// It keeps no change-point history: the rollups snapshot its integral at
// stage start and read it again at stage end.
//
// Like Disk and Network, the CPU keeps one kernel event, its wake-up, not
// one per compute. Running computes sit in an indexed min-heap keyed by
// (finish time, start order), their callbacks in a slot table, and the
// wake-up sits at the earliest finish. Tasks run in lockstep, so many
// computes finish at one instant; a firing wake-up completes all of them in
// one event, in start order. Each rule below follows one event per compute
// as closely as one event can:
//   - a compute finishes at the same double schedule_after(seconds) gives;
//   - a start whose finish is strictly earlier than the pending wake-up
//     moves it at start time, drawing the FIFO sequence number a
//     per-compute event would have drawn;
//   - ties complete in start order, in the event of the earliest start;
//   - a firing wake-up re-arms at the next remaining finish before it runs
//     any callback, so it orders ahead of every event those callbacks
//     schedule, and a compute a callback starts (even a zero-second one)
//     completes in a later event;
//   - a queued request starts as soon as its core frees up, before the
//     callback of the compute that freed it runs.
// Two same-instant orders still differ from one event per compute: a
// compute tied with an earlier one completes ahead of the events scheduled
// between their starts, and after a re-arm, events scheduled for that
// instant between the compute's start and the re-arm fire before it.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "hw/wake_up.h"
#include "metrics/io_accounting.h"
#include "sim/event_heap.h"
#include "sim/simulation.h"

namespace saex::hw {

class CpuSet {
 public:
  /// `speed_factor` scales compute durations (heterogeneity).
  CpuSet(sim::Simulation& sim, int cores, double speed_factor = 1.0);
  CpuSet(const CpuSet&) = delete;
  CpuSet& operator=(const CpuSet&) = delete;

  /// Runs `seconds` of compute on one core; `done` fires at completion.
  void execute(double seconds, sim::Callback done);

  int cores() const noexcept { return cores_; }
  int busy_cores() const noexcept { return busy_; }
  int queued() const noexcept { return static_cast<int>(queue_.size()); }

  const metrics::UtilizationTracker& busy_tracker() const noexcept { return busy_tracker_; }
  metrics::UtilizationTracker& busy_tracker() noexcept { return busy_tracker_; }

  double total_busy_seconds() const noexcept { return busy_tracker_.integral_at(sim_.now()); }

 private:
  struct Request {
    double seconds;
    sim::Callback done;
  };

  void start(double seconds, sim::Callback&& done);
  void wake();

  sim::Simulation& sim_;
  int cores_;
  double speed_factor_;
  int busy_ = 0;
  std::deque<Request> queue_;
  // Running computes: (finish, start order, slot) keys, earliest on top;
  // done_[slot] is each one's callback. At most cores_ run at once, so the
  // slot table stops growing at cores_ entries.
  sim::EventHeap running_;
  std::vector<sim::Callback> done_;
  std::vector<uint32_t> free_slots_;
  uint64_t started_ = 0;
  // Slots of the computes one wake-up completes; a due compute keeps its
  // slot and its core until its turn comes.
  std::vector<uint32_t> due_;
  WakeUp wake_{sim_, [this] { wake(); }};
  metrics::UtilizationTracker busy_tracker_;
};

}  // namespace saex::hw
