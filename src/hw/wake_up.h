// A hardware resource's one kernel wake-up event.
//
// Disk, Network and CpuSet each keep a single pending kernel event and move
// it in place as their next due time changes, instead of scheduling one
// event per request. WakeUp owns that event: its id, the time it is pending
// at, the in-place move (reschedule_at while pending, a fresh schedule_at
// once it has fired or been cancelled) and the cancel. The owner decides
// where the wake-up sits and what a firing does.
#pragma once

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "sim/simulation.h"

namespace saex::hw {

class WakeUp {
 public:
  static constexpr sim::Time kNever =
      std::numeric_limits<sim::Time>::infinity();

  /// `on_fire` runs every time the wake-up fires.
  WakeUp(sim::Simulation& sim, std::function<void()> on_fire)
      : sim_(sim), on_fire_(std::move(on_fire)) {}
  WakeUp(const WakeUp&) = delete;
  WakeUp& operator=(const WakeUp&) = delete;

  /// Time the wake-up is pending at; kNever when none is pending (also
  /// while its own firing runs).
  sim::Time at() const noexcept { return at_; }

  /// Moves the wake-up to `t` (clamped to now), scheduling it when none is
  /// pending. Either way it draws the kernel's FIFO sequence number now, so
  /// among events at `t` it orders as an event scheduled here would.
  void move_to(sim::Time t) {
    if (!sim_.reschedule_at(id_, t)) {
      id_ = sim_.schedule_at(t, [this] {
        id_ = sim::kInvalidEvent;
        at_ = kNever;
        on_fire_();
      });
    }
    at_ = std::max(t, sim_.now());  // the kernel clamps to now as well
  }

  /// Cancels the pending wake-up, if any.
  void cancel() {
    sim_.cancel(id_);
    id_ = sim::kInvalidEvent;
    at_ = kNever;
  }

 private:
  sim::Simulation& sim_;
  std::function<void()> on_fire_;
  sim::EventId id_ = sim::kInvalidEvent;
  sim::Time at_ = kNever;
};

}  // namespace saex::hw
