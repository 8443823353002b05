// Discrete-event simulation kernel.
//
// All cluster hardware (disks, NICs, cores) and the engine's executors run
// on a single-threaded event loop over simulated seconds. Determinism:
// events with equal timestamps fire in scheduling order (FIFO tiebreak), so
// a run is a pure function of (configuration, seed).
//
// Hot-path layout: the priority queue (an indexed 4-ary heap) holds 24-byte
// POD keys only; callbacks live in a generation-stamped slot table and are
// moved out exactly once, when their event fires. The heap tracks where each
// slot's key sits, so cancel() erases the key at once and reschedule_at()
// moves a pending event's key in place: the heap holds exactly the pending
// events. A rescheduled event takes a fresh FIFO sequence number, so it
// orders exactly as cancel() followed by schedule_at() would. The generation
// stamp makes stale handles — including ids of already-fired events —
// detectably invalid, so cancel() and reschedule_*() never touch an event
// that is no longer pending.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sim/callback.h"
#include "sim/event_heap.h"

namespace saex::sim {

/// Simulated time in seconds since simulation start.
using Time = double;

/// Opaque handle for a scheduled event; valid until the event fires or is
/// cancelled.
using EventId = uint64_t;
inline constexpr EventId kInvalidEvent = 0;

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute time `t` (clamped to now()).
  EventId schedule_at(Time t, Callback fn);

  /// Schedules `fn` `delay` seconds from now (negative delays clamp to 0).
  EventId schedule_after(Time delay, Callback fn);

  /// Cancels a pending event. Returns true if the event was pending; false
  /// for double-cancels, already-fired events, and invalid handles.
  bool cancel(EventId id);

  /// Moves a pending event to absolute time `t` (clamped to now()), keeping
  /// its callback and handle. The event orders after every event scheduled
  /// before this call, exactly as cancel() + schedule_at() would. Returns
  /// false, changing nothing, for fired, cancelled and invalid handles.
  bool reschedule_at(EventId id, Time t);

  /// reschedule_at() `delay` seconds from now (negative delays clamp to 0).
  bool reschedule_after(EventId id, Time delay);

  /// Runs until the event queue is empty. Returns the final time.
  Time run();

  /// Runs all events with timestamp <= limit; advances now() to
  /// min(limit, last event time). Returns true if events remain.
  bool run_until(Time limit);

  /// Processes exactly one event if any is pending; returns false when the
  /// queue is empty.
  bool step();

  /// Timestamp of the earliest pending event, or +infinity when the queue
  /// is empty.
  Time next_time() const noexcept {
    return queue_.empty() ? std::numeric_limits<Time>::infinity()
                          : queue_.top().t;
  }

  size_t pending() const noexcept { return slots_.size() - free_slots_.size(); }
  uint64_t processed() const noexcept { return processed_; }

 private:
  // One pending event's payload. The generation counter increments every
  // time the slot is released, so an EventId minted for an earlier
  // occupancy no longer matches.
  struct Slot {
    Callback cb;
    uint32_t generation = 0;
  };

  static constexpr uint32_t kNoSlot = std::numeric_limits<uint32_t>::max();

  static EventId make_id(uint32_t generation, uint32_t slot) noexcept {
    return (static_cast<EventId>(generation) << 32) |
           (static_cast<EventId>(slot) + 1);
  }

  uint32_t alloc_slot();
  void release_slot(uint32_t index) noexcept;
  /// Slot of the event `id` names if it is still pending, else kNoSlot.
  uint32_t pending_slot(EventId id) const noexcept;
  bool fire_next();
  /// Debug builds: the heap holds exactly one key per pending event.
  void check_invariants() const noexcept;

  Time now_ = 0.0;
  uint64_t seq_ = 0;  // schedule_* and reschedule_* calls; FIFO tiebreak key
  uint64_t processed_ = 0;
  EventHeap queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace saex::sim
