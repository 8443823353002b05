#include "sim/simulation.h"

#include "prof/profiler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace saex::sim {

uint32_t Simulation::alloc_slot() {
  if (!free_slots_.empty()) {
    const uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  assert(slots_.size() < kNoSlot && "slot table exhausted");
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulation::release_slot(uint32_t index) noexcept {
  Slot& slot = slots_[index];
  slot.cb.reset();
  ++slot.generation;
  free_slots_.push_back(index);
}

uint32_t Simulation::pending_slot(EventId id) const noexcept {
  if (id == kInvalidEvent) return kNoSlot;
  const uint64_t index = (id & 0xffffffffull) - 1;
  if (index >= slots_.size()) return kNoSlot;
  // A generation mismatch means the event already fired or was cancelled
  // and the slot moved on; the handle is stale.
  if (slots_[index].generation != static_cast<uint32_t>(id >> 32)) {
    return kNoSlot;
  }
  return static_cast<uint32_t>(index);
}

void Simulation::check_invariants() const noexcept {
  assert(queue_.size() == pending() && "heap keys != pending events");
  assert((queue_.empty() || queue_.indexed(queue_.top().slot)) &&
         "heap position index out of sync");
}

EventId Simulation::schedule_at(Time t, Callback fn) {
  const uint32_t index = alloc_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(fn);
  queue_.push(EventKey{std::max(t, now_), seq_++, index});
  check_invariants();
  return make_id(slot.generation, index);
}

EventId Simulation::schedule_after(Time delay, Callback fn) {
  return schedule_at(now_ + std::max(delay, 0.0), std::move(fn));
}

bool Simulation::cancel(EventId id) {
  const uint32_t index = pending_slot(id);
  if (index == kNoSlot) return false;
  queue_.erase(index);
  release_slot(index);
  check_invariants();
  return true;
}

bool Simulation::reschedule_at(EventId id, Time t) {
  const uint32_t index = pending_slot(id);
  if (index == kNoSlot) return false;
  queue_.update(EventKey{std::max(t, now_), seq_++, index});
  check_invariants();
  return true;
}

bool Simulation::reschedule_after(EventId id, Time delay) {
  return reschedule_at(id, now_ + std::max(delay, 0.0));
}

bool Simulation::fire_next() {
  if (queue_.empty()) return false;
  const EventKey key = queue_.pop();
  assert(key.t >= now_ && "event scheduled in the past");
  now_ = key.t;
  // Move the callback out before invoking: the callback may schedule new
  // events, growing slots_.
  Callback cb = std::move(slots_[key.slot].cb);
  release_slot(key.slot);
  ++processed_;
  {
    SAEX_PROF_SCOPE(kSim);
    cb();
  }
  check_invariants();
  return true;
}

Time Simulation::run() {
  while (fire_next()) {
  }
  return now_;
}

bool Simulation::run_until(Time limit) {
  while (!queue_.empty()) {
    if (queue_.top().t > limit) {
      now_ = limit;
      return true;
    }
    fire_next();
  }
  now_ = std::max(now_, limit);
  return false;
}

bool Simulation::step() { return fire_next(); }

}  // namespace saex::sim
