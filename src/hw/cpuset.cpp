#include "hw/cpuset.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace saex::hw {

CpuSet::CpuSet(sim::Simulation& sim, int cores, double speed_factor)
    : sim_(sim),
      cores_(cores),
      speed_factor_(speed_factor),
      busy_tracker_(static_cast<double>(cores), /*retain=*/0.0) {
  assert(cores > 0);
}

void CpuSet::execute(double seconds, sim::Callback done) {
  assert(seconds >= 0.0);
  seconds /= speed_factor_;
  if (busy_ < cores_) {
    start(seconds, std::move(done));
  } else {
    queue_.push_back(Request{seconds, std::move(done)});
  }
}

void CpuSet::start(double seconds, sim::Callback&& done) {
  ++busy_;
  busy_tracker_.set_active(sim_.now(), static_cast<double>(busy_));
  // The same sum schedule_after(seconds) computes.
  const sim::Time finish = sim_.now() + std::max(seconds, 0.0);
  uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<uint32_t>(done_.size());
    done_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  done_[slot] = std::move(done);
  running_.push(sim::EventKey{finish, started_++, slot});
  // Strictly earlier only: on a tie the pending wake-up already belongs to
  // an earlier start, which completes first.
  if (finish < wake_.at()) wake_.move_to(finish);
}

void CpuSet::wake() {
  const sim::Time now = sim_.now();
  // Every compute finishing now leaves the heap, in start order...
  due_.clear();
  while (!running_.empty() && running_.top().t <= now) {
    due_.push_back(running_.pop().slot);
  }
  // ...and the wake-up re-arms at the next remaining finish before any
  // callback runs.
  if (!running_.empty()) wake_.move_to(running_.top().t);
  for (const uint32_t slot : due_) {
    sim::Callback done = std::move(done_[slot]);
    free_slots_.push_back(slot);
    --busy_;
    busy_tracker_.set_active(now, static_cast<double>(busy_));
    if (!queue_.empty()) {
      start(queue_.front().seconds, std::move(queue_.front().done));
      queue_.pop_front();
    }
    done();
  }
}

}  // namespace saex::hw
