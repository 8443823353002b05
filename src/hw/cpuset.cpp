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
  Request req{seconds / speed_factor_, std::move(done)};
  if (busy_ < cores_) {
    start(std::move(req));
  } else {
    queue_.push_back(std::move(req));
  }
}

void CpuSet::start(Request req) {
  ++busy_;
  busy_tracker_.set_active(sim_.now(), static_cast<double>(busy_));
  sim_.schedule_after(req.seconds, [this, done = std::move(req.done)]() mutable {
    finish(std::move(done));
  });
}

void CpuSet::finish(sim::Callback done) {
  --busy_;
  busy_tracker_.set_active(sim_.now(), static_cast<double>(busy_));
  if (!queue_.empty()) {
    Request next = std::move(queue_.front());
    queue_.pop_front();
    start(std::move(next));
  }
  done();
}

}  // namespace saex::hw
