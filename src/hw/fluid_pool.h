// The processor-sharing core that Disk and Network share.
//
// Both devices are fluid models: their active jobs (disk transfers, network
// flows) progress at rates that stay constant between mutations (an
// arrival, a completion, a speed change), so a device acts only at those
// instants. FluidPool<Device, Job, kProfile> owns what the two have in
// common:
//
//  - the active jobs, in arrival (FIFO) order;
//  - the setup-latency arrival FIFO. Every job waits one fixed latency
//    before it joins the pool. The latency is one constant per device, so
//    arrivals fall due in submission order and a FIFO of (due time, job) is
//    exact, without a kernel event per arrival;
//  - the device's one kernel wake-up (a WakeUp), at the earlier of the next
//    completion and the FIFO front;
//  - the pass: settle every job up to now at the current rates, complete
//    the finished ones, move the wake-up, then run the completion
//    callbacks;
//  - mutate(change): a pass that settles and completes at the old rates,
//    the change, then a pass that reschedules at the new ones, so earlier
//    progress is settled at the rates it was made at. Every rate change
//    goes through it except Network::register_fetch/unregister_fetch (see
//    there).
//
// The device supplies the rates through hooks, called through the CRTP
// Device type (no virtual call, no std::function in the per-job loops):
//
//   void settle(double dt);           every job's `remaining` -= rate * dt
//   void retire(const Job&);          a finished job leaves: drop its load
//   void admit(const Job&, Bytes);    a due arrival joins: add its load
//   double until_next(double min_remaining);
//                                     seconds until the next completion;
//                                     called only with jobs in the pool,
//                                     `min_remaining` is their least
//                                     remaining work
//   void set_busy(bool);              optional: a sweep retired the pool's
//                                     last job, or the pool took arrivals
//
// Job is an aggregate with `double remaining` (in the device's work units)
// and `sim::Callback done`. Each pass is one `kProfile` profiler scope.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "common/units.h"
#include "hw/wake_up.h"
#include "prof/profiler.h"
#include "sim/simulation.h"

namespace saex::hw {

template <typename Device, typename Job, prof::Subsystem kProfile>
class FluidPool {
 public:
  FluidPool(const FluidPool&) = delete;
  FluidPool& operator=(const FluidPool&) = delete;

 protected:
  explicit FluidPool(sim::Simulation& sim)
      : sim_(sim), wake_(sim, [this] { wake(); }) {}

  /// Queues `job` (carrying `bytes`) to join the pool `latency` seconds from
  /// now; a zero-byte job completes after the latency alone. When the job
  /// is the only pending arrival and falls due strictly before the pending
  /// wake-up (or none is pending), the wake-up moves to it. The move draws
  /// the kernel's FIFO sequence number at submit time, so among same-instant
  /// events the arrival orders as an event scheduled here would.
  void enqueue(sim::Time latency, Bytes bytes, Job job) {
    if (bytes == 0) {
      sim_.schedule_after(latency, std::move(job.done));
      return;
    }
    // The same sum schedule_after(latency) computes.
    const sim::Time at = sim_.now() + std::max(latency, 0.0);
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) & (ring_.size() - 1)] =
        Arrival{at, bytes, std::move(job)};
    ++count_;
    if (count_ == 1 && at < wake_.at()) wake_.move_to(at);
  }

  /// Settles and completes at the old rates, applies `change`, then
  /// reschedules at the new rates (two passes).
  template <typename Change>
  void mutate(Change&& change) {
    pass(false);
    change();
    pass(true);
  }

  /// Default hook for a device without a busy tracker.
  void set_busy(bool) {}

  sim::Simulation& sim_;
  std::vector<Job> jobs_;  // active jobs, in arrival order

 private:
  static constexpr sim::Time kNever = WakeUp::kNever;

  struct Arrival {
    sim::Time at = 0.0;
    Bytes bytes = 0;
    Job job;
  };

  Device& device() noexcept { return static_cast<Device&>(*this); }

  bool due() const noexcept {
    return count_ > 0 && ring_[head_].at <= sim_.now();
  }

  // The wake-up: with arrivals due, settle and complete at the shares
  // before them, admit every due arrival in FIFO order, then reschedule;
  // otherwise one pass.
  void wake() {
    if (!due()) {
      pass(true);
      return;
    }
    mutate([this] {
      while (due()) {
        Arrival& a = ring_[head_];
        head_ = (head_ + 1) & (ring_.size() - 1);
        --count_;
        device().admit(a.job, a.bytes);
        jobs_.push_back(std::move(a.job));
      }
      device().set_busy(true);
    });
  }

  // Settles every job up to now at the current rates and completes the
  // finished ones. With `reschedule`, also moves the wake-up to the earlier
  // of the next completion and the FIFO front, or cancels it when there is
  // neither; a settle-only pass leaves it to the caller's next pass.
  void pass(bool reschedule) {
    prof::ScopedTimer scope(kProfile);
    const sim::Time now = sim_.now();
    const double dt = now - last_advance_;
    if (dt > 0.0) device().settle(dt);
    last_advance_ = now;

    // Complete everything that has (numerically) finished, compacting the
    // survivors in place, and find their least remaining work in the same
    // sweep. The threshold is half a unit (byte): below that, scheduling
    // another wake-up can produce a dt too small to advance the clock at
    // large sim times (t + dt == t in doubles), which would spin the event
    // loop forever. Retiring runs before any survivor's rate is read, so
    // the next completion is computed at the post-completion loads.
    std::vector<sim::Callback> finished = std::move(finished_scratch_);
    finished.clear();
    double min_remaining = kNever;
    size_t out = 0;
    for (size_t i = 0; i < jobs_.size(); ++i) {
      Job& job = jobs_[i];
      if (job.remaining <= 0.5) {
        device().retire(job);
        finished.push_back(std::move(job.done));
      } else {
        min_remaining = std::min(min_remaining, job.remaining);
        if (out != i) jobs_[out] = std::move(job);
        ++out;
      }
    }
    jobs_.resize(out);
    // Idle only when this sweep retired the last job: a pass over a pool
    // that was already empty leaves the busy tracker alone.
    if (jobs_.empty() && !finished.empty()) device().set_busy(false);

    if (reschedule) {
      sim::Time next = kNever;
      if (!jobs_.empty()) {
        // Floor the wake-up so time strictly advances even for sub-byte
        // tails.
        next = now + std::max(device().until_next(min_remaining), 1e-9);
      }
      if (count_ > 0) next = std::min(next, ring_[head_].at);
      if (next == kNever) {
        wake_.cancel();
      } else {
        wake_.move_to(next);
      }
    }

    // Callbacks run last: they may submit again reentrantly (a nested pass
    // sees an empty finished_scratch_ and allocates its own buffer).
    for (auto& fn : finished) fn();
    finished.clear();
    finished_scratch_ = std::move(finished);
  }

  // Doubles the ring, unrolling the FIFO to start at slot 0.
  void grow() {
    std::vector<Arrival> bigger(std::max<size_t>(8, 2 * ring_.size()));
    for (size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  double last_advance_ = 0.0;
  // Completion callbacks, recycled across passes.
  std::vector<sim::Callback> finished_scratch_;
  // Power-of-two ring buffer: the FIFO is the count_ slots from head_. It
  // grows to the most arrivals ever in flight at once and never shrinks, so
  // a steady stream of submits allocates nothing.
  std::vector<Arrival> ring_;
  size_t head_ = 0;
  size_t count_ = 0;
  WakeUp wake_;  // the device's one wake-up
};

}  // namespace saex::hw
