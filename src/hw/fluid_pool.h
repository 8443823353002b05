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
//  - the device's one kernel wake-up (a WakeUp), at the first instant a job
//    completes. A device whose jobs all run at one rate (the disk) projects
//    that instant through the pending arrivals: from the settled state it
//    settles the least remaining work to each arrival and admits the
//    arrival virtually, so an arrival that completes nothing costs no
//    wake-up. Rounding is monotone, so the settled minimum is exactly the
//    least of the settled jobs, and the projection repeats the arithmetic
//    the skipped wake-ups would have run. The wake-up sits at an arrival
//    instant only when a job finishes there. A submit due before the
//    wake-up extends the projection's stored end by one step and moves the
//    wake-up once. A device that cannot project (the network) keeps its
//    wake-up at the earlier of the next completion and the FIFO front;
//  - catch_up(): admits the arrivals a projection passed through, settling
//    piecewise through them exactly as their wake-ups would have. It runs
//    before every pass and in the device's state readers, so every reading
//    equals one taken with a wake-up per arrival;
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
//   void set_busy(bool, sim::Time);   optional: a sweep retired the pool's
//                                     last job, or arrivals joined an idle
//                                     pool, at that time
//   bool reset_ahead();               optional: starts a lookahead at the
//                                     pool's loads; false (the default)
//                                     declines projection through arrivals
//   void admit_ahead(const Job&);     adds a pending arrival's load to the
//                                     lookahead
//   double ahead_rate();              every job's rate at the lookahead's
//                                     loads (all jobs run at one rate)
//
// Job is an aggregate with `double remaining` (in the device's work units)
// and `sim::Callback done`. Each pass, and each catch-up that admits, is one
// `kProfile` profiler scope.
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
  /// now; a zero-byte job completes after the latency alone. An arrival due
  /// before the pending wake-up extends the projection by one step and moves
  /// the wake-up to its result; a device that does not project moves the
  /// wake-up to the arrival when it is the only one pending. The move draws
  /// the kernel's FIFO sequence number at submit time.
  void enqueue(sim::Time latency, Bytes bytes, Job job) {
    if (bytes == 0) {
      sim_.schedule_after(latency, std::move(job.done));
      return;
    }
    // The same sum schedule_after(latency) computes.
    const sim::Time at = sim_.now() + std::max(latency, 0.0);
    if (count_ == ring_.size()) grow();
    Arrival& a = ring_[(head_ + count_) & (ring_.size() - 1)];
    a = Arrival{at, bytes, std::move(job)};
    ++count_;
    if (at >= wake_.at()) return;
    if (!ahead_on_ && jobs_.empty() && count_ == 1) {
      // An idle pool with no other arrival is its own projection's end
      // state, before any pass and after a settle-only one alike.
      start_ahead(sim_.now(), kNever);
    }
    if (ahead_on_) {
      // Every earlier arrival is due before the wake-up, so the projection
      // has passed all of them and ends at this arrival's predecessor.
      wake_.move_to(step_ahead(a) ? ahead_done() : at);
    } else if (count_ == 1) {
      wake_.move_to(at);
    }
  }

  /// Settles and completes at the old rates, applies `change`, then
  /// reschedules at the new rates (two passes).
  template <typename Change>
  void mutate(Change&& change) {
    catch_up();
    pass(false);
    change();
    pass(true);
  }

  /// Admits the pending arrivals the projection passed through: those due
  /// before now, and those due at now unless the pool's own completion
  /// callbacks are running (a completion and an arrival at one instant keep
  /// the wake-up's order: callbacks first, then the admission). An arrival
  /// due at the pending wake-up is left to it. The device's state readers
  /// call this first.
  void catch_up() { catch_up(!in_callbacks_); }

  /// Default hooks: no busy tracker, no projection through arrivals.
  void set_busy(bool, sim::Time) {}
  bool reset_ahead() { return false; }
  void admit_ahead(const Job&) {}
  double ahead_rate() const { return 0.0; }

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

  // The wake-up: admit the arrivals the projection passed through, then,
  // with arrivals due now, settle and complete at the shares before them,
  // admit them in FIFO order and reschedule; otherwise one pass.
  void wake() {
    catch_up(false);
    if (!due()) {
      pass(true);
      return;
    }
    pass(false);
    const bool was_idle = jobs_.empty();
    while (due()) admit_front();
    // Busy only when the admissions ended an idle spell: arrivals that join
    // a busy pool leave the busy tracker alone.
    if (was_idle) device().set_busy(true, sim_.now());
    pass(true);
  }

  void admit_front() {
    Arrival& a = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    device().admit(a.job, a.bytes);
    jobs_.push_back(std::move(a.job));
  }

  // Admits, in FIFO order, every pending arrival due before now (and at
  // now, with `at_now`) that falls before the pending wake-up. Each one
  // settles the pool up to its own instant at the rates before it, as its
  // wake-up would have: the projection that skipped the wake-up guarantees
  // that nothing completes there.
  void catch_up(bool at_now) {
    const sim::Time now = sim_.now();
    const auto admissible = [&] {
      if (count_ == 0) return false;
      const sim::Time at = ring_[head_].at;
      return (at < now || (at_now && at == now)) && at < wake_.at();
    };
    if (!admissible()) return;
    prof::ScopedTimer scope(kProfile);
    do {
      const sim::Time at = ring_[head_].at;
      const double dt = at - last_advance_;
      if (dt > 0.0) device().settle(dt);
      last_advance_ = at;
      const bool was_idle = jobs_.empty();
      admit_front();
      if (was_idle) device().set_busy(true, at);
    } while (admissible());
  }

  // Settles every job up to now at the current rates and completes the
  // finished ones. With `reschedule`, also projects and moves the wake-up,
  // or cancels it when nothing is pending; a settle-only pass leaves it to
  // the caller's next pass.
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
    if (jobs_.empty() && !finished.empty()) device().set_busy(false, now);

    if (reschedule) {
      const sim::Time next = project(now, min_remaining);
      if (next == kNever) {
        wake_.cancel();
      } else {
        wake_.move_to(next);
      }
    } else {
      ahead_on_ = false;  // until the caller's rescheduling pass
    }

    // Callbacks run last: they may submit again reentrantly (a nested pass
    // sees an empty finished_scratch_ and allocates its own buffer).
    const bool outer = in_callbacks_;
    in_callbacks_ = true;
    for (auto& fn : finished) fn();
    in_callbacks_ = outer;
    finished.clear();
    finished_scratch_ = std::move(finished);
  }

  // The first instant after `now` at which a job completes, projected
  // through the pending arrivals, or the first arrival the projection
  // cannot pass; kNever when nothing is pending. Leaves the projection's
  // end state for enqueue() to extend.
  sim::Time project(sim::Time now, double min_remaining) {
    start_ahead(now, min_remaining);
    // Floor the wake-up so time strictly advances even for sub-byte tails.
    sim::Time next = jobs_.empty()
                         ? kNever
                         : now + std::max(device().until_next(min_remaining),
                                          1e-9);
    for (size_t i = 0; i < count_; ++i) {
      const Arrival& a = ring_[(head_ + i) & (ring_.size() - 1)];
      if (next < a.at) break;
      if (!ahead_on_ || !step_ahead(a)) return a.at;
      next = ahead_done();
    }
    return next;
  }

  // Starts a projection at the pool's settled state: time `now`, least
  // remaining work `min_remaining`, the device's current loads.
  void start_ahead(sim::Time now, double min_remaining) {
    ahead_on_ = device().reset_ahead();
    ahead_t_ = now;
    ahead_min_ = min_remaining;
  }

  // One projection step: settles the least remaining work to `a`'s due
  // time at the lookahead's rate, with the arithmetic the pass would run
  // there, and admits `a` virtually. All jobs run at one rate and rounding
  // is monotone, so the settled minimum is exactly the least of the settled
  // jobs. False, changing nothing, when a job would finish at that instant.
  bool step_ahead(const Arrival& a) {
    double least = ahead_min_;
    if (least != kNever) {
      const double dt = a.at - ahead_t_;
      if (dt > 0.0) least -= device().ahead_rate() * dt;
      if (least <= 0.5) return false;
    }
    if (a.job.remaining <= 0.5) return false;
    device().admit_ahead(a.job);
    ahead_t_ = a.at;
    ahead_min_ = std::min(least, a.job.remaining);
    return true;
  }

  // The projected completion at the projection's end state.
  sim::Time ahead_done() {
    return ahead_t_ + std::max(ahead_min_ / device().ahead_rate(), 1e-9);
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
  bool in_callbacks_ = false;
  // Power-of-two ring buffer: the FIFO is the count_ slots from head_. It
  // grows to the most arrivals ever in flight at once and never shrinks, so
  // a steady stream of submits allocates nothing.
  std::vector<Arrival> ring_;
  size_t head_ = 0;
  size_t count_ = 0;
  // The projection's end state: it has settled to ahead_t_, where the least
  // remaining work is ahead_min_ (kNever: no job) at the device's lookahead
  // loads. Valid while ahead_on_; a settle-only pass clears it.
  bool ahead_on_ = false;
  sim::Time ahead_t_ = 0.0;
  double ahead_min_ = kNever;
  WakeUp wake_;  // the device's one wake-up
};

}  // namespace saex::hw
