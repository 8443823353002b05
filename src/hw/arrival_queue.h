// Setup-latency arrivals of a fluid device, without a kernel event each.
//
// Disk::submit and Network::transfer* charge a fixed setup latency before a
// transfer joins the device's processor-sharing pool. The latency is one
// constant per device, so arrivals fall due in submission order and a FIFO
// of (due time, transfer) is exact. The device keeps a single kernel event,
// its wake-up, set to the earlier of its next completion and the FIFO
// front; every arrival due at one wake-up joins the pool in one settle.
//
// ArrivalQueue owns the FIFO and that wake-up (a WakeUp). The device owns
// the pool and decides what a wake-up does: with arrivals due, it settles
// and completes at the old shares, admits them (admit_due), then
// reschedules through set_wake; otherwise it only settles, completes and
// reschedules.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "hw/wake_up.h"
#include "sim/simulation.h"

namespace saex::hw {

template <typename Item>
class ArrivalQueue {
 public:
  static constexpr sim::Time kNever = WakeUp::kNever;

  /// `on_wake` runs every time the device's wake-up fires.
  ArrivalQueue(sim::Simulation& sim, std::function<void()> on_wake)
      : sim_(sim), wake_(sim, std::move(on_wake)) {}
  ArrivalQueue(const ArrivalQueue&) = delete;
  ArrivalQueue& operator=(const ArrivalQueue&) = delete;

  /// Queues `item` to arrive `latency` seconds from now. When it is the only
  /// pending arrival and falls due strictly before the pending wake-up (or
  /// none is pending), the wake-up moves to it. The move draws the kernel's
  /// FIFO sequence number at submit time, so among same-instant events the
  /// arrival orders as an event scheduled here would.
  void push(sim::Time latency, Item item) {
    // The same sum schedule_after(latency) computes.
    const sim::Time at = sim_.now() + std::max(latency, 0.0);
    if (count_ == ring_.size()) grow();
    ring_[(head_ + count_) & (ring_.size() - 1)] = Entry{at, std::move(item)};
    ++count_;
    if (count_ == 1 && at < wake_.at()) wake_.move_to(at);
  }

  /// True when the front arrival is due at the current simulated time.
  bool due() const noexcept {
    return count_ > 0 && ring_[head_].at <= sim_.now();
  }

  /// Hands every due arrival to `admit(Item&&)`, in FIFO order.
  template <typename Admit>
  void admit_due(Admit&& admit) {
    while (due()) {
      Item item = std::move(ring_[head_].item);
      head_ = (head_ + 1) & (ring_.size() - 1);
      --count_;
      admit(std::move(item));
    }
  }

  /// Moves the wake-up to the earlier of `next_completion` (kNever: none)
  /// and the FIFO front, or cancels it when there is neither.
  void set_wake(sim::Time next_completion) {
    const sim::Time t =
        count_ > 0 ? std::min(next_completion, ring_[head_].at)
                   : next_completion;
    if (t == kNever) {
      wake_.cancel();
    } else {
      wake_.move_to(t);
    }
  }

 private:
  struct Entry {
    sim::Time at = 0.0;
    Item item;
  };

  // Doubles the ring, unrolling the FIFO to start at slot 0.
  void grow() {
    std::vector<Entry> bigger(std::max<size_t>(8, 2 * ring_.size()));
    for (size_t i = 0; i < count_; ++i) {
      bigger[i] = std::move(ring_[(head_ + i) & (ring_.size() - 1)]);
    }
    ring_ = std::move(bigger);
    head_ = 0;
  }

  sim::Simulation& sim_;
  // Power-of-two ring buffer: the FIFO is the count_ slots from head_. It
  // grows to the most arrivals ever in flight at once and never shrinks, so
  // a steady stream of submits allocates nothing.
  std::vector<Entry> ring_;
  size_t head_ = 0;
  size_t count_ = 0;
  WakeUp wake_;  // the device's one wake-up
};

}  // namespace saex::hw
