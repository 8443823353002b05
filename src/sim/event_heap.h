// Hand-rolled indexed 4-ary min-heap over plain-old-data event keys.
//
// The kernel keeps callbacks out of the heap entirely (they live in the
// Simulation's slot table), so heap entries are 24-byte PODs and every sift
// step is a trivial copy — no allocator traffic, no move-constructor calls
// through type-erasure, and a 4-way branching factor that halves the tree
// depth and keeps sibling groups on one cache line compared to a binary
// heap. pop() moves the top entry out by value.
//
// The heap is indexed: a dense slot → position array is updated on every
// sift step, so the key of any slot can be erased or moved in place in
// O(log n). Each slot holds at most one key at a time.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace saex::sim {

struct EventKey {
  double t;       // absolute firing time
  uint64_t seq;   // schedule order; breaks timestamp ties FIFO
  uint32_t slot;  // index into the Simulation's slot table
};

inline bool earlier(const EventKey& a, const EventKey& b) noexcept {
  if (a.t != b.t) return a.t < b.t;
  return a.seq < b.seq;
}

class EventHeap {
 public:
  bool empty() const noexcept { return v_.empty(); }
  std::size_t size() const noexcept { return v_.size(); }
  const EventKey& top() const noexcept { return v_[0]; }

  /// Inserts the key of a slot that holds none yet.
  void push(EventKey e) {
    if (e.slot >= pos_.size()) pos_.resize(std::size_t{e.slot} + 1);
    v_.push_back(e);  // reserve the hole; overwritten by the sift
    sift_up(v_.size() - 1, e);
  }

  EventKey pop() {
    const EventKey out = v_[0];
    remove_at(0);
    return out;
  }

  /// Removes the key of `slot`.
  void erase(uint32_t slot) { remove_at(position_of(slot)); }

  /// Replaces the key of `e.slot` with `e`, restoring heap order from the
  /// key's current position.
  void update(EventKey e) {
    const std::size_t i = position_of(e.slot);
    if (earlier(e, v_[i])) {
      sift_up(i, e);
    } else {
      sift_down(i, e);
    }
  }

  /// True when `slot`'s key is in the heap at the position the index
  /// records (debug checks).
  bool indexed(uint32_t slot) const noexcept {
    return slot < pos_.size() && pos_[slot] < v_.size() &&
           v_[pos_[slot]].slot == slot;
  }

 private:
  static constexpr std::size_t kArity = 4;

  std::size_t position_of(uint32_t slot) const noexcept {
    assert(indexed(slot));
    return pos_[slot];
  }

  void place(std::size_t i, const EventKey& e) noexcept {
    v_[i] = e;
    pos_[e.slot] = static_cast<uint32_t>(i);
  }

  void remove_at(std::size_t i) {
    const EventKey last = v_.back();
    v_.pop_back();
    if (i == v_.size()) return;  // removed the last entry itself
    if (i > 0 && earlier(last, v_[(i - 1) / kArity])) {
      sift_up(i, last);
    } else {
      sift_down(i, last);
    }
  }

  // Moves hole `i` toward the root until `e` fits, then stores `e` there.
  void sift_up(std::size_t i, EventKey e) noexcept {
    while (i > 0) {
      const std::size_t parent = (i - 1) / kArity;
      if (!earlier(e, v_[parent])) break;
      place(i, v_[parent]);
      i = parent;
    }
    place(i, e);
  }

  // Moves hole `i` toward the leaves until `e` fits, then stores `e` there.
  void sift_down(std::size_t i, EventKey e) noexcept {
    const std::size_t n = v_.size();
    for (;;) {
      const std::size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      std::size_t best = first_child;
      const std::size_t end =
          first_child + kArity < n ? first_child + kArity : n;
      for (std::size_t c = first_child + 1; c < end; ++c) {
        if (earlier(v_[c], v_[best])) best = c;
      }
      if (!earlier(v_[best], e)) break;
      place(i, v_[best]);
      i = best;
    }
    place(i, e);
  }

  std::vector<EventKey> v_;
  std::vector<uint32_t> pos_;  // slot -> index into v_ (valid while held)
};

}  // namespace saex::sim
