#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/simulation.h"

namespace saex::sim {
namespace {

TEST(Simulation, StartsAtZero) {
  Simulation s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulation, FiresInTimeOrder) {
  Simulation s;
  std::vector<int> order;
  s.schedule_at(2.0, [&] { order.push_back(2); });
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(3.0, [&] { order.push_back(3); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3.0);
}

TEST(Simulation, SimultaneousEventsFifo) {
  Simulation s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, ScheduleAfterIsRelative) {
  Simulation s;
  double fired_at = -1;
  s.schedule_at(5.0, [&] {
    s.schedule_after(2.5, [&] { fired_at = s.now(); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Simulation, PastSchedulingClampsToNow) {
  Simulation s;
  double fired_at = -1;
  s.schedule_at(5.0, [&] {
    s.schedule_at(1.0, [&] { fired_at = s.now(); });  // in the past
  });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation s;
  bool fired = false;
  const EventId id = s.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));  // double-cancel is a no-op
  s.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.processed(), 0u);
}

TEST(Simulation, CancelFromWithinEvent) {
  Simulation s;
  bool fired = false;
  const EventId id = s.schedule_at(2.0, [&] { fired = true; });
  s.schedule_at(1.0, [&] { s.cancel(id); });
  s.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, RunUntilStopsAtLimit) {
  Simulation s;
  std::vector<double> times;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    s.schedule_at(t, [&times, &s] { times.push_back(s.now()); });
  }
  EXPECT_TRUE(s.run_until(2.5));
  EXPECT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
  EXPECT_FALSE(s.run_until(10.0));
  EXPECT_EQ(times.size(), 4u);
}

TEST(Simulation, RunUntilAdvancesTimeWhenQueueEmpty) {
  Simulation s;
  EXPECT_FALSE(s.run_until(42.0));
  EXPECT_DOUBLE_EQ(s.now(), 42.0);
}

TEST(Simulation, StepProcessesOneEvent) {
  Simulation s;
  int count = 0;
  s.schedule_at(1.0, [&] { ++count; });
  s.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(count, 2);
}

TEST(Simulation, PendingCountsLiveEvents) {
  Simulation s;
  const EventId a = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  EXPECT_EQ(s.pending(), 2u);
  s.cancel(a);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulation, CancelOfFiredEventReturnsFalse) {
  Simulation s;
  bool a = false, b = false;
  const EventId first = s.schedule_at(1.0, [&] { a = true; });
  s.schedule_at(2.0, [&] { b = true; });
  EXPECT_TRUE(s.step());  // fires `first`
  EXPECT_TRUE(a);
  EXPECT_EQ(s.pending(), 1u);
  // Regression: cancelling an already-fired id must neither touch the
  // queue nor corrupt pending().
  EXPECT_FALSE(s.cancel(first));
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(b);
  EXPECT_EQ(s.processed(), 2u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulation, CancelOfStaleIdAfterSlotReuse) {
  Simulation s;
  const EventId first = s.schedule_at(1.0, [] {});
  s.run();  // `first` fires; its slot is recycled
  bool fired = false;
  s.schedule_at(2.0, [&] { fired = true; });
  EXPECT_FALSE(s.cancel(first));  // stale handle must not hit the new event
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_TRUE(fired);
}

TEST(Simulation, CancelOfInvalidIdsReturnsFalse) {
  Simulation s;
  EXPECT_FALSE(s.cancel(kInvalidEvent));
  EXPECT_FALSE(s.cancel(987654321));  // never minted
  s.schedule_at(1.0, [] {});
  EXPECT_FALSE(s.cancel(987654321));
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Simulation, RunUntilFiresEventExactlyAtLimit) {
  Simulation s;
  bool at_limit = false, past_limit = false;
  s.schedule_at(2.0, [&] { at_limit = true; });
  s.schedule_at(2.0000001, [&] { past_limit = true; });
  EXPECT_TRUE(s.run_until(2.0));  // boundary event fires; later one remains
  EXPECT_TRUE(at_limit);
  EXPECT_FALSE(past_limit);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_FALSE(s.run_until(3.0));
  EXPECT_TRUE(past_limit);
}

TEST(Simulation, CancelThenFireKeepsFifoOfSurvivors) {
  Simulation s;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(s.schedule_at(1.0, [&order, i] { order.push_back(i); }));
  }
  EXPECT_TRUE(s.cancel(ids[0]));
  EXPECT_TRUE(s.cancel(ids[3]));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5}));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.processed(), 4u);
}

TEST(Simulation, FullyCancelledQueueDrainsWithoutAdvancingTime) {
  Simulation s;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(s.schedule_at(1.0 + i, [] {}));
  }
  for (const EventId id : ids) EXPECT_TRUE(s.cancel(id));
  EXPECT_EQ(s.pending(), 0u);
  s.run();
  EXPECT_EQ(s.processed(), 0u);
  EXPECT_EQ(s.now(), 0.0);  // cancelled events must not move the clock
}

TEST(Simulation, RandomScheduleCancelMatchesReference) {
  // Pseudo-random schedule/cancel/reschedule mix checked against a
  // stable-sort oracle: survivors must fire in (time, schedule order), where
  // a rescheduled event re-enters the order as a new schedule.
  Simulation s;
  struct Ref {
    double t;
    int tag;
    bool cancelled = false;
  };
  std::vector<Ref> refs;         // every (re)schedule, in call order
  std::vector<EventId> ids;      // per event
  std::vector<size_t> live_ref;  // per event: its current entry in refs
  std::vector<int> fired;
  uint64_t rng = 42;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return rng >> 33;
  };
  size_t rescheduled = 0;
  for (int i = 0; i < 2000; ++i) {
    const double t = static_cast<double>(next() % 97);  // many timestamp ties
    live_ref.push_back(refs.size());
    refs.push_back(Ref{t, i});
    ids.push_back(s.schedule_at(t, [&fired, i] { fired.push_back(i); }));
    const uint64_t op = next() % 8;
    const size_t victim = next() % ids.size();
    Ref& cur = refs[live_ref[victim]];
    if (op < 2) {
      EXPECT_EQ(s.cancel(ids[victim]), !cur.cancelled);
      cur.cancelled = true;
    } else if (op < 4) {
      const double moved = static_cast<double>(next() % 97);
      EXPECT_EQ(s.reschedule_at(ids[victim], moved), !cur.cancelled);
      if (!cur.cancelled) {
        cur.cancelled = true;
        live_ref[victim] = refs.size();
        refs.push_back(Ref{moved, static_cast<int>(victim)});
        ++rescheduled;
      }
    }
  }
  EXPECT_GT(rescheduled, 100u);
  size_t live = 0;
  for (const Ref& r : refs) live += r.cancelled ? 0 : 1;
  EXPECT_EQ(s.pending(), live);
  s.run();
  std::vector<int> expected;
  std::vector<size_t> by_order(refs.size());
  for (size_t i = 0; i < refs.size(); ++i) by_order[i] = i;
  std::stable_sort(by_order.begin(), by_order.end(),
                   [&](size_t a, size_t b) { return refs[a].t < refs[b].t; });
  for (const size_t i : by_order) {
    if (!refs[i].cancelled) expected.push_back(refs[i].tag);
  }
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulation, RescheduleMovesEventAndKeepsHandle) {
  Simulation s;
  std::vector<int> order;
  const EventId a = s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(2.0, [&] { order.push_back(2); });
  EXPECT_TRUE(s.reschedule_at(a, 3.0));  // later
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_DOUBLE_EQ(s.next_time(), 2.0);
  EXPECT_TRUE(s.reschedule_after(a, 0.5));  // and back earlier
  EXPECT_DOUBLE_EQ(s.next_time(), 0.5);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.processed(), 2u);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Simulation, RescheduleOrdersLikeCancelThenSchedule) {
  // A rescheduled event takes a fresh FIFO position at its new time: after
  // every event scheduled before the call, before every one scheduled after.
  Simulation s;
  std::vector<int> order;
  const EventId moved = s.schedule_at(1.0, [&] { order.push_back(0); });
  s.schedule_at(5.0, [&] { order.push_back(1); });
  s.schedule_at(5.0, [&] { order.push_back(2); });
  EXPECT_TRUE(s.reschedule_at(moved, 5.0));
  s.schedule_at(5.0, [&] { order.push_back(3); });
  // Moving to the same time still re-queues it behind 3.
  const EventId same = s.schedule_at(5.0, [&] { order.push_back(4); });
  s.schedule_at(5.0, [&] { order.push_back(5); });
  EXPECT_TRUE(s.reschedule_at(same, 5.0));
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3, 5, 4}));
}

TEST(Simulation, ReschedulePastClampsToNow) {
  Simulation s;
  double fired_at = -1;
  const EventId late = s.schedule_at(9.0, [&] { fired_at = s.now(); });
  s.schedule_at(4.0, [&] { EXPECT_TRUE(s.reschedule_at(late, 1.0)); });
  s.run();
  EXPECT_DOUBLE_EQ(fired_at, 4.0);
}

TEST(Simulation, RescheduleOfDeadHandlesChangesNothing) {
  Simulation s;
  std::vector<int> order;
  const EventId fired = s.schedule_at(1.0, [&] { order.push_back(1); });
  const EventId cancelled = s.schedule_at(2.0, [&] { order.push_back(2); });
  s.schedule_at(3.0, [&] { order.push_back(3); });
  EXPECT_TRUE(s.step());  // fires `fired`
  EXPECT_TRUE(s.cancel(cancelled));
  ASSERT_EQ(s.pending(), 1u);

  for (const EventId dead : {fired, cancelled, kInvalidEvent,
                             EventId{987654321}}) {
    EXPECT_FALSE(s.reschedule_at(dead, 0.0));
    EXPECT_FALSE(s.reschedule_after(dead, 10.0));
  }
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_DOUBLE_EQ(s.next_time(), 3.0);
  // A stale handle must not move the event that reuses its slot.
  bool reused_fired = false;
  s.schedule_at(4.0, [&] { reused_fired = true; });
  EXPECT_FALSE(s.reschedule_at(cancelled, 0.5));
  EXPECT_FALSE(s.reschedule_at(fired, 0.5));
  EXPECT_DOUBLE_EQ(s.next_time(), 3.0);
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
  EXPECT_TRUE(reused_fired);
  EXPECT_DOUBLE_EQ(s.now(), 4.0);
}

TEST(Simulation, RescheduleFromOwnCallbackReturnsFalse) {
  // A firing event is no longer pending: it cannot move itself.
  Simulation s;
  EventId self = kInvalidEvent;
  bool result = true;
  self = s.schedule_at(1.0, [&] { result = s.reschedule_after(self, 1.0); });
  s.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(s.processed(), 1u);
}

TEST(Simulation, NextTimeSkipsCancelledHead) {
  Simulation s;
  const EventId head = s.schedule_at(1.0, [] {});
  s.schedule_at(2.0, [] {});
  EXPECT_DOUBLE_EQ(s.next_time(), 1.0);
  EXPECT_TRUE(s.cancel(head));
  EXPECT_DOUBLE_EQ(s.next_time(), 2.0);
  s.run();
  EXPECT_EQ(s.next_time(), std::numeric_limits<double>::infinity());
}

TEST(Simulation, CascadingEventsTerminate) {
  Simulation s;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 1000) s.schedule_after(0.001, chain);
  };
  s.schedule_at(0.0, chain);
  s.run();
  EXPECT_EQ(depth, 1000);
  EXPECT_NEAR(s.now(), 0.999, 1e-9);
}

}  // namespace
}  // namespace saex::sim
