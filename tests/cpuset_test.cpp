#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "hw/cpuset.h"
#include "sim/simulation.h"

namespace saex::hw {
namespace {

// (compute id, completion time) in completion order.
using Log = std::vector<std::pair<int, double>>;

TEST(CpuSet, EqualComputesStartedTogetherFinishInOneEvent) {
  // Four computes of 3 s on a node running at twice the reference speed
  // all finish at 1.5 s. One event completes them, in start order; an event
  // per compute would process four.
  sim::Simulation sim;
  CpuSet cpu(sim, 8, /*speed_factor=*/2.0);
  Log log;
  for (int i = 0; i < 4; ++i) {
    cpu.execute(3.0, [&log, &sim, i] { log.emplace_back(i, sim.now()); });
  }
  EXPECT_EQ(cpu.busy_cores(), 4);
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(log, (Log{{0, 1.5}, {1, 1.5}, {2, 1.5}, {3, 1.5}}));
  EXPECT_EQ(sim.processed(), 1u);
  EXPECT_EQ(cpu.busy_cores(), 0);
  EXPECT_DOUBLE_EQ(cpu.busy_tracker().integral_at(sim.now()), 4 * 1.5);
}

TEST(CpuSet, EarlierFinishMovesTheWakeUpLaterDoesNot) {
  sim::Simulation sim;
  CpuSet cpu(sim, 4);
  Log log;
  auto record = [&log, &sim](int id) {
    return [&log, &sim, id] { log.emplace_back(id, sim.now()); };
  };
  cpu.execute(5.0, record(0));
  EXPECT_EQ(sim.next_time(), 5.0);
  const double t1 = 1.0;
  sim.schedule_at(t1, [&] {
    cpu.execute(0.5, record(1));  // finishes first: the wake-up moves
    EXPECT_EQ(sim.next_time(), t1 + 0.5);
    cpu.execute(4.25, record(2));  // finishes after compute 0: it stays
    EXPECT_EQ(sim.next_time(), t1 + 0.5);
    EXPECT_EQ(sim.pending(), 1u);
  });
  sim.run();
  EXPECT_EQ(log, (Log{{1, t1 + 0.5}, {0, 5.0}, {2, t1 + 4.25}}));
  EXPECT_EQ(sim.processed(), 4u);  // the start event and three completions
  // Each compute holds one core for its own duration.
  EXPECT_DOUBLE_EQ(cpu.busy_tracker().integral_at(sim.now()), 5.0 + 0.5 + 4.25);
}

TEST(CpuSet, TiedFinishKeepsTheWakeUpOfTheEarlierStart) {
  // Computes a and b both finish at 2 s, and event e is scheduled for 2 s
  // between their starts. b's start leaves the wake-up where a's start put
  // it, so a and b complete in one event ahead of e. Moving the wake-up on
  // the tie would queue it behind e.
  sim::Simulation sim;
  CpuSet cpu(sim, 2);
  std::vector<std::string> order;
  cpu.execute(2.0, [&] { order.push_back("a"); });
  sim.schedule_at(2.0, [&] { order.push_back("e"); });
  sim.schedule_at(1.0, [&] {
    cpu.execute(1.0, [&] { order.push_back("b"); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "e"}));
  EXPECT_EQ(sim.processed(), 3u);
  EXPECT_DOUBLE_EQ(cpu.busy_tracker().integral_at(sim.now()), 3.0);
}

TEST(CpuSet, QueuedRequestsStartInFifoOrderWhenACoreFrees) {
  sim::Simulation sim;
  CpuSet cpu(sim, 2);
  Log log;
  std::vector<std::pair<int, int>> seen;  // (busy, queued) in each callback
  auto record = [&](int id) {
    return [&, id] {
      log.emplace_back(id, sim.now());
      seen.emplace_back(cpu.busy_cores(), cpu.queued());
    };
  };
  cpu.execute(1.0, record(0));
  cpu.execute(2.0, record(1));
  cpu.execute(0.5, record(2));
  cpu.execute(0.25, record(3));
  cpu.execute(1.0, record(4));
  EXPECT_EQ(cpu.busy_cores(), 2);
  EXPECT_EQ(cpu.queued(), 3);
  sim.run();
  // 2 starts at 1 when 0 frees its core, 3 at 1.5, 4 at 1.75.
  EXPECT_EQ(log, (Log{{0, 1.0}, {2, 1.5}, {3, 1.75}, {1, 2.0}, {4, 2.75}}));
  // The queued request already holds the freed core when the callback runs.
  EXPECT_EQ(seen, (std::vector<std::pair<int, int>>{
                      {2, 2}, {2, 1}, {2, 0}, {1, 0}, {0, 0}}));
  // Two cores busy to 2, one to 2.75.
  EXPECT_DOUBLE_EQ(cpu.busy_tracker().integral_at(sim.now()), 2 * 2.0 + 0.75);
}

TEST(CpuSet, CoresFreedAtOneInstantStartTheQueueInOrder) {
  // Two equal computes finish together and hand their cores to the first
  // two queued requests, one each before its own callback; those finish
  // together too. Three events in all, against five with one per compute.
  sim::Simulation sim;
  CpuSet cpu(sim, 2);
  Log log;
  std::vector<int> queued_seen;
  for (int i = 0; i < 5; ++i) {
    cpu.execute(1.0, [&, i] {
      log.emplace_back(i, sim.now());
      queued_seen.push_back(cpu.queued());
    });
  }
  sim.run();
  EXPECT_EQ(log, (Log{{0, 1.0}, {1, 1.0}, {2, 2.0}, {3, 2.0}, {4, 3.0}}));
  EXPECT_EQ(queued_seen, (std::vector<int>{2, 1, 0, 0, 0}));
  EXPECT_EQ(sim.processed(), 3u);
  EXPECT_DOUBLE_EQ(cpu.busy_tracker().integral_at(sim.now()), 5.0);
}

TEST(CpuSet, WakeUpReArmsBeforeTheCallbacksRun) {
  // Compute a's callback schedules an event at compute b's finish. Compute
  // b started first, so with one event per compute it completes before that
  // event; the wake-up re-arms at b's finish before a's callback runs and
  // keeps that order.
  sim::Simulation sim;
  CpuSet cpu(sim, 2);
  std::vector<std::string> order;
  cpu.execute(1.0, [&] {
    order.push_back("a");
    sim.schedule_at(2.0, [&] { order.push_back("event"); });
  });
  cpu.execute(2.0, [&] { order.push_back("b"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "event"}));
  EXPECT_EQ(sim.now(), 2.0);
  EXPECT_DOUBLE_EQ(cpu.busy_tracker().integral_at(sim.now()), 3.0);
}

TEST(CpuSet, ZeroSecondComputeFromACallbackFiresInALaterEvent) {
  // Compute a's callback schedules an event at the same instant, then
  // starts a zero-second compute. With one event per compute the order is
  // a, b, event, zero; the wake-up keeps it.
  sim::Simulation sim;
  CpuSet cpu(sim, 2);
  std::vector<std::string> order;
  cpu.execute(1.0, [&] {
    order.push_back("a");
    sim.schedule_at(sim.now(), [&] { order.push_back("event"); });
    cpu.execute(0.0, [&] {
      order.push_back("zero");
      EXPECT_EQ(sim.now(), 1.0);
    });
  });
  cpu.execute(1.0, [&] { order.push_back("b"); });
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "event"}));
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "event", "zero"}));
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(cpu.busy_cores(), 0);
  EXPECT_DOUBLE_EQ(cpu.busy_tracker().integral_at(sim.now()), 2.0);
}

}  // namespace
}  // namespace saex::hw
