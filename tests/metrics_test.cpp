#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

#include "common/rng.h"
#include "metrics/io_accounting.h"
#include "metrics/registry.h"

namespace saex::metrics {
namespace {

constexpr double kKeepAll = std::numeric_limits<double>::infinity();

TEST(Registry, SetOverwritesAndMissingNamesReadZero) {
  Registry r;
  r.set("engine/tasks/failed", 2.0);
  r.set("engine/tasks/failed", 5.0);
  EXPECT_EQ(r.counter_value("engine/tasks/failed"), 5.0);
  EXPECT_EQ(r.counter_value("missing"), 0.0);
}

TEST(IoAccounting, AccumulatesMonotonically) {
  IoAccounting io;
  io.add_blocked(1.5);
  io.add_read(100);
  io.add_write(50);
  io.task_completed();
  io.add_blocked(0.5);
  const IoCounters& c = io.snapshot();
  EXPECT_DOUBLE_EQ(c.blocked_seconds, 2.0);
  EXPECT_EQ(c.bytes_read, 100);
  EXPECT_EQ(c.bytes_written, 50);
  EXPECT_EQ(c.bytes_total(), 150);
  EXPECT_EQ(c.tasks_completed, 1u);
}

TEST(UtilizationTracker, SingleUnitBusyFraction) {
  UtilizationTracker u(1.0, kKeepAll);
  u.set_active(0.0, 1.0);
  u.set_active(3.0, 0.0);   // busy [0,3)
  u.set_active(5.0, 1.0);   // busy [5,10)
  u.set_active(10.0, 0.0);
  EXPECT_NEAR(u.utilization(0.0, 10.0), 0.8, 1e-12);
  EXPECT_NEAR(u.utilization(0.0, 5.0), 0.6, 1e-12);
  EXPECT_NEAR(u.utilization(3.0, 5.0), 0.0, 1e-12);
}

TEST(UtilizationTracker, MultiUnitCapacity) {
  UtilizationTracker u(4.0, kKeepAll);  // e.g. 4 cores
  u.set_active(0.0, 2.0);
  u.set_active(10.0, 4.0);
  u.set_active(20.0, 0.0);
  EXPECT_NEAR(u.utilization(0.0, 20.0), (2.0 * 10 + 4.0 * 10) / (4.0 * 20), 1e-12);
}

TEST(UtilizationTracker, HistoricalWindowQueries) {
  UtilizationTracker u(1.0, kKeepAll);
  u.set_active(1.0, 1.0);
  u.set_active(2.0, 0.0);
  u.set_active(4.0, 1.0);
  u.set_active(6.0, 0.0);
  // Query an old window after later updates.
  EXPECT_NEAR(u.utilization(0.0, 2.0), 0.5, 1e-12);
  EXPECT_NEAR(u.utilization(4.0, 6.0), 1.0, 1e-12);
  EXPECT_NEAR(u.utilization(0.0, 6.0), 3.0 / 6.0, 1e-12);
}

TEST(UtilizationTracker, IntegralExtrapolatesLastState) {
  UtilizationTracker u(1.0, kKeepAll);
  u.set_active(0.0, 1.0);
  EXPECT_NEAR(u.integral_at(7.0), 7.0, 1e-12);
}


// A bounded tracker and an unbounded reference fed the same monotone
// updates: every query the bounded one answers — window queries and
// baseline-style stage rollups that outlive the window — matches bitwise,
// and its history stays within the window.
TEST(UtilizationTracker, BoundedHistoryMatchesUnboundedReference) {
  constexpr double kRetain = 5.0;
  constexpr double kCapacity = 8.0;
  UtilizationTracker bounded(kCapacity, kRetain);
  UtilizationTracker reference(kCapacity, kKeepAll);
  Rng rng(15);
  std::deque<double> window_updates;  // update times inside (t - kRetain, t]
  struct OpenStage {
    double t0;
    double integral_t0;
  };
  std::vector<OpenStage> stages;
  size_t stage_checks = 0, max_retained = 0;
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    // Mostly short steps, some updates at the same instant, a few long
    // idle gaps, so the run spans far more than the window.
    const double roll = rng.next_double();
    t += roll < 0.3 ? 0.0 : roll < 0.97 ? rng.exponential(0.05)
                                        : rng.uniform(5.0, 40.0);
    // A stage opens at `t` before the updates at `t` land, as a stage
    // submitted at a busy instant does.
    if (rng.chance(0.02)) stages.push_back({t, bounded.integral_at(t)});
    const double active = static_cast<double>(rng.uniform_int(0, 8));
    bounded.set_active(t, active);
    reference.set_active(t, active);

    window_updates.push_back(t);
    while (window_updates.front() <= t - kRetain) window_updates.pop_front();
    ASSERT_LE(bounded.retained_points(), window_updates.size() + 1) << "t=" << t;
    max_retained = std::max(max_retained, bounded.retained_points());

    for (int q = 0; q < 3; ++q) {
      const double a = std::max(0.0, t - rng.uniform(0.0, kRetain));
      const double b = a + rng.uniform(0.0, kRetain + 1.0);
      ASSERT_EQ(bounded.integral_at(a), reference.integral_at(a)) << a;
      ASSERT_EQ(bounded.utilization(a, b), reference.utilization(a, b));
    }
    // The window's exact start, as the executor sensor asks for it.
    const double horizon = std::max(0.0, t - kRetain);
    ASSERT_EQ(bounded.utilization(horizon, t), reference.utilization(horizon, t));

    if (!stages.empty() && rng.chance(0.02)) {
      const OpenStage stage = stages.front();
      stages.erase(stages.begin());
      ASSERT_EQ(bounded.utilization_since(stage.t0, stage.integral_t0, t),
                reference.utilization(stage.t0, t));
      ++stage_checks;
    }
  }
  EXPECT_GT(t, 200.0 * kRetain);
  EXPECT_GT(stage_checks, 100u);
  EXPECT_LT(max_retained, 1000u);
}

TEST(UtilizationTracker, ZeroRetentionKeepsNoPoints) {
  UtilizationTracker u(4.0, 0.0);
  for (int i = 0; i < 1000; ++i) u.set_active(0.5 * i, static_cast<double>(i % 5));
  EXPECT_EQ(u.retained_points(), 0u);
  EXPECT_EQ(u.last_update(), 499.5);
  // The running integral still answers any instant from the latest update on.
  UtilizationTracker reference(4.0, kKeepAll);
  for (int i = 0; i < 1000; ++i) {
    reference.set_active(0.5 * i, static_cast<double>(i % 5));
  }
  EXPECT_EQ(u.integral_at(499.5), reference.integral_at(499.5));
  EXPECT_EQ(u.integral_at(600.0), reference.integral_at(600.0));
  EXPECT_THROW((void)u.integral_at(499.0), std::out_of_range);
}

TEST(UtilizationTracker, QueriesBeforeTheWindowThrow) {
  UtilizationTracker u(1.0, 2.0);
  for (int i = 1; i <= 10; ++i) u.set_active(i, static_cast<double>(i % 2));
  // The last point at or before the horizon (t = 8) anchors the window.
  ASSERT_EQ(u.retained_points(), 2u);
  EXPECT_EQ(u.retained_time(0), 8.0);
  EXPECT_EQ(u.retained_time(1), 9.0);
  EXPECT_NEAR(u.utilization(8.0, 10.0), 0.5, 1e-12);
  EXPECT_THROW((void)u.integral_at(7.5), std::out_of_range);
}

}  // namespace
}  // namespace saex::metrics
