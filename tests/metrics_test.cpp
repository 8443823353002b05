#include "metrics/histogram.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <stdexcept>

#include "common/format.h"
#include "common/rng.h"
#include "metrics/io_accounting.h"
#include "metrics/registry.h"

namespace saex::metrics {
namespace {

constexpr double kKeepAll = std::numeric_limits<double>::infinity();

TEST(Registry, CounterAccumulates) {
  Registry r;
  r.counter("a/b").add(2.0);
  r.counter("a/b").increment();
  EXPECT_DOUBLE_EQ(r.counter_value("a/b"), 3.0);
  EXPECT_DOUBLE_EQ(r.counter_value("missing"), 0.0);
}

TEST(Registry, GaugeHoldsLastValue) {
  Registry r;
  r.gauge("g").set(5.0);
  r.gauge("g").set(2.0);
  EXPECT_DOUBLE_EQ(r.gauge_value("g"), 2.0);
}

TEST(Registry, CounterNamesFilterByPrefix) {
  Registry r;
  r.counter("node0/disk/read");
  r.counter("node0/disk/write");
  r.counter("node1/disk/read");
  EXPECT_EQ(r.counter_names("node0/").size(), 2u);
  EXPECT_EQ(r.counter_names().size(), 3u);
}

TEST(Registry, HandleStaysValidAcrossRegistryGrowth) {
  Registry r;
  CounterHandle first = r.counter_handle("first");
  Counter* cell_before = &r.counter("first");
  // Force many slot allocations; deque-backed storage must not move cells.
  for (int i = 0; i < 4096; ++i) {
    r.counter(strfmt::format("grow/{}", i)).increment();
  }
  EXPECT_EQ(&r.counter("first"), cell_before);
  first.add(2.0);
  first.increment();
  EXPECT_DOUBLE_EQ(r.counter_value("first"), 3.0);
  EXPECT_EQ(r.num_counters(), 4097u);
}

TEST(Registry, StringAndHandleApisAliasTheSameCell) {
  Registry r;
  r.counter("jobs").add(2.0);
  CounterHandle h = r.counter_handle("jobs");
  h.increment();
  r.counter("jobs").increment();
  EXPECT_DOUBLE_EQ(h.value(), 4.0);
  EXPECT_DOUBLE_EQ(r.counter_value("jobs"), 4.0);

  GaugeHandle g = r.gauge_handle("depth");
  r.gauge("depth").set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.set(9.0);
  EXPECT_DOUBLE_EQ(r.gauge_value("depth"), 9.0);
}

TEST(Registry, MetricIdIsStableAndReusedOnReintern) {
  Registry r;
  const MetricId a = r.counter_id("x");
  r.counter_id("y");
  EXPECT_TRUE(a == r.counter_id("x"));
  EXPECT_FALSE(a == r.counter_id("y"));
  r.counter_at(a).increment();
  EXPECT_DOUBLE_EQ(r.counter_value("x"), 1.0);
}

TEST(Registry, DefaultHandleIsNull) {
  CounterHandle c;
  GaugeHandle g;
  EXPECT_FALSE(static_cast<bool>(c));
  EXPECT_FALSE(static_cast<bool>(g));
  Registry r;
  EXPECT_TRUE(static_cast<bool>(r.counter_handle("a")));
  EXPECT_TRUE(static_cast<bool>(r.gauge_handle("b")));
}

TEST(Registry, PrefixQueriesUnchangedByHandleResolution) {
  Registry r;
  // Interleave handle resolution with string-keyed creation in non-sorted
  // order; counter_names() must stay sorted and prefix-filtered exactly as
  // before the handle API existed.
  r.counter_handle("node1/disk/read");
  r.counter("node0/disk/write");
  r.counter_handle("node0/disk/read");
  r.counter("node1/net/tx");
  const auto all = r.counter_names();
  ASSERT_EQ(all.size(), 4u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
  EXPECT_EQ(r.counter_names("node0/").size(), 2u);
  EXPECT_EQ(r.counter_names("node1/").size(), 2u);
  EXPECT_EQ(r.counter_names("node1/net/").size(), 1u);
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

namespace saex::metrics {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
}

TEST(Histogram, BasicMomentsExact) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(Histogram, QuantilesWithinBucketError) {
  Histogram h(1e-3, 1.1);
  for (int i = 1; i <= 1000; ++i) h.add(i * 0.01);  // uniform 0.01..10
  // p50 ~ 5.0, p95 ~ 9.5, within one growth factor.
  EXPECT_NEAR(h.quantile(0.5), 5.0, 5.0 * 0.12);
  EXPECT_NEAR(h.quantile(0.95), 9.5, 9.5 * 0.12);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(Histogram, QuantileNeverExceedsMax) {
  Histogram h;
  h.add(7.3);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 7.3);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 7.3);
}

TEST(Histogram, MergeMatchesCombined) {
  Histogram a(1e-3, 1.2), b(1e-3, 1.2), all(1e-3, 1.2);
  for (int i = 1; i <= 50; ++i) {
    a.add(i * 0.1);
    all.add(i * 0.1);
  }
  for (int i = 1; i <= 80; ++i) {
    b.add(i * 0.03);
    all.add(i * 0.03);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.sum(), all.sum());
  EXPECT_DOUBLE_EQ(a.quantile(0.5), all.quantile(0.5));
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, ZeroAndNegativeClampToFirstBucket) {
  Histogram h;
  h.add(0.0);
  h.add(-5.0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
}

}  // namespace
}  // namespace saex::metrics
