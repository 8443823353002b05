#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <vector>

#include "adaptive/analyzer.h"
#include "common/rng.h"
#include "adaptive/controller.h"
#include "adaptive/monitor.h"
#include "adaptive/policies.h"
#include "conf/config.h"

namespace saex::adaptive {
namespace {

// ---------- fakes ----------

class FakePool final : public PoolEffector {
 public:
  void set_pool_size(int threads) override {
    size_ = threads;
    history.push_back(threads);
  }
  int pool_size() const override { return size_; }

  int size_ = 32;
  std::vector<int> history;
};

// A sensor whose per-interval ε and bytes follow a configurable landscape
// over the *current pool size* (set externally by the test driver).
class LandscapeSensor final : public Sensor {
 public:
  // epoll seconds accrued per simulated second and bytes/sec, per pool size.
  std::map<int, double> epoll_rate;
  std::map<int, double> byte_rate;
  double now = 0.0;
  int current_threads = 2;

  void advance(double dt, bool completion = true) {
    accum_epoll_ += epoll_rate.at(current_threads) * dt;
    accum_bytes_ += byte_rate.at(current_threads) * dt;
    now += dt;
    if (completion) ++tasks_;
  }

  IoSample sample() override {
    return IoSample{accum_epoll_, static_cast<Bytes>(accum_bytes_), 0.9,
                    tasks_};
  }

 private:
  double accum_epoll_ = 0.0;
  double accum_bytes_ = 0.0;
  uint64_t tasks_ = 0;
};

ControllerConfig test_config() {
  ControllerConfig c;
  c.min_threads = 2;
  c.max_threads = 32;
  return c;
}

// Drives one stage: each "interval" lasts 1 simulated second per completed
// task; completes `threads` tasks to close each interval, until frozen.
void run_stage(AdaptiveController& ctrl, LandscapeSensor& sensor,
               FakePool& pool, int64_t stage_key, int max_steps = 1000) {
  ctrl.on_stage_start({stage_key, 0, true}, sensor.now);
  sensor.current_threads = pool.pool_size();
  for (int step = 0; step < max_steps && !ctrl.frozen(); ++step) {
    // With j threads a wave of j tasks completes in ~constant wall time, so
    // each completion advances 1/j seconds.
    sensor.advance(1.0 / sensor.current_threads);
    ctrl.on_task_complete(sensor.now);
    sensor.current_threads = pool.pool_size();
  }
  ctrl.on_stage_end(sensor.now);
}

// ---------- IntervalReport ----------

TEST(IntervalReport, ThroughputAndZeta) {
  IntervalReport r;
  r.start_time = 10.0;
  r.end_time = 20.0;
  r.epoll_wait = 5.0;
  r.bytes = 100 * kMiB;
  EXPECT_DOUBLE_EQ(r.duration(), 10.0);
  EXPECT_DOUBLE_EQ(r.throughput(), 10.0 * kMiB);
  EXPECT_DOUBLE_EQ(r.congestion_index(), 5.0 / (10.0 * kMiB));
}

TEST(IntervalReport, ZeroIoGivesZeroZeta) {
  IntervalReport r;
  r.start_time = 0;
  r.end_time = 1;
  r.epoll_wait = 0.0;
  r.bytes = 0;
  EXPECT_DOUBLE_EQ(r.congestion_index(), 0.0);
}

// ---------- Monitor ----------

TEST(Monitor, DiffsAccumulators) {
  LandscapeSensor sensor;
  sensor.epoll_rate[4] = 2.0;
  sensor.byte_rate[4] = 50e6;
  sensor.current_threads = 4;
  Monitor m(sensor);
  m.begin_interval(0.0, 4);
  sensor.advance(3.0);
  const IntervalReport r = m.end_interval(sensor.now);
  EXPECT_EQ(r.threads, 4);
  EXPECT_NEAR(r.epoll_wait, 6.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(r.bytes), 150e6, 1.0);
  EXPECT_NEAR(r.duration(), 3.0, 1e-9);
}

// ---------- Analyzer ----------

TEST(Analyzer, AscendingStepsDoubleAndClamp) {
  Analyzer a(test_config());
  EXPECT_EQ(a.first_threads(), 2);
  EXPECT_EQ(a.next_threads(2), 4);
  EXPECT_EQ(a.next_threads(8), 16);
  EXPECT_EQ(a.next_threads(32), 32);
  EXPECT_TRUE(a.at_bound(32));
  EXPECT_FALSE(a.at_bound(16));
}

TEST(Analyzer, DescendingAblationHalves) {
  ControllerConfig c = test_config();
  c.descending = true;
  Analyzer a(c);
  EXPECT_EQ(a.first_threads(), 32);
  EXPECT_EQ(a.next_threads(32), 16);
  EXPECT_EQ(a.next_threads(2), 2);
  EXPECT_TRUE(a.at_bound(2));
}

IntervalReport make_report(int threads, double epoll, Bytes bytes,
                           double dur = 10.0) {
  IntervalReport r;
  r.threads = threads;
  r.start_time = 0;
  r.end_time = dur;
  r.epoll_wait = epoll;
  r.bytes = bytes;
  // Busy disk: the L3 idle-disk guard must not mask zeta comparisons here.
  r.disk_utilization = 0.9;
  return r;
}

TEST(Analyzer, FirstIntervalAlwaysClimbs) {
  Analyzer a(test_config());
  const Decision d = a.decide(std::nullopt, make_report(2, 1.0, gib(1)));
  EXPECT_EQ(d.action, Decision::Action::kContinueClimb);
  EXPECT_EQ(d.target_threads, 4);
}

TEST(Analyzer, ImprovementKeepsClimbing) {
  Analyzer a(test_config());
  const auto prev = make_report(2, 10.0, gib(1));
  const auto cur = make_report(4, 5.0, gib(2));  // much lower zeta
  const Decision d = a.decide(prev, cur);
  EXPECT_EQ(d.action, Decision::Action::kContinueClimb);
  EXPECT_EQ(d.target_threads, 8);
}

TEST(Analyzer, WorseningRollsBack) {
  Analyzer a(test_config());
  const auto prev = make_report(4, 5.0, gib(2));
  const auto cur = make_report(8, 20.0, gib(1));  // zeta jumped
  const Decision d = a.decide(prev, cur);
  EXPECT_EQ(d.action, Decision::Action::kRollback);
  EXPECT_EQ(d.target_threads, 4);
}

TEST(Analyzer, RollbackDisabledAblationKeepsClimbing) {
  ControllerConfig c = test_config();
  c.rollback = false;
  Analyzer a(c);
  const auto prev = make_report(4, 5.0, gib(2));
  const auto cur = make_report(8, 20.0, gib(1));
  const Decision d = a.decide(prev, cur);
  EXPECT_EQ(d.action, Decision::Action::kContinueClimb);
  EXPECT_EQ(d.target_threads, 16);
}

TEST(Analyzer, LowIoStageClimbsDespiteWorseZeta) {
  // Limitation L3: almost no I/O traffic → prefer parallelism regardless.
  Analyzer a(test_config());
  const auto prev = make_report(4, 0.001, kKiB);
  const auto cur = make_report(8, 0.010, kKiB);
  const Decision d = a.decide(prev, cur);
  EXPECT_EQ(d.action, Decision::Action::kContinueClimb);
}

TEST(Analyzer, IndifferentZetaClimbs) {
  Analyzer a(test_config());
  const auto prev = make_report(4, 10.0, gib(2));
  const auto cur = make_report(8, 10.2, gib(2));  // within tolerance band
  const Decision d = a.decide(prev, cur);
  EXPECT_EQ(d.action, Decision::Action::kContinueClimb);
}

TEST(Analyzer, HoldsAtBound) {
  Analyzer a(test_config());
  const auto prev = make_report(16, 10.0, gib(2));
  const auto cur = make_report(32, 9.0, gib(2));
  const Decision d = a.decide(prev, cur);
  EXPECT_EQ(d.action, Decision::Action::kHold);
  EXPECT_EQ(d.target_threads, 32);
}

TEST(Analyzer, EpollOnlyMetricAblation) {
  ControllerConfig c = test_config();
  c.metric = Metric::kEpollOnly;
  Analyzer a(c);
  // zeta identical, epoll worse → rollback under epoll-only.
  const auto prev = make_report(4, 5.0, gib(1));
  const auto cur = make_report(8, 10.0, gib(2));
  EXPECT_EQ(a.decide(prev, cur).action, Decision::Action::kRollback);
}

// ---------- Controller end-to-end on synthetic landscapes ----------

struct Landscape {
  const char* name;
  std::map<int, double> epoll;       // per-second ε accrual at size j
  std::map<int, double> throughput;  // bytes/sec at size j
  int expected_settle;
};

// Without this gtest prints a Landscape as its raw bytes, name pointer
// included, so the ctest names CMake derives from GetParam() change with
// every load address.
void PrintTo(const Landscape& land, std::ostream* os) { *os << land.name; }

class ControllerLandscapeTest : public ::testing::TestWithParam<Landscape> {};

TEST_P(ControllerLandscapeTest, SettlesAtExpectedSize) {
  const Landscape& land = GetParam();
  FakePool pool;
  LandscapeSensor sensor;
  sensor.epoll_rate = land.epoll;
  sensor.byte_rate = land.throughput;
  int notified = -1;
  AdaptiveController ctrl(test_config(), sensor, pool,
                          [&](int n) { notified = n; });
  run_stage(ctrl, sensor, pool, 1);
  EXPECT_EQ(pool.pool_size(), land.expected_settle) << land.name;
  EXPECT_EQ(notified, land.expected_settle) << land.name;
}

INSTANTIATE_TEST_SUITE_P(
    Landscapes, ControllerLandscapeTest,
    ::testing::Values(
        // HDD-like valley at 8: zeta = eps/mu minimized there.
        Landscape{"valley-at-8",
                  {{2, 0.9}, {4, 0.8}, {8, 0.9}, {16, 6.0}, {32, 20.0}},
                  {{2, 90e6}, {4, 170e6}, {8, 210e6}, {16, 160e6}, {32, 110e6}},
                  8},
        // Monotonically better with threads (CPU-bound-ish): climbs to 32.
        Landscape{"flat-improving",
                  {{2, 1.0}, {4, 0.9}, {8, 0.8}, {16, 0.7}, {32, 0.6}},
                  {{2, 50e6}, {4, 100e6}, {8, 200e6}, {16, 400e6}, {32, 800e6}},
                  32},
        // Contention from the start: 4 already worse than 2 → settle at 2.
        Landscape{"valley-at-2",
                  {{2, 0.5}, {4, 4.0}, {8, 10.0}, {16, 20.0}, {32, 40.0}},
                  {{2, 150e6}, {4, 140e6}, {8, 120e6}, {16, 90e6}, {32, 60e6}},
                  2},
        // Negligible I/O everywhere → prefers max parallelism.
        Landscape{"no-io",
                  {{2, 0.0}, {4, 0.0}, {8, 0.0}, {16, 0.0}, {32, 0.0}},
                  {{2, 10.0}, {4, 10.0}, {8, 10.0}, {16, 10.0}, {32, 10.0}},
                  32}));

// The one resize step (Plan + Execute, §5.3-5.4) over whole stages.
TEST(Controller, EachResizeIsOnePoolWriteAndOneNotification) {
  FakePool pool;  // starts at 32
  LandscapeSensor sensor;
  std::vector<int> notified;
  AdaptiveController ctrl(test_config(), sensor, pool,
                          [&](int n) { notified.push_back(n); });

  // Valley at 8: reset to c_min, climb to 16, roll back and freeze.
  sensor.epoll_rate = {{2, 0.9}, {4, 0.8}, {8, 0.9}, {16, 6.0}, {32, 20.0}};
  sensor.byte_rate = {{2, 90e6}, {4, 170e6}, {8, 210e6}, {16, 160e6}, {32, 110e6}};
  run_stage(ctrl, sensor, pool, 1);
  EXPECT_TRUE(ctrl.frozen());
  EXPECT_EQ(pool.history, (std::vector<int>{2, 4, 8, 16, 8}));
  EXPECT_EQ(notified, pool.history);
  EXPECT_EQ(ctrl.knowledge().stage_key, 1);
  EXPECT_TRUE(ctrl.knowledge().rolled_back);

  // Improving up to c_max: the hold at the bound writes and notifies nothing.
  sensor.epoll_rate = {{2, 1.0}, {4, 0.9}, {8, 0.8}, {16, 0.7}, {32, 0.6}};
  sensor.byte_rate = {{2, 50e6}, {4, 100e6}, {8, 200e6}, {16, 400e6}, {32, 800e6}};
  pool.history.clear();
  notified.clear();
  run_stage(ctrl, sensor, pool, 2);
  EXPECT_TRUE(ctrl.frozen());
  EXPECT_EQ(pool.history, (std::vector<int>{2, 4, 8, 16, 32}));
  EXPECT_EQ(notified, pool.history);
  const StageRecord& rec = ctrl.knowledge();
  ASSERT_EQ(rec.stage_key, 2);
  EXPECT_TRUE(rec.reached_bound);
  EXPECT_EQ(rec.intervals.size(), 5u);  // the hold decided on the fifth

  // A stage that opens at the size the pool already has writes nothing.
  ControllerConfig at_max = test_config();
  at_max.descending = true;
  AdaptiveController descending(at_max, sensor, pool, nullptr);
  pool.history.clear();
  descending.on_stage_start({3, 0, true}, sensor.now);
  EXPECT_TRUE(pool.history.empty());
}

TEST(Controller, RecordsKnowledgePerStage) {
  FakePool pool;
  LandscapeSensor sensor;
  sensor.epoll_rate = {{2, 0.9}, {4, 0.8}, {8, 0.9}, {16, 6.0}, {32, 20.0}};
  sensor.byte_rate = {{2, 90e6}, {4, 170e6}, {8, 210e6}, {16, 160e6}, {32, 110e6}};
  AdaptiveController ctrl(test_config(), sensor, pool, nullptr);
  run_stage(ctrl, sensor, pool, 7);

  const StageRecord& rec = ctrl.knowledge();
  ASSERT_EQ(rec.stage_key, 7);
  EXPECT_EQ(rec.settled_threads, 8);
  EXPECT_TRUE(rec.rolled_back);
  // Explored 2, 4, 8, 16 → 4 intervals recorded.
  ASSERT_EQ(rec.intervals.size(), 4u);
  EXPECT_EQ(rec.intervals[0].threads, 2);
  EXPECT_EQ(rec.intervals[3].threads, 16);
}

TEST(Controller, EachStageRetunesFromScratch) {
  FakePool pool;
  LandscapeSensor sensor;
  sensor.epoll_rate = {{2, 0.9}, {4, 0.8}, {8, 0.9}, {16, 6.0}, {32, 20.0}};
  sensor.byte_rate = {{2, 90e6}, {4, 170e6}, {8, 210e6}, {16, 160e6}, {32, 110e6}};
  AdaptiveController ctrl(test_config(), sensor, pool, nullptr);
  run_stage(ctrl, sensor, pool, 1);
  EXPECT_EQ(pool.pool_size(), 8);

  // Change the landscape between stages; the controller must re-explore.
  sensor.epoll_rate = {{2, 0.1}, {4, 0.1}, {8, 0.1}, {16, 0.1}, {32, 0.1}};
  sensor.byte_rate = {{2, 50e6}, {4, 100e6}, {8, 200e6}, {16, 400e6}, {32, 800e6}};
  run_stage(ctrl, sensor, pool, 2);
  EXPECT_EQ(pool.pool_size(), 32);
  EXPECT_EQ(pool.history.front(), 2);  // each stage starts at c_min
}

TEST(Controller, StageEndMidIntervalRecordsPartial) {
  FakePool pool;
  LandscapeSensor sensor;
  sensor.epoll_rate = {{2, 0.5}, {4, 0.8}};
  sensor.byte_rate = {{2, 90e6}, {4, 170e6}};
  AdaptiveController ctrl(test_config(), sensor, pool, nullptr);
  ctrl.on_stage_start({3, 0, true}, sensor.now);
  sensor.current_threads = pool.pool_size();
  sensor.advance(1.0);
  ctrl.on_task_complete(sensor.now);  // 1 of 2 completions, interval open
  sensor.advance(0.5);
  ctrl.on_stage_end(sensor.now);
  const StageRecord& rec = ctrl.knowledge();
  ASSERT_EQ(rec.stage_key, 3);
  EXPECT_EQ(rec.intervals.size(), 1u);
  EXPECT_EQ(rec.settled_threads, 2);
}

TEST(Controller, FixedIntervalModeUsesTicks) {
  ControllerConfig c = test_config();
  c.interval_mode = IntervalMode::kFixedTime;
  c.fixed_interval_seconds = 2.0;
  FakePool pool;
  LandscapeSensor sensor;
  sensor.epoll_rate = {{2, 0.9}, {4, 0.8}, {8, 0.9}, {16, 6.0}, {32, 20.0}};
  sensor.byte_rate = {{2, 90e6}, {4, 170e6}, {8, 210e6}, {16, 160e6}, {32, 110e6}};
  AdaptiveController ctrl(c, sensor, pool, nullptr);
  ctrl.on_stage_start({1, 0, true}, sensor.now);
  sensor.current_threads = pool.pool_size();
  // Completions every 0.5 s: each interval closes at its fourth, 2 s after
  // it opened, whatever the pool size.
  for (int i = 0; i < 100 && !ctrl.frozen(); ++i) {
    sensor.advance(0.5);
    ctrl.on_task_complete(sensor.now);
    sensor.current_threads = pool.pool_size();
  }
  EXPECT_TRUE(ctrl.frozen());
  EXPECT_EQ(pool.pool_size(), 8);
}

TEST(ControllerConfig, FromConfigReadsKeysAndResolvesCores) {
  conf::Config config;
  config.set("saex.dynamic.maxThreads", "0");
  config.set("saex.dynamic.metric", "epoll");
  config.set("saex.dynamic.descending", "true");
  const ControllerConfig c = ControllerConfig::from_config(config, 48);
  EXPECT_EQ(c.max_threads, 48);
  EXPECT_EQ(c.metric, Metric::kEpollOnly);
  EXPECT_TRUE(c.descending);
  EXPECT_EQ(c.min_threads, 2);
}

TEST(ControllerConfig, RejectsUnknownMetric) {
  conf::Config config;
  config.set("saex.dynamic.metric", "zetta");
  EXPECT_THROW(ControllerConfig::from_config(config, 32), conf::ConfigError);
}

TEST(ControllerConfig, RejectsUnknownIntervalMode) {
  conf::Config config;
  config.set("saex.dynamic.intervalMode", "fixd");
  EXPECT_THROW(ControllerConfig::from_config(config, 32), conf::ConfigError);
}

TEST(ControllerConfig, RejectsMinThreadsBelowOne) {
  conf::Config config;
  config.set_int("saex.dynamic.minThreads", 0);
  EXPECT_THROW(ControllerConfig::from_config(config, 32), conf::ConfigError);
}

TEST(ControllerConfig, RejectsMinThreadsAboveResolvedMax) {
  conf::Config config;
  config.set_int("saex.dynamic.minThreads", 64);  // maxThreads=0 -> 32 cores
  EXPECT_THROW(ControllerConfig::from_config(config, 32), conf::ConfigError);
  config.set_int("saex.dynamic.minThreads", 32);  // c_min == c_max is fine
  EXPECT_EQ(ControllerConfig::from_config(config, 32).max_threads, 32);
}

// ---------- Policies ----------

TEST(Policies, DefaultPolicyAlwaysUsesDefault) {
  FakePool pool;
  pool.size_ = 4;
  FixedPolicy policy("default", pool, nullptr,
                     [](const StageContext&) { return 32; });
  policy.on_stage_start({1, 0, true}, 0.0);
  EXPECT_EQ(pool.pool_size(), 32);
  policy.on_stage_start({2, 1, false}, 1.0);
  EXPECT_EQ(pool.pool_size(), 32);
}

int io_tagged_8_else_32(const StageContext& stage) {
  return stage.io_tagged ? 8 : 32;
}

TEST(Policies, StaticIoPolicySwitchesOnTag) {
  FakePool pool;
  int notified = 0;
  FixedPolicy policy("static", pool, [&](int) { ++notified; },
                     io_tagged_8_else_32);
  policy.on_stage_start({1, 0, true}, 0.0);
  EXPECT_EQ(pool.pool_size(), 8);
  policy.on_stage_start({2, 1, false}, 1.0);
  EXPECT_EQ(pool.pool_size(), 32);
  policy.on_stage_start({3, 2, true}, 2.0);
  EXPECT_EQ(pool.pool_size(), 8);
  EXPECT_EQ(notified, 3);
}

TEST(Policies, StaticIoPolicySkipsRedundantResize) {
  FakePool pool;
  pool.size_ = 8;
  int notified = 0;
  FixedPolicy policy("static", pool, [&](int) { ++notified; },
                     io_tagged_8_else_32);
  policy.on_stage_start({1, 0, true}, 0.0);
  EXPECT_EQ(notified, 0);  // already at 8
}

TEST(Policies, PerStagePolicyUsesOrdinalMap) {
  FakePool pool;
  const std::map<int, int> by_ordinal = {{0, 4}, {2, 8}};
  FixedPolicy policy("per-stage", pool, nullptr,
                     [&by_ordinal](const StageContext& stage) {
                       const auto it = by_ordinal.find(stage.stage_ordinal);
                       return it == by_ordinal.end() ? 32 : it->second;
                     });
  policy.on_stage_start({10, 0, true}, 0.0);
  EXPECT_EQ(pool.pool_size(), 4);
  policy.on_stage_start({11, 1, false}, 1.0);
  EXPECT_EQ(pool.pool_size(), 32);
  policy.on_stage_start({12, 2, true}, 2.0);
  EXPECT_EQ(pool.pool_size(), 8);
}

TEST(Policies, DynamicPolicyExposesController) {
  FakePool pool;
  LandscapeSensor sensor;
  sensor.epoll_rate = {{2, 0.5}, {4, 4.0}, {8, 10.0}, {16, 20.0}, {32, 40.0}};
  sensor.byte_rate = {{2, 150e6}, {4, 140e6}, {8, 120e6}, {16, 90e6}, {32, 60e6}};
  AdaptiveController ctrl(test_config(), sensor, pool, nullptr);
  ThreadPolicy& policy = ctrl;
  ASSERT_NE(dynamic_cast<const AdaptiveController*>(&policy), nullptr);
  EXPECT_EQ(policy.name(), "dynamic");
  policy.on_stage_start({5, 0, true}, 0.0);
  EXPECT_EQ(pool.pool_size(), 2);
}

}  // namespace
}  // namespace saex::adaptive

namespace saex::adaptive {
namespace {

// Property sweep: on randomized unimodal zeta landscapes the controller must
// settle within one doubling of the best thread count, for any seed.
class ClimberPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ClimberPropertyTest, SettlesNearTheLandscapeOptimum) {
  saex::Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 13);

  // Build a unimodal throughput curve peaking at a random power of two and a
  // latency curve rising superlinearly past the peak (the disk-model shape).
  const int options[] = {2, 4, 8, 16, 32};
  const int peak = options[rng.uniform_int(0, 4)];
  std::map<int, double> epoll, bytes;
  for (const int j : {2, 4, 8, 16, 32}) {
    const double ratio = static_cast<double>(j) / peak;
    const double mu =
        200e6 * std::min(1.0, ratio) / (1.0 + 0.8 * std::max(0.0, ratio - 1.0));
    const double latency = 0.02 * (1.0 + 3.0 * std::max(0.0, ratio - 1.0));
    bytes[j] = mu * rng.uniform(0.95, 1.05);
    epoll[j] = latency * j * rng.uniform(0.95, 1.05);
  }

  FakePool pool;
  LandscapeSensor sensor;
  sensor.epoll_rate = epoll;
  sensor.byte_rate = bytes;
  AdaptiveController ctrl(test_config(), sensor, pool, nullptr);
  run_stage(ctrl, sensor, pool, GetParam());

  const int settled = pool.pool_size();
  EXPECT_TRUE(settled == peak || settled == peak / 2 || settled == peak * 2 ||
              (peak == 32 && settled == 32))
      << "seed " << GetParam() << ": settled " << settled << " vs peak "
      << peak;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClimberPropertyTest,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace saex::adaptive
