#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "hw/disk.h"
#include "sim/simulation.h"

namespace saex::hw {
namespace {

// Runs `k` closed-loop sequential streams, each reading `per_stream` bytes in
// `chunk`-sized blocking requests; returns aggregate throughput (bytes/s).
double measure_throughput(const DiskParams& params, int k, Bytes per_stream,
                          Bytes chunk, bool is_write = false) {
  sim::Simulation sim;
  Disk disk(sim, params, "d");
  int done_streams = 0;

  std::function<void(int, Bytes)> pump = [&](int stream, Bytes remaining) {
    if (remaining <= 0) {
      ++done_streams;
      return;
    }
    const Bytes now_chunk = std::min(chunk, remaining);
    disk.submit(now_chunk, is_write,
                [&pump, stream, remaining, now_chunk] {
                  pump(stream, remaining - now_chunk);
                });
  };
  for (int i = 0; i < k; ++i) pump(i, per_stream);
  const double elapsed = sim.run();
  EXPECT_EQ(done_streams, k);
  return static_cast<double>(per_stream) * k / elapsed;
}

TEST(DiskCapacity, HddUnimodalInConcurrency) {
  const DiskParams hdd = DiskParams::hdd();
  sim::Simulation sim;
  Disk disk(sim, hdd, "d");
  // Rises from 1 toward a 4..8 plateau, falls beyond (Fig. 12a shape).
  EXPECT_GT(disk.capacity_at(2), disk.capacity_at(1));
  EXPECT_GT(disk.capacity_at(4), disk.capacity_at(2));
  EXPECT_NEAR(disk.capacity_at(8), disk.capacity_at(4),
              0.05 * disk.capacity_at(4));
  EXPECT_GT(disk.capacity_at(8), disk.capacity_at(16));
  EXPECT_GT(disk.capacity_at(16), disk.capacity_at(32));
  // The paper's headline: default (32) clearly below the peak.
  EXPECT_LT(disk.capacity_at(32), 0.65 * disk.capacity_at(4));
}

TEST(DiskCapacity, SsdEssentiallyFlatForReads) {
  const DiskParams ssd = DiskParams::ssd();
  sim::Simulation sim;
  Disk disk(sim, ssd, "d");
  const double c1 = disk.capacity_at(1);
  const double c32 = disk.capacity_at(32);
  EXPECT_GT(c32, c1);  // more concurrency never hurts SSD reads
  EXPECT_LT(c32 / c1, 1.4);
}

TEST(DiskCapacity, ZeroConcurrencyIsZero) {
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  EXPECT_EQ(disk.capacity_at(0), 0.0);
}

TEST(DiskThroughput, MeasuredMatchesCapacityWhenSaturated) {
  // Pure-I/O closed loops keep the device saturated, so measured aggregate
  // throughput approximates C(k).
  const DiskParams hdd = DiskParams::hdd();
  sim::Simulation sim;
  Disk ref(sim, hdd, "d");
  for (int k : {1, 4, 16}) {
    const double measured = measure_throughput(hdd, k, mib(256), mib(8));
    EXPECT_NEAR(measured, ref.capacity_at(k), 0.06 * ref.capacity_at(k))
        << "k=" << k;
  }
}

TEST(DiskThroughput, HddDegradesAtHighConcurrency) {
  const DiskParams hdd = DiskParams::hdd();
  const double t4 = measure_throughput(hdd, 4, mib(128), mib(4));
  const double t32 = measure_throughput(hdd, 32, mib(128), mib(4));
  EXPECT_LT(t32, 0.75 * t4);
}

TEST(DiskThroughput, SsdWritesSlowerThanReads) {
  const DiskParams ssd = DiskParams::ssd();
  const double r = measure_throughput(ssd, 4, mib(256), mib(8), false);
  const double w = measure_throughput(ssd, 4, mib(256), mib(8), true);
  EXPECT_LT(w, 0.7 * r);
}

TEST(DiskThroughput, SpeedFactorScales) {
  sim::Simulation sim;
  Disk fast(sim, DiskParams::hdd(), "fast", 1.0);
  Disk slow(sim, DiskParams::hdd(), "slow", 0.5);
  EXPECT_NEAR(slow.capacity_at(4), 0.5 * fast.capacity_at(4), 1e-6);
}

TEST(Disk, ByteCountersTrackSubmissions) {
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  disk.submit(mib(10), false, [] {});
  disk.submit(mib(5), true, [] {});
  sim.run();
  EXPECT_EQ(disk.total_bytes_read(), mib(10));
  EXPECT_EQ(disk.total_bytes_written(), mib(5));
}

TEST(Disk, ZeroByteTransferCompletes) {
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  bool done = false;
  disk.submit(0, false, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Disk, BusyTrackerReflectsActivity) {
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  bool done = false;
  disk.submit(mib(16), false, [&] { done = true; });
  const double end = sim.run();
  ASSERT_TRUE(done);
  // Busy except for the setup latency.
  EXPECT_GT(disk.busy_tracker().utilization(0.0, end), 0.95);
}

TEST(Disk, IdleGapLeavesOneBusyPointPerLevelChange) {
  // Two reads 10 s apart. The second read's arrival settles an empty pool
  // before admitting it; that pass must not record the idle level again.
  // Within the 5 s window the history then holds exactly the first read's
  // end (busy → idle) and the second read's arrival (idle → busy).
  sim::Simulation sim;
  const DiskParams hdd = DiskParams::hdd();
  Disk disk(sim, hdd, "d");
  const double gap_end = 10.0;
  double first_done = -1.0;
  double second_done = -1.0;
  disk.submit(mib(16), false, [&] { first_done = sim.now(); });
  sim.schedule_at(gap_end, [&] {
    disk.submit(mib(16), false, [&] { second_done = sim.now(); });
  });
  sim.run();
  const double d = static_cast<double>(mib(16)) / disk.capacity_at(1);
  ASSERT_NEAR(first_done, hdd.latency + d, 1e-12);
  ASSERT_NEAR(second_done, gap_end + hdd.latency + d, 1e-12);
  ASSERT_LT(second_done - Disk::kUtilWindow, gap_end);

  const metrics::UtilizationTracker& busy = disk.busy_tracker();
  ASSERT_EQ(busy.retained_points(), 2u);
  EXPECT_EQ(busy.retained_time(0), first_done);
  EXPECT_EQ(busy.retained_time(1), gap_end + hdd.latency);
  EXPECT_NEAR(busy.integral_at(second_done), 2.0 * d, 1e-12);
  EXPECT_EQ(busy.utilization(first_done, gap_end + hdd.latency), 0.0);
}

TEST(Disk, SharedLatencyGrowsWithConcurrency) {
  // Single-transfer completion time vs the same transfer alongside 7 others:
  // processor sharing must stretch individual latencies.
  auto single_latency = [](int k) {
    sim::Simulation sim;
    Disk disk(sim, DiskParams::hdd(), "d");
    double first_done = -1;
    for (int i = 0; i < k; ++i) {
      disk.submit(mib(32), false, [&sim, &first_done] {
        if (first_done < 0) first_done = sim.now();
      });
    }
    sim.run();
    return first_done;
  };
  EXPECT_GT(single_latency(8), 3.0 * single_latency(1));
}

TEST(Disk, CompletionOrderIsFairUnderEqualWork) {
  // Equal-size transfers submitted together finish together (PS fairness).
  sim::Simulation sim;
  Disk disk(sim, DiskParams::hdd(), "d");
  std::vector<double> finish;
  for (int i = 0; i < 4; ++i) {
    disk.submit(mib(64), false, [&] { finish.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(finish.size(), 4u);
  for (double f : finish) EXPECT_NEAR(f, finish[0], 1e-6);
}

TEST(DiskArrivals, SameInstantSubmitsJoinInOneWake) {
  // Eight reads submitted together fall due together and finish together.
  // Their arrival completes nothing, so the projection passes it and the
  // one wake-up is their completion. A kernel event per arrival would
  // process 9 events here, a wake-up per arrival instant 2.
  sim::Simulation sim;
  const DiskParams hdd = DiskParams::hdd();
  Disk disk(sim, hdd, "d");
  const Bytes bytes = mib(8);
  std::vector<double> finish;
  for (int i = 0; i < 8; ++i) {
    disk.submit(bytes, false, [&] { finish.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(finish.size(), 8u);
  const double expected =
      hdd.latency + 8.0 * static_cast<double>(bytes) / disk.capacity_at(8);
  for (double f : finish) EXPECT_NEAR(f, expected, 1e-12 * expected);
  EXPECT_EQ(sim.processed(), 1u);
  EXPECT_EQ(disk.total_bytes_read(), 8 * bytes);
}

TEST(DiskArrivals, EarlierArrivalMovesTheWakeLaterOneDoesNot) {
  const DiskParams hdd = DiskParams::hdd();
  const double lat = hdd.latency;
  const double w = static_cast<double>(mib(64));

  // Y falls due while X is still in the pool: both share the device from
  // Y's arrival until X finishes. Y's submit projects X's completion
  // through that arrival and moves the wake-up there once.
  {
    sim::Simulation sim;
    Disk disk(sim, hdd, "d");
    const double c1 = disk.capacity_at(1);
    const double c2 = disk.capacity_at(2);
    double x_done = -1.0;
    double y_done = -1.0;
    disk.submit(mib(64), false, [&] { x_done = sim.now(); });
    const double t1 = 0.1;
    sim.run_until(t1);
    ASSERT_EQ(disk.active_transfers(), 1);
    const double alone = sim.next_time();  // X's completion if alone
    disk.submit(mib(64), false, [&] { y_done = sim.now(); });
    const double shared = sim.next_time();
    EXPECT_GT(shared, alone);  // moved to X's completion at the shared rate
    sim.run();
    // X alone over [lat, t1 + lat), then both at c2/2 each.
    const double x_left = w - c1 * t1;
    const double tx = t1 + lat + x_left / (c2 / 2.0);
    // Y moved x_left at the shared rate; the rest runs alone.
    const double ty = tx + (w - x_left) / c1;
    EXPECT_NEAR(x_done, tx, 1e-9 * tx);
    EXPECT_NEAR(y_done, ty, 1e-9 * ty);
    EXPECT_EQ(x_done, shared);  // the wake-up did not move again
    EXPECT_EQ(sim.processed(), 2u);  // two completions, no arrival wake-up
  }

  // Z falls due after X's completion: the wake-up stays put, X finishes as
  // if alone, and Z then runs alone from its own arrival, which X's pass
  // projects through.
  {
    sim::Simulation sim;
    Disk disk(sim, hdd, "d");
    const double c1 = disk.capacity_at(1);
    double x_done = -1.0;
    double z_done = -1.0;
    disk.submit(mib(64), false, [&] { x_done = sim.now(); });
    const double tx = lat + w / c1;
    const double t1 = tx - lat / 2.0;
    sim.run_until(t1);
    const double pending = sim.next_time();
    EXPECT_NEAR(pending, tx, 1e-9 * tx);
    disk.submit(mib(64), false, [&] { z_done = sim.now(); });
    EXPECT_EQ(sim.next_time(), pending);  // not moved to Z's arrival
    sim.run();
    EXPECT_NEAR(x_done, tx, 1e-9 * tx);
    const double tz = t1 + lat + w / c1;
    EXPECT_NEAR(z_done, tz, 1e-9 * tz);
    EXPECT_EQ(sim.processed(), 2u);  // the two completions
  }
}

TEST(DiskArrivals, JoiningABusyDiskAddsNoBusyPoint) {
  // Y joins at t1 + latency while X still runs, and the two keep the disk
  // busy from X's arrival to the end of the run. The busy level does not
  // change at Y's arrival, so admitting Y must leave the busy history as
  // X's arrival left it.
  sim::Simulation sim;
  const DiskParams hdd = DiskParams::hdd();
  Disk disk(sim, hdd, "d");
  int done = 0;
  disk.submit(mib(64), false, [&] { ++done; });
  const double t1 = 0.1;
  sim.run_until(t1);
  ASSERT_EQ(disk.active_transfers(), 1);
  const metrics::UtilizationTracker& busy = disk.busy_tracker();
  const size_t points = busy.retained_points();
  disk.submit(mib(64), false, [&] { ++done; });
  sim.run_until(t1 + hdd.latency);
  ASSERT_EQ(disk.active_transfers(), 2);
  EXPECT_EQ(busy.retained_points(), points);
  EXPECT_EQ(busy.last_update(), hdd.latency);  // X's arrival
  const double end = sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(busy.retained_points(), points + 1);  // busy → idle at the end
  EXPECT_NEAR(busy.integral_at(end), end - hdd.latency, 1e-12 * end);
}

TEST(DiskArrivals, ReadersSeeEveryArrivalDueByNow) {
  // X (a read) and Y (a write) fall due 0.1 ms apart while no wake-up
  // separates them. Read between the two arrivals and exactly at Y's, the
  // disk must show what a wake-up per arrival leaves: X admitted at its
  // own due time (the busy point is X's arrival, not the read), then Y
  // joining the busy disk without a busy point.
  sim::Simulation sim;
  const DiskParams hdd = DiskParams::hdd();
  const double lat = hdd.latency;
  Disk disk(sim, hdd, "d");
  int done = 0;
  disk.submit(mib(64), false, [&] { ++done; });
  const double y_submit = 1e-4;
  sim.run_until(y_submit);
  disk.submit(mib(4), true, [&] { ++done; });
  const double between = lat + y_submit / 2.0;  // X due, Y not yet
  sim.run_until(between);
  EXPECT_EQ(sim.processed(), 0u);  // neither arrival has a wake-up
  EXPECT_EQ(disk.active_transfers(), 1);
  EXPECT_EQ(disk.total_bytes_read(), mib(64));
  EXPECT_EQ(disk.total_bytes_written(), 0);
  const metrics::UtilizationTracker& busy = disk.busy_tracker();
  EXPECT_EQ(busy.last_update(), lat);
  EXPECT_EQ(busy.retained_points(), 1u);  // the idle level before X
  EXPECT_EQ(busy.integral_at(between), between - lat);

  const double y_at = y_submit + lat;
  sim.run_until(y_at);
  EXPECT_EQ(sim.processed(), 0u);
  EXPECT_EQ(disk.active_transfers(), 2);
  EXPECT_EQ(disk.total_bytes_read(), mib(64));
  EXPECT_EQ(disk.total_bytes_written(), mib(4));
  EXPECT_EQ(disk.busy_tracker().last_update(), lat);
  EXPECT_EQ(disk.busy_tracker().retained_points(), 1u);
  EXPECT_EQ(disk.busy_tracker().integral_at(y_at), y_at - lat);

  const double end = sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(sim.processed(), 2u);
  EXPECT_NEAR(disk.busy_tracker().integral_at(end), end - lat, 1e-12 * end);
}

TEST(DiskArrivals, SpeedChangeInsideTheLatencyWindowKeepsTheArrival) {
  // A degrade lands while the only transfer is still inside its setup
  // latency: the rescheduling pass must keep the arrival pending and
  // project through it at the new speed, so the wake-up moves to the
  // transfer's completion at that speed. The transfer still joins at its
  // own due time.
  sim::Simulation sim;
  const DiskParams hdd = DiskParams::hdd();
  Disk disk(sim, hdd, "d");
  double done_at = -1.0;
  disk.submit(mib(32), false, [&] { done_at = sim.now(); });
  sim.run_until(hdd.latency / 2.0);
  disk.set_speed_factor(0.5);
  const double expected =
      hdd.latency + static_cast<double>(mib(32)) / disk.capacity_at(1);
  EXPECT_EQ(disk.active_transfers(), 0);
  EXPECT_NEAR(sim.next_time(), expected, 1e-12 * expected);
  sim.run_until(hdd.latency);
  EXPECT_EQ(disk.active_transfers(), 1);
  sim.run();
  EXPECT_NEAR(done_at, expected, 1e-12 * expected);
  EXPECT_NEAR(disk.capacity_at(1), 0.5 * hdd.base_bw, 1e-6 * hdd.base_bw);
}

TEST(DiskPass, SpeedChangeMidTransferSettlesAtTheOldRateFirst) {
  // A degrade lands while the transfer is in the pool: the work done so far
  // is settled at the old rate, the rest runs at the new one, and the
  // wake-up moves to the new completion at once.
  sim::Simulation sim;
  const DiskParams hdd = DiskParams::hdd();
  Disk disk(sim, hdd, "d");
  const double w = static_cast<double>(mib(64));
  const double c_old = disk.capacity_at(1);
  double done_at = -1.0;
  disk.submit(mib(64), false, [&] { done_at = sim.now(); });
  const double t1 = hdd.latency + 0.2;
  sim.run_until(t1);
  ASSERT_EQ(disk.active_transfers(), 1);
  disk.set_speed_factor(0.5);
  const double c_new = disk.capacity_at(1);
  const double left = w - c_old * (t1 - hdd.latency);
  const double expected = t1 + left / c_new;
  EXPECT_NEAR(sim.next_time(), expected, 1e-12 * expected);
  sim.run();
  EXPECT_NEAR(done_at, expected, 1e-12 * expected);
  EXPECT_EQ(sim.processed(), 1u);  // the completion; the arrival needs none
}

TEST(DiskPass, CallbackThatSubmitsAndChangesSpeedRunsANestedPass) {
  // A and B finish in one pass. A's callback submits C to the same disk at
  // that instant and changes the speed, which settles and reschedules in a
  // pass nested inside the one running the callbacks: B's callback (which
  // owns heap state, so a sanitized build sees it destroyed early) must
  // still run exactly once, and C must run at the new speed.
  sim::Simulation sim;
  const DiskParams hdd = DiskParams::hdd();
  Disk disk(sim, hdd, "d");
  const double w = static_cast<double>(mib(8));
  const double t_ab = hdd.latency + w / (disk.capacity_at(2) / 2.0);
  int a_calls = 0;
  int b_calls = 0;
  double a_done = -1.0;
  double c_done = -1.0;
  double c_wake = -1.0;
  disk.submit(mib(8), false, [&] {
    ++a_calls;
    a_done = sim.now();
    disk.submit(mib(8), false, [&] { c_done = sim.now(); });
    disk.set_speed_factor(0.5);
    // C's completion at the new speed, projected through C's arrival.
    c_wake = sim.next_time();
    const double t_c = sim.now() + hdd.latency + w / disk.capacity_at(1);
    EXPECT_NEAR(c_wake, t_c, 1e-12 * t_c);
  });
  disk.submit(mib(8), false,
              [&b_calls, one = std::make_unique<int>(1)] { b_calls += *one; });
  sim.run();
  EXPECT_EQ(a_calls, 1);
  EXPECT_EQ(b_calls, 1);
  EXPECT_NEAR(a_done, t_ab, 1e-12 * t_ab);
  const double t_c = a_done + hdd.latency + w / disk.capacity_at(1);
  EXPECT_NEAR(c_done, t_c, 1e-12 * t_c);
  EXPECT_EQ(c_done, c_wake);
  EXPECT_NEAR(disk.capacity_at(1), 0.5 * hdd.base_bw, 1e-6 * hdd.base_bw);
  EXPECT_EQ(disk.total_bytes_read(), 3 * mib(8));
}

// Parameterized property sweep: for every chunk size and stream count the
// device never exceeds its configured capacity envelope.
class DiskPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DiskPropertyTest, ThroughputNeverExceedsCapacity) {
  const auto [k, chunk_mib] = GetParam();
  const DiskParams hdd = DiskParams::hdd();
  sim::Simulation sim;
  Disk ref(sim, hdd, "d");
  double peak = 0.0;
  for (int i = 1; i <= 64; ++i) peak = std::max(peak, ref.capacity_at(i));
  const double measured =
      measure_throughput(hdd, k, mib(64), mib(chunk_mib));
  EXPECT_LE(measured, peak * 1.01) << "k=" << k << " chunk=" << chunk_mib;
  EXPECT_GT(measured, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DiskPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8, 13, 21, 32),
                       ::testing::Values(1, 4, 16)));

}  // namespace
}  // namespace saex::hw
