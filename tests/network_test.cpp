#include <gtest/gtest.h>

#include <vector>

#include "hw/network.h"
#include "sim/simulation.h"

namespace saex::hw {
namespace {

NetworkParams small_net() {
  NetworkParams p;
  p.up_bw = 100e6;
  p.down_bw = 100e6;
  p.incast_src_threshold = 4;
  p.incast_flow_threshold = 4;
  p.incast_coeff = 0.1;
  p.per_flow_cap = 1e12;  // uncapped: these tests exercise link sharing
  p.latency = 0.0001;
  return p;
}

TEST(Network, SingleFlowRunsAtLinkRate) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  bool done = false;
  net.transfer(0, 1, static_cast<Bytes>(100e6), [&] { done = true; });
  const double end = sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(end, 1.0, 0.01);  // 100 MB at 100 MB/s (+latency)
}

TEST(Network, UplinkSharedBetweenFlows) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  int done = 0;
  // Two flows from node 0 to distinct destinations: each gets half the up bw.
  net.transfer(0, 1, static_cast<Bytes>(50e6), [&] { ++done; });
  net.transfer(0, 2, static_cast<Bytes>(50e6), [&] { ++done; });
  const double end = sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(end, 1.0, 0.02);
}

TEST(Network, DisjointPairsDoNotInterfere) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  int done = 0;
  net.transfer(0, 1, static_cast<Bytes>(100e6), [&] { ++done; });
  net.transfer(2, 3, static_cast<Bytes>(100e6), [&] { ++done; });
  const double end = sim.run();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(end, 1.0, 0.02);
}

TEST(Network, IncastPenaltyNeedsBothSendersAndConcurrency) {
  sim::Simulation sim;
  Network net(sim, 16, small_net());
  // Below either threshold: full capacity.
  EXPECT_DOUBLE_EQ(net.down_capacity_eff(4, 100), 100e6);
  EXPECT_DOUBLE_EQ(net.down_capacity_eff(100, 4), 100e6);
  // Beyond both: collapse, monotone in each factor.
  EXPECT_LT(net.down_capacity_eff(10, 10), 100e6);
  EXPECT_LT(net.down_capacity_eff(14, 10), net.down_capacity_eff(10, 10));
  EXPECT_LT(net.down_capacity_eff(10, 20), net.down_capacity_eff(10, 10));
}

TEST(Network, FetchRegistrationCountsSendersAndRequests) {
  sim::Simulation sim;
  Network net(sim, 8, small_net());
  net.register_fetch(1, 0);
  net.register_fetch(1, 0);
  net.register_fetch(2, 0);
  EXPECT_EQ(net.fetches_to(0), 3);
  EXPECT_EQ(net.senders_to(0), 2);
  net.unregister_fetch(1, 0);
  net.unregister_fetch(1, 0);
  EXPECT_EQ(net.senders_to(0), 1);
  net.unregister_fetch(2, 0);
  EXPECT_EQ(net.fetches_to(0), 0);
}

TEST(Network, ManyToOneSlowerThanAggregateBandwidthSuggests) {
  // 12 sources -> 1 destination with threshold 4: incast inflates completion
  // beyond the no-penalty bound of total_bytes/down_bw.
  sim::Simulation sim;
  Network net(sim, 16, small_net());
  int done = 0;
  const Bytes each = static_cast<Bytes>(10e6);
  for (int src = 1; src <= 12; ++src) {
    net.transfer(src, 0, each, [&] { ++done; });
  }
  const double end = sim.run();
  EXPECT_EQ(done, 12);
  const double ideal = 12.0 * 10e6 / 100e6;  // 1.2 s without penalty
  EXPECT_GT(end, ideal * 1.3);
}

TEST(Network, FlowCountersTrackActiveFlows) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  net.transfer(0, 1, static_cast<Bytes>(1e6), [] {});
  net.transfer(0, 2, static_cast<Bytes>(1e6), [] {});
  sim.run_until(0.001);
  EXPECT_EQ(net.flows_from(0), 2);
  EXPECT_EQ(net.flows_to(1), 1);
  EXPECT_EQ(net.active_flows(), 2);
  sim.run();
  EXPECT_EQ(net.active_flows(), 0);
  EXPECT_EQ(net.flows_from(0), 0);
}

TEST(Network, BytesAccounting) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  net.transfer(0, 1, 1000, [] {});
  net.transfer(2, 1, 500, [] {});
  sim.run();
  EXPECT_EQ(net.bytes_sent(0), 1000);
  EXPECT_EQ(net.bytes_sent(2), 500);
  EXPECT_EQ(net.total_bytes(), 1500);
}

TEST(Network, PerFlowCapLimitsSingleStream) {
  NetworkParams p = small_net();
  p.per_flow_cap = 10e6;  // a lone stream cannot saturate the 100 MB/s link
  sim::Simulation sim;
  Network net(sim, 4, p);
  bool done = false;
  net.transfer(0, 1, static_cast<Bytes>(10e6), [&] { done = true; });
  const double end = sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(end, 1.0, 0.02);  // 10 MB at 10 MB/s, not at 100 MB/s
}

TEST(Network, ManyFlowsStillFillTheLink) {
  NetworkParams p = small_net();
  p.per_flow_cap = 10e6;
  p.incast_src_threshold = 16;  // below the knee: pure aggregation
  sim::Simulation sim;
  Network net(sim, 16, p);
  int done = 0;
  // 10 sources to one sink: 10 x 10 MB/s = link rate 100 MB/s.
  for (int src = 1; src <= 10; ++src) {
    net.transfer(src, 0, static_cast<Bytes>(10e6), [&] { ++done; });
  }
  const double end = sim.run();
  EXPECT_EQ(done, 10);
  EXPECT_NEAR(end, 1.0, 0.05);
}

TEST(Network, ZeroByteTransferCompletes) {
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  bool done = false;
  net.transfer(0, 1, 0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Network, StaggeredArrivalsAdjustRates) {
  // Second flow arrives halfway through the first; the first must slow down
  // and finish later than it would alone.
  sim::Simulation sim;
  Network net(sim, 4, small_net());
  double first_done = -1;
  net.transfer(0, 1, static_cast<Bytes>(100e6), [&] { first_done = sim.now(); });
  sim.schedule_at(0.5, [&] {
    net.transfer(0, 2, static_cast<Bytes>(100e6), [] {});
  });
  sim.run();
  EXPECT_GT(first_done, 1.2);  // alone it would finish at ~1.0
}

TEST(NetworkArrivals, SameInstantFlowsJoinInOneWake) {
  // Four flows into one node started together fall due together: one
  // wake-up admits all of them, one more completes them (a kernel event per
  // arrival would process 5 events here).
  const NetworkParams p = small_net();
  sim::Simulation sim;
  Network net(sim, 8, p);
  const Bytes bytes = static_cast<Bytes>(10e6);
  std::vector<double> finish;
  for (int src = 1; src <= 4; ++src) {
    net.transfer(src, 0, bytes, [&] { finish.push_back(sim.now()); });
  }
  sim.run();
  ASSERT_EQ(finish.size(), 4u);
  const double share = net.down_capacity_eff(4, 4) / 4.0;
  const double expected = p.latency + static_cast<double>(bytes) / share;
  for (double f : finish) EXPECT_NEAR(f, expected, 1e-12 * expected);
  EXPECT_EQ(sim.processed(), 2u);
  EXPECT_EQ(net.total_bytes(), 4 * bytes);
}

TEST(NetworkArrivals, EarlierArrivalMovesTheWakeLaterOneDoesNot) {
  const NetworkParams p = small_net();

  // Y starts on X's uplink halfway through X: the wake-up moves to Y's
  // arrival and the two split the uplink from then on.
  {
    sim::Simulation sim;
    Network net(sim, 4, p);
    double x_done = -1.0;
    double y_done = -1.0;
    net.transfer(0, 1, static_cast<Bytes>(100e6), [&] { x_done = sim.now(); });
    sim.run_until(0.5);
    net.transfer(0, 2, static_cast<Bytes>(100e6), [&] { y_done = sim.now(); });
    EXPECT_EQ(sim.next_time(), 0.5 + p.latency);
    sim.run();
    // X alone at 100 MB/s over [lat, 0.5 + lat), then 50 MB/s each.
    const double x_left = 100e6 - p.up_bw * 0.5;
    const double tx = 0.5 + p.latency + x_left / (p.up_bw / 2.0);
    const double ty = tx + (100e6 - x_left) / p.up_bw;
    EXPECT_NEAR(x_done, tx, 1e-9 * tx);
    EXPECT_NEAR(y_done, ty, 1e-9 * ty);
    EXPECT_EQ(sim.processed(), 4u);
  }

  // Z falls due after X completes: the wake-up stays on X's completion,
  // whose rescheduling pass then moves it to Z's arrival.
  {
    sim::Simulation sim;
    Network net(sim, 4, p);
    double x_done = -1.0;
    double z_done = -1.0;
    net.transfer(0, 1, static_cast<Bytes>(100e6), [&] { x_done = sim.now(); });
    const double tx = p.latency + 100e6 / p.up_bw;
    const double t1 = tx - p.latency / 2.0;
    sim.run_until(t1);
    const double pending = sim.next_time();
    net.transfer(0, 2, static_cast<Bytes>(100e6), [&] { z_done = sim.now(); });
    EXPECT_EQ(sim.next_time(), pending);
    sim.run();
    EXPECT_NEAR(x_done, tx, 1e-9 * tx);
    const double tz = t1 + p.latency + 100e6 / p.up_bw;
    EXPECT_NEAR(z_done, tz, 1e-9 * tz);
    EXPECT_EQ(sim.processed(), 4u);
  }
}

TEST(NetworkPass, CallbackThatStartsAFlowAtTheSameInstant) {
  // X and Y split node 0's uplink and finish in one pass. X's callback
  // starts Z on the same uplink at that instant, re-entering the network
  // while the pass still runs its callbacks: Y's callback must still run
  // exactly once, and Z must get the whole uplink from its arrival on.
  const NetworkParams p = small_net();
  sim::Simulation sim;
  Network net(sim, 4, p);
  const double bytes = 50e6;
  const double t_xy = p.latency + bytes / (p.up_bw / 2.0);
  int x_calls = 0;
  int y_calls = 0;
  double x_done = -1.0;
  double z_done = -1.0;
  net.transfer(0, 1, static_cast<Bytes>(bytes), [&] {
    ++x_calls;
    x_done = sim.now();
    net.transfer(0, 3, static_cast<Bytes>(bytes), [&] { z_done = sim.now(); });
    EXPECT_EQ(net.active_flows(), 0);
    EXPECT_EQ(sim.next_time(), sim.now() + p.latency);  // Z's arrival
  });
  net.transfer(0, 2, static_cast<Bytes>(bytes), [&] { ++y_calls; });
  sim.run();
  EXPECT_EQ(x_calls, 1);
  EXPECT_EQ(y_calls, 1);
  EXPECT_NEAR(x_done, t_xy, 1e-12 * t_xy);
  const double t_z = x_done + p.latency + bytes / p.up_bw;
  EXPECT_NEAR(z_done, t_z, 1e-12 * t_z);
  EXPECT_EQ(sim.processed(), 4u);  // two arrivals, two completions
  EXPECT_EQ(net.bytes_sent(0), static_cast<Bytes>(3 * bytes));
  EXPECT_EQ(net.flows_from(0), 0);
  EXPECT_EQ(net.fetches_to(3), 0);
}

}  // namespace
}  // namespace saex::hw
