// Flow-batched network data plane (saex.net.flowBatch): hw::Network
// transfer_flow semantics (chunked-goodput cap, event counters, link
// counts) and the engine-level invariants the batched fetch pipeline must
// preserve — byte totals, determinism, seeded fetch-drop handling, and
// open-stream accounting balance under fetch failures and chaos churn in
// BOTH fetch modes.
#include <gtest/gtest.h>

#include <string>

#include "common/format.h"
#include "engine/context.h"
#include "hw/network.h"
#include "sim/simulation.h"

namespace saex {
namespace {

using engine::JobReport;
using engine::SparkContext;

// ---------- hw::Network flow semantics ----------

hw::NetworkParams small_net() {
  hw::NetworkParams p;
  p.up_bw = 100e6;
  p.down_bw = 100e6;
  p.incast_src_threshold = 4;
  p.incast_flow_threshold = 4;
  p.incast_coeff = 0.1;
  p.per_flow_cap = 1e12;  // uncapped unless a test says otherwise
  p.latency = 0.0001;
  return p;
}

TEST(NetFlow, UnbatchedFlowMatchesPlainTransfer) {
  // With the derating disabled a flow must reproduce transfer() exactly:
  // same rate resolution, same completion time.
  double plain_end = 0.0;
  {
    sim::Simulation sim;
    hw::Network net(sim, 4, small_net());
    net.transfer(0, 1, static_cast<Bytes>(50e6), [] {});
    plain_end = sim.run();
  }
  sim::Simulation sim;
  hw::Network net(sim, 4, small_net());
  net.transfer_flow(0, 1, static_cast<Bytes>(50e6), /*chunk_bytes=*/0,
                    [] {});
  EXPECT_DOUBLE_EQ(sim.run(), plain_end);
  EXPECT_EQ(net.transfers_started(), 1);
  EXPECT_EQ(net.flow_transfers(), 1);
}

TEST(NetFlow, ChunkedGoodputCapDeratesBatchedFlow) {
  // per_flow_cap 10 MB/s, latency 20 ms, 1 MB chunks: goodput is
  // 1 / (0.02/1e6 + 1/10e6) = 8.33 MB/s. A batched flow on an otherwise
  // idle link must move at that derated rate, not at the raw cap.
  hw::NetworkParams p = small_net();
  p.per_flow_cap = 10e6;
  p.latency = 0.02;
  sim::Simulation sim;
  hw::Network net(sim, 4, p);
  bool done = false;
  net.transfer_flow(0, 1, static_cast<Bytes>(8.333e6),
                    /*chunk_bytes=*/static_cast<Bytes>(1e6),
                    [&] { done = true; });
  const double end = sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(end, 1.0, 0.03);
}

TEST(NetFlow, TransferCountersDistinguishBatchedFlows) {
  sim::Simulation sim;
  hw::Network net(sim, 4, small_net());
  net.transfer(0, 1, 1000, [] {});
  net.transfer(2, 1, 1000, [] {});
  net.transfer_flow(3, 1, 1000, 0, [] {});
  sim.run();
  EXPECT_EQ(net.transfers_started(), 3);
  EXPECT_EQ(net.flow_transfers(), 1);
}

TEST(NetFlow, StreamWeightedLinkCountsDrainToZero) {
  sim::Simulation sim;
  hw::Network net(sim, 4, small_net());
  net.transfer_flow(0, 1, static_cast<Bytes>(10e6), 0, [] {});
  net.transfer(0, 2, static_cast<Bytes>(10e6), [] {});
  sim.run_until(0.001);
  EXPECT_EQ(net.flows_from(0), 2);  // 1 batched + 1 plain
  EXPECT_EQ(net.flows_to(1), 1);
  EXPECT_EQ(net.active_flows(), 2);
  sim.run();
  EXPECT_EQ(net.flows_from(0), 0);
  EXPECT_EQ(net.flows_to(1), 0);
  EXPECT_EQ(net.fetches_to(1), 0);
  EXPECT_EQ(net.senders_to(1), 0);
}

TEST(NetFlow, OpenStreamAccountingBalancesAcrossFlowCompletion) {
  // register_fetch holds a request open while the server reads the block;
  // the flow itself adds one more open request for its duration. Everything
  // must unwind to zero, including the distinct-sender rollup.
  sim::Simulation sim;
  hw::Network net(sim, 8, small_net());
  net.register_fetch(1, 0);
  net.register_fetch(1, 0);
  net.register_fetch(2, 0);
  net.transfer_flow(1, 0, static_cast<Bytes>(1e6), 0, [] {});
  sim.run_until(0.001);
  EXPECT_EQ(net.fetches_to(0), 4);  // 3 registered + 1 active flow
  EXPECT_EQ(net.senders_to(0), 2);
  sim.run();
  net.unregister_fetch(1, 0);
  net.unregister_fetch(1, 0);
  net.unregister_fetch(2, 0);
  EXPECT_EQ(net.fetches_to(0), 0);
  EXPECT_EQ(net.senders_to(0), 0);
}

// ---------- engine-level invariants ----------

conf::Config engine_config(bool flow) {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  if (flow) c.set_bool("saex.net.flowBatch", true);
  return c;
}

struct ShuffleRun {
  double makespan = 0.0;
  Bytes net_bytes = 0;
  int64_t transfers = 0;
  int64_t flow_transfers = 0;
  int64_t dropped = 0;
  int open_fetches = 0;  // Σ fetches_to at job end — must be 0
};

ShuffleRun run_shuffle(conf::Config config) {
  hw::Cluster cluster(hw::ClusterSpec::das5(4));
  SparkContext ctx(cluster, std::move(config));
  ctx.dfs().load_input("/in", gib(2), 4);
  const JobReport report = ctx.run_job(
      ctx.text_file("/in").reduce_by_key("g", {0.01, 1.0}, 1.0).count(),
      "netflow");
  ShuffleRun out;
  out.makespan = report.total_runtime;
  out.net_bytes = cluster.network().total_bytes();
  out.transfers = cluster.network().transfers_started();
  out.flow_transfers = cluster.network().flow_transfers();
  out.dropped = cluster.network().dropped_fetches();
  for (int n = 0; n < cluster.size(); ++n) {
    out.open_fetches += cluster.network().fetches_to(n);
    out.open_fetches += cluster.network().senders_to(n);
  }
  return out;
}

TEST(NetFlowEngine, FlowModeMovesIdenticalBytesWithFewerTransfers) {
  const ShuffleRun chunk = run_shuffle(engine_config(false));
  const ShuffleRun flow = run_shuffle(engine_config(true));
  EXPECT_EQ(chunk.net_bytes, flow.net_bytes);
  EXPECT_EQ(chunk.flow_transfers, 0);
  EXPECT_GT(flow.flow_transfers, 0);
  EXPECT_LT(flow.transfers, chunk.transfers);
  // The coarse flow model may run a stage somewhat fast (large continuous
  // disk requests instead of a closed 2-request pipeline); the calibrated
  // band lives in bench/net_flow, this is the sanity rail.
  EXPECT_GT(flow.makespan, 0.6 * chunk.makespan);
  EXPECT_LT(flow.makespan, 1.2 * chunk.makespan);
}

TEST(NetFlowEngine, FlowModeDeterministicGivenSeed) {
  const ShuffleRun a = run_shuffle(engine_config(true));
  const ShuffleRun b = run_shuffle(engine_config(true));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.transfers, b.transfers);
}

TEST(NetFlowEngine, DroppedFetchesUnregisterInBothModes) {
  // Seeded fetch drops force the abort/retry path; afterwards every
  // register_fetch must have been matched by unregister_fetch (the
  // open-request and distinct-sender rollups read zero) in BOTH fetch
  // modes, or the incast model would degrade for the rest of the run.
  for (const bool flow : {false, true}) {
    conf::Config c = engine_config(flow);
    c.set_bool("saex.fault.enabled", true);
    c.set_double("saex.fault.fetchFailProb", 0.05);
    const ShuffleRun run = run_shuffle(std::move(c));
    EXPECT_GT(run.dropped, 0) << "flow=" << flow;
    EXPECT_EQ(run.open_fetches, 0) << "flow=" << flow;
    EXPECT_GT(run.makespan, 0.0) << "flow=" << flow;
  }
}

TEST(NetFlowEngine, OpenStreamsBalanceUnderChaosChurnInBothModes) {
  // Kill an executor mid-shuffle (in-flight fetches to/from it die with
  // lineage recovery) and rejoin it later; the open-stream ledger must
  // still unwind to zero in both fetch modes.
  for (const bool flow : {false, true}) {
    conf::Config c = engine_config(flow);
    c.set_bool("saex.fault.enabled", true);
    c.set("saex.fault.chaos", "kill:1@40,rejoin:1@120");
    const ShuffleRun run = run_shuffle(std::move(c));
    EXPECT_EQ(run.open_fetches, 0) << "flow=" << flow;
    EXPECT_GT(run.makespan, 0.0) << "flow=" << flow;
  }
}

TEST(NetFlowEngine, ChaosMakespanIdenticalAcrossRepeatRuns) {
  // Chaos + flow batching together must stay a pure function of the seed.
  auto run = [] {
    conf::Config c = engine_config(true);
    c.set_bool("saex.fault.enabled", true);
    c.set("saex.fault.chaos", "kill:2@40,rejoin:2@120");
    return run_shuffle(std::move(c)).makespan;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

}  // namespace
}  // namespace saex
