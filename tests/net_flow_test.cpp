// Shuffle fetches through the network, end to end. A reduce task fetches
// every remote block chunk by chunk (one register_fetch, disk read and
// hw::Network transfer per io_chunk), so the open-request ledger that feeds
// the incast model must unwind to zero after seeded fetch drops and
// executor churn, and a run must stay a pure function of its seed.
// saex.net.flowBatch is still a registered key, but it selects nothing.
#include <gtest/gtest.h>

#include "engine/context.h"
#include "hw/network.h"

namespace saex {
namespace {

using engine::JobReport;
using engine::SparkContext;

conf::Config engine_config() {
  conf::Config c;
  c.set("spark.default.parallelism", "16");
  return c;
}

struct ShuffleRun {
  double makespan = 0.0;
  Bytes net_bytes = 0;
  int64_t transfers = 0;
  int64_t flow_transfers = 0;
  int64_t dropped = 0;
  int open_fetches = 0;  // Σ fetches_to at job end — must be 0
  int64_t kills = 0;     // chaos kills and rejoins that fired
  int64_t rejoins = 0;
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
  if (const fault::FaultPlan* plan = ctx.fault_plan()) {
    out.kills = plan->kills_fired();
    out.rejoins = plan->rejoins_fired();
  }
  return out;
}

TEST(NetFlowEngine, DroppedFetchesUnregisterInBothModes) {
  // Seeded fetch drops force the abort/retry path; afterwards every
  // register_fetch must have been matched by unregister_fetch (the
  // open-request and distinct-sender rollups read zero), or the incast
  // model would degrade for the rest of the run.
  conf::Config c = engine_config();
  c.set_bool("saex.fault.enabled", true);
  c.set_double("saex.fault.fetchFailProb", 0.05);
  const ShuffleRun run = run_shuffle(std::move(c));
  EXPECT_GT(run.dropped, 0);
  EXPECT_EQ(run.open_fetches, 0);
  EXPECT_GT(run.makespan, 0.0);
}

// The rig's map stage ends at 5.7 s and its reduce stage at 12.8 s, so a
// kill at 8 s and a rejoin at 11 s land mid-shuffle.
constexpr const char* kChurnNode1 = "kill:1@8,rejoin:1@11";

TEST(NetFlowEngine, OpenStreamsBalanceUnderChaosChurnInBothModes) {
  // Kill an executor mid-shuffle (in-flight fetches to/from it die with
  // lineage recovery) and rejoin it later; the open-stream ledger must
  // still unwind to zero.
  conf::Config c = engine_config();
  c.set_bool("saex.fault.enabled", true);
  c.set("saex.fault.chaos", kChurnNode1);
  const ShuffleRun run = run_shuffle(std::move(c));
  EXPECT_EQ(run.kills, 1);
  EXPECT_EQ(run.rejoins, 1);
  EXPECT_EQ(run.open_fetches, 0);
  EXPECT_GT(run.makespan, 0.0);
}

TEST(NetFlowEngine, ChaosMakespanIdenticalAcrossRepeatRuns) {
  // Chaos churn must stay a pure function of the seed.
  auto run = [] {
    conf::Config c = engine_config();
    c.set_bool("saex.fault.enabled", true);
    c.set("saex.fault.chaos", "kill:2@8,rejoin:2@11");
    return run_shuffle(std::move(c));
  };
  const ShuffleRun a = run();
  EXPECT_EQ(a.kills, 1);
  EXPECT_DOUBLE_EQ(a.makespan, run().makespan);
}

TEST(NetFlowEngine, FlowBatchKeyChangesNothing) {
  // saex.net.flowBatch stays registered so configurations that set it still
  // load, but every remote block is fetched chunk by chunk either way: with
  // fetch drops and a kill/rejoin, both values give the same run, and no
  // transfer is a batched flow.
  auto run = [](bool flow_batch) {
    conf::Config c = engine_config();
    c.set_bool("saex.net.flowBatch", flow_batch);
    c.set_bool("saex.fault.enabled", true);
    c.set_double("saex.fault.fetchFailProb", 0.05);
    c.set("saex.fault.chaos", kChurnNode1);
    return run_shuffle(std::move(c));
  };
  const ShuffleRun off = run(false);
  const ShuffleRun on = run(true);
  EXPECT_EQ(off.kills, 1);
  EXPECT_EQ(off.rejoins, 1);
  EXPECT_DOUBLE_EQ(on.makespan, off.makespan);
  EXPECT_EQ(on.net_bytes, off.net_bytes);
  EXPECT_EQ(on.transfers, off.transfers);
  EXPECT_EQ(on.dropped, off.dropped);
  EXPECT_GT(off.dropped, 0);
  EXPECT_EQ(off.flow_transfers, 0);
  EXPECT_EQ(on.flow_transfers, 0);
  EXPECT_EQ(on.open_fetches, 0);
}

}  // namespace
}  // namespace saex
