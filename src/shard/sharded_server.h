// Sharded serve path: S independent driver/scheduler/kernel stacks behind one
// job router. Shards share no DFS, shuffle or network state, so each shard's
// whole replay is one harness::run_ordered task on saex.shard.workers threads.
//
// Each shard owns a contiguous slice of the cluster (its own hw::Cluster,
// sim::Simulation, SparkContext, and JobServer), seeded deterministically as
// base seed + shard id. A trace job is routed whole onto one shard, runs
// there exactly as it would on a stand-alone cluster of that size, and the
// per-shard records are merged back into one ServeReport in global trace-id
// order using the same aggregation code as JobServer::drain — so the merged
// report of a 1-shard run is bitwise-identical to JobServer::replay, and an
// S-shard run is bitwise-identical across any worker count.
//
// Global node ids in fault-injection config (saex.fault.killNode / slowNode)
// are translated to the owning shard's local id; other shards see the fault
// disabled. spark.default.parallelism is scaled to each shard's share of the
// nodes so per-job task counts match the shard's core count.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "conf/config.h"
#include "engine/context.h"
#include "hw/cluster.h"
#include "serve/job_server.h"
#include "shard/router.h"
#include "shard/topology.h"

namespace saex::shard {

/// Per-shard run summary for the report footer.
struct ShardStats {
  int shard = 0;
  int nodes = 0;
  int jobs = 0;         // trace jobs routed here
  uint64_t events = 0;  // events processed by this shard's kernel
};

struct ShardedServeReport {
  /// Aggregated exactly like a serial ServeReport (records in trace-id
  /// order, same rollup code); executor counters are summed across shards.
  serve::ServeReport merged;
  std::vector<serve::ServeReport> shards;  // per-shard reports, by shard id
  std::vector<ShardStats> stats;
  std::vector<int> placement;  // trace job id -> shard
  std::string placement_policy;
  // Always 1 (each shard's replay is one run_ordered task); kept because
  // perfbench reports it as shard.windows.
  static constexpr int windows = 1;
  int workers = 0;
  uint64_t events = 0;     // total events across shard kernels

  /// merged.render() plus a per-shard footer table.
  std::string render() const;
  std::string render_jobs() const { return merged.render_jobs(); }
};

class ShardedServer {
 public:
  /// `spec` describes the WHOLE cluster; it is sliced into
  /// saex.shard.count sub-clusters. Throws conf::ConfigError on invalid
  /// saex.shard.* settings (including count > spec.num_nodes).
  ShardedServer(const hw::ClusterSpec& spec, const conf::Config& config);
  ~ShardedServer();

  /// Routes the trace across shards, runs each shard's JobServer::replay of
  /// its sub-trace (on saex.shard.workers threads), and merges the reports.
  ShardedServeReport replay(const std::vector<serve::TraceJob>& trace,
                            const serve::TraceOptions& trace_options = {});

  const ShardTopology& topology() const noexcept { return topology_; }
  const ShardOptions& options() const noexcept { return options_; }
  /// Shard-local context (event log, metrics) for export after a replay.
  engine::SparkContext& context(int shard) noexcept {
    return *shards_[static_cast<size_t>(shard)].ctx;
  }

 private:
  struct Shard {
    std::unique_ptr<hw::Cluster> cluster;
    std::unique_ptr<engine::SparkContext> ctx;
    std::unique_ptr<serve::JobServer> server;
  };

  /// Per-shard config: global fault node ids -> local, parallelism scaled.
  conf::Config shard_config(int shard) const;

  conf::Config config_;
  ShardOptions options_;
  ShardTopology topology_;
  std::vector<Shard> shards_;
};

}  // namespace saex::shard
