#include "shard/sharded_server.h"

#include <algorithm>
#include <functional>
#include <sstream>
#include <utility>

#include "common/format.h"
#include "common/table.h"
#include "fault/fault.h"
#include "harness/harness.h"

namespace saex::shard {

ShardedServer::ShardedServer(const hw::ClusterSpec& spec,
                             const conf::Config& config)
    : config_(config),
      options_(ShardOptions::from_config(config)),
      topology_(spec.num_nodes, options_.count) {
  shards_.reserve(static_cast<size_t>(options_.count));
  for (int s = 0; s < options_.count; ++s) {
    Shard shard;
    hw::ClusterSpec sub = spec;
    sub.num_nodes = topology_.shard_size(s);
    // base seed + shard id: shard 0 of a 1-shard run reproduces the serial
    // cluster exactly; distinct shards draw distinct heterogeneity streams.
    sub.seed = spec.seed + static_cast<uint64_t>(s);
    shard.cluster = std::make_unique<hw::Cluster>(sub);
    shard.ctx = std::make_unique<engine::SparkContext>(*shard.cluster,
                                                       shard_config(s));
    shard.server = std::make_unique<serve::JobServer>(*shard.ctx);
    shards_.push_back(std::move(shard));
  }
}

ShardedServer::~ShardedServer() = default;

conf::Config ShardedServer::shard_config(int shard) const {
  conf::Config config = config_;
  // Fault flags name GLOBAL node ids; the owning shard sees the local id,
  // every other shard sees the fault disabled. (killAfterTasks counts tasks
  // on the owning shard's scheduler.)
  for (const char* key : {"saex.fault.killNode", "saex.fault.slowNode"}) {
    const int node = static_cast<int>(config.get_int(key));
    if (node < 0 || node >= topology_.total_nodes()) continue;
    config.set_int(key, topology_.shard_of(node) == shard
                            ? topology_.local_node(node)
                            : -1);
  }
  // fetchFailNode needs its own treatment: -1 does not disable the injection
  // (it means "drop fetches from ANY source"), so a shard that does not own
  // the targeted node must zero the probability instead.
  if (const int node = static_cast<int>(config.get_int("saex.fault.fetchFailNode"));
      node >= 0 && node < topology_.total_nodes()) {
    if (topology_.shard_of(node) == shard) {
      config.set_int("saex.fault.fetchFailNode", topology_.local_node(node));
    } else {
      config.set_int("saex.fault.fetchFailNode", -1);
      config.set_double("saex.fault.fetchFailProb", 0.0);
    }
  }
  // The chaos timeline also names global node ids: each shard keeps only
  // the events for its own nodes, rewritten to local ids. Timestamps are
  // untouched, so the merged schedule replays the global one exactly.
  if (const std::string chaos = config.get_string("saex.fault.chaos");
      !chaos.empty()) {
    std::vector<fault::ChaosEvent> local;
    for (const fault::ChaosEvent& ev : fault::parse_chaos(chaos)) {
      if (ev.node < 0 || ev.node >= topology_.total_nodes()) continue;
      if (topology_.shard_of(ev.node) != shard) continue;
      fault::ChaosEvent copy = ev;
      copy.node = topology_.local_node(ev.node);
      local.push_back(copy);
    }
    config.set("saex.fault.chaos", fault::format_chaos(local));
  }
  // Per-job task counts should match the shard's core count, not the whole
  // cluster's; untouched when unset (and exact at one shard).
  if (config.is_set("spark.default.parallelism")) {
    const int64_t p = config.get_int("spark.default.parallelism");
    config.set_int(
        "spark.default.parallelism",
        std::max<int64_t>(1, p * topology_.shard_size(shard) /
                                 topology_.total_nodes()));
  }
  return config;
}

ShardedServeReport ShardedServer::replay(
    const std::vector<serve::TraceJob>& trace,
    const serve::TraceOptions& trace_options) {
  const int num_shards = topology_.shards();
  const JobRouter router(num_shards, options_.placement, trace_options.seed);

  ShardedServeReport out;
  out.placement = router.route(trace);
  out.placement_policy = options_.placement;
  out.workers = options_.workers;

  // Split the trace; jobs keep their global ids and arrival times.
  std::vector<std::vector<serve::TraceJob>> sub(
      static_cast<size_t>(num_shards));
  for (size_t i = 0; i < trace.size(); ++i) {
    sub[static_cast<size_t>(out.placement[i])].push_back(trace[i]);
  }

  // Shards share no mutable state, so each one's whole replay (load inputs,
  // schedule arrivals, run, drain) is an independent task; run_ordered
  // returns the reports by shard id for any worker count.
  std::vector<std::function<serve::ServeReport()>> tasks;
  tasks.reserve(shards_.size());
  for (int s = 0; s < num_shards; ++s) {
    tasks.push_back([this, s, &sub, &trace_options] {
      return shards_[static_cast<size_t>(s)].server->replay(
          sub[static_cast<size_t>(s)], trace_options);
    });
  }
  out.shards = harness::run_ordered(std::move(tasks), options_.workers);

  out.stats.reserve(shards_.size());
  for (int s = 0; s < num_shards; ++s) {
    ShardStats stats;
    stats.shard = s;
    stats.nodes = topology_.shard_size(s);
    stats.jobs = static_cast<int>(sub[static_cast<size_t>(s)].size());
    stats.events = shards_[static_cast<size_t>(s)].cluster->sim().processed();
    out.events += stats.events;
    out.stats.push_back(stats);
  }

  // Merge records back into global submission order. Shard s's j-th record
  // is sub[s][j]'s outcome (per-shard submission order follows the FIFO
  // arrival schedule), so a cursor walk re-labels them with global ids.
  std::vector<serve::JobRecord> merged(trace.size());
  std::vector<size_t> cursor(static_cast<size_t>(num_shards), 0);
  for (size_t i = 0; i < trace.size(); ++i) {
    const auto s = static_cast<size_t>(out.placement[i]);
    merged[i] = out.shards[s].jobs[cursor[s]++];
    merged[i].submission_id = static_cast<int>(i);
  }
  out.merged = serve::build_serve_report(
      std::move(merged), shards_[0].server->options().mode,
      shards_[0].ctx->scheduler().pools());
  for (const serve::ServeReport& report : out.shards) {
    out.merged.executors_granted += report.executors_granted;
    out.merged.executors_released += report.executors_released;
    out.merged.executors_lost += report.executors_lost;
    out.merged.quarantines += report.quarantines;
    out.merged.probes += report.probes;
    out.merged.reinstatements += report.reinstatements;
  }
  return out;
}

std::string ShardedServeReport::render() const {
  std::ostringstream out;
  out << merged.render() << "\n\n";
  out << strfmt::format(
      "shards {}  workers {}  placement {}  events {}\n",
      static_cast<int>(shards.size()), workers, placement_policy,
      static_cast<int64_t>(events));
  TextTable table({"shard", "nodes", "jobs", "events"});
  for (const ShardStats& s : stats) {
    table.add_row({strfmt::format("{}", s.shard), strfmt::format("{}", s.nodes),
                   strfmt::format("{}", s.jobs),
                   strfmt::format("{}", static_cast<int64_t>(s.events))});
  }
  out << table.render();
  return out.str();
}

}  // namespace saex::shard
