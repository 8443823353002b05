// saex::fault — seeded fault injection for the simulated cluster.
//
// Three ingredients, all configured through the `saex.fault.*` keys (see
// docs/FAULT_MODEL.md) and all riding the deterministic simulation clock, so
// a faulty run replays bitwise-identically from its seed:
//
//  * FaultSpec   — the parsed plan: which executor dies (at a wall-clock
//    time or after N finished task attempts), which node's disk degrades
//    into a straggler, and the per-fetch drop probability.
//  * FaultState  — live fault truth shared with the executors: which nodes
//    are dead (their shuffle data is gone, fetches from them fail) and the
//    seeded RNG deciding transient shuffle-fetch drops.
//  * FaultPlan   — arms the triggers. Time triggers are simulation events;
//    the task-count trigger is fed by the scheduler's task-finish hook. The
//    plan itself only decides *when*; *what happens* is delegated to hooks
//    (SparkContext::kill_executor, Node::set_disk_speed_factor) so this
//    module depends on nothing above the simulation kernel.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "conf/config.h"
#include "sim/simulation.h"

namespace saex::fault {

/// One entry of a chaos churn schedule (saex.fault.chaos): an executor is
/// killed or rejoins (a fresh, empty replacement on the same node id) at an
/// absolute simulated time.
struct ChaosEvent {
  enum class Kind { kKill, kRejoin };
  Kind kind = Kind::kKill;
  int node = -1;
  double time = 0.0;  // absolute simulated seconds
};

/// Parses a chaos schedule. Entries are `kill:<node>@<seconds>` or
/// `rejoin:<node>@<seconds>`, separated by commas, whitespace, or newlines;
/// `#` starts a comment running to end of line (the file form). Entries are
/// returned sorted by (time, input order). Throws conf::ConfigError on a
/// malformed entry.
std::vector<ChaosEvent> parse_chaos(std::string_view spec);

/// Re-serializes a schedule into the canonical comma-separated inline form
/// (parse_chaos(format_chaos(v)) == v). Used by the sharded serve path to
/// rewrite global node ids into each shard's local ids.
std::string format_chaos(const std::vector<ChaosEvent>& events);

struct FaultSpec {
  bool enabled = false;
  uint64_t seed = 0;           // XORed into the cluster seed
  int kill_node = -1;          // executor to kill (-1: no kill)
  double kill_time = -1.0;     // time trigger (<0: disabled)
  int64_t kill_after_tasks = -1;  // task-count trigger (<0: disabled)
  int slow_node = -1;          // node whose disk degrades (-1: none)
  double slow_factor = 0.3;    // new disk speed factor
  double slow_time = 0.0;      // when the degradation hits
  double fetch_fail_prob = 0.0;  // transient shuffle-fetch drop probability
  int fetch_fail_node = -1;    // restrict drops to this source node (-1: any)
  std::vector<ChaosEvent> chaos;  // scripted kill/rejoin timeline
  // Per-attempt probability that a task dies partway through
  // (saex.sim.taskFailureProb), read even when saex.fault.enabled is off.
  double task_failure_prob = 0.0;

  /// Reads every `saex.fault.*` key and saex.sim.taskFailureProb; inert by
  /// default.
  static FaultSpec from_config(const conf::Config& config);
};

/// Runtime fault truth, shared by reference with every ExecutorRuntime
/// (EngineEnv::fault). Exists even when injection is disabled — with no dead
/// nodes and drop probability 0 it is entirely passive.
class FaultState {
 public:
  FaultState(int num_nodes, uint64_t seed, double fetch_fail_prob,
             int fetch_fail_node = -1, double task_failure_prob = 0.0);

  bool node_alive(int node) const noexcept {
    return node < 0 || node >= static_cast<int>(alive_.size()) ||
           alive_[static_cast<size_t>(node)];
  }
  void mark_dead(int node);
  /// Chaos rejoin: the node id is live again (a fresh executor with empty
  /// storage and no shuffle outputs). Idempotent.
  void mark_alive(int node);
  int dead_executors() const noexcept { return dead_; }

  /// Seeded Bernoulli draw: should this remote shuffle fetch be dropped?
  /// Consumes randomness only when the probability is non-zero, so enabling
  /// an unrelated injection does not shift other streams.
  bool drop_fetch(int src_node, int dst_node);
  int64_t fetch_drops() const noexcept { return fetch_drops_; }

  /// Probability that a task attempt dies partway through.
  double task_failure_prob() const noexcept { return task_failure_prob_; }

 private:
  std::vector<char> alive_;
  int dead_ = 0;
  double fetch_fail_prob_;
  int fetch_fail_node_ = -1;
  Rng rng_;
  int64_t fetch_drops_ = 0;
  double task_failure_prob_ = 0.0;
};

/// Arms the spec's triggers against the simulation clock.
class FaultPlan {
 public:
  struct Hooks {
    /// Kill an executor (SparkContext::kill_executor): fail its running
    /// attempts, stop offers, drop its shuffle outputs, start recovery.
    std::function<void(int node)> kill_executor;
    /// Rejoin an executor (SparkContext::revive_executor): a fresh, empty
    /// executor becomes schedulable again on the same node id. Chaos
    /// schedules with rejoin events require this hook.
    std::function<void(int node)> rejoin_executor;
    /// Degrade a node's disk (Node::set_disk_speed_factor + event log).
    std::function<void(int node, double factor)> degrade_disk;
    /// Liveness predicate (FaultState::node_alive): a kill trigger for a
    /// node that is already dead must not re-fire, and a rejoin for a live
    /// node is a no-op.
    std::function<bool(int node)> node_alive;
  };

  FaultPlan(FaultSpec spec, sim::Simulation& sim, Hooks hooks);

  /// Schedules the time triggers (single kill spec + chaos timeline).
  /// Call once, before the first job.
  void arm();

  /// Task-count trigger feed (TaskScheduler's task-finish hook).
  void notify_task_finished(int64_t total_finished);

  bool kill_fired() const noexcept { return kill_fired_; }
  /// Kill-hook invocations (spec + chaos). A node that is already dead when
  /// its trigger fires is NOT re-killed and does not count.
  int64_t kills_fired() const noexcept { return kills_fired_; }
  int64_t rejoins_fired() const noexcept { return rejoins_fired_; }
  const FaultSpec& spec() const noexcept { return spec_; }

 private:
  void fire_kill(int node);
  void fire_rejoin(int node);

  FaultSpec spec_;
  sim::Simulation& sim_;
  Hooks hooks_;
  bool kill_fired_ = false;
  int64_t kills_fired_ = 0;
  int64_t rejoins_fired_ = 0;
};

}  // namespace saex::fault
