#include "fault/fault.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "common/log.h"

namespace saex::fault {

namespace {

// One chaos entry: `kill:<node>@<seconds>` or `rejoin:<node>@<seconds>`.
ChaosEvent parse_chaos_entry(std::string_view entry) {
  const auto bad = [entry](const char* why) -> conf::ConfigError {
    return conf::ConfigError(strfmt::format(
        "saex.fault.chaos: bad entry '{}' ({}); want "
        "kill:<node>@<seconds> or rejoin:<node>@<seconds>",
        std::string(entry), why));
  };
  const size_t colon = entry.find(':');
  if (colon == std::string_view::npos) throw bad("missing ':'");
  const std::string_view verb = entry.substr(0, colon);
  ChaosEvent ev;
  if (verb == "kill") {
    ev.kind = ChaosEvent::Kind::kKill;
  } else if (verb == "rejoin") {
    ev.kind = ChaosEvent::Kind::kRejoin;
  } else {
    throw bad("unknown verb");
  }
  const size_t at = entry.find('@', colon + 1);
  if (at == std::string_view::npos) throw bad("missing '@'");
  const std::string node_text(entry.substr(colon + 1, at - colon - 1));
  const std::string time_text(entry.substr(at + 1));
  if (node_text.empty() || time_text.empty()) throw bad("empty field");
  char* end = nullptr;
  errno = 0;
  const long node = std::strtol(node_text.c_str(), &end, 10);
  if (end == node_text.c_str() || *end != '\0' || errno == ERANGE ||
      node < 0 || node > INT_MAX)
    throw bad("node must be a non-negative int");
  ev.node = static_cast<int>(node);
  end = nullptr;
  const double time = std::strtod(time_text.c_str(), &end);
  if (end == time_text.c_str() || *end != '\0' || !(time >= 0.0) ||
      !std::isfinite(time))
    throw bad("time must be a finite, non-negative number of seconds");
  ev.time = time;
  return ev;
}

}  // namespace

std::vector<ChaosEvent> parse_chaos(std::string_view spec) {
  std::vector<ChaosEvent> events;
  std::string entry;
  bool in_comment = false;
  const auto flush = [&] {
    if (!entry.empty()) {
      events.push_back(parse_chaos_entry(entry));
      entry.clear();
    }
  };
  for (const char ch : spec) {
    if (ch == '\n') {
      in_comment = false;
      flush();
    } else if (in_comment) {
      continue;
    } else if (ch == '#') {
      in_comment = true;
    } else if (ch == ',' || std::isspace(static_cast<unsigned char>(ch))) {
      flush();
    } else {
      entry.push_back(ch);
    }
  }
  flush();
  // Sorted by (time, input order) so arm() schedules them in replay order.
  std::stable_sort(events.begin(), events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.time < b.time;
                   });
  return events;
}

std::string format_chaos(const std::vector<ChaosEvent>& events) {
  std::string out;
  for (const ChaosEvent& ev : events) {
    if (!out.empty()) out.push_back(',');
    out += strfmt::format(
        "{}:{}@{}", ev.kind == ChaosEvent::Kind::kKill ? "kill" : "rejoin",
        ev.node, ev.time);
  }
  return out;
}

FaultSpec FaultSpec::from_config(const conf::Config& config) {
  FaultSpec s;
  s.task_failure_prob = config.get_double("saex.sim.taskFailureProb");
  s.enabled = config.get_bool("saex.fault.enabled");
  if (!s.enabled) return s;
  s.seed = static_cast<uint64_t>(config.get_int("saex.fault.seed"));
  s.kill_node = static_cast<int>(config.get_int("saex.fault.killNode"));
  s.kill_time = config.get_duration_seconds("saex.fault.killTime");
  s.kill_after_tasks = config.get_int("saex.fault.killAfterTasks");
  s.slow_node = static_cast<int>(config.get_int("saex.fault.slowNode"));
  s.slow_factor = config.get_double("saex.fault.slowFactor");
  if (!(s.slow_factor > 0.0)) {
    // A zero or negative disk speed never finishes a transfer.
    throw conf::ConfigError(strfmt::format(
        "saex.fault.slowFactor must be > 0 (got {})", s.slow_factor));
  }
  s.slow_time = config.get_duration_seconds("saex.fault.slowTime");
  s.fetch_fail_prob = config.get_double("saex.fault.fetchFailProb");
  s.fetch_fail_node = static_cast<int>(config.get_int("saex.fault.fetchFailNode"));
  s.chaos = parse_chaos(config.get_string("saex.fault.chaos"));
  return s;
}

FaultState::FaultState(int num_nodes, uint64_t seed, double fetch_fail_prob,
                       int fetch_fail_node, double task_failure_prob)
    : alive_(static_cast<size_t>(num_nodes), 1),
      fetch_fail_prob_(fetch_fail_prob),
      fetch_fail_node_(fetch_fail_node),
      rng_(Rng(seed).fork("fetch-drops")),
      task_failure_prob_(task_failure_prob) {}

void FaultState::mark_dead(int node) {
  assert(node >= 0 && node < static_cast<int>(alive_.size()));
  if (!alive_[static_cast<size_t>(node)]) return;
  alive_[static_cast<size_t>(node)] = 0;
  ++dead_;
}

void FaultState::mark_alive(int node) {
  assert(node >= 0 && node < static_cast<int>(alive_.size()));
  if (alive_[static_cast<size_t>(node)]) return;
  alive_[static_cast<size_t>(node)] = 1;
  --dead_;
}

bool FaultState::drop_fetch(int src_node, int dst_node) {
  (void)dst_node;
  if (fetch_fail_prob_ <= 0.0) return false;
  // With a target source node, other sources draw no randomness — enabling
  // the restriction must not shift the drop stream of the targeted node.
  if (fetch_fail_node_ >= 0 && src_node != fetch_fail_node_) return false;
  if (!rng_.chance(fetch_fail_prob_)) return false;
  ++fetch_drops_;
  return true;
}

FaultPlan::FaultPlan(FaultSpec spec, sim::Simulation& sim, Hooks hooks)
    : spec_(spec), sim_(sim), hooks_(std::move(hooks)) {}

void FaultPlan::arm() {
  if (!spec_.enabled) return;
  if (spec_.slow_node >= 0 && hooks_.degrade_disk) {
    const int node = spec_.slow_node;
    const double factor = spec_.slow_factor;
    sim_.schedule_at(std::max(spec_.slow_time, sim_.now()),
                     [this, node, factor] { hooks_.degrade_disk(node, factor); });
  }
  if (spec_.kill_node >= 0 && spec_.kill_time >= 0.0) {
    sim_.schedule_at(std::max(spec_.kill_time, sim_.now()),
                     [this] { fire_kill(spec_.kill_node); });
  }
  for (const ChaosEvent& ev : spec_.chaos) {
    const int node = ev.node;
    if (ev.kind == ChaosEvent::Kind::kKill) {
      sim_.schedule_at(std::max(ev.time, sim_.now()),
                       [this, node] { fire_kill(node); });
    } else {
      sim_.schedule_at(std::max(ev.time, sim_.now()),
                       [this, node] { fire_rejoin(node); });
    }
  }
}

void FaultPlan::notify_task_finished(int64_t total_finished) {
  if (!spec_.enabled || kill_fired_) return;
  if (spec_.kill_node < 0 || spec_.kill_after_tasks < 0) return;
  if (total_finished >= spec_.kill_after_tasks) fire_kill(spec_.kill_node);
}

void FaultPlan::fire_kill(int node) {
  if (node == spec_.kill_node) {
    if (kill_fired_) return;  // time and count triggers may both be armed
    kill_fired_ = true;
  }
  // A node that is already dead (killed by an earlier trigger or a chaos
  // event) must not be re-killed: re-firing would double-count the loss and
  // re-run recovery against an executor that holds nothing.
  if (hooks_.node_alive && !hooks_.node_alive(node)) return;
  ++kills_fired_;
  SAEX_INFO("fault plan: killing executor {} at {:.3f}s", node, sim_.now());
  if (hooks_.kill_executor) hooks_.kill_executor(node);
}

void FaultPlan::fire_rejoin(int node) {
  if (hooks_.node_alive && hooks_.node_alive(node)) return;  // already live
  ++rejoins_fired_;
  SAEX_INFO("fault plan: rejoining executor {} at {:.3f}s", node, sim_.now());
  if (hooks_.rejoin_executor) hooks_.rejoin_executor(node);
}

}  // namespace saex::fault
