#include "engine/task_scheduler.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>

#include "common/log.h"
#include "common/stats.h"
#include "prof/profiler.h"

namespace saex::engine {

TaskScheduler::TaskScheduler(sim::Simulation& sim,
                             std::vector<ExecutorRuntime*> executors,
                             Options options)
    : sim_(sim), options_(options) {
  execs_.reserve(executors.size());
  for (ExecutorRuntime* e : executors) {
    execs_.push_back(ExecState{e, e->pool_size(), 0, true});
  }
  free_bits_.assign((execs_.size() + 63) / 64, 0);
  int max_node = -1;
  for (const ExecState& es : execs_) {
    max_node = std::max(max_node, es.exec->node_id());
  }
  node_to_exec_.assign(static_cast<size_t>(max_node + 1), -1);
  for (size_t e = 0; e < execs_.size(); ++e) {
    const int node = execs_[e].exec->node_id();
    if (node >= 0 && node_to_exec_[static_cast<size_t>(node)] < 0) {
      node_to_exec_[static_cast<size_t>(node)] = static_cast<int32_t>(e);
    }
    update_free_bit(e);
  }
}

void TaskScheduler::pending_remove(TaskSet& set, size_t task_idx) noexcept {
  const auto it = std::lower_bound(set.pending.begin(), set.pending.end(),
                                   static_cast<int32_t>(task_idx));
  assert(it != set.pending.end() && *it == static_cast<int32_t>(task_idx));
  set.pending.erase(it);
  if (set.tasks[task_idx].preferred_nodes.empty()) --set.pref_free_pending;
  --pending_total_;
}

void TaskScheduler::pending_insert(TaskSet& set, size_t task_idx) {
  const auto it = std::lower_bound(set.pending.begin(), set.pending.end(),
                                   static_cast<int32_t>(task_idx));
  assert(it == set.pending.end() || *it != static_cast<int32_t>(task_idx));
  set.pending.insert(it, static_cast<int32_t>(task_idx));
  if (set.tasks[task_idx].preferred_nodes.empty()) ++set.pref_free_pending;
  ++pending_total_;
}

void TaskScheduler::pending_clear(TaskSet& set) noexcept {
  pending_total_ -= static_cast<int64_t>(set.pending.size());
  set.pending.clear();
  set.pref_free_pending = 0;
}

void TaskScheduler::update_free_bit(size_t exec_idx) noexcept {
  const ExecState& es = execs_[exec_idx];
  const uint64_t mask = uint64_t{1} << (exec_idx & 63);
  uint64_t& word = free_bits_[exec_idx >> 6];
  if (es.active && !es.quarantined && es.assigned < es.advertised) {
    word |= mask;
  } else {
    word &= ~mask;
  }
}

size_t TaskScheduler::next_free_exec(size_t from) const noexcept {
  const size_t n = execs_.size();
  if (from >= n) return n;
  size_t w = from >> 6;
  uint64_t word = free_bits_[w] & (~uint64_t{0} << (from & 63));
  while (word == 0) {
    if (++w >= free_bits_.size()) return n;
    word = free_bits_[w];
  }
  return (w << 6) + static_cast<size_t>(std::countr_zero(word));
}

int TaskScheduler::exec_index_of(int node_id) const noexcept {
  if (node_id < 0 ||
      static_cast<size_t>(node_id) >= node_to_exec_.size()) {
    return -1;
  }
  return node_to_exec_[static_cast<size_t>(node_id)];
}

void TaskScheduler::define_pool(PoolSpec spec) {
  for (PoolSpec& existing : pool_specs_) {
    if (existing.name == spec.name) {
      existing = std::move(spec);
      return;
    }
  }
  pool_specs_.push_back(std::move(spec));
}

const PoolSpec& TaskScheduler::pool_spec(
    const std::string& name) const noexcept {
  for (const PoolSpec& p : pool_specs_) {
    if (p.name == name) return p;
  }
  // Unknown pool: Spark logs a warning and uses default parameters.
  static const PoolSpec kFallback{};
  return kFallback;
}

void TaskScheduler::set_executor_active(int node_id, bool active) {
  if (const int e = exec_index_of(node_id); e >= 0) {
    ExecState& es = execs_[static_cast<size_t>(e)];
    if (es.dead) return;  // dead executors never come back
    es.active = active;
    update_free_bit(static_cast<size_t>(e));
  }
  if (active) try_assign();
}

void TaskScheduler::kill_executor(int node_id) {
  if (const int e = exec_index_of(node_id); e >= 0) {
    ExecState& es = execs_[static_cast<size_t>(e)];
    es.dead = true;
    es.active = false;
    update_free_bit(static_cast<size_t>(e));
  }
}

void TaskScheduler::revive_executor(int node_id) {
  if (const int e = exec_index_of(node_id); e >= 0) {
    ExecState& es = execs_[static_cast<size_t>(e)];
    if (!es.dead) return;
    es.dead = false;
    es.active = true;
    update_free_bit(static_cast<size_t>(e));
    try_assign();
  }
}

void TaskScheduler::set_executor_quarantined(int node_id, bool quarantined) {
  if (const int e = exec_index_of(node_id); e >= 0) {
    ExecState& es = execs_[static_cast<size_t>(e)];
    if (es.dead) return;
    if (es.quarantined == quarantined) return;
    es.quarantined = quarantined;
    update_free_bit(static_cast<size_t>(e));
    if (!quarantined) try_assign();
  }
}

bool TaskScheduler::executor_quarantined(int node_id) const {
  const int e = exec_index_of(node_id);
  return e >= 0 && execs_[static_cast<size_t>(e)].quarantined;
}

int TaskScheduler::quarantined_executor_count() const noexcept {
  int n = 0;
  for (const ExecState& es : execs_) n += es.quarantined ? 1 : 0;
  return n;
}

bool TaskScheduler::executor_dead(int node_id) const {
  const int e = exec_index_of(node_id);
  return e >= 0 && execs_[static_cast<size_t>(e)].dead;
}

int TaskScheduler::dead_executor_count() const noexcept {
  int n = 0;
  for (const ExecState& es : execs_) n += es.dead ? 1 : 0;
  return n;
}

void TaskScheduler::hold_set(uint64_t id, bool held) {
  TaskSet* set = find_set(id);
  if (set == nullptr) return;
  set->held = held;
  if (!held) try_assign();
}

void TaskScheduler::abort_set(uint64_t id) {
  TaskSet* set = find_set(id);
  if (set == nullptr) return;
  fail_set(*set);
  maybe_finish_set(*set);
}

void TaskScheduler::fail_set(TaskSet& set) noexcept {
  set.failed = true;
  set.remaining = 0;
  for (TaskState& st : set.state) st.done = true;
  pending_clear(set);
}

std::vector<uint64_t> TaskScheduler::hold_sets_reading(int shuffle_id) {
  std::vector<uint64_t> held;
  for (const auto& set : sets_) {
    if (set->failed) continue;  // already-held sets are still recorded: the
                                // caller tracks holds per recovering shuffle
    for (const int sid : set->stage.in_shuffle_ids) {
      if (sid == shuffle_id) {
        set->held = true;
        held.push_back(set->id);
        break;
      }
    }
  }
  return held;
}

bool TaskScheduler::executor_active(int node_id) const {
  const int e = exec_index_of(node_id);
  return e >= 0 && execs_[static_cast<size_t>(e)].active;
}

int TaskScheduler::active_executor_count() const noexcept {
  int n = 0;
  for (const ExecState& es : execs_) n += es.active ? 1 : 0;
  return n;
}

TaskScheduler::TaskSet* TaskScheduler::find_set(uint64_t id) noexcept {
  // sets_ is sorted by ascending id (monotone assignment).
  const auto it = std::lower_bound(
      sets_.begin(), sets_.end(), id,
      [](const std::unique_ptr<TaskSet>& s, uint64_t v) { return s->id < v; });
  return it == sets_.end() || (*it)->id != id ? nullptr : it->get();
}

void TaskScheduler::erase_set(uint64_t id) noexcept {
  const auto it = std::lower_bound(
      sets_.begin(), sets_.end(), id,
      [](const std::unique_ptr<TaskSet>& s, uint64_t v) { return s->id < v; });
  if (it != sets_.end() && (*it)->id == id) {
    // pending_total_ counts only live sets' pending tasks.
    assert((*it)->pending.empty());
    sets_.erase(it);
  }
}

uint64_t TaskScheduler::submit_stage(const Stage& stage,
                                     std::vector<TaskSpec> tasks, int job_id,
                                     std::string pool, TaskSetDone on_done) {
  const uint64_t id = next_set_id_++;
  TaskSet set;
  set.id = id;
  set.job_id = job_id;
  set.pool = std::move(pool);
  set.stage = stage;
  set.tasks = std::move(tasks);
  set.state.assign(set.tasks.size(), TaskState{});
  int max_partition = -1;
  for (const TaskSpec& t : set.tasks) {
    max_partition = std::max(max_partition, t.partition);
  }
  set.task_index.assign(static_cast<size_t>(max_partition + 1), -1);
  set.pending.reserve(set.tasks.size());
  for (size_t i = 0; i < set.tasks.size(); ++i) {
    set.task_index[static_cast<size_t>(set.tasks[i].partition)] =
        static_cast<int32_t>(i);
    set.pending.push_back(static_cast<int32_t>(i));
  }
  set.remaining = set.tasks.size();
  set.result.num_tasks = static_cast<int>(set.tasks.size());
  set.result.submit_time = sim_.now();
  set.exec_failures.assign(execs_.size(), 0);
  set.exec_blacklisted.assign(execs_.size(), false);
  set.on_done = std::move(on_done);

  if (set.remaining == 0) {
    // Degenerate empty stage: complete on the next event, never entering the
    // offer loop.
    set.result.finish_time = sim_.now();
    TaskSetResult result = set.result;
    TaskSetDone done = std::move(set.on_done);
    sim_.schedule_after(0.0, [done = std::move(done), result] {
      if (done) done(result);
    });
    return id;
  }

  sets_.push_back(std::make_unique<TaskSet>(std::move(set)));
  TaskSet& pushed = *sets_.back();
  pending_total_ += static_cast<int64_t>(pushed.pending.size());
  for (const TaskSpec& t : pushed.tasks) {
    if (t.preferred_nodes.empty()) ++pushed.pref_free_pending;
  }
  try_assign();
  schedule_speculation_check();
  return id;
}

// Stragglers are detected by polling (spark.speculation.interval), not only
// at task completions — at the end of a wave there may be no completions
// left to trigger the check.
void TaskScheduler::schedule_speculation_check() {
  if (!options_.speculation || speculation_timer_armed_ || sets_.empty()) {
    return;
  }
  speculation_timer_armed_ = true;
  sim_.schedule_after(options_.speculation_interval, [this] {
    speculation_timer_armed_ = false;
    if (sets_.empty()) return;
    try_assign();
    schedule_speculation_check();
  });
}

const std::vector<TaskScheduler::TaskSet*>& TaskScheduler::offer_order() {
  std::vector<TaskSet*>& order = offer_scratch_;
  order.clear();
  order.reserve(sets_.size());
  for (const auto& set : sets_) order.push_back(set.get());
  if (order.size() < 2) return order;

  // Pool running counts for the FAIR comparison.
  std::map<std::string, int> running;
  if (mode_ == SchedulingMode::kFair) {
    for (const auto& set : sets_) running[set->pool] += set->running;
  }

  std::stable_sort(order.begin(), order.end(), [&](TaskSet* a, TaskSet* b) {
    const TaskSet& sa = *a;
    const TaskSet& sb = *b;
    if (mode_ == SchedulingMode::kFair && sa.pool != sb.pool) {
      // Spark's FairSchedulingAlgorithm over the two pools.
      const PoolSpec& pa = pool_spec(sa.pool);
      const PoolSpec& pb = pool_spec(sb.pool);
      const int ra = running.at(sa.pool);
      const int rb = running.at(sb.pool);
      const bool needy_a = ra < pa.min_share;
      const bool needy_b = rb < pb.min_share;
      if (needy_a != needy_b) return needy_a;
      if (needy_a) {
        const double share_a =
            static_cast<double>(ra) / std::max(pa.min_share, 1);
        const double share_b =
            static_cast<double>(rb) / std::max(pb.min_share, 1);
        if (share_a != share_b) return share_a < share_b;
      } else {
        const double ratio_a =
            static_cast<double>(ra) / std::max(pa.weight, 1);
        const double ratio_b =
            static_cast<double>(rb) / std::max(pb.weight, 1);
        if (ratio_a != ratio_b) return ratio_a < ratio_b;
      }
      return sa.pool < sb.pool;
    }
    // FIFO (and within one pool): earlier job, then earlier submission.
    if (sa.job_id != sb.job_id) return sa.job_id < sb.job_id;
    return sa.id < sb.id;
  });
  return order;
}

std::optional<size_t> TaskScheduler::pick_task_for(TaskSet& set,
                                                   size_t exec_idx) {
  // Locality first: a pending task preferring this node. Tasks preferring
  // *other* nodes are stolen only after the delay-scheduling window
  // (spark.locality.wait) expires; preference-free tasks are always fair
  // game. Finally, a speculative duplicate of a straggler.
  const int node_id = execs_[exec_idx].exec->node_id();
  const bool wait_over = set_wait_over(set);
  std::optional<size_t> any;
  bool deferred = false;
  // `pending` holds exactly the indices with !done && running_copies == 0,
  // in ascending order — the same visit order as the full scan it replaces.
  for (const int32_t idx : set.pending) {
    const size_t i = static_cast<size_t>(idx);
    const auto& pref = set.tasks[i].preferred_nodes;
    if (pref.empty()) {
      if (!any) any = i;
      continue;
    }
    if (std::find(pref.begin(), pref.end(), node_id) != pref.end()) return i;
    if (wait_over) {
      if (!any) any = i;
    } else {
      deferred = true;
    }
  }
  if (!any && deferred) arm_locality_timer(set);
  if (any) return any;

  if (options_.speculation &&
      set.result.durations.size() >=
          options_.speculation_quantile *
              static_cast<double>(set.tasks.size())) {
    const double median = percentile(set.result.durations, 0.5);
    const double now = sim_.now();
    for (size_t i = 0; i < set.tasks.size(); ++i) {
      const TaskState& st = set.state[i];
      if (st.done || st.running_copies != 1) continue;
      // Never duplicate onto the executor already running the straggler —
      // typically the slow node itself.
      if (std::find(st.copy_execs.begin(), st.copy_execs.end(), exec_idx) !=
          st.copy_execs.end()) {
        continue;
      }
      if (now - st.launch_time > options_.speculation_multiplier * median) {
        return i;
      }
    }
  }
  return std::nullopt;
}

// Re-offer once the locality window closes, or nothing would wake us.
void TaskScheduler::arm_locality_timer(TaskSet& set) {
  if (set.locality_timer_armed) return;
  set.locality_timer_armed = true;
  const uint64_t set_id = set.id;
  sim_.schedule_at(locality_deadline(set), [this, set_id] {
    if (TaskSet* s = find_set(set_id)) s->locality_timer_armed = false;
    try_assign();
  });
}

// The timer and the test share one deadline. Testing now - submit >= wait
// instead can round below the wait at the very instant the timer fires
// (4.1 - 1.1 < 3), re-arming a zero-delay timer forever.
double TaskScheduler::locality_deadline(const TaskSet& set) const noexcept {
  return set.result.submit_time + options_.locality_wait;
}

bool TaskScheduler::set_wait_over(const TaskSet& set) const noexcept {
  return sim_.now() >= locality_deadline(set);
}

// True when some offerable set could hand a task to an *arbitrary* free
// executor: it has a preference-free pending task, or its delay-scheduling
// window expired so preferring tasks may be stolen. Both only decrease
// within one try_assign call (no events fire mid-call), so a false answer
// stays false until the call returns.
bool TaskScheduler::any_generic_set() const noexcept {
  for (const auto& set : sets_) {
    if (set->held || set->pending.empty()) continue;
    if (set->pref_free_pending > 0 || set_wait_over(*set)) return true;
  }
  return false;
}

const std::vector<int>& TaskScheduler::pref_union(TaskSet& set) {
  if (set.pref_epoch != offer_epoch_) {
    set.pref_epoch = offer_epoch_;
    set.pref_nodes.clear();
    for (const int32_t idx : set.pending) {
      const auto& pref = set.tasks[static_cast<size_t>(idx)].preferred_nodes;
      set.pref_nodes.insert(set.pref_nodes.end(), pref.begin(), pref.end());
    }
    std::sort(set.pref_nodes.begin(), set.pref_nodes.end());
    set.pref_nodes.erase(
        std::unique(set.pref_nodes.begin(), set.pref_nodes.end()),
        set.pref_nodes.end());
  }
  return set.pref_nodes;
}

// Executors that some deferred set's pending tasks prefer — with no generic
// set in flight these are the only executors an offer pass can dispatch to.
void TaskScheduler::build_candidates() {
  cand_scratch_.clear();
  for (const auto& up : sets_) {
    TaskSet& set = *up;
    if (set.held || set.pending.empty()) continue;
    if (set.pref_free_pending > 0 || set_wait_over(set)) continue;
    for (const int node : pref_union(set)) {
      if (const int e = exec_index_of(node); e >= 0) {
        cand_scratch_.push_back(static_cast<size_t>(e));
      }
    }
  }
  std::sort(cand_scratch_.begin(), cand_scratch_.end());
  cand_scratch_.erase(
      std::unique(cand_scratch_.begin(), cand_scratch_.end()),
      cand_scratch_.end());
}

// What a fruitless pass of the exhaustive scan does as a side effect: every
// offerable set whose pending tasks are all waiting out the delay-scheduling
// window gets its re-offer timer armed (idempotently), in offer order so
// event creation order matches the scan's failed picks.
void TaskScheduler::arm_deferred_timers() {
  // Cheap order-free pre-check so the per-event common case (nothing
  // deferred) never pays for an offer_order() sort.
  bool any = false;
  for (const auto& set : sets_) {
    if (set->held || set->pending.empty() || set->locality_timer_armed) {
      continue;
    }
    if (set->pref_free_pending > 0 || set_wait_over(*set)) continue;
    any = true;
    break;
  }
  if (!any) return;
  for (TaskSet* set_ptr : offer_order()) {
    TaskSet& set = *set_ptr;
    if (set.held || set.pending.empty() || set.locality_timer_armed) continue;
    if (set.pref_free_pending > 0 || set_wait_over(set)) continue;
    arm_locality_timer(set);
  }
}

// Offers executor `exec_idx` one slot: walks sets in FIFO/FAIR order and
// dispatches from the first that has a task for it. Mirrors one iteration of
// the exhaustive scan's executor loop, including its side effects: deferred
// sets passed on the way are armed exactly where their failed pick would be.
bool TaskScheduler::offer_to(size_t exec_idx) {
  const int node_id = execs_[exec_idx].exec->node_id();
  for (TaskSet* set_ptr : offer_order()) {
    TaskSet& set = *set_ptr;
    if (set.held) continue;
    if (set.pending.empty()) continue;  // a pick would fail with no effects
    const bool generic = set.pref_free_pending > 0 || set_wait_over(set);
    if (!generic) {
      const std::vector<int>& pref = pref_union(set);
      if (!std::binary_search(pref.begin(), pref.end(), node_id)) {
        // pick_task_for would walk the pending list, match nothing, and
        // defer — its only side effect being this timer.
        arm_locality_timer(set);
        continue;
      }
    }
    if (const auto task = pick_task_for(set, exec_idx)) {
      dispatch(set, *task, exec_idx, set.state[*task].running_copies > 0);
      return true;
    }
    // pref_nodes over-approximated (the preferring task dispatched earlier
    // in this call); the failed pick armed the timer itself. Keep walking.
  }
  return false;
}

void TaskScheduler::try_assign() {
  SAEX_PROF_SCOPE(kScheduler);
  if (sets_.empty()) return;
  if (options_.speculation || options_.blacklist_enabled) {
    try_assign_scan();
  } else {
    try_assign_fast();
  }
}

void TaskScheduler::try_assign_scan() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t e = 0; e < execs_.size(); ++e) {
      ExecState& es = execs_[e];
      if (!es.active || es.quarantined || es.assigned >= es.advertised) continue;
      // Offer the slot to task sets in FIFO/FAIR order; the order is
      // recomputed after every dispatch since running counts moved.
      for (TaskSet* set_ptr : offer_order()) {
        TaskSet& set = *set_ptr;
        if (set.held || set.exec_blacklisted[e]) continue;
        const auto task = pick_task_for(set, e);
        if (!task) continue;
        dispatch(set, *task, e, set.state[*task].running_copies > 0);
        progress = true;
        break;
      }
    }
  }
}

void TaskScheduler::try_assign_fast() {
  // Nothing pending means no dispatch AND no deferred set to arm: the whole
  // offer pass is a no-op. This is the per-task-completion common case on a
  // large, underloaded cluster.
  if (pending_total_ == 0) return;
  ++offer_epoch_;
  const size_t n = execs_.size();
  bool progress = true;
  while (progress) {
    progress = false;
    if (pending_total_ == 0) break;
    // One pass: each executor with a free slot is offered at most one task,
    // in ascending index order — the scan's visit order restricted to the
    // executors that can actually receive something.
    bool cand_only = false;
    size_t cand_pos = 0;
    size_t e = 0;
    while (pending_total_ > 0) {
      if (!cand_only && !any_generic_set()) {
        build_candidates();
        cand_only = true;
        cand_pos = 0;
      }
      size_t next;
      if (cand_only) {
        while (cand_pos < cand_scratch_.size() && cand_scratch_[cand_pos] < e) {
          ++cand_pos;
        }
        size_t c = n;
        for (size_t p = cand_pos; p < cand_scratch_.size(); ++p) {
          if (exec_free(cand_scratch_[p])) {
            c = cand_scratch_[p];
            break;
          }
        }
        // A free non-candidate executor ahead of the next candidate would
        // walk every set without dispatching; its only effect is arming the
        // deferred timers, which must land *before* the candidate's dispatch
        // to keep the event sequence identical to the scan.
        if (next_free_exec(e) < c) arm_deferred_timers();
        if (c >= n) break;
        next = c;
      } else {
        next = next_free_exec(e);
        if (next >= n) break;
      }
      if (offer_to(next)) progress = true;
      e = next + 1;
    }
  }
  // The scan's final no-progress pass arms the deferred timers of sets its
  // failed picks reach — but only if some free executor exists to do the
  // walking.
  if (next_free_exec(0) < n) arm_deferred_timers();
}

void TaskScheduler::dispatch(TaskSet& set, size_t task_idx, size_t exec_idx,
                             bool speculative) {
  ExecState& es = execs_[exec_idx];
  if (!es.active || es.quarantined || es.assigned >= es.advertised) {
    ++dispatch_overcommits_;
  }
  if (es.assigned == 0 && engaged_hook_) {
    engaged_hook_(es.exec->node_id(), set.stage);
    // The hook may have resized the pool synchronously; keep offering
    // against the advertised size the notification protocol maintains.
  }

  TaskState& st = set.state[task_idx];
  if (st.running_copies == 0) {
    st.launch_time = sim_.now();
    pending_remove(set, task_idx);  // first copy: the task leaves the pending
                                    // list until it fails back to zero copies
  }
  ++st.running_copies;
  ++st.attempts;
  st.copy_execs.push_back(exec_idx);
  if (set.result.first_launch_time < 0.0) {
    set.result.first_launch_time = sim_.now();
  }
  if (speculative) {
    ++speculative_launches_;
    if (options_.event_log != nullptr) {
      options_.event_log->record(
          Event{EventKind::kSpeculativeLaunch, sim_.now(), set.job_id,
                set.stage.ordinal, static_cast<int>(task_idx),
                es.exec->node_id(), 0, {}});
    }
    SAEX_DEBUG("speculative copy of task {} on executor {}", task_idx,
               es.exec->node_id());
  }

  ++es.assigned;
  update_free_bit(exec_idx);
  ++set.running;
  ++tasks_dispatched_;
  const TaskSpec spec = set.tasks[task_idx];
  const uint64_t set_id = set.id;
  // LaunchTask message: driver → executor.
  sim_.schedule_after(options_.message_latency, [this, spec, set_id,
                                                 exec_idx] {
    const TaskSet* s = find_set(set_id);
    assert(s != nullptr && "task set vanished with a launch in flight");
    execs_[exec_idx].exec->launch(
        spec, s->stage,
        [this, set_id, exec_idx](const TaskSpec& sp,
                                 const TaskOutcome& outcome) {
          // StatusUpdate message: executor → driver.
          sim_.schedule_after(options_.message_latency,
                              [this, set_id, sp, exec_idx, outcome] {
                                on_task_finished(set_id, sp, exec_idx,
                                                 outcome);
                              });
        });
  });
}

void TaskScheduler::on_task_finished(uint64_t set_id, const TaskSpec& spec,
                                     size_t exec_idx,
                                     const TaskOutcome& outcome) {
  ExecState& es = execs_[exec_idx];
  --es.assigned;
  update_free_bit(exec_idx);
  ++tasks_finished_;
  if (task_finish_hook_) task_finish_hook_(tasks_finished_);
  if (task_outcome_hook_ &&
      (outcome.success || outcome.failure != TaskFailure::kExecutorLost)) {
    task_outcome_hook_(es.exec->node_id(), outcome.success);
  }

  TaskSet* set_ptr = find_set(set_id);
  assert(set_ptr != nullptr && "status update for a vanished task set");
  TaskSet& set = *set_ptr;
  --set.running;

  const size_t task_idx = set.state_index(spec.partition);
  TaskState& st = set.state[task_idx];
  --st.running_copies;
  if (const auto it = std::find(st.copy_execs.begin(), st.copy_execs.end(),
                                exec_idx);
      it != st.copy_execs.end()) {
    st.copy_execs.erase(it);
  }

  if (st.done) {
    // A speculative duplicate finished after the winner (or the set was
    // aborted while this copy was in flight): ignore the result.
    maybe_finish_set(set);
    try_assign();
    return;
  }

  if (outcome.success) {
    st.done = true;
    ++tasks_succeeded_;
    set.result.durations.push_back(sim_.now() - st.launch_time);
    assert(set.remaining > 0);
    --set.remaining;
    // Kill losing speculative copies so the stage does not wait for them.
    for (const size_t e : st.copy_execs) {
      execs_[e].exec->cancel_task(spec.stage_uid, spec.partition);
    }
    maybe_finish_set(set);
    try_assign();
    return;
  }

  // Decide whether the failure charges against spark.task.maxFailures.
  // Executor loss is never the task's fault; fetch failures are the
  // driver's call (it knows whether the source data is gone).
  ++tasks_failed_;
  bool charged = true;
  if (outcome.failure == TaskFailure::kExecutorLost) {
    ++executor_lost_failures_;
    --st.attempts;
    charged = false;
  } else if (outcome.failure == TaskFailure::kFetchFailed) {
    ++fetch_failures_;
    if (options_.event_log != nullptr) {
      options_.event_log->record(Event{EventKind::kFetchFailed, sim_.now(),
                                       set.job_id, set.stage.ordinal,
                                       spec.partition, outcome.fetch_src,
                                       outcome.fetch_shuffle, {}});
    }
    FetchFailureAction action = FetchFailureAction::kCharge;
    if (fetch_hook_) {
      action = fetch_hook_(set_id, outcome.fetch_shuffle, outcome.fetch_src);
    }
    if (action != FetchFailureAction::kCharge) {
      --st.attempts;
      charged = false;
      if (action == FetchFailureAction::kHold) set.held = true;
    }
  }

  if (!charged) {
    // Free retry: the task is pending again and try_assign re-launches it
    // (once the set is unheld, for kHold).
  } else if (options_.blacklist_enabled &&
             ++set.exec_failures[exec_idx] >=
                 options_.max_failed_tasks_per_executor &&
             !set.exec_blacklisted[exec_idx] &&
             st.attempts < options_.max_task_failures) {
    set.exec_blacklisted[exec_idx] = true;
    SAEX_WARN("executor {} blacklisted for stage {} after {} failures",
              es.exec->node_id(), set.stage.ordinal,
              set.exec_failures[exec_idx]);
  } else if (st.attempts >= options_.max_task_failures &&
             st.running_copies == 0) {
    SAEX_WARN("task {} of stage {} failed {} times; aborting stage",
              spec.partition, set.stage.ordinal, st.attempts);
    fail_set(set);
  }
  // else: attempt failed with budget left — the task is pending again
  // (running_copies just returned to 0) and try_assign re-launches it.

  if (!st.done && st.running_copies == 0) pending_insert(set, task_idx);
  maybe_finish_set(set);
  try_assign();
}

void TaskScheduler::maybe_finish_set(TaskSet& set) {
  if (set.remaining > 0 || set.running > 0) return;
  set.result.failed = set.failed;
  set.result.finish_time = sim_.now();
  TaskSetResult result = std::move(set.result);
  TaskSetDone done = std::move(set.on_done);
  erase_set(set.id);  // `set` is dangling from here on
  if (done) done(result);
}

void TaskScheduler::on_executor_resized(int node_id, int new_size) {
  if (const int e = exec_index_of(node_id); e >= 0) {
    ExecState& es = execs_[static_cast<size_t>(e)];
    SAEX_TRACE("scheduler: executor {} advertised {} -> {}", node_id,
               es.advertised, new_size);
    es.advertised = new_size;
    update_free_bit(static_cast<size_t>(e));
    ++executor_resizes_;
  }
  try_assign();
}

void TaskScheduler::sync_pool_sizes() {
  for (size_t e = 0; e < execs_.size(); ++e) {
    execs_[e].advertised = execs_[e].exec->pool_size();
    update_free_bit(e);
  }
}

adaptive::SchedulerNotifier TaskScheduler::make_notifier(int node_id) {
  return [this, node_id](int new_size) {
    // ThreadPoolResized message: executor → driver.
    sim_.schedule_after(options_.message_latency, [this, node_id, new_size] {
      on_executor_resized(node_id, new_size);
    });
  };
}

int TaskScheduler::advertised_size(int node_id) const {
  const int e = exec_index_of(node_id);
  return e < 0 ? -1 : execs_[static_cast<size_t>(e)].advertised;
}

int TaskScheduler::assigned_count(int node_id) const {
  const int e = exec_index_of(node_id);
  return e < 0 ? -1 : execs_[static_cast<size_t>(e)].assigned;
}

}  // namespace saex::engine
