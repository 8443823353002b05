#include "serve/job_server.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <charconv>
#include <sstream>
#include <stdexcept>

#include "common/format.h"
#include "common/log.h"
#include "common/stats.h"
#include "common/table.h"

namespace saex::serve {

std::string_view admission_name(Admission a) noexcept {
  switch (a) {
    case Admission::kAccepted: return "accepted";
    case Admission::kQueued: return "queued";
    case Admission::kRejectedQueueFull: return "rejected:queue-full";
    case Admission::kRejectedClientQuota: return "rejected:client-quota";
    case Admission::kRejectedDeadlineInfeasible:
      return "rejected:deadline-infeasible";
  }
  return "?";
}

std::string_view outcome_name(JobOutcome o) noexcept {
  switch (o) {
    case JobOutcome::kNone: return "none";
    case JobOutcome::kFinished: return "ok";
    case JobOutcome::kFailed: return "FAILED";
    case JobOutcome::kShedDeadline: return "shed";
    case JobOutcome::kCancelledDeadline: return "cancelled";
  }
  return "?";
}

namespace {

// Splits `text` at every `sep`, keeping empty fields.
std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> fields;
  size_t begin = 0;
  for (;;) {
    const size_t end = text.find(sep, begin);
    fields.push_back(text.substr(begin, end - begin));
    if (end == std::string::npos) return fields;
    begin = end + 1;
  }
}

// Parses a whole pool number field: "3x" is malformed, not 3.
bool parse_pool_field(const std::string& field, int& out) {
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::vector<engine::PoolSpec> parse_pools(const std::string& spec) {
  std::vector<engine::PoolSpec> pools;
  for (const std::string& entry : split(spec, ',')) {
    if (entry.empty()) continue;
    const std::vector<std::string> fields = split(entry, ':');
    if (fields[0].empty()) {
      throw conf::ConfigError(
          strfmt::format("saex.scheduler.pools: empty pool name in '{}'", spec));
    }
    engine::PoolSpec pool;
    pool.name = fields[0];
    // A missing or empty weight or minShare field keeps its default.
    auto read = [&fields](size_t i, int& out) {
      return i >= fields.size() || fields[i].empty() ||
             parse_pool_field(fields[i], out);
    };
    if (fields.size() > 3 || !read(1, pool.weight) ||
        !read(2, pool.min_share)) {
      throw conf::ConfigError(strfmt::format(
          "saex.scheduler.pools: malformed entry '{}' (want name:weight:minShare)",
          entry));
    }
    if (pool.weight < 1 || pool.min_share < 0) {
      throw conf::ConfigError(strfmt::format(
          "saex.scheduler.pools: '{}' needs weight >= 1 and minShare >= 0",
          entry));
    }
    pools.push_back(std::move(pool));
  }
  return pools;
}

JobServerOptions JobServerOptions::from_config(const conf::Config& config) {
  JobServerOptions o;
  o.max_concurrent_jobs =
      static_cast<int>(config.get_int("saex.serve.maxConcurrentJobs"));
  o.max_queued_jobs =
      static_cast<int>(config.get_int("saex.serve.maxQueuedJobs"));
  o.max_jobs_per_client =
      static_cast<int>(config.get_int("saex.serve.maxJobsPerClient"));
  if (o.max_concurrent_jobs < 1 || o.max_queued_jobs < 0) {
    throw conf::ConfigError(strfmt::format(
        "saex.serve.maxConcurrentJobs must be >= 1 and maxQueuedJobs >= 0 "
        "(got {} and {})",
        o.max_concurrent_jobs, o.max_queued_jobs));
  }

  std::string mode = config.get_string("saex.scheduler.mode");
  std::transform(mode.begin(), mode.end(), mode.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  if (mode == "FIFO") {
    o.mode = engine::SchedulingMode::kFifo;
  } else if (mode == "FAIR") {
    o.mode = engine::SchedulingMode::kFair;
  } else {
    throw conf::ConfigError(strfmt::format(
        "saex.scheduler.mode '{}' (valid: FIFO, FAIR)", mode));
  }
  o.pools = parse_pools(config.get_string("saex.scheduler.pools"));
  o.allocation = AllocationOptions::from_config(config);
  o.default_deadline = config.get_duration_seconds("saex.serve.defaultDeadline");
  o.enforce_deadlines = config.get_bool("saex.serve.enforceDeadlines");
  o.retry = resilience::RetryPolicy::from_config(config);
  o.health = resilience::HealthOptions::from_config(config);
  return o;
}

double JobRecord::queue_wait() const noexcept {
  if (report.first_launch_time >= 0.0) {
    return report.first_launch_time - submit_time;
  }
  return start_time >= 0.0 ? start_time - submit_time : 0.0;
}

JobServer::JobServer(engine::SparkContext& ctx, JobServerOptions options)
    : ctx_(&ctx), options_(std::move(options)) {
  retry_seed_ = ctx_->cluster().spec().seed;

  engine::TaskScheduler& sched = ctx_->scheduler();
  sched.set_scheduling_mode(options_.mode);
  for (const engine::PoolSpec& pool : options_.pools) sched.define_pool(pool);

  // An idle executor picking up work restarts its policy's climb at c_min —
  // both between jobs and right after a dynamic-allocation grant.
  sched.set_executor_engaged_hook([this](int node, const engine::Stage& s) {
    ctx_->executor(node).policy().on_stage_start(
        {static_cast<int64_t>(s.uid), s.ordinal, s.io_tagged},
        ctx_->cluster().sim().now());
  });

  allocation_ = std::make_unique<ExecutorAllocationManager>(
      ctx_->cluster().sim(), sched, ctx_->num_executors(), options_.allocation,
      [this] { return has_work(); }, &ctx_->event_log());
  allocation_->start();

  if (options_.health.enabled) {
    resilience::NodeHealthTracker::Hooks hooks;
    hooks.quarantine = [this](int node) {
      ctx_->scheduler().set_executor_quarantined(node, true);
      ctx_->event_log().record(engine::Event{
          engine::EventKind::kNodeQuarantined, ctx_->cluster().sim().now(), -1,
          -1, -1, node, ctx_->scheduler().quarantined_executor_count(), {}});
    };
    hooks.reinstate = [this](int node) {
      ctx_->scheduler().set_executor_quarantined(node, false);
      ctx_->event_log().record(engine::Event{
          engine::EventKind::kNodeReinstated, ctx_->cluster().sim().now(), -1,
          -1, -1, node, ctx_->scheduler().quarantined_executor_count(), {}});
    };
    health_ = std::make_unique<resilience::NodeHealthTracker>(
        ctx_->num_executors(), options_.health, ctx_->cluster().sim(),
        std::move(hooks));
    ctx_->set_node_fault_hook([this](int node) { health_->record_fault(node); });
    sched.set_task_outcome_hook([this](int node, bool success) {
      health_->record_task_outcome(node, success);
    });
  }
}

JobServer::JobServer(engine::SparkContext& ctx)
    : JobServer(ctx, JobServerOptions::from_config(ctx.config())) {}

bool JobServer::has_work() const noexcept {
  return !running_.empty() || !queue_.empty() || !retry_wait_.empty();
}

int JobServer::client_load(const std::string& client) const noexcept {
  int load = 0;
  for (const int sid : queue_) {
    if (records_[static_cast<size_t>(sid)].client == client) ++load;
  }
  for (const int sid : running_) {
    if (records_[static_cast<size_t>(sid)].client == client) ++load;
  }
  return load;
}

Admission JobServer::submit(std::string name, std::string client,
                            std::string pool, Builder build, double deadline) {
  const double now = ctx_->cluster().sim().now();
  const int sid = static_cast<int>(records_.size());
  // Relative deadline: explicit beats the configured default; <0 means none.
  const double relative = deadline >= 0.0 ? deadline : options_.default_deadline;

  Admission admission;
  if (options_.enforce_deadlines && relative >= 0.0 && relative <= 0.0) {
    // A zero-second budget cannot be met by any schedule: reject up front
    // instead of admitting a job we would shed at this very instant.
    admission = Admission::kRejectedDeadlineInfeasible;
  } else if (options_.max_jobs_per_client > 0 &&
             client_load(client) >= options_.max_jobs_per_client) {
    admission = Admission::kRejectedClientQuota;
  } else if (static_cast<int>(running_.size()) < options_.max_concurrent_jobs) {
    admission = Admission::kAccepted;
  } else if (static_cast<int>(queue_.size()) < options_.max_queued_jobs) {
    admission = Admission::kQueued;
  } else {
    admission = Admission::kRejectedQueueFull;
  }

  JobRecord rec;
  rec.submission_id = sid;
  rec.name = std::move(name);
  rec.client = std::move(client);
  rec.pool = std::move(pool);
  rec.admission = admission;
  rec.submit_time = now;
  if (relative >= 0.0) rec.deadline = now + relative;
  ctx_->event_log().record(engine::Event{
      engine::EventKind::kJobSubmitted, now, sid, -1, -1, -1,
      static_cast<int64_t>(admission), rec.name});
  records_.push_back(std::move(rec));

  if (!admitted(admission)) {
    ctx_->event_log().record(engine::Event{
        engine::EventKind::kJobRejected, now, sid, -1, -1, -1,
        static_cast<int64_t>(admission), records_.back().name});
    SAEX_DEBUG("serve: submission {} '{}' {}", sid, records_.back().name,
               admission_name(admission));
    return admission;
  }

  builders_.emplace(sid, std::move(build));
  // Deadline enforcement: one timer per deadlined submission. At the
  // deadline the job is shed (still queued / in retry backoff) or cancelled
  // (running); a settled job makes the timer a no-op. The timer is scheduled
  // at submission, so under the kernel's FIFO tie-break it fires BEFORE any
  // completion event landing at the exact same instant: a dead-heat job is
  // deterministically cancelled, never racily finished.
  if (options_.enforce_deadlines && records_.back().deadline >= 0.0) {
    ctx_->cluster().sim().schedule_at(records_.back().deadline,
                                      [this, sid] { on_deadline(sid); });
  }
  if (admission == Admission::kQueued) {
    queue_.push_back(sid);
  } else {
    start_job(sid);
  }
  allocation_->notify_work();
  return admission;
}

void JobServer::start_job(int submission_id) {
  JobRecord& rec = records_[static_cast<size_t>(submission_id)];
  const double now = ctx_->cluster().sim().now();
  rec.start_time = now;
  running_.push_back(submission_id);
  if (rec.admission == Admission::kQueued) {
    ctx_->event_log().record(engine::Event{engine::EventKind::kJobDequeued,
                                           now, submission_id, -1, -1, -1, 0,
                                           rec.name});
  }

  // The builder stays in builders_ until the submission settles — a retry
  // attempt rebuilds the plan from it.
  const auto it = builders_.find(submission_id);
  assert(it != builders_.end());
  const engine::Rdd action = (it->second)(*ctx_);
  rec.job_id = ctx_->submit_job(
      action, rec.name, rec.pool, [this, submission_id](engine::JobReport r) {
        on_job_finished(submission_id, std::move(r));
      });
}

void JobServer::on_job_finished(int submission_id, engine::JobReport report) {
  JobRecord& rec = records_[static_cast<size_t>(submission_id)];
  const double now = ctx_->cluster().sim().now();
  running_.erase(std::find(running_.begin(), running_.end(), submission_id));
  rec.failed = report.failed;
  const bool was_cancelled = report.cancelled;
  rec.report = std::move(report);  // kept per attempt: last attempt's report

  // Seeded retry: a failed (not deadline-cancelled) attempt with budget left
  // re-enters admission after an exponential-backoff delay. The jitter draw
  // is a pure function of (seed, submission, attempt) — see RetryPolicy.
  if (rec.failed && !was_cancelled &&
      rec.retries < options_.retry.max_retries) {
    ++rec.retries;
    rec.retry_times.push_back(now);
    retry_wait_.insert(submission_id);
    ctx_->event_log().record(engine::Event{
        engine::EventKind::kJobRetried, now, submission_id, -1, -1, -1,
        rec.retries, rec.name});
    const double delay =
        options_.retry.delay(retry_seed_, submission_id, rec.retries);
    SAEX_DEBUG("serve: submission {} '{}' retry {} in {:.3f}s", submission_id,
               rec.name, rec.retries, delay);
    ctx_->cluster().sim().schedule_after(
        delay, [this, submission_id] { requeue_retry(submission_id); });
    pump_queue();  // the failed attempt freed a concurrency slot
    return;
  }

  if (was_cancelled) {
    rec.outcome = JobOutcome::kCancelledDeadline;
    ctx_->event_log().record(engine::Event{
        engine::EventKind::kJobCancelled, now, submission_id, -1, -1, -1,
        rec.retries, rec.name});
  } else {
    rec.outcome = rec.failed ? JobOutcome::kFailed : JobOutcome::kFinished;
  }
  settle(rec, now);
  pump_queue();
}

/// Final bookkeeping shared by every way a submission can end.
void JobServer::settle(JobRecord& rec, double finish_time) {
  rec.finish_time = finish_time;
  builders_.erase(rec.submission_id);
}

void JobServer::pump_queue() {
  while (!queue_.empty() &&
         static_cast<int>(running_.size()) < options_.max_concurrent_jobs) {
    const int next = queue_.front();
    queue_.pop_front();
    start_job(next);
  }
}

void JobServer::on_deadline(int submission_id) {
  JobRecord& rec = records_[static_cast<size_t>(submission_id)];
  if (rec.outcome != JobOutcome::kNone) return;  // already settled

  const auto queued = std::find(queue_.begin(), queue_.end(), submission_id);
  if (queued != queue_.end()) {
    queue_.erase(queued);
    shed_job(rec);
    return;
  }
  if (retry_wait_.erase(submission_id) > 0) {
    shed_job(rec);
    return;
  }
  // Running: cancel through the engine; on_job_finished settles it (the
  // callback may fire synchronously when no task copies are in flight).
  if (std::find(running_.begin(), running_.end(), submission_id) !=
      running_.end()) {
    SAEX_DEBUG("serve: submission {} '{}' cancelled at deadline {:.3f}s",
               submission_id, rec.name, rec.deadline);
    ctx_->cancel_job(rec.job_id);
  }
}

/// Load shedding: the deadline lapsed before the job (re)started — it can no
/// longer meet its SLO, so drop it instead of burning cluster time.
void JobServer::shed_job(JobRecord& rec) {
  const double now = ctx_->cluster().sim().now();
  rec.failed = true;
  rec.outcome = JobOutcome::kShedDeadline;
  settle(rec, now);
  ctx_->event_log().record(engine::Event{
      engine::EventKind::kJobShed, now, rec.submission_id, -1, -1, -1,
      rec.retries, rec.name});
  SAEX_DEBUG("serve: submission {} '{}' shed at deadline {:.3f}s",
             rec.submission_id, rec.name, rec.deadline);
}

void JobServer::requeue_retry(int submission_id) {
  if (retry_wait_.erase(submission_id) == 0) return;  // shed meanwhile
  JobRecord& rec = records_[static_cast<size_t>(submission_id)];
  // A retry re-enters admission like a fresh arrival, but its original
  // admission decision stands — only capacity is re-checked.
  if (static_cast<int>(running_.size()) < options_.max_concurrent_jobs) {
    start_job(submission_id);
  } else if (static_cast<int>(queue_.size()) < options_.max_queued_jobs) {
    queue_.push_back(submission_id);
  } else {
    // No capacity for the retry: the last attempt's failure is final.
    rec.outcome = JobOutcome::kFailed;
    settle(rec, ctx_->cluster().sim().now());
    return;
  }
  allocation_->notify_work();
}

ServeReport JobServer::replay(const std::vector<TraceJob>& trace,
                              const TraceOptions& trace_options) {
  load_trace_inputs(*ctx_, trace_options);
  sim::Simulation& sim = ctx_->cluster().sim();
  for (const TraceJob& job : trace) {
    const TraceJob copy = job;
    sim.schedule_at(job.arrival_time, [this, copy] {
      submit(strfmt::format("{}#{}", copy.workload, copy.id), copy.client,
             copy.pool,
             [copy](engine::SparkContext& ctx) {
               return build_trace_job(ctx, copy);
             },
             copy.deadline);
    });
  }
  return drain();
}

ServeReport JobServer::drain() {
  sim::Simulation& sim = ctx_->cluster().sim();
  sim.run();
  assert(running_.empty() && queue_.empty() && retry_wait_.empty() &&
         "drained simulation with jobs still outstanding");

  ServeReport out =
      build_serve_report(records_, options_.mode, ctx_->scheduler().pools());
  out.executors_granted = allocation_->granted_total();
  out.executors_released = allocation_->released_total();
  out.executors_lost = ctx_->scheduler().dead_executor_count();
  if (health_ != nullptr) {
    out.quarantines = static_cast<int>(health_->quarantines());
    out.probes = static_cast<int>(health_->probes());
    out.reinstatements = static_cast<int>(health_->reinstatements());
  }
  return out;
}

ServeReport build_serve_report(
    std::vector<JobRecord> records, engine::SchedulingMode mode,
    const std::vector<engine::PoolSpec>& pool_specs) {
  ServeReport out;
  out.mode = mode == engine::SchedulingMode::kFair ? "FAIR" : "FIFO";
  out.jobs = std::move(records);
  out.submitted = static_cast<int>(out.jobs.size());

  double first_submit = 0.0, last_finish = 0.0;
  std::vector<double> all_waits;
  std::map<std::string, PoolStats> pools;
  std::map<std::string, std::vector<double>> pool_waits, pool_spans;
  bool first = true;
  for (const JobRecord& rec : out.jobs) {
    switch (rec.admission) {
      case Admission::kRejectedQueueFull: ++out.rejected_queue_full; continue;
      case Admission::kRejectedClientQuota: ++out.rejected_client_quota; continue;
      case Admission::kRejectedDeadlineInfeasible:
        ++out.rejected_deadline;
        continue;
      default: break;
    }
    out.retries += rec.retries;
    if (rec.deadline >= 0.0) ++out.slo_tracked;
    if (rec.outcome == JobOutcome::kShedDeadline) {
      // Shed before (re)starting: never ran, nothing to roll up.
      ++out.shed;
      continue;
    }
    ++out.started;
    if (rec.finish_time < 0.0) continue;
    if (rec.outcome == JobOutcome::kCancelledDeadline) {
      ++out.cancelled;
    } else {
      ++out.finished;
      if (rec.failed) ++out.failed;
      if (rec.deadline >= 0.0 && !rec.failed && rec.finish_time <= rec.deadline) {
        ++out.slo_met;
      }
    }
    if (out.policy.empty()) out.policy = rec.report.policy_name;
    if (first || rec.submit_time < first_submit) first_submit = rec.submit_time;
    if (first || rec.finish_time > last_finish) last_finish = rec.finish_time;
    first = false;

    PoolStats& pool = pools[rec.pool];
    pool.pool = rec.pool;
    ++pool.jobs;
    if (rec.failed) ++pool.failed;
    for (const engine::StageStats& s : rec.report.stages) {
      pool.slot_seconds += s.task_seconds;
    }
    pool_waits[rec.pool].push_back(rec.queue_wait());
    pool_spans[rec.pool].push_back(rec.makespan());
    all_waits.push_back(rec.queue_wait());
    out.makespan_sum += rec.makespan();
  }
  out.total_time = last_finish - first_submit;
  if (!all_waits.empty()) out.queue_wait_p95 = percentile(all_waits, 0.95);

  // Per-pool rollup + Jain fairness over weight-normalized service.
  double share_sum = 0.0, share_sq = 0.0;
  for (auto& [name, pool] : pools) {
    for (const engine::PoolSpec& spec : pool_specs) {
      if (spec.name == name) {
        pool.weight = spec.weight;
        pool.min_share = spec.min_share;
      }
    }
    const auto& waits = pool_waits[name];
    const auto& spans = pool_spans[name];
    for (const double w : waits) pool.queue_wait_mean += w;
    pool.queue_wait_mean /= static_cast<double>(waits.size());
    pool.queue_wait_p95 = percentile(waits, 0.95);
    for (const double s : spans) pool.makespan_mean += s;
    pool.makespan_mean /= static_cast<double>(spans.size());
    pool.makespan_p95 = percentile(spans, 0.95);

    const double share = pool.slot_seconds / static_cast<double>(pool.weight);
    share_sum += share;
    share_sq += share * share;
    out.pools.push_back(pool);
  }
  if (out.pools.size() > 1 && share_sq > 0.0) {
    out.fairness_index = share_sum * share_sum /
                         (static_cast<double>(out.pools.size()) * share_sq);
  }
  return out;
}

const PoolStats* ServeReport::pool(const std::string& name) const noexcept {
  for (const PoolStats& p : pools) {
    if (p.pool == name) return &p;
  }
  return nullptr;
}

std::string ServeReport::render() const {
  std::ostringstream out;
  out << strfmt::format(
      "mode {}  policy {}  jobs: {} submitted, {} started, {} finished"
      " ({} failed), {} rejected (queue-full {}, client-quota {})\n",
      mode, policy, submitted, started, finished, failed,
      rejected_queue_full + rejected_client_quota, rejected_queue_full,
      rejected_client_quota);
  out << strfmt::format(
      "total {}  aggregate makespan {}  queue-wait p95 {}  fairness {:.3f}",
      format_duration(total_time), format_duration(makespan_sum),
      format_duration(queue_wait_p95), fairness_index);
  if (executors_granted + executors_released > 0) {
    out << strfmt::format("  dynalloc: +{} / -{} executors", executors_granted,
                          executors_released);
  }
  if (executors_lost > 0) {
    out << strfmt::format("  faults: {} executor(s) lost", executors_lost);
  }
  out << "\n";
  // Only rendered when the resilience machinery did anything, so reports of
  // runs without deadlines/retries/quarantine are byte-identical to before.
  if (slo_tracked + shed + cancelled + rejected_deadline + quarantines > 0 ||
      retries > 0) {
    out << strfmt::format(
        "resilience: SLO {}/{} met  {} shed, {} cancelled, {} retries,"
        " {} deadline-rejected  quarantine: {} opened, {} probed,"
        " {} reinstated\n",
        slo_met, slo_tracked, shed, cancelled, retries, rejected_deadline,
        quarantines, probes, reinstatements);
  }
  out << "\n";

  TextTable table({"pool", "w", "minShare", "jobs", "qwait mean", "qwait p95",
                   "makespan mean", "makespan p95", "slot-secs"});
  for (const PoolStats& p : pools) {
    table.add_row({p.pool, strfmt::format("{}", p.weight),
                   strfmt::format("{}", p.min_share),
                   strfmt::format("{}", p.jobs),
                   format_duration(p.queue_wait_mean),
                   format_duration(p.queue_wait_p95),
                   format_duration(p.makespan_mean),
                   format_duration(p.makespan_p95),
                   strfmt::format("{:.1f}", p.slot_seconds)});
  }
  out << table.render();
  return out.str();
}

std::string ServeReport::render_jobs() const {
  TextTable table({"id", "client", "pool", "job", "admission", "qwait",
                   "makespan", "outcome"});
  for (const JobRecord& rec : jobs) {
    const bool ran = rec.finish_time >= 0.0;
    std::string outcome;
    if (!admitted(rec.admission)) {
      outcome = "rejected";
    } else if (!ran) {
      outcome = "-";
    } else {
      outcome = std::string(outcome_name(rec.outcome));
      if (rec.retries > 0) {
        outcome += strfmt::format(" (r{})", rec.retries);
      }
    }
    table.add_row({strfmt::format("{}", rec.submission_id), rec.client,
                   rec.pool, rec.name, std::string(admission_name(rec.admission)),
                   ran ? format_duration(rec.queue_wait()) : "-",
                   ran ? format_duration(rec.makespan()) : "-",
                   std::move(outcome)});
  }
  return table.render();
}

}  // namespace saex::serve
