#include "engine/executor_runtime.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <stdexcept>

#include "common/format.h"
#include "common/log.h"

namespace saex::engine {

void CacheRegistry::init(int cache_id, int partitions) {
  const auto [it, inserted] = parts_.try_emplace(cache_id);
  if (inserted) {
    it->second.resize(static_cast<size_t>(partitions));
    return;
  }
  // Re-registration of a known cache is a no-op; silently resizing here used
  // to truncate (or zero-extend) live partition state.
  if (static_cast<int>(it->second.size()) != partitions) {
    throw std::logic_error(strfmt::format(
        "CacheRegistry::init({}, {}): cache already registered with {} "
        "partitions",
        cache_id, partitions, it->second.size()));
  }
}

// ---------------------------------------------------------------------------
// Task execution state machine.
//
// A task pumps fixed-size chunks through read → compute → write, with one
// outstanding read and one outstanding write overlapping the computation —
// the effect of OS readahead and write-behind in a real executor.
//
// ε (epoll wait) accounts the full issue→completion latency of every I/O
// request, which is what strace's epoll_wait aggregation measures in the
// paper (§5.1): the NIO threads wait out the whole request regardless of
// whether the compute thread overlapped it. Under light load ε per byte is
// the device's unloaded latency; past saturation shared-queue latencies blow
// up — the signal the congestion index is built from.
// ---------------------------------------------------------------------------

struct ExecutorRuntime::TaskRun {
  enum class SegmentKind {
    kMemory,     // cached partition in local memory: instant
    kLocalDisk,  // read from this node's disk
    kRemote,     // remote disk read + network transfer
    kNetOnly,    // network transfer only (remote cached memory)
  };
  struct Segment {
    SegmentKind kind;
    int src_node;
    Bytes bytes;
    // >= 0 for shuffle fetches: eligible for seeded fetch drops.
    int shuffle_id = -1;
    // Data held by the source *executor process* (shuffle blocks, cached
    // partitions) — gone when that executor dies. DFS blocks live in the
    // datanode and survive executor kills.
    bool from_executor = false;
  };
  enum class Waiting { kNone, kRead, kWrite, kWriteDrain };

  ExecutorRuntime* exec = nullptr;
  TaskSpec spec;
  TaskDone on_done;

  // Input plan.
  std::vector<Segment> segments;
  size_t seg_idx = 0;
  Bytes seg_left = 0;  // remaining bytes of segments[seg_idx]

  // Stage-derived rates.
  double cpu_per_byte = 0.0;
  double out_per_byte = 0.0;
  double cache_per_byte = 0.0;

  // Sink description.
  StageSink sink = StageSink::kDriver;
  int out_shuffle_id = -1;
  std::vector<int> out_replica_nodes;  // DFS replicas beyond the local one

  // Cache output bookkeeping.
  int cache_out_id = -1;
  Bytes cache_mem_written = 0;
  Bytes cache_spilled = 0;

  // Read channel: up to fetch_cap outstanding reads (shuffle fetches mirror
  // Spark's spark.reducer.maxSizeInFlight parallel fetching; sequential DFS
  // scans keep one outstanding request, i.e. plain readahead).
  int fetch_cap = 1;
  int reads_outstanding = 0;
  int compute_outstanding = 0;  // CPU grants whose callback has not fired
  std::deque<Bytes> ready_chunks;

  // Write channel.
  bool write_in_flight = false;
  Bytes pending_write_local = 0;
  Bytes pending_write_replicated = 0;
  Bytes pending_write_readback = 0;

  // Reduce-side sort spill (shuffle-source tasks only).
  double spill_per_byte = 0.0;
  double spill_acc = 0.0;
  // Device work multiplier for the consumed shuffle's on-disk data.
  double scatter = 1.0;

  // Consumer state.
  Waiting waiting = Waiting::kNone;
  double out_acc = 0.0;
  double cache_acc = 0.0;
  Bytes shuffle_written = 0;

  // Fault injection: the attempt dies after consuming fail_after bytes.
  bool will_fail = false;
  Bytes fail_after = 0;
  Bytes consumed = 0;
  bool aborting = false;
  // How the abort will be reported (cancel/injected failures keep the
  // default; executor kills and fetch failures override it).
  TaskFailure fail_kind = TaskFailure::kInjected;
  int fail_fetch_src = -1;
  int fail_fetch_sid = -1;

  sim::Simulation& sim() { return *exec->env_.sim; }
  double now() { return exec->env_.sim->now(); }

  void account_bytes(Bytes bytes, bool is_write) {
    if (is_write) {
      exec->io_.add_write(bytes);
    } else {
      exec->io_.add_read(bytes);
    }
  }

  void account_latency(double issued_at) {
    exec->io_.add_blocked(now() - issued_at);
  }

  void begin_stall(Waiting w) { waiting = w; }
  void end_stall() { waiting = Waiting::kNone; }

  void start() {
    issue_reads();
    consume();
  }

  // ---- read channel ----

  bool reads_remaining() {
    while (seg_idx < segments.size() && seg_left == 0) {
      if (segments[seg_idx].bytes > 0) break;
      ++seg_idx;
    }
    if (seg_idx < segments.size() && seg_left == 0) {
      seg_left = segments[seg_idx].bytes;
    }
    return seg_idx < segments.size() && seg_left > 0;
  }

  void issue_reads() {
    while (!aborting && reads_outstanding < fetch_cap && reads_remaining()) {
      issue_one_read();
    }
  }

  void issue_one_read() {
    const Segment& seg = segments[seg_idx];
    // Fault checks before any bytes move: a dead source executor cannot
    // serve its shuffle/cache data, and a transient seeded drop kills the
    // fetch too. Either way the attempt aborts and reports kFetchFailed so
    // the driver can tell data loss (lineage recovery) from a blip (retry).
    if (seg.from_executor && exec->env_.fault != nullptr && !aborting) {
      fault::FaultState& fs = *exec->env_.fault;
      const bool source_dead = !fs.node_alive(seg.src_node);
      // Transient drops are per fetched block (one roll per segment, on its
      // first chunk), mirroring Spark's per-block fetch failures — rolling
      // per chunk would doom every large fetch at any non-zero probability.
      const bool dropped = !source_dead && seg.shuffle_id >= 0 &&
                           seg_left == seg.bytes &&
                           fs.drop_fetch(seg.src_node, exec->node_id_);
      if (source_dead || dropped) {
        fail_fetch(seg.src_node, seg.shuffle_id);
        return;
      }
    }

    const Bytes chunk = std::min(exec->env_.io_chunk, seg_left);
    seg_left -= chunk;
    if (seg_left == 0) ++seg_idx;
    ++reads_outstanding;
    const double issued = now();

    switch (seg.kind) {
      case SegmentKind::kMemory:
        sim().schedule_after(0.0, [this, chunk] { on_read_done(chunk, -1.0); });
        return;
      case SegmentKind::kLocalDisk:
        exec->node().disk().submit(
            chunk, false,
            [this, chunk, issued] { on_read_done(chunk, issued); }, scatter);
        return;
      case SegmentKind::kRemote: {
        // Remote disk read (contending with the source node's own tasks),
        // then the transfer across the network. The fetch connection is open
        // for the whole request — server-side disk time included — which is
        // what piles up on a downlink during wide shuffles (incast).
        const int src = seg.src_node;
        hw::Network& net = exec->env_.cluster->network();
        net.register_fetch(src, exec->node_id_);
        exec->env_.cluster->node(src).disk().submit(
            chunk, false,
            [this, chunk, src, issued, &net] {
              net.transfer(src, exec->node_id_, chunk,
                           [this, chunk, issued, src, &net] {
                             net.unregister_fetch(src, exec->node_id_);
                             on_read_done(chunk, issued);
                           });
            },
            scatter);
        return;
      }
      case SegmentKind::kNetOnly:
        exec->env_.cluster->network().transfer(
            seg.src_node, exec->node_id_, chunk,
            [this, chunk, issued] { on_read_done(chunk, issued); });
        return;
    }
  }

  // Aborts the attempt on a failed fetch from `src` (shuffle_id -1: cached
  // data). The failure surfaces after the fetch round-trip latency, riding
  // the read channel so the normal drain logic applies.
  void fail_fetch(int src, int shuffle_id) {
    hw::Network& net = exec->env_.cluster->network();
    net.record_dropped_fetch();
    fail_kind = TaskFailure::kFetchFailed;
    fail_fetch_src = src;
    fail_fetch_sid = shuffle_id;
    aborting = true;
    ++reads_outstanding;
    sim().schedule_after(net.params().latency, [this] {
      --reads_outstanding;
      maybe_finish_abort();
    });
  }

  void on_read_done(Bytes chunk, double issued_at) {
    --reads_outstanding;
    ready_chunks.push_back(chunk);
    if (issued_at >= 0.0) {  // memory reads cost no I/O wait and no bytes
      account_bytes(chunk, false);
      account_latency(issued_at);
    }
    if (aborting) {
      maybe_finish_abort();
      return;
    }
    if (waiting == Waiting::kRead) {
      end_stall();
      consume();
    }
  }

  // A failing attempt stops consuming but must drain its in-flight I/O and
  // CPU grants before it can be destroyed (callbacks hold pointers into
  // this object).
  void maybe_finish_abort() {
    if (reads_outstanding == 0 && compute_outstanding == 0 &&
        !write_in_flight) {
      TaskOutcome outcome;
      outcome.success = false;
      outcome.failure = fail_kind;
      outcome.fetch_src = fail_fetch_src;
      outcome.fetch_shuffle = fail_fetch_sid;
      exec->finish_task(this, outcome);
    }
  }

  // ---- consumer ----

  void consume() {
    if (aborting) {
      maybe_finish_abort();
      return;
    }
    if (!ready_chunks.empty()) {
      const Bytes chunk = ready_chunks.front();
      ready_chunks.pop_front();
      consumed += chunk;
      if (will_fail && consumed >= fail_after) {
        aborting = true;
        maybe_finish_abort();
        return;
      }
      issue_reads();  // keep the fetch pipeline full while computing
      const double cpu = cpu_per_byte * static_cast<double>(chunk);
      if (cpu > 0.0) {
        ++compute_outstanding;
        exec->node().cpu().execute(cpu, [this, chunk] {
          --compute_outstanding;
          on_compute_done(chunk);
        });
      } else {
        on_compute_done(chunk);
      }
      return;
    }
    if (reads_outstanding > 0) {
      begin_stall(Waiting::kRead);
      return;
    }
    // Input fully consumed: drain the write channel, then finish.
    if (write_in_flight) {
      begin_stall(Waiting::kWriteDrain);
      return;
    }
    flush_and_finish();
  }

  void on_compute_done(Bytes chunk) {
    if (aborting) {
      maybe_finish_abort();
      return;
    }
    Bytes local = 0;       // bytes written to the local disk
    Bytes replicated = 0;  // subset forwarded to DFS replicas
    Bytes readback = 0;    // spill bytes re-read during the merge

    if (spill_per_byte > 0.0) {
      spill_acc += spill_per_byte * static_cast<double>(chunk);
      const Bytes spill_chunk = static_cast<Bytes>(spill_acc);
      spill_acc -= static_cast<double>(spill_chunk);
      local += spill_chunk;
      readback = spill_chunk;
    }

    if (cache_out_id >= 0) {
      cache_acc += cache_per_byte * static_cast<double>(chunk);
      const Bytes cache_chunk = static_cast<Bytes>(cache_acc);
      cache_acc -= static_cast<double>(cache_chunk);
      if (cache_chunk > 0) {
        const Bytes granted =
            exec->reserve_storage(cache_out_id, spec.partition, cache_chunk);
        cache_mem_written += granted;
        const Bytes spill = cache_chunk - granted;
        cache_spilled += spill;
        local += spill;  // spill shares the write channel
      }
    }

    if (sink != StageSink::kDriver) {
      out_acc += out_per_byte * static_cast<double>(chunk);
      const Bytes out_chunk = static_cast<Bytes>(out_acc);
      out_acc -= static_cast<double>(out_chunk);
      local += out_chunk;
      if (sink == StageSink::kShuffleWrite) shuffle_written += out_chunk;
      if (sink == StageSink::kDfsWrite) replicated = out_chunk;
    }

    if (local == 0) {
      consume();
      return;
    }
    if (write_in_flight) {
      pending_write_local = local;
      pending_write_replicated = replicated;
      pending_write_readback = readback;
      begin_stall(Waiting::kWrite);
      return;
    }
    issue_write(local, replicated, readback);
    consume();
  }

  // ---- write channel ----

  void issue_write(Bytes local, Bytes replicated, Bytes readback) {
    write_in_flight = true;
    const double issued = now();
    // Spill writes inherit the shuffle's scattered layout; ordinary output
    // writes are large sequential runs (factor folded below is the bytes-
    // weighted blend when a chunk carries both).
    const double wf = readback > 0 ? scatter : 1.0;
    exec->node().disk().submit(
        local, true,
        [this, local, replicated, readback, issued] {
          account_bytes(local, true);
          account_latency(issued);
          if (readback > 0) {
            // Merge pass: the spilled run is read back from the local disk.
            const double rb_issued = now();
            exec->node().disk().submit(
                readback, false,
                [this, replicated, readback, rb_issued] {
                  account_bytes(readback, false);
                  account_latency(rb_issued);
                  replicate(replicated, 0);
                },
                scatter);
          } else {
            replicate(replicated, 0);
          }
        },
        wf);
  }

  // DFS replication pipeline: forward the chunk to each extra replica
  // (network + remote disk write), sequentially, as HDFS does.
  void replicate(Bytes bytes, size_t replica_idx) {
    if (bytes == 0 || replica_idx >= out_replica_nodes.size()) {
      on_write_done();
      return;
    }
    const int target = out_replica_nodes[replica_idx];
    exec->env_.cluster->network().transfer(
        exec->node_id_, target, bytes, [this, bytes, replica_idx, target] {
          exec->env_.cluster->node(target).disk().submit(
              bytes, true, [this, bytes, replica_idx] {
                account_bytes(bytes, true);
                replicate(bytes, replica_idx + 1);
              });
        });
  }

  void on_write_done() {
    write_in_flight = false;
    if (aborting) {
      maybe_finish_abort();
      return;
    }
    if (waiting == Waiting::kWrite) {
      end_stall();
      const Bytes local = pending_write_local;
      const Bytes repl = pending_write_replicated;
      const Bytes rb = pending_write_readback;
      pending_write_local = pending_write_replicated = pending_write_readback = 0;
      issue_write(local, repl, rb);
      consume();
    } else if (waiting == Waiting::kWriteDrain) {
      end_stall();
      flush_and_finish();
    }
  }

  void flush_and_finish() {
    if (sink == StageSink::kShuffleWrite && out_shuffle_id >= 0) {
      // First commit wins: a losing speculative copy that raced past the
      // driver's cancellation must not double-count the partition's output.
      exec->env_.shuffles->register_map_output(
          out_shuffle_id, exec->node_id_, spec.partition, shuffle_written);
    }
    if (cache_out_id >= 0) {
      auto& part = exec->env_.caches->partition(cache_out_id, spec.partition);
      part.node = exec->node_id_;
      part.mem_bytes = cache_mem_written;
      part.spilled_bytes = cache_spilled;
      // Unpin: the block is now fair game for eviction.
      exec->env_.storage->node(exec->node_id_)
          .commit(storage::BlockId{cache_out_id, spec.partition});
    }
    exec->finish_task(this, TaskOutcome{});
  }
};

// ---------------------------------------------------------------------------
// ExecutorRuntime
// ---------------------------------------------------------------------------

namespace {
uint64_t cluster_seed_of(const EngineEnv& env, int node_id) {
  return env.cluster->spec().seed ^ (0x9e3779b97f4a7c15ULL * (node_id + 1));
}
}  // namespace

ExecutorRuntime::ExecutorRuntime(EngineEnv env, int node_id, int virtual_cores)
    : env_(env),
      node_id_(node_id),
      virtual_cores_(virtual_cores),
      pool_target_(virtual_cores),
      failure_rng_(Rng(cluster_seed_of(env, node_id)).fork("task-failures")) {
  assert(env_.sim && env_.cluster && env_.dfs && env_.shuffles &&
         env_.caches && env_.storage);
}

ExecutorRuntime::~ExecutorRuntime() = default;

void ExecutorRuntime::set_pool_size(int threads) {
  pool_target_ = std::max(1, threads);
  if (env_.event_log != nullptr) {
    env_.event_log->record(Event{EventKind::kPoolResize, env_.sim->now(), -1,
                                 -1, -1, node_id_, pool_target_, {}});
  }
}

adaptive::IoSample ExecutorRuntime::sample() {
  const metrics::IoCounters& c = io_.snapshot();
  const double now = env_.sim->now();
  const double util =
      env_.cluster->node(node_id_).disk().busy_tracker().utilization(
          std::max(0.0, now - hw::Disk::kUtilWindow), std::max(now, 1e-9));
  return adaptive::IoSample{c.blocked_seconds, c.bytes_total(), util,
                            c.tasks_completed};
}

void ExecutorRuntime::set_policy(std::unique_ptr<adaptive::ThreadPolicy> policy) {
  policy_ = std::move(policy);
}

void ExecutorRuntime::cancel_task(int stage_uid, int partition) {
  for (auto& run : active_) {
    if (run->spec.stage_uid == stage_uid && run->spec.partition == partition &&
        !run->aborting) {
      run->aborting = true;
      // If the attempt is parked in a stall, no callback will come; finish
      // the abort directly. Otherwise the pending I/O/compute callback
      // observes `aborting` and drains.
      if (run->waiting != TaskRun::Waiting::kNone) {
        run->maybe_finish_abort();
      }
    }
  }
}

void ExecutorRuntime::kill() {
  if (!alive_) return;
  alive_ = false;
  // The dead process's block manager loses everything it held (cached
  // partitions, spilled runs, shuffle files — the directory-side loss is
  // applied by the driver via ShuffleManager::on_node_lost).
  env_.storage->node(node_id_).drop_all();
  // Snapshot first: a drained abort removes the run from active_.
  std::vector<TaskRun*> runs;
  runs.reserve(active_.size());
  for (auto& run : active_) runs.push_back(run.get());
  for (TaskRun* run : runs) {
    if (run->aborting) {
      // Already dying (cancelled loser / injected failure); keep its kind.
      continue;
    }
    run->aborting = true;
    run->fail_kind = TaskFailure::kExecutorLost;
    if (run->waiting != TaskRun::Waiting::kNone) {
      run->maybe_finish_abort();
    }
  }
}

void ExecutorRuntime::revive() {
  if (alive_) return;
  // kill() already dropped the storage and drained (or is draining) the
  // active runs as kExecutorLost; the replacement process starts empty on
  // the same node id.
  alive_ = true;
}

Bytes ExecutorRuntime::reserve_storage(int cache_id, int partition,
                                       Bytes bytes) {
  storage::BlockManager& bm = env_.storage->node(node_id_);
  const storage::BlockManager::Reservation res =
      bm.reserve(storage::BlockId{cache_id, partition}, bytes);
  // Apply the physical consequences of every eviction the policy decided:
  // update the cluster-wide directory and charge spill writes to this
  // node's disk so they contend with foreground I/O (nobody blocks on
  // them — Spark's block manager also writes evictions on the caller's
  // thread, but our task already accounted its own chunk).
  for (const storage::BlockManager::Evicted& ev : res.evicted) {
    auto& part = env_.caches->partition(ev.id.id, ev.id.partition);
    part.spilled_bytes += ev.mem_bytes;
    part.mem_bytes = 0;
    node().disk().submit(ev.mem_bytes, true,
                         [this, b = ev.mem_bytes] { io_.add_write(b); });
  }
  return res.granted;
}

void ExecutorRuntime::launch(const TaskSpec& spec, const Stage& stage,
                             TaskDone on_done) {
  if (!alive_) {
    // LaunchTask message delivered to a dead executor (the kill raced the
    // message): fail immediately, charged to no one.
    env_.sim->schedule_after(0.0, [spec, on_done = std::move(on_done)] {
      TaskOutcome outcome;
      outcome.success = false;
      outcome.failure = TaskFailure::kExecutorLost;
      if (on_done) on_done(spec, outcome);
    });
    return;
  }
  ++running_;
  if (env_.event_log != nullptr) {
    env_.event_log->record(Event{EventKind::kTaskStart, env_.sim->now(), -1,
                                 stage.ordinal, spec.partition, node_id_,
                                 spec.input_bytes, {}});
  }

  auto run = std::make_unique<TaskRun>();
  TaskRun* raw = run.get();
  run->exec = this;
  run->spec = spec;
  run->on_done = std::move(on_done);
  run->cpu_per_byte =
      spec.input_bytes > 0
          ? spec.cpu_seconds / static_cast<double>(spec.input_bytes)
          : 0.0;
  run->out_per_byte = spec.input_bytes > 0
                          ? static_cast<double>(spec.output_bytes) /
                                static_cast<double>(spec.input_bytes)
                          : 0.0;
  run->cache_per_byte = spec.input_bytes > 0
                            ? static_cast<double>(spec.cache_bytes) /
                                  static_cast<double>(spec.input_bytes)
                            : 0.0;
  run->sink = stage.sink;
  run->out_shuffle_id = stage.out_shuffle_id;
  run->cache_out_id = stage.cache_out_id;
  const double failure_prob =
      env_.fault != nullptr ? env_.fault->task_failure_prob() : 0.0;
  if (failure_prob > 0.0 && failure_rng_.chance(failure_prob)) {
    run->will_fail = true;
    run->fail_after = std::max<Bytes>(
        1, static_cast<Bytes>(static_cast<double>(spec.input_bytes) *
                              failure_rng_.next_double()));
  }
  run->fetch_cap = stage.source == StageSource::kShuffle
                       ? std::max(1, env_.fetch_parallelism)
                       : 1;
  if (stage.source == StageSource::kShuffle) {
    run->spill_per_byte = stage.spill_fraction;
    run->scatter = stage.scatter;
  }

  // Extra DFS replicas: the next (replication-1) nodes after this one.
  if (stage.sink == StageSink::kDfsWrite && stage.out_replication > 1) {
    const int n = env_.cluster->size();
    for (int i = 1; i < std::min(stage.out_replication, n); ++i) {
      run->out_replica_nodes.push_back((node_id_ + i) % n);
    }
  }

  // Build the input plan.
  using Segment = TaskRun::Segment;
  using K = TaskRun::SegmentKind;
  switch (stage.source) {
    case StageSource::kDfs: {
      const dfs::FileInfo* file = env_.dfs->lookup(stage.input_path);
      assert(file != nullptr);
      const dfs::Block& block =
          file->blocks[static_cast<size_t>(spec.partition)];
      const int src = env_.dfs->choose_read_source(block, node_id_);
      run->segments.push_back(Segment{
          src == node_id_ ? K::kLocalDisk : K::kRemote, src, block.size});
      break;
    }
    case StageSource::kShuffle: {
      for (const int sid : stage.in_shuffle_ids) {
        // Local share first, then remote nodes in rotating order so fetch
        // load spreads evenly.
        for (const FetchShare& share : env_.shuffles->fetch_plan(
                 sid, stage.reduce_slice(spec.partition),
                 stage.sliced_partitions(), node_id_)) {
          if (share.src == node_id_) {
            // A slice of freshly written local map output is still in the
            // OS page cache.
            const Bytes cached = static_cast<Bytes>(
                static_cast<double>(share.bytes) *
                env_.shuffle_cache_fraction);
            if (cached > 0) {
              run->segments.push_back(Segment{K::kMemory, share.src, cached});
            }
            run->segments.push_back(
                Segment{K::kLocalDisk, share.src, share.bytes - cached});
          } else {
            // Remote map output is served by the source executor: subject to
            // seeded fetch drops and lost when that executor dies.
            run->segments.push_back(
                Segment{K::kRemote, share.src, share.bytes, sid, true});
          }
        }
      }
      break;
    }
    case StageSource::kCached: {
      const auto& part =
          env_.caches->partition(stage.in_cache_id, spec.partition);
      if (part.node >= 0) {
        // Hit/miss accounting on the owning node: a hit is served entirely
        // from memory, a spilled tail forces a disk read.
        env_.storage->node(part.node).touch(
            storage::BlockId{stage.in_cache_id, spec.partition},
            /*mem_hit=*/part.spilled_bytes == 0);
      }
      if (part.node == node_id_) {
        run->segments.push_back(Segment{K::kMemory, node_id_, part.mem_bytes});
        if (part.spilled_bytes > 0) {
          run->segments.push_back(
              Segment{K::kLocalDisk, node_id_, part.spilled_bytes});
        }
      } else {
        // Cached partitions live in the owning executor's process (block
        // manager): lost when it dies, and there is no lineage to rebuild
        // them here — shuffle_id stays -1 so the driver aborts the job.
        run->segments.push_back(
            Segment{K::kNetOnly, part.node, part.mem_bytes, -1, true});
        if (part.spilled_bytes > 0) {
          run->segments.push_back(
              Segment{K::kRemote, part.node, part.spilled_bytes, -1, true});
        }
      }
      break;
    }
    case StageSource::kNone:
      break;
  }

  active_.push_back(std::move(run));
  // Tasks with no input at all still take a scheduling round-trip.
  if (raw->segments.empty()) {
    env_.sim->schedule_after(0.0, [raw] {
      // A kill can land between launch and this callback.
      if (raw->aborting) {
        raw->maybe_finish_abort();
      } else {
        raw->flush_and_finish();
      }
    });
  } else {
    raw->start();
  }
}

void ExecutorRuntime::finish_task(TaskRun* run, const TaskOutcome& outcome) {
  --running_;
  const double now = env_.sim->now();
  const TaskSpec spec = run->spec;
  TaskDone on_done = std::move(run->on_done);
  if (!outcome.success && run->cache_out_id >= 0) {
    // The attempt never committed its cache block: give its memory back.
    env_.storage->node(node_id_).release(
        storage::BlockId{run->cache_out_id, spec.partition});
  }

  active_.remove_if(
      [run](const std::unique_ptr<TaskRun>& p) { return p.get() == run; });

  if (env_.event_log != nullptr) {
    env_.event_log->record(Event{
        outcome.success ? EventKind::kTaskEnd : EventKind::kTaskFailed, now, -1,
        -1, spec.partition, node_id_, spec.input_bytes, {}});
  }
  if (outcome.success) {
    // Failed attempts neither advance the tuning interval nor count as
    // completions; the driver re-launches them.
    io_.task_completed();
    if (policy_) policy_->on_task_complete(now);
  }
  if (on_done) on_done(spec, outcome);
}

}  // namespace saex::engine
