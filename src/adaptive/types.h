// Shared types of the MAPE-K control loop (paper §5).
//
// The controller is engine-agnostic: it senses through `Sensor` (simulated
// executors and the real procmon-based sampler both implement it) and acts
// through `PoolEffector` (the engine's simulated executor and the real
// pool::DynamicThreadPool both implement it). This mirrors the paper's
// drop-in-replacement claim: the same loop drives any thread pool that can
// report ε/µ and resize itself.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/units.h"

namespace saex::conf {
class Config;
}

namespace saex::adaptive {

/// Monotone accumulators read at interval boundaries; the Monitor diffs two
/// samples to obtain per-interval ε and bytes.
struct IoSample {
  double epoll_wait_seconds = 0.0;  // ε accumulator: time blocked on I/O
  Bytes bytes_total = 0;            // disk + shuffle bytes moved by tasks
  double disk_utilization = 0.0;    // windowed %util (L3 guard, diskutil metric)
  uint64_t tasks_completed = 0;     // completion counter (ε normalization)
};

class Sensor {
 public:
  virtual ~Sensor() = default;
  virtual IoSample sample() = 0;
};

class PoolEffector {
 public:
  virtual ~PoolEffector() = default;
  virtual void set_pool_size(int threads) = 0;
  virtual int pool_size() const = 0;
};

/// Which per-interval metric the analyzer minimizes (paper uses ζ = ε/µ;
/// the alternatives exist for the ablation study motivated in §5.2).
enum class Metric { kZeta, kEpollOnly, kDiskUtil };

/// Paper: interval I_j = j task completions at pool size j. Fixed-time
/// intervals are the ablation alternative: I_j ends at the first completion
/// `kFixedIntervalSeconds` or more after it opened.
enum class IntervalMode { kCompletions, kFixedTime };

/// Interval length of IntervalMode::kFixedTime, in simulated seconds.
inline constexpr double kFixedIntervalSeconds = 5.0;

struct ControllerConfig {
  int min_threads = 2;     // c_min (paper argues 1 never wins)
  int max_threads = 32;    // c_max = virtual cores
  bool rollback = true;      // ablation: keep climbing on worse ζ
  bool descending = false;   // ablation: start at c_max and halve
  Metric metric = Metric::kZeta;
  IntervalMode interval_mode = IntervalMode::kCompletions;

  /// Reads the saex.dynamic.* keys; `virtual_cores` resolves maxThreads=0.
  static ControllerConfig from_config(const conf::Config& config,
                                      int virtual_cores);
};

/// Hook used by the Plan/Execute phases to keep the driver's scheduler view
/// consistent (paper §5.3-5.4: the messaging protocol was extended so the
/// scheduler learns about pool resizes).
using SchedulerNotifier = std::function<void(int new_size)>;

/// The Plan/Execute step of every policy: resizing the pool is trivial, but
/// every effective resize must also reach the driver's scheduler, or its
/// free-core accounting diverges from the executor's capacity (§5.3-5.4).
/// Does nothing when `to == from`.
inline void resize_pool(PoolEffector& pool, const SchedulerNotifier& notifier,
                        int from, int to) {
  if (to == from) return;
  pool.set_pool_size(to);
  if (notifier) notifier(to);
}

/// What a policy may know about the stage that is starting.
struct StageContext {
  int64_t stage_uid = 0;   // globally unique stage id
  int stage_ordinal = 0;   // 0-based position within the job
  bool io_tagged = false;  // structurally reads/writes the DFS (§4)
};

/// Sizes one executor's pool; the engine reports stage boundaries and task
/// completions.
class ThreadPolicy {
 public:
  virtual ~ThreadPolicy() = default;
  virtual void on_stage_start(const StageContext& stage, double now) = 0;
  virtual void on_task_complete(double /*now*/) {}
  virtual void on_stage_end(double /*now*/) {}
  virtual std::string name() const = 0;
};

}  // namespace saex::adaptive
