// A real, dynamically resizable worker thread pool.
//
// This is the C++ counterpart of the JDK ThreadPoolExecutor the paper
// resizes through setMaximumPoolSize() (§5.4): growing spawns workers
// eagerly; shrinking is lazy — running tasks finish, and excess workers
// exit when they next become idle. The adaptive controller drives it
// through the adaptive::PoolEffector interface; see
// examples/adaptive_file_processor.cpp for the live demonstration.
//
// Thread-safety: all public members may be called from any thread,
// including from within tasks (except the destructor).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace saex::pool {

class DynamicThreadPool {
 public:
  struct Stats {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    double total_queue_wait_seconds = 0.0;  // enqueue → start
    double total_busy_seconds = 0.0;        // start → finish
  };

  explicit DynamicThreadPool(int initial_size);

  /// Waits for queued and running tasks to finish, then joins all workers.
  ~DynamicThreadPool();

  DynamicThreadPool(const DynamicThreadPool&) = delete;
  DynamicThreadPool& operator=(const DynamicThreadPool&) = delete;

  /// Enqueues a task. Throws std::runtime_error after shutdown() began.
  void submit(std::function<void()> task);

  /// Enqueues a callable and returns a future for its result.
  template <typename F>
  auto submit_future(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto promise = std::make_shared<std::promise<R>>();
    std::future<R> future = promise->get_future();
    submit([promise, fn = std::forward<F>(fn)]() mutable {
      try {
        if constexpr (std::is_void_v<R>) {
          fn();
          promise->set_value();
        } else {
          promise->set_value(fn());
        }
      } catch (...) {
        promise->set_exception(std::current_exception());
      }
    });
    return future;
  }

  /// The paper's effector: sets the target worker count (clamped to >= 1).
  /// Growth takes effect immediately; shrink happens as workers go idle.
  void set_pool_size(int target);

  /// Current target size.
  int pool_size() const;
  /// Workers currently alive (may exceed the target briefly after a shrink).
  int live_threads() const;
  size_t queued() const;

  /// Blocks until the queue is empty and no worker is busy.
  void wait_idle();

  /// Stops accepting tasks; drains the queue and joins workers.
  void shutdown();

  Stats stats() const;

 private:
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  void worker_loop(uint64_t worker_id);
  void spawn_locked(std::unique_lock<std::mutex>& lock, int count);
  void reap_exited_locked();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait here
  std::condition_variable idle_cv_;   // wait_idle()/shutdown wait here
  std::deque<QueuedTask> queue_;
  std::unordered_map<uint64_t, std::thread> workers_;
  std::vector<uint64_t> exited_;  // ids ready to join
  uint64_t next_worker_id_ = 1;
  int target_ = 0;
  int live_ = 0;
  int busy_ = 0;
  bool shutting_down_ = false;
  Stats stats_;
};

}  // namespace saex::pool
