#include "pool/dynamic_thread_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>

namespace saex::pool {

using Clock = std::chrono::steady_clock;

namespace {
double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

DynamicThreadPool::DynamicThreadPool(int initial_size) {
  std::unique_lock lock(mutex_);
  target_ = std::max(initial_size, 1);
  spawn_locked(lock, target_);
}

DynamicThreadPool::~DynamicThreadPool() { shutdown(); }

void DynamicThreadPool::spawn_locked(std::unique_lock<std::mutex>& lock,
                                     int count) {
  assert(lock.owns_lock());
  for (int i = 0; i < count; ++i) {
    const uint64_t id = next_worker_id_++;
    ++live_;
    workers_.emplace(id, std::thread([this, id] { worker_loop(id); }));
  }
}

void DynamicThreadPool::reap_exited_locked() {
  for (const uint64_t id : exited_) {
    const auto it = workers_.find(id);
    if (it != workers_.end()) {
      it->second.join();
      workers_.erase(it);
    }
  }
  exited_.clear();
}

void DynamicThreadPool::worker_loop(uint64_t worker_id) {
  std::unique_lock lock(mutex_);
  while (true) {
    work_cv_.wait(lock, [this] {
      return !queue_.empty() || shutting_down_ || live_ > target_;
    });

    // Excess workers exit when idle; remaining workers still own the queue.
    if (live_ > target_ && !shutting_down_) {
      break;
    }
    if (queue_.empty()) {
      if (shutting_down_) break;
      continue;
    }

    QueuedTask task = std::move(queue_.front());
    queue_.pop_front();
    ++busy_;
    const auto started = Clock::now();
    stats_.total_queue_wait_seconds += seconds_between(task.enqueued_at, started);

    lock.unlock();
    task.fn();  // exceptions from tasks are a programming error; let them fly
    lock.lock();

    stats_.total_busy_seconds += seconds_between(started, Clock::now());
    ++stats_.completed;
    --busy_;
    if (queue_.empty() && busy_ == 0) idle_cv_.notify_all();
  }

  --live_;
  exited_.push_back(worker_id);
  // A shrink below the busy count can leave queued work with no awake
  // worker; hand the baton to a peer before exiting.
  work_cv_.notify_one();
  idle_cv_.notify_all();
}

void DynamicThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    if (shutting_down_) throw std::runtime_error("pool is shut down");
    queue_.push_back(QueuedTask{std::move(task), Clock::now()});
    ++stats_.submitted;
  }
  work_cv_.notify_one();
}

void DynamicThreadPool::set_pool_size(int target) {
  std::unique_lock lock(mutex_);
  if (shutting_down_) return;
  target = std::max(target, 1);
  const int old_target = target_;
  target_ = target;
  reap_exited_locked();
  if (target > live_) {
    spawn_locked(lock, target - live_);
  } else if (target < old_target) {
    lock.unlock();
    work_cv_.notify_all();  // wake idle workers so excess ones exit
    return;
  }
}

int DynamicThreadPool::pool_size() const {
  const std::lock_guard lock(mutex_);
  return target_;
}

int DynamicThreadPool::live_threads() const {
  const std::lock_guard lock(mutex_);
  return live_;
}

size_t DynamicThreadPool::queued() const {
  const std::lock_guard lock(mutex_);
  return queue_.size();
}

void DynamicThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && busy_ == 0; });
}

void DynamicThreadPool::shutdown() {
  std::unique_lock lock(mutex_);
  if (!shutting_down_) {
    shutting_down_ = true;
    work_cv_.notify_all();
  }
  idle_cv_.wait(lock, [this] { return live_ == 0; });
  reap_exited_locked();
  // Join any stragglers that exited before registering (none expected, but
  // keep the map empty for a clean destructor).
  for (auto& [id, thread] : workers_) {
    if (thread.joinable()) thread.join();
  }
  workers_.clear();
}

DynamicThreadPool::Stats DynamicThreadPool::stats() const {
  const std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace saex::pool
