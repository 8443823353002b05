// The paper's contribution on REAL threads: a pool::DynamicThreadPool
// processes a directory of files while the MAPE-K AdaptiveController —
// the exact same controller the simulated executors use — senses live
// /proc counters and resizes the pool between "stages".
//
//   ./examples/adaptive_file_processor [work_dir] [files] [file_mib]
//
// A RealIoSensor adapts procmon samples to the controller's IoSample:
//   ε  <- cumulative iowait seconds from /proc/stat (the strace-epoll proxy)
//   µ  <- cumulative read+write bytes from /proc/self/io
// The PoolEffector is the thread pool itself. Watch the controller explore
// 2 -> 4 -> 8 ... and freeze after a rollback or at the bound; on a fast
// local disk (or page cache) the stage is CPU-bound and it climbs to c_max.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <vector>

#include "adaptive/controller.h"
#include "common/format.h"
#include "common/units.h"
#include "pool/dynamic_thread_pool.h"
#include "procmon/sampler.h"

namespace {

using namespace saex;

class RealIoSensor final : public adaptive::Sensor {
 public:
  adaptive::IoSample sample() override {
    const procmon::SystemSnapshot snap = sampler_.snapshot();
    adaptive::IoSample s;
    // iowait jiffies -> seconds (USER_HZ is 100 on virtually all systems).
    s.epoll_wait_seconds = static_cast<double>(snap.cpu.iowait) / 100.0;
    if (snap.self_io) {
      s.bytes_total = static_cast<Bytes>(snap.self_io->read_bytes +
                                         snap.self_io->write_bytes +
                                         snap.self_io->rchar / 16);
    }
    if (!snap.disks.empty()) {
      // Instantaneous utilization needs a delta; use the queue depth as a
      // cheap live proxy so the L3 guard has something to look at.
      double util = 0.0;
      for (const auto& [name, d] : snap.disks) {
        util = std::max(util, d.io_in_progress > 0 ? 0.9 : 0.1);
      }
      s.disk_utilization = util;
    }
    s.tasks_completed = completed_->load(std::memory_order_relaxed);
    return s;
  }

  void bind_completions(const std::atomic<uint64_t>* counter) {
    completed_ = counter;
  }

 private:
  procmon::Sampler sampler_;
  const std::atomic<uint64_t>* completed_ = nullptr;
};

class PoolAdapter final : public adaptive::PoolEffector {
 public:
  explicit PoolAdapter(pool::DynamicThreadPool& pool) : pool_(&pool) {}
  void set_pool_size(int threads) override { pool_->set_pool_size(threads); }
  int pool_size() const override { return pool_->pool_size(); }

 private:
  pool::DynamicThreadPool* pool_;
};

uint64_t checksum_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t h = 1469598103934665603ull;
  std::vector<char> buf(1 << 16);
  while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
         in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h ^= static_cast<unsigned char>(buf[static_cast<size_t>(i)]);
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  const fs::path dir = argc > 1 ? argv[1] : "/tmp/saex-demo";
  const int num_files = argc > 2 ? std::atoi(argv[2]) : 48;
  const int file_mib = argc > 3 ? std::atoi(argv[3]) : 4;

  std::printf("preparing %d files of %d MiB under %s ...\n", num_files,
              file_mib, dir.c_str());
  fs::create_directories(dir);
  std::vector<fs::path> files;
  for (int i = 0; i < num_files; ++i) {
    const fs::path p = dir / strfmt::format("part-{:05}", i);
    if (!fs::exists(p) || fs::file_size(p) != static_cast<uintmax_t>(file_mib) * kMiB) {
      std::ofstream out(p, std::ios::binary);
      std::vector<char> block(static_cast<size_t>(kMiB), 'x');
      for (int m = 0; m < file_mib; ++m) {
        block[0] = static_cast<char>(i + m);
        out.write(block.data(), static_cast<std::streamsize>(block.size()));
      }
    }
    files.push_back(p);
  }

  pool::DynamicThreadPool pool(2);
  PoolAdapter effector(pool);
  RealIoSensor sensor;
  std::atomic<uint64_t> completed{0};
  sensor.bind_completions(&completed);

  adaptive::ControllerConfig config;
  config.min_threads = 2;
  config.max_threads =
      std::max(8, static_cast<int>(std::thread::hardware_concurrency()));
  adaptive::AdaptiveController controller(
      config, sensor, effector, [](int threads) {
        std::printf("  [notify] scheduler told the pool is now %d threads\n",
                    threads);
      });

  // The controller is single-threaded by design (in Spark it runs on the
  // executor's event loop); worker threads funnel completions through a lock.
  std::mutex controller_mutex;
  auto wall = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };

  std::printf("stage 'checksum-all-files' starting (c_min=%d, c_max=%d)\n",
              config.min_threads, config.max_threads);
  const double t0 = wall();
  controller.on_stage_start({/*stage_uid=*/1, 0, /*io_tagged=*/true}, t0);

  std::atomic<uint64_t> total_hash{0};
  for (const fs::path& p : files) {
    pool.submit([&, p] {
      total_hash.fetch_xor(checksum_file(p), std::memory_order_relaxed);
      completed.fetch_add(1, std::memory_order_relaxed);
      const std::lock_guard lock(controller_mutex);
      controller.on_task_complete(wall());
    });
  }
  pool.wait_idle();
  controller.on_stage_end(wall());

  std::printf("done in %.2fs; checksum %016llx; pool settled at %d threads\n",
              wall() - t0, static_cast<unsigned long long>(total_hash.load()),
              pool.pool_size());

  const adaptive::StageRecord& record = controller.knowledge();
  std::printf("\ncontroller intervals (MAPE-K knowledge base):\n");
  for (const auto& iv : record.intervals) {
    std::printf("  j=%2d  %5.2fs  eps=%7.3fs  mu=%9s  zeta=%.3g\n",
                iv.threads, iv.duration(), iv.epoll_wait,
                format_rate(iv.throughput()).c_str(), iv.congestion_index());
  }
  std::printf("  settled=%d rolled_back=%s reached_bound=%s\n",
              record.settled_threads, record.rolled_back ? "yes" : "no",
              record.reached_bound ? "yes" : "no");
  return 0;
}
