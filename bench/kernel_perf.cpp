// kernel_perf — discrete-event kernel throughput bench. Seeds the perf
// trajectory: `--json BENCH_kernel.json` emits the machine-readable record
// that future PRs extend (see docs/PERFORMANCE.md).
//
// Scenarios:
//   fire_only      drain N pre-scheduled events (pop + dispatch cost only)
//   schedule_fire  K concurrent self-rescheduling chains (push + pop + the
//                  callback round trip, the engine's dominant pattern)
//   cancel_churn   hw::Disk processor-sharing churn across a 16-disk fleet:
//                  every disk wake-up (a departure) and every resubmit due
//                  before it moves the disk's one pending wake-up in place,
//                  and every completion cancels a watchdog — the kernel's
//                  reschedule and cancel paths
//   terasort_e2e   full Terasort run under the default policy (wall seconds
//                  for the whole engine, not just the kernel)
//
// Usage: kernel_perf [--smoke] [--json <path>]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hw/disk.h"
#include "sim/simulation.h"

namespace {

using namespace saexbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Deterministic 64-bit LCG — libc rand() would make runs machine-dependent.
struct Lcg {
  uint64_t s;
  uint64_t next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 11;
  }
  double uniform() { return static_cast<double>(next() % (1u << 30)) / (1u << 30); }
};

void report_row(BenchJson& out, const std::string& name, double wall,
                uint64_t events) {
  out.record(name, wall, events);
  std::printf("%-14s %10.3fs  %12llu events  %12.0f events/s\n", name.c_str(),
              wall, static_cast<unsigned long long>(events),
              wall > 0 ? static_cast<double>(events) / wall : 0.0);
}

// N events pre-scheduled at pseudo-random times; measures pop + dispatch.
// The callback captures 32 bytes — the size class of the engine's real
// completion lambdas (this + ids + sizes).
void bench_fire_only(uint64_t n, BenchJson& out) {
  sim::Simulation s;
  Lcg rng{12345};
  uint64_t sink = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const double t = rng.uniform() * 1000.0;
    const uint64_t a = rng.next();
    uint64_t* p = &sink;
    s.schedule_at(t, [p, a, i, t] {
      *p += a ^ i ^ static_cast<uint64_t>(t);
    });
  }
  const auto t0 = Clock::now();
  s.run();
  report_row(out, "fire_only", seconds_since(t0), s.processed());
  if (sink == 0xdead) std::puts("!");  // keep `sink` observable
}

// Self-rescheduling 32-byte functor: each firing schedules the chain's next
// event, so push and pop costs are measured together at a steady queue depth
// of `chains`.
struct Chain {
  sim::Simulation* sim;
  uint64_t left;
  uint64_t* sink;
  uint64_t salt;
  void operator()() {
    *sink += salt;
    if (--left == 0) return;
    salt = salt * 6364136223846793005ull + 1442695040888963407ull;
    sim->schedule_after(1e-6 + static_cast<double>(salt >> 44) * 1e-9, *this);
  }
};

void bench_schedule_fire(uint64_t n, BenchJson& out) {
  sim::Simulation s;
  uint64_t sink = 0;
  const uint64_t chains = 256;
  const auto t0 = Clock::now();
  for (uint64_t c = 0; c < chains; ++c) {
    Chain chain{&s, n / chains, &sink, c * 2654435761ull + 1};
    s.schedule_after(static_cast<double>(c) * 1e-7, chain);
  }
  s.run();
  report_row(out, "schedule_fire", seconds_since(t0), s.processed());
}

// A 16-disk fleet with `streams` concurrent transfers per disk, each stream
// resubmitting on completion for `rounds` rounds. A submit waits out the
// setup latency in the disk's arrival FIFO, and the disk projects its next
// completion through the pending arrivals; every wake-up of the disk (a
// departure) runs the pool's pass, and it and every submit due before the
// wake-up move the disk's one pending wake-up in place
// (Simulation::reschedule_at), and every transfer arms a +30s watchdog that
// completion cancels — the
// guard pattern real schedulers use. The cancel erases the watchdog's key
// from the middle of a heap holding thousands of outstanding deadlines: this
// is the cancellation-heavy shape of real I/O-bound runs.
void bench_cancel_churn(int streams, int rounds, BenchJson& out) {
  sim::Simulation s;
  const int num_disks = 16;
  std::vector<std::unique_ptr<hw::Disk>> disks;
  for (int d = 0; d < num_disks; ++d) {
    disks.push_back(std::make_unique<hw::Disk>(
        s, hw::DiskParams::hdd(), strfmt::format("disk{}", d)));
  }

  struct Stream {
    hw::Disk* disk;
    int left;
    Bytes bytes;
    bool write;
  };
  std::vector<Stream> all;
  for (int d = 0; d < num_disks; ++d) {
    for (int i = 0; i < streams; ++i) {
      // Staggered sizes desynchronize completions so cancels interleave.
      all.push_back(Stream{disks[static_cast<size_t>(d)].get(), rounds,
                           static_cast<Bytes>(256 * 1024 + i * 8192),
                           (i % 3) == 0});
    }
  }

  uint64_t completions = 0;
  uint64_t timeouts = 0;
  std::function<void(size_t)> kick = [&](size_t idx) {
    Stream& st = all[idx];
    if (st.left-- <= 0) return;
    const sim::EventId guard =
        s.schedule_after(30.0, [&timeouts] { ++timeouts; });
    st.disk->submit(st.bytes, st.write, [&s, &kick, &completions, idx, guard] {
      ++completions;
      s.cancel(guard);
      kick(idx);
    });
  };

  const auto t0 = Clock::now();
  for (size_t i = 0; i < all.size(); ++i) kick(i);
  s.run();
  report_row(out, "cancel_churn", seconds_since(t0), s.processed());
  if (completions == 0 || timeouts != 0) {
    std::printf("cancel_churn: unexpected %llu completions / %llu timeouts\n",
                static_cast<unsigned long long>(completions),
                static_cast<unsigned long long>(timeouts));
  }
}

void bench_terasort(bool smoke, BenchJson& out) {
  const workloads::WorkloadSpec spec =
      smoke ? workloads::terasort(gib(8)) : workloads::terasort();
  RunOptions opt;
  opt.policy = "default";
  const auto t0 = Clock::now();
  const engine::JobReport r = run_workload(spec, opt);
  report_row(out, "terasort_e2e", seconds_since(t0), r.events_processed);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = has_flag(argc, argv, "--smoke");
  const std::string json_path = json_path_arg(argc, argv);

  print_title("kernel_perf",
              "event-kernel throughput (fire, schedule+fire, cancel churn, "
              "end-to-end)",
              "events/sec must not regress vs the recorded BENCH_kernel.json "
              "trajectory");

  BenchJson out;
  bench_fire_only(smoke ? 200'000 : 4'000'000, out);
  bench_schedule_fire(smoke ? 200'000 : 4'000'000, out);
  bench_cancel_churn(/*streams=*/32, /*rounds=*/smoke ? 6 : 40, out);
  bench_terasort(smoke, out);

  if (!json_path.empty()) {
    const bool ok = out.write("kernel_perf", json_path);
    std::printf("%s %s\n", ok ? "wrote" : "FAILED to write", json_path.c_str());
    if (!ok) return 1;
  }
  return 0;
}
