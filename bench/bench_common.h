// Shared helpers for the figure/table reproduction benches.
//
// Every bench prints (a) what the paper reports, (b) what this reproduction
// measures, and (c) the shape criterion that must hold. Absolute numbers are
// not expected to match (the substrate is a calibrated simulator, not the
// authors' DAS-5 testbed); orderings, rough factors, and crossovers are.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/format.h"
#include "common/table.h"
#include "common/units.h"
#include "engine/context.h"
#include "harness/harness.h"
#include "workloads/workloads.h"

namespace saexbench {

using namespace saex;

inline void print_title(const std::string& id, const std::string& what,
                        const std::string& shape) {
  std::printf("\n==================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("shape criterion: %s\n", shape.c_str());
  std::printf("==================================================================\n");
}

struct RunOptions {
  std::string policy = "default";  // default | static | dynamic
  int static_io_threads = 8;
  int nodes = 4;
  bool ssd = false;
  uint64_t seed = 42;
  // 0 = nodes x 32, matching Spark's default on the testbed.
  int default_parallelism = 0;
  // Per-stage-ordinal thread counts; non-empty selects the BestFit policy.
  std::map<int, int> per_stage_threads;
};

inline engine::JobReport run_workload(const workloads::WorkloadSpec& spec,
                                      const RunOptions& opt) {
  hw::ClusterSpec cs =
      opt.ssd ? hw::ClusterSpec::das5_ssd(opt.nodes) : hw::ClusterSpec::das5(opt.nodes);
  cs.seed = opt.seed;
  hw::Cluster cluster(cs);

  conf::Config config;
  config.set_int("spark.default.parallelism",
                 opt.default_parallelism > 0 ? opt.default_parallelism
                                             : opt.nodes * 32);
  if (!opt.per_stage_threads.empty()) {
    auto map = opt.per_stage_threads;
    return workloads::run_with_policy(
        spec, cluster, std::move(config),
        [map](adaptive::Sensor&, adaptive::PoolEffector& pool,
              adaptive::SchedulerNotifier notifier, int vcores) {
          return std::make_unique<adaptive::FixedPolicy>(
              "per-stage", pool, std::move(notifier),
              [map, vcores](const adaptive::StageContext& stage) {
                const auto it = map.find(stage.stage_ordinal);
                return it == map.end() ? vcores : it->second;
              });
        });
  }
  config.set("saex.executor.policy", opt.policy);
  config.set_int("saex.static.ioThreads", opt.static_io_threads);
  return workloads::run(spec, cluster, std::move(config));
}

/// Runs the static sweep {32,16,8,4,2} and returns reports keyed by thread
/// count (the paper's Fig. 2/4/10 protocol: the user value applies to
/// I/O-tagged stages, other stages keep the default). The five runs are
/// independent simulations, so `jobs` > 1 fans them out over the
/// saex::harness worker pool; results are identical to the serial loop.
inline std::map<int, engine::JobReport> static_sweep(
    const workloads::WorkloadSpec& spec, const RunOptions& base = {},
    int jobs = 1) {
  const std::vector<int> threads = {32, 16, 8, 4, 2};
  std::vector<std::function<engine::JobReport()>> tasks;
  tasks.reserve(threads.size());
  for (const int t : threads) {
    RunOptions opt = base;
    opt.policy = "static";
    opt.static_io_threads = t;
    tasks.push_back([spec, opt] { return run_workload(spec, opt); });
  }
  std::vector<engine::JobReport> reports =
      harness::run_ordered(std::move(tasks), jobs);
  std::map<int, engine::JobReport> out;
  for (size_t i = 0; i < threads.size(); ++i) {
    out.emplace(threads[i], std::move(reports[i]));
  }
  return out;
}

/// Derives the paper's "static BestFit": for each I/O-tagged stage the
/// thread count whose sweep run finished that stage fastest; non-tagged
/// stages keep the default (the static solution cannot touch them).
inline std::map<int, int> best_fit_from_sweep(
    const std::map<int, engine::JobReport>& sweep) {
  std::map<int, int> best;
  const engine::JobReport& ref = sweep.begin()->second;
  for (size_t i = 0; i < ref.stages.size(); ++i) {
    if (!ref.stages[i].io_tagged) continue;
    double best_time = 1e300;
    int best_threads = 32;
    for (const auto& [threads, report] : sweep) {
      const double d = report.stages[i].duration();
      if (d < best_time) {
        best_time = d;
        best_threads = threads;
      }
    }
    best[static_cast<int>(i)] = best_threads;
  }
  return best;
}

// --- machine-readable benchmark output (--json <path>) ----------------------
//
// Benches that track the perf trajectory collect (name, wall seconds, events
// processed, events/sec) rows and dump them as a BENCH_*.json file. Keep the
// schema tiny and append-only so future PRs can extend it without breaking
// existing consumers.

class BenchJson {
 public:
  void record(std::string name, double wall_seconds, uint64_t events) {
    rows_.push_back(Row{std::move(name), wall_seconds, events,
                        wall_seconds > 0.0
                            ? static_cast<double>(events) / wall_seconds
                            : 0.0,
                        {}});
  }

  /// Attaches an extra named metric to an already-recorded row (e.g. a
  /// simulated makespan, which unlike wall seconds is deterministic).
  /// No-op when the row does not exist.
  void set_metric(const std::string& row_name, std::string key, double value) {
    for (Row& r : rows_) {
      if (r.name == row_name) {
        r.extra.emplace_back(std::move(key), value);
        return;
      }
    }
  }

  /// Declares that metric(numerator_row) / metric(denominator_row) must be
  /// >= min. Evaluated by tools/check_bench.py against the rows of the SAME
  /// file the guard is written into.
  void guard_min_ratio(std::string metric, std::string numerator_row,
                       std::string denominator_row, double min) {
    guards_.push_back(Guard{"min_ratio", std::move(metric),
                            std::move(numerator_row),
                            std::move(denominator_row), min});
  }

  /// Declares that metric(row) must be >= min.
  void guard_min_value(std::string metric, std::string row, double min) {
    guards_.push_back(Guard{"min_value", std::move(metric), std::move(row),
                            "", min});
  }

  bool empty() const noexcept { return rows_.empty(); }

  /// Writes {"bench": <bench>, "benchmarks": [...], "guards": [...]} to
  /// `path`. The guards array is omitted when no guard was declared, so the
  /// schema stays append-only for existing consumers.
  bool write(const std::string& bench, const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"benchmarks\": [\n",
                 bench.c_str());
    for (size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"wall_seconds\": %.6f, "
                   "\"events\": %llu, \"events_per_sec\": %.1f",
                   r.name.c_str(), r.wall_seconds,
                   static_cast<unsigned long long>(r.events),
                   r.events_per_sec);
      for (const auto& [key, value] : r.extra) {
        std::fprintf(f, ", \"%s\": %.6f", key.c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    if (!guards_.empty()) {
      std::fprintf(f, ",\n  \"guards\": [\n");
      for (size_t i = 0; i < guards_.size(); ++i) {
        const Guard& g = guards_[i];
        if (g.type == "min_ratio") {
          std::fprintf(f,
                       "    {\"type\": \"min_ratio\", \"metric\": \"%s\", "
                       "\"numerator\": \"%s\", \"denominator\": \"%s\", "
                       "\"min\": %.6f}%s\n",
                       g.metric.c_str(), g.row_a.c_str(), g.row_b.c_str(),
                       g.min, i + 1 < guards_.size() ? "," : "");
        } else {
          std::fprintf(f,
                       "    {\"type\": \"min_value\", \"metric\": \"%s\", "
                       "\"row\": \"%s\", \"min\": %.6f}%s\n",
                       g.metric.c_str(), g.row_a.c_str(), g.min,
                       i + 1 < guards_.size() ? "," : "");
        }
      }
      std::fprintf(f, "  ]");
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Row {
    std::string name;
    double wall_seconds;
    uint64_t events;
    double events_per_sec;
    std::vector<std::pair<std::string, double>> extra;
  };
  struct Guard {
    std::string type;    // min_ratio | min_value
    std::string metric;  // row field the guard reads
    std::string row_a;   // numerator (min_ratio) or the row (min_value)
    std::string row_b;   // denominator (min_ratio only)
    double min;
  };
  std::vector<Row> rows_;
  std::vector<Guard> guards_;
};

/// Returns the value following `--json`, or "" when the flag is absent.
inline std::string json_path_arg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  }
  return "";
}

/// Parses `--jobs N` (0 = hardware concurrency); default 1 = serial.
inline int jobs_arg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      return harness::resolve_jobs(std::atoi(argv[i + 1]));
    }
  }
  return 1;
}

/// Parses `--repeat N` (default 1, floor 1): benches that report wall-clock
/// rows run each scenario N times and keep the MINIMUM wall time — the
/// standard way to strip scheduler/turbo noise from a timing. Simulated
/// outputs are deterministic, so repeats only steady the timing; they can
/// never change a reported simulation result.
inline int repeat_arg(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--repeat") == 0) {
      const int n = std::atoi(argv[i + 1]);
      return n > 1 ? n : 1;
    }
  }
  return 1;
}

/// Runs `body` `repeats` times and returns the minimum wall seconds across
/// the runs (see repeat_arg). `body` is a plain callable; capture whatever
/// result it produces by reference — every repeat recomputes the identical
/// deterministic result, so keeping the last one is safe.
template <typename F>
inline double min_wall_seconds(int repeats, F&& body) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < (repeats > 1 ? repeats : 1); ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (wall < best) best = wall;
  }
  return best;
}

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

inline std::string percent_delta(double baseline, double value) {
  return strfmt::format("{:.1f}%", 100.0 * (baseline - value) / baseline);
}

/// "threads used / total cores" stage annotation as in Fig. 8.
inline std::string stage_threads_label(const engine::StageStats& s, int nodes,
                                       int cores = 32) {
  return strfmt::format("{}/{}", s.threads_total, nodes * cores);
}

}  // namespace saexbench
