// saexsim — command-line front end for the simulator.
//
// Run any workload under any executor policy on a parameterized cluster,
// print the per-stage report, and optionally export the event log:
//
//   saexsim --workload terasort --policy dynamic
//   saexsim --workload pagerank --policy sweep            # static {32..2}
//   saexsim --workload pagerank --policy sweep --jobs 0   # sweep on all cores
//   saexsim --workload join --nodes 16 --ssd --seed 7
//   saexsim --workload terasort --policy dynamic --trace /tmp/run.json
//   saexsim serve --jobs 50 --mode FAIR --dynalloc       # multi-tenant server
//   saexsim --list
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/format.h"
#include "common/log.h"
#include "fault/fault.h"
#include "prof/profiler.h"
#include "storage/eviction.h"
#include "harness/harness.h"
#include "serve/trace.h"
#include "shard/sharded_server.h"
#include "workloads/workloads.h"

namespace {

using namespace saex;

const char* kWorkloadChoices =
    "terasort pagerank aggregation join scan bayes lda nweight svm "
    "wordcount sort kmeans skewshuffle tinyparts";
const char* kPolicyChoices = "default static dynamic aimd sweep";
const char* kStoragePolicyChoices = "none lru clock s3fifo tinylfu";
const char* kModeChoices = "FIFO FAIR";

struct Args {
  bool serve = false;  // "serve" subcommand
  std::string workload = "terasort";
  std::string policy = "dynamic";
  int nodes = 4;
  bool ssd = false;
  uint64_t seed = 42;
  int io_threads = 8;
  double size_gib = 0.0;  // 0 = workload preset
  int parallelism = 0;    // 0 = nodes * 32
  double failure_prob = 0.0;
  bool speculation = false;

  // Storage layer (saex.storage.*).
  double storage_mem_gib = -1.0;  // <0 = config default (node memory fraction)
  std::string storage_policy;     // empty = config default ("none")

  // Adaptive query execution (saex.aqe.*).
  bool aqe = false;
  std::string aqe_target;          // empty = config default ("64m")
  double aqe_skew_factor = -1.0;   // <0 = config default (4.0)
  int aqe_min_partitions = -1;     // <0 = config default (1)
  bool aqe_tuner = false;

  // Fault injection (saex.fault.*).
  int kill_node = -1;
  double kill_time = -1.0;
  int64_t kill_after_tasks = -1;
  int slow_node = -1;
  double slow_factor = 0.3;
  double slow_time = 0.0;
  double fetch_fail_prob = 0.0;
  int fetch_fail_node = -1;
  std::string chaos;  // --chaos: file path or inline kill/rejoin spec
  std::string eventlog_path;
  std::string trace_path;
  bool list = false;
  bool help = false;
  bool profile = false;
  std::string profile_json_path;
  // Harness parallelism for multi-run modes (policy sweep). In the serve
  // subcommand --jobs means trace length instead (kept for compatibility).
  int par_jobs = 1;

  // serve subcommand
  int serve_jobs = 50;
  double arrival_mean = 3.0;
  std::string arrival = "exp";
  double pareto_shape = 1.5;
  std::string mode = "FAIR";
  std::string pools = "interactive:3:16,batch:1:0";
  int max_concurrent = 8;
  int max_queued = 64;
  int max_per_client = 0;
  bool dynalloc = false;
  bool jobs_table = false;

  // serve resilience (saex.serve.* / saex.resilience.*).
  double deadline = -1.0;    // default relative SLO deadline, seconds
  bool deadline_set = false;
  int max_retries = -1;      // -1 = config default (0)
  bool max_retries_set = false;
  bool quarantine = false;

  // serve sharding (saex.shard.*).
  int shards = 1;
  int shard_workers = 1;
  std::string placement = "hash";
};

void usage() {
  std::printf(
      "saexsim — self-adaptive-executor simulator\n"
      "\n"
      "  --workload NAME     one of: %s\n"
      "                      (default terasort); --list shows details\n"
      "  --policy P          one of: %s (default dynamic);\n"
      "                      sweep runs the static {32,16,8,4,2} series\n"
      "  --io-threads N      static policy thread count (default 8)\n"
      "  --nodes N           cluster size (default 4)\n"
      "  --ssd               SSDs instead of HDDs\n"
      "  --seed S            cluster heterogeneity seed (default 42)\n"
      "  --size-gib X        override the workload's input size\n"
      "  --parallelism P     shuffle partitions (default nodes*32)\n"
      "  --failures P        per-attempt task failure probability\n"
      "  --speculation       enable speculative execution\n"
      "  --storage-mem GIB   per-node cache-storage budget in GiB\n"
      "                      (default: spark.memory.fraction x\n"
      "                      spark.memory.storageFraction x node memory)\n"
      "  --storage-policy P  block eviction policy, one of: %s\n"
      "  --aqe               adaptive query execution: re-plan reduce stages\n"
      "                      from actual map-output sizes (coalesce tiny\n"
      "                      partitions, split skewed ones)\n"
      "  --aqe-target B      coalesce target bytes, e.g. 64m (default 64m)\n"
      "  --aqe-skew-factor F split partitions above F x median (default 4)\n"
      "  --aqe-min-parts N   never coalesce below N tasks (default 0 =\n"
      "                      spark.default.parallelism)\n"
      "  --aqe-tuner         per-stage multi-knob tuner: fitted cost model\n"
      "                      picks the coalesce target and seeds pool sizes\n"
      "  --kill-node N       fault: kill executor N (with --kill-time or\n"
      "                      --kill-after-tasks)\n"
      "  --kill-time T       fault: kill trigger, simulated seconds\n"
      "  --kill-after-tasks K  fault: kill after K finished task attempts\n"
      "  --slow-node N       fault: degrade node N's disk (straggler)\n"
      "  --slow-factor F     fault: degraded disk speed factor (default 0.3)\n"
      "  --slow-time T       fault: when the degradation hits (default 0)\n"
      "  --fetch-fail P      fault: transient shuffle-fetch drop probability\n"
      "  --fetch-fail-node N fault: only fetches FROM node N can drop\n"
      "  --chaos SPEC        fault: scripted churn timeline — a file path or\n"
      "                      an inline 'kill:<node>@<sec>,rejoin:<node>@<sec>'\n"
      "                      list ('#' comments; ',' or whitespace separated)\n"
      "  --eventlog FILE     write the event log as JSON lines\n"
      "  --trace FILE        write a chrome://tracing file\n"
      "  --jobs N            run the sweep's 5 simulations on N worker\n"
      "                      threads (0 = all cores); results are identical\n"
      "                      to the serial run. Sweep eventlog/trace files\n"
      "                      get a .<threads> suffix per run.\n"
      "  --profile           record per-subsystem wall time; print the\n"
      "                      profiler table after the run (SAEX_PROFILE=1\n"
      "                      in the environment does the same)\n"
      "  --profile-json FILE record per-subsystem wall time and write it as\n"
      "                      JSON ({name, calls, inclusive_ns, exclusive_ns}\n"
      "                      per subsystem) after the run\n"
      "  --verbose           INFO-level engine logging\n"
      "\n"
      "saexsim serve — multi-tenant job server replaying an arrival trace\n"
      "\n"
      "  --jobs N            trace length (default 50)\n"
      "  --arrival-mean X    mean inter-arrival seconds, exponential (default 3)\n"
      "  --arrival LAW       inter-arrival law: exp | pareto (heavy-tailed\n"
      "                      Lomax gaps, same mean; default exp)\n"
      "  --pareto-shape A    Lomax tail index, > 1 (default 1.5)\n"
      "  --shards S          split the cluster across S drivers/event kernels\n"
      "                      with a cross-shard job router (default 1)\n"
      "  --workers W         OS threads replaying the shards (0 = all cores);\n"
      "                      the merged report is identical for any W\n"
      "  --placement P       shard router policy: hash | least | rr\n"
      "                      (default hash)\n"
      "  --mode M            one of: %s (default FAIR)\n"
      "  --pools SPEC        name:weight:minShare,... (default\n"
      "                      interactive:3:16,batch:1:0)\n"
      "  --max-concurrent N  admission: jobs running at once (default 8)\n"
      "  --max-queued N      admission: queue capacity (default 64)\n"
      "  --max-per-client N  admission: per-client quota, 0=off (default 0)\n"
      "  --dynalloc          enable dynamic executor allocation\n"
      "  --deadline T        default per-job SLO deadline in seconds (> 0);\n"
      "                      queued jobs past it are shed, running jobs\n"
      "                      cancelled\n"
      "  --max-retries N     re-run failed jobs up to N times with seeded\n"
      "                      exponential backoff (default 0)\n"
      "  --quarantine        enable the node-health circuit breaker\n"
      "  --jobs-table        also print the per-submission table\n"
      "  (--policy, --io-threads, --nodes, --ssd, --seed, --parallelism,\n"
      "   --failures, --speculation, the storage, AQE and fault\n"
      "   flags, --eventlog and --trace apply here too; with --shards S > 1\n"
      "   the event log and trace get a .<shard> suffix per shard)\n",
      kWorkloadChoices, kPolicyChoices, kStoragePolicyChoices, kModeChoices);
}

// Parses `text`, the value of `flag`, as one whole number of type T. An
// empty value, trailing characters ("4abc"), a value out of T's range or a
// non-finite double prints an error naming the flag and exits 2.
template <typename T>
T parse_number(const std::string& flag, const char* text) {
  T out{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  bool ok = ec == std::errc() && ptr == end && ptr != text;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(out);
  if (!ok) {
    std::fprintf(stderr, "invalid number for %s: '%s'\n", flag.c_str(), text);
    std::exit(2);
  }
  return out;
}

std::optional<Args> parse(int argc, char** argv) {
  Args args;
  int first = 1;
  if (argc > 1 && std::strcmp(argv[1], "serve") == 0) {
    args.serve = true;
    first = 2;
  }
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = value();
    } else if (a == "--policy") {
      args.policy = value();
    } else if (a == "--io-threads") {
      args.io_threads = parse_number<int>(a, value());
    } else if (a == "--nodes") {
      args.nodes = parse_number<int>(a, value());
    } else if (a == "--ssd") {
      args.ssd = true;
    } else if (a == "--seed") {
      args.seed = parse_number<uint64_t>(a, value());
    } else if (a == "--size-gib") {
      args.size_gib = parse_number<double>(a, value());
    } else if (a == "--parallelism") {
      args.parallelism = parse_number<int>(a, value());
    } else if (a == "--failures") {
      args.failure_prob = parse_number<double>(a, value());
    } else if (a == "--speculation") {
      args.speculation = true;
    } else if (a == "--storage-mem") {
      args.storage_mem_gib = parse_number<double>(a, value());
    } else if (a == "--storage-policy") {
      args.storage_policy = value();
    } else if (a == "--aqe") {
      args.aqe = true;
    } else if (a == "--aqe-target") {
      args.aqe_target = value();
      args.aqe = true;
    } else if (a == "--aqe-skew-factor") {
      args.aqe_skew_factor = parse_number<double>(a, value());
      args.aqe = true;
    } else if (a == "--aqe-min-parts") {
      args.aqe_min_partitions = parse_number<int>(a, value());
      args.aqe = true;
    } else if (a == "--aqe-tuner") {
      args.aqe_tuner = true;
      args.aqe = true;
    } else if (a == "--kill-node") {
      args.kill_node = parse_number<int>(a, value());
    } else if (a == "--kill-time") {
      args.kill_time = parse_number<double>(a, value());
    } else if (a == "--kill-after-tasks") {
      args.kill_after_tasks = parse_number<int64_t>(a, value());
    } else if (a == "--slow-node") {
      args.slow_node = parse_number<int>(a, value());
    } else if (a == "--slow-factor") {
      args.slow_factor = parse_number<double>(a, value());
    } else if (a == "--slow-time") {
      args.slow_time = parse_number<double>(a, value());
    } else if (a == "--fetch-fail") {
      args.fetch_fail_prob = parse_number<double>(a, value());
    } else if (a == "--fetch-fail-node") {
      args.fetch_fail_node = parse_number<int>(a, value());
    } else if (a == "--chaos") {
      args.chaos = value();
    } else if (a == "--eventlog") {
      args.eventlog_path = value();
    } else if (a == "--trace") {
      args.trace_path = value();
    } else if (a == "--jobs") {
      if (args.serve) {
        args.serve_jobs = parse_number<int>(a, value());
      } else {
        args.par_jobs = harness::resolve_jobs(parse_number<int>(a, value()));
      }
    } else if (a == "--arrival-mean") {
      args.arrival_mean = parse_number<double>(a, value());
    } else if (a == "--arrival") {
      args.arrival = value();
    } else if (a == "--pareto-shape") {
      args.pareto_shape = parse_number<double>(a, value());
    } else if (a == "--shards") {
      args.shards = parse_number<int>(a, value());
    } else if (a == "--workers") {
      args.shard_workers = harness::resolve_jobs(parse_number<int>(a, value()));
    } else if (a == "--placement") {
      args.placement = value();
    } else if (a == "--mode") {
      args.mode = value();
    } else if (a == "--pools") {
      args.pools = value();
    } else if (a == "--max-concurrent") {
      args.max_concurrent = parse_number<int>(a, value());
    } else if (a == "--max-queued") {
      args.max_queued = parse_number<int>(a, value());
    } else if (a == "--max-per-client") {
      args.max_per_client = parse_number<int>(a, value());
    } else if (a == "--dynalloc") {
      args.dynalloc = true;
    } else if (a == "--deadline") {
      args.deadline = parse_number<double>(a, value());
      args.deadline_set = true;
    } else if (a == "--max-retries") {
      args.max_retries = parse_number<int>(a, value());
      args.max_retries_set = true;
    } else if (a == "--quarantine") {
      args.quarantine = true;
    } else if (a == "--jobs-table") {
      args.jobs_table = true;
    } else if (a == "--profile") {
      args.profile = true;
    } else if (a == "--profile-json") {
      args.profile_json_path = value();
    } else if (a == "--verbose") {
      log::set_level(log::Level::kInfo);
    } else if (a == "--list") {
      args.list = true;
    } else if (a == "--help" || a == "-h") {
      args.help = true;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", a.c_str());
      return std::nullopt;
    }
  }
  return args;
}

std::optional<workloads::WorkloadSpec> find_workload(const std::string& name,
                                                     double size_gib) {
  const Bytes size = size_gib > 0 ? gib(size_gib) : 0;
  auto sized = [&](workloads::WorkloadSpec preset,
                   auto remake) -> workloads::WorkloadSpec {
    return size > 0 ? remake(size) : preset;
  };
  if (name == "terasort")
    return sized(workloads::terasort(), [](Bytes b) { return workloads::terasort(b); });
  if (name == "pagerank")
    return sized(workloads::pagerank(), [](Bytes b) { return workloads::pagerank(b); });
  if (name == "aggregation")
    return sized(workloads::aggregation(), [](Bytes b) { return workloads::aggregation(b); });
  if (name == "join")
    return sized(workloads::join(), [](Bytes b) { return workloads::join(b); });
  if (name == "scan")
    return sized(workloads::scan(), [](Bytes b) { return workloads::scan(b); });
  if (name == "bayes")
    return sized(workloads::bayes(), [](Bytes b) { return workloads::bayes(b); });
  if (name == "lda")
    return sized(workloads::lda(), [](Bytes b) { return workloads::lda(b); });
  if (name == "nweight")
    return sized(workloads::nweight(), [](Bytes b) { return workloads::nweight(b); });
  if (name == "svm")
    return sized(workloads::svm(), [](Bytes b) { return workloads::svm(b); });
  if (name == "wordcount")
    return sized(workloads::wordcount(), [](Bytes b) { return workloads::wordcount(b); });
  if (name == "sort")
    return sized(workloads::sort(), [](Bytes b) { return workloads::sort(b); });
  if (name == "kmeans")
    return sized(workloads::kmeans(), [](Bytes b) { return workloads::kmeans(b); });
  if (name == "skewshuffle")
    return sized(workloads::skewshuffle(), [](Bytes b) { return workloads::skewshuffle(b); });
  if (name == "tinyparts")
    return sized(workloads::tinyparts(), [](Bytes b) { return workloads::tinyparts(b); });
  return std::nullopt;
}

void apply_aqe_flags(conf::Config& config, const Args& args) {
  if (!args.aqe) return;
  config.set_bool("saex.aqe.enabled", true);
  if (!args.aqe_target.empty()) {
    config.set("saex.aqe.targetPartitionBytes", args.aqe_target);
  }
  if (args.aqe_skew_factor >= 0.0) {
    config.set_double("saex.aqe.skewFactor", args.aqe_skew_factor);
  }
  if (args.aqe_min_partitions >= 0) {
    config.set_int("saex.aqe.minPartitions", args.aqe_min_partitions);
  }
  if (args.aqe_tuner) config.set_bool("saex.aqe.tuner", true);
}

void apply_fault_flags(conf::Config& config, const Args& args) {
  if (args.kill_node < 0 && args.slow_node < 0 &&
      args.fetch_fail_prob <= 0.0 && args.chaos.empty()) {
    return;
  }
  config.set_bool("saex.fault.enabled", true);
  config.set_int("saex.fault.killNode", args.kill_node);
  config.set("saex.fault.killTime", strfmt::format("{}", args.kill_time));
  config.set_int("saex.fault.killAfterTasks", args.kill_after_tasks);
  config.set_int("saex.fault.slowNode", args.slow_node);
  config.set_double("saex.fault.slowFactor", args.slow_factor);
  config.set("saex.fault.slowTime", strfmt::format("{}", args.slow_time));
  config.set_double("saex.fault.fetchFailProb", args.fetch_fail_prob);
  config.set_int("saex.fault.fetchFailNode", args.fetch_fail_node);
  config.set("saex.fault.chaos", args.chaos);
}

// Resolves --chaos: a readable file's contents, otherwise the argument
// itself as an inline spec. Either way the result must parse; a typed
// ConfigError is reported in the usual saexsim style (rc 2 at the caller).
bool resolve_chaos_flag(std::string& chaos) {
  if (std::ifstream file(chaos); file.good()) {
    std::ostringstream contents;
    contents << file.rdbuf();
    chaos = contents.str();
  }
  try {
    (void)fault::parse_chaos(chaos);
  } catch (const conf::ConfigError& e) {
    std::fprintf(stderr, "invalid --chaos spec: %s\n", e.what());
    return false;
  }
  return true;
}

conf::Config make_config(const Args& args, const std::string& policy) {
  conf::Config config;
  config.set("saex.executor.policy", policy == "sweep" ? "static" : policy);
  config.set_int("saex.static.ioThreads", args.io_threads);
  config.set_int("spark.default.parallelism",
                 args.parallelism > 0 ? args.parallelism : args.nodes * 32);
  config.set_double("saex.sim.taskFailureProb", args.failure_prob);
  config.set_bool("spark.speculation", args.speculation);
  if (args.storage_mem_gib >= 0) {
    config.set("saex.storage.memory",
               strfmt::format("{}", gib(args.storage_mem_gib)));
  }
  if (!args.storage_policy.empty()) {
    config.set("saex.storage.policy", args.storage_policy);
  }
  apply_aqe_flags(config, args);
  apply_fault_flags(config, args);
  return config;
}

struct RunResult {
  int rc = 0;
  std::string text;  // rendered report + file-write notices
};

// One full simulation, rendered into a string so sweep runs can execute on
// harness worker threads and still print in deterministic order.
RunResult simulate_once(const Args& args, const workloads::WorkloadSpec& spec,
                        const std::string& policy, int io_threads,
                        const std::string& eventlog_path,
                        const std::string& trace_path) {
  hw::ClusterSpec cs = args.ssd ? hw::ClusterSpec::das5_ssd(args.nodes)
                                : hw::ClusterSpec::das5(args.nodes);
  cs.seed = args.seed;
  hw::Cluster cluster(cs);

  conf::Config config = make_config(args, policy);
  config.set_int("saex.static.ioThreads", io_threads);

  RunResult res;
  std::unique_ptr<engine::SparkContext> owned;
  try {
    owned = std::make_unique<engine::SparkContext>(cluster, std::move(config));
  } catch (const conf::ConfigError& e) {
    // A value the context rejects (saex.aqe.skewFactor 0, ...): rc 2.
    return RunResult{2, strfmt::format("invalid configuration: {}\n",
                                       e.what())};
  }
  engine::SparkContext& ctx = *owned;
  engine::JobReport report;
  bool first = true;
  for (const engine::Rdd& action : spec.build(ctx)) {
    engine::JobReport r;
    try {
      r = ctx.run_job(action, spec.name);
    } catch (const engine::StageAbortedError& e) {
      res.text += strfmt::format("job failed: {}\n", e.what());
      res.rc = 1;
      return res;
    }
    if (first) {
      report = std::move(r);
      first = false;
    } else {
      report.total_runtime += r.total_runtime;
      report.total_disk_bytes += r.total_disk_bytes;
      report.events_processed = r.events_processed;
      for (auto& s : r.stages) report.stages.push_back(std::move(s));
    }
  }
  for (size_t i = 0; i < report.stages.size(); ++i) {
    report.stages[i].ordinal = static_cast<int>(i);
  }
  report.input_bytes = spec.input_size;
  res.text += report.render() + "\n";

  if (!eventlog_path.empty()) {
    const bool ok = engine::EventLog::write_file(
        eventlog_path, ctx.event_log().to_json_lines());
    res.text += strfmt::format("{} event log -> {}\n",
                               ok ? "wrote" : "FAILED to write", eventlog_path);
  }
  if (!trace_path.empty()) {
    const bool ok = engine::EventLog::write_file(
        trace_path, ctx.event_log().to_chrome_trace());
    res.text += strfmt::format(
        "{} chrome trace -> {} (open in chrome://tracing)\n",
        ok ? "wrote" : "FAILED to write", trace_path);
  }
  return res;
}

int run_once(const Args& args, const workloads::WorkloadSpec& spec,
             const std::string& policy, int io_threads) {
  const RunResult res = simulate_once(args, spec, policy, io_threads,
                                      args.eventlog_path, args.trace_path);
  std::fputs(res.text.c_str(), res.rc == 0 ? stdout : stderr);
  return res.rc;
}

// The static {32,16,8,4,2} sweep: 5 independent simulations run on
// args.par_jobs harness workers. Output order (and every number in it) is
// identical to the serial loop; per-run eventlog/trace files get a
// .<threads> suffix so parallel runs never race on one path.
int run_sweep(const Args& args, const workloads::WorkloadSpec& spec) {
  const std::vector<int> threads = {32, 16, 8, 4, 2};
  std::vector<std::function<RunResult()>> tasks;
  for (const int t : threads) {
    const std::string suffix = strfmt::format(".{}", t);
    const std::string eventlog =
        args.eventlog_path.empty() ? "" : args.eventlog_path + suffix;
    const std::string trace =
        args.trace_path.empty() ? "" : args.trace_path + suffix;
    tasks.push_back([&args, &spec, t, eventlog, trace] {
      return simulate_once(args, spec, "static", t, eventlog, trace);
    });
  }
  std::vector<RunResult> results =
      harness::run_ordered(std::move(tasks), args.par_jobs);
  if (results.front().rc == 2) {
    std::fputs(results.front().text.c_str(), stderr);
    return 2;
  }
  int rc = 0;
  for (size_t i = 0; i < threads.size(); ++i) {
    std::printf("==== static, %d threads on I/O stages ====\n", threads[i]);
    std::fputs(results[i].text.c_str(), stdout);
    rc = rc != 0 ? rc : results[i].rc;
  }
  return rc;
}

// make_config plus the serve-only keys. Throws conf::ConfigError on a value
// Config::set rejects (rc 2 at the caller).
conf::Config make_serve_config(const Args& args) {
  conf::Config config = make_config(args, args.policy);
  config.set("saex.scheduler.mode", args.mode);
  config.set("saex.scheduler.pools", args.pools);
  config.set_int("saex.serve.maxConcurrentJobs", args.max_concurrent);
  config.set_int("saex.serve.maxQueuedJobs", args.max_queued);
  config.set_int("saex.serve.maxJobsPerClient", args.max_per_client);
  if (args.deadline > 0.0) {
    config.set("saex.serve.defaultDeadline",
               strfmt::format("{}", args.deadline));
  }
  if (args.max_retries >= 0) {
    config.set_int("saex.serve.maxRetries", args.max_retries);
  }
  if (args.quarantine) {
    config.set_bool("saex.resilience.quarantine", true);
  }
  if (args.dynalloc) {
    config.set_bool("spark.dynamicAllocation.enabled", true);
    config.set_int("spark.dynamicAllocation.minExecutors", 1);
    config.set_int("spark.dynamicAllocation.initialExecutors", 1);
    config.set("spark.dynamicAllocation.executorIdleTimeout", "10s");
  }
  config.set_int("saex.shard.count", args.shards);
  config.set_int("saex.shard.workers", args.shard_workers);
  config.set("saex.shard.placement", args.placement);
  return config;
}

// Trace replay on the ShardedServer: S driver/kernel stacks (1 by default)
// behind the job router, replayed on W worker threads. Event logs are per
// shard (".<shard>" suffix when S > 1).
int run_serve(const Args& args) {
  hw::ClusterSpec cs = args.ssd ? hw::ClusterSpec::das5_ssd(args.nodes)
                                : hw::ClusterSpec::das5(args.nodes);
  cs.seed = args.seed;

  try {
    const conf::Config config = make_serve_config(args);
    serve::TraceOptions trace_options;
    trace_options.num_jobs = args.serve_jobs;
    trace_options.mean_interarrival = args.arrival_mean;
    trace_options.arrival = args.arrival;
    trace_options.pareto_shape = args.pareto_shape;
    trace_options.seed = args.seed;

    shard::ShardedServer server(cs, config);
    const shard::ShardedServeReport report =
        server.replay(serve::make_trace(trace_options), trace_options);

    std::printf("%s\n", report.render().c_str());
    if (args.jobs_table) std::printf("\n%s\n", report.render_jobs().c_str());

    for (int s = 0; s < server.topology().shards(); ++s) {
      const std::string suffix =
          server.topology().shards() > 1 ? strfmt::format(".{}", s) : "";
      if (!args.eventlog_path.empty()) {
        const std::string path = args.eventlog_path + suffix;
        const bool ok = engine::EventLog::write_file(
            path, server.context(s).event_log().to_json_lines());
        std::printf("%s event log -> %s\n", ok ? "wrote" : "FAILED to write",
                    path.c_str());
      }
      if (!args.trace_path.empty()) {
        const std::string path = args.trace_path + suffix;
        const bool ok = engine::EventLog::write_file(
            path, server.context(s).event_log().to_chrome_trace());
        std::printf("%s chrome trace -> %s (open in chrome://tracing)\n",
                    ok ? "wrote" : "FAILED to write", path.c_str());
      }
    }
  } catch (const conf::ConfigError& e) {
    std::fprintf(stderr, "invalid serve configuration: %s\n", e.what());
    return 2;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "invalid serve trace options: %s\n", e.what());
    return 2;
  }
  return 0;
}

// Prints the profiler table and/or writes the JSON breakdown at exit,
// whichever of --profile / --profile-json asked for it.
void finish_profiling(const Args& args) {
  if (prof::Profiler::enabled()) {
    std::printf("\n%s", prof::Profiler::report().c_str());
  }
  if (args.profile_json_path.empty()) return;
  std::ofstream out(args.profile_json_path);
  if (out.good()) {
    out << prof::Profiler::report_json();
    std::printf("wrote profile json -> %s\n", args.profile_json_path.c_str());
  } else {
    std::fprintf(stderr, "FAILED to write profile json -> %s\n",
                 args.profile_json_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  prof::Profiler::init_from_env();
  const auto parsed = parse(argc, argv);
  if (!parsed) return 2;
  Args args = *parsed;
  if (!args.chaos.empty() && !resolve_chaos_flag(args.chaos)) return 2;
  if (args.deadline_set && args.deadline <= 0.0) {
    std::fprintf(stderr, "--deadline must be > 0 (seconds, got %g)\n",
                 args.deadline);
    return 2;
  }
  if (args.max_retries_set && args.max_retries < 0) {
    std::fprintf(stderr, "--max-retries must be >= 0 (got %d)\n",
                 args.max_retries);
    return 2;
  }
  if (args.nodes < 1) {
    std::fprintf(stderr, "--nodes must be >= 1 (got %d)\n", args.nodes);
    return 2;
  }
  if (args.profile || !args.profile_json_path.empty()) {
    prof::Profiler::set_enabled(true);
  }
  if (args.help) {
    usage();
    return 0;
  }
  if (args.list) {
    std::printf("%-12s %-10s %-12s %s\n", "name", "type", "input", "paper I/O ratio");
    for (const auto& w : workloads::table2_workloads()) {
      std::printf("%-12s %-10s %-12s %.2fx\n", w.name.c_str(), w.type.c_str(),
                  format_bytes(w.input_size).c_str(), w.paper_io_ratio);
    }
    for (const auto& w : workloads::extra_workloads()) {
      std::printf("%-12s %-10s %-12s (extension)\n", w.name.c_str(),
                  w.type.c_str(), format_bytes(w.input_size).c_str());
    }
    return 0;
  }

  if (!args.storage_policy.empty() &&
      !storage::is_valid_eviction_policy(args.storage_policy)) {
    std::fprintf(stderr, "unknown storage policy '%s' (valid: %s)\n",
                 args.storage_policy.c_str(), kStoragePolicyChoices);
    return 2;
  }
  if (args.storage_mem_gib < 0 && args.storage_mem_gib != -1.0) {
    std::fprintf(stderr, "--storage-mem must be >= 0 (GiB)\n");
    return 2;
  }

  const bool serve_policy_ok =
      args.policy == "default" || args.policy == "static" ||
      args.policy == "dynamic" || args.policy == "aimd";
  if (args.serve) {
    if (!serve_policy_ok) {
      std::fprintf(stderr,
                   "unknown policy '%s' for serve (valid: default static "
                   "dynamic aimd)\n",
                   args.policy.c_str());
      return 2;
    }
    if (args.mode != "FIFO" && args.mode != "FAIR") {
      std::fprintf(stderr, "unknown scheduling mode '%s' (valid: %s)\n",
                   args.mode.c_str(), kModeChoices);
      return 2;
    }
    const int rc = run_serve(args);
    finish_profiling(args);
    return rc;
  }

  const auto spec = find_workload(args.workload, args.size_gib);
  if (!spec) {
    std::fprintf(stderr, "unknown workload '%s' (valid: %s; --list shows details)\n",
                 args.workload.c_str(), kWorkloadChoices);
    return 2;
  }

  // Config::set validates every flag value that lands in the Config
  // (--aqe-target, ...); check them before any simulation starts.
  try {
    (void)make_config(args, args.policy);
  } catch (const conf::ConfigError& e) {
    std::fprintf(stderr, "invalid configuration: %s\n", e.what());
    return 2;
  }

  if (args.policy == "sweep") {
    const int rc = run_sweep(args, *spec);
    finish_profiling(args);
    return rc;
  }
  if (!serve_policy_ok) {
    std::fprintf(stderr, "unknown policy '%s' (valid: %s)\n",
                 args.policy.c_str(), kPolicyChoices);
    return 2;
  }
  const int rc = run_once(args, *spec, args.policy, args.io_threads);
  finish_profiling(args);
  return rc;
}
