#include <gtest/gtest.h>

#include <cstdio>

#include "engine/context.h"
#include "engine/event_log.h"

namespace saex::engine {
namespace {

TEST(EventLog, RecordsAndFiltersByKind) {
  EventLog log;
  log.record(Event{EventKind::kJobStart, 0.0, 1, -1, -1, -1, 0, "app"});
  log.record(Event{EventKind::kTaskStart, 0.5, 1, 0, 3, 2, 128, ""});
  log.record(Event{EventKind::kTaskEnd, 1.5, 1, 0, 3, 2, 128, ""});
  log.record(Event{EventKind::kJobEnd, 2.0, 1, -1, -1, -1, 0, "app"});
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.of_kind(EventKind::kTaskStart).size(), 1u);
  EXPECT_EQ(log.of_kind(EventKind::kPoolResize).size(), 0u);
}

TEST(EventLog, JsonLinesAreOnePerEvent) {
  EventLog log;
  log.record(Event{EventKind::kStageStart, 1.25, 0, 2, -1, -1, 16, "map"});
  log.record(Event{EventKind::kPoolResize, 2.5, -1, -1, -1, 3, 8, ""});
  const std::string json = log.to_json_lines();
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 2);
  EXPECT_NE(json.find(R"("event":"StageStart")"), std::string::npos);
  EXPECT_NE(json.find(R"("value":8)"), std::string::npos);
  EXPECT_NE(json.find(R"("label":"map")"), std::string::npos);
}

TEST(EventLog, JsonEscapesLabels) {
  EventLog log;
  log.record(Event{EventKind::kStageStart, 0, 0, 0, -1, -1, 0,
                   "weird \"name\"\nwith\tstuff"});
  const std::string json = log.to_json_lines();
  EXPECT_NE(json.find(R"(weird \"name\"\nwith\tstuff)"), std::string::npos);
  // Other control characters become \u escapes with four hex digits.
  log.record(Event{EventKind::kStageStart, 0, 0, 0, -1, -1, 0, "a\rb\x1f" "c"});
  EXPECT_NE(log.to_json_lines().find(R"(a\u000db\u001fc)"), std::string::npos);
}

TEST(EventLog, ChromeTracePairsTasksAndEmitsCounters) {
  EventLog log;
  log.record(Event{EventKind::kTaskStart, 1.0, 0, 0, 7, 2, 0, ""});
  log.record(Event{EventKind::kPoolResize, 1.5, -1, -1, -1, 2, 4, ""});
  log.record(Event{EventKind::kTaskEnd, 3.0, 0, 0, 7, 2, 0, ""});
  const std::string trace = log.to_chrome_trace();
  EXPECT_EQ(trace.front(), '[');
  // 2-second task -> dur 2000000 us.
  EXPECT_NE(trace.find(R"("dur":2000000.0)"), std::string::npos);
  EXPECT_NE(trace.find(R"("ph":"C")"), std::string::npos);
  EXPECT_NE(trace.find(R"("name":"s0-p7")"), std::string::npos);
}

TEST(EventLog, WriteFileRoundTrips) {
  EventLog log;
  log.record(Event{EventKind::kJobStart, 0.0, 0, -1, -1, -1, 0, "x"});
  const std::string path = "/tmp/saex-eventlog-test.json";
  ASSERT_TRUE(EventLog::write_file(path, log.to_json_lines()));
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[256] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_GT(n, 10u);
  EXPECT_NE(std::string(buf).find("JobStart"), std::string::npos);
}

TEST(EventLog, EngineProducesACoherentLog) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config;
  config.set("spark.default.parallelism", "8");
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", mib(512), 2);
  (void)ctx.run_job(ctx.text_file("/in")
                        .reduce_by_key("g", {0.01, 1.0}, 1.0)
                        .count(),
                    "logged");

  const EventLog& log = ctx.event_log();
  EXPECT_EQ(log.of_kind(EventKind::kJobStart).size(), 1u);
  EXPECT_EQ(log.of_kind(EventKind::kJobEnd).size(), 1u);
  EXPECT_EQ(log.of_kind(EventKind::kStageStart).size(), 2u);
  EXPECT_EQ(log.of_kind(EventKind::kStageEnd).size(), 2u);
  // 4 map tasks (512 MiB / 128 MiB blocks) + 8 reduce tasks.
  EXPECT_EQ(log.of_kind(EventKind::kTaskStart).size(), 12u);
  EXPECT_EQ(log.of_kind(EventKind::kTaskEnd).size(), 12u);
  EXPECT_TRUE(log.of_kind(EventKind::kTaskFailed).empty());

  // Starts precede their ends, times are monotone within kinds.
  const auto starts = log.of_kind(EventKind::kTaskStart);
  const auto ends = log.of_kind(EventKind::kTaskEnd);
  for (size_t i = 0; i < starts.size(); ++i) {
    EXPECT_LE(starts[i].time, ends[i].time);
  }
}

TEST(EventLog, DisabledViaConfigRecordsNothing) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config;
  config.set("spark.default.parallelism", "8");
  config.set_bool("saex.eventLog.enabled", false);
  SparkContext ctx(cluster, config);
  EXPECT_FALSE(ctx.event_log().enabled());
  ctx.dfs().load_input("/in", mib(512), 2);
  (void)ctx.run_job(ctx.text_file("/in").count(), "unlogged");
  // Disabled, the log stays empty no matter how much runs — it is the only
  // engine-side state that would otherwise grow per task forever (the knob
  // exists so 100k-job serve replays have bounded memory).
  EXPECT_EQ(ctx.event_log().size(), 0u);
}

TEST(EventLog, DynamicPolicyEmitsResizeEvents) {
  hw::Cluster cluster(hw::ClusterSpec::das5(2));
  conf::Config config;
  config.set("saex.executor.policy", "dynamic");
  SparkContext ctx(cluster, config);
  ctx.dfs().load_input("/in", gib(4), 2);
  (void)ctx.run_job(ctx.text_file("/in").save_as_text_file("/out"), "resizes");
  // At minimum: the stage-start reset to c_min on both executors.
  EXPECT_GE(ctx.event_log().of_kind(EventKind::kPoolResize).size(), 2u);
}

}  // namespace
}  // namespace saex::engine
