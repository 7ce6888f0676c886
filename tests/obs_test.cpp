#include "obs/obs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace metaopt::obs {
namespace {

/// Every test runs against the same process-global registry/ring, so
/// each one starts from a clean, enabled slate and quiesces on exit.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kCompiledIn) {
      GTEST_SKIP() << "obs compiled out (METAOPT_OBS_DISABLED)";
    }
    set_enabled(true);
    reset();
    clear_trace();
  }
  void TearDown() override {
    set_enabled(false);
    reset();
    clear_trace();
  }
};

double counter_value(const MetricsSnapshot& snap, const std::string& name) {
  const MetricValue* m = snap.find(name);
  return m == nullptr ? 0.0 : m->value;
}

TEST_F(ObsTest, CounterConcurrentIncrements) {
  const Counter c = counter("test.concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter_value(snapshot(), "test.concurrent"),
            static_cast<double>(kThreads) * kPerThread);
}

TEST_F(ObsTest, SnapshotReadersRaceCleanlyWithWriters) {
  // Exercises concurrent snapshot() against live shard writes — the
  // TSan job runs this test, so a data race here fails CI.
  const Counter c = counter("test.racing");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) c.inc();
  });
  double last = 0.0;
  for (int i = 0; i < 200; ++i) {
    const double cur = counter_value(snapshot(), "test.racing");
    EXPECT_GE(cur, last);  // counters are monotone
    last = cur;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

TEST_F(ObsTest, DisabledUpdatesAreDropped) {
  const Counter c = counter("test.gated");
  c.inc();
  set_enabled(false);
  c.add(100);
  set_enabled(true);
  c.inc();
  EXPECT_EQ(counter_value(snapshot(), "test.gated"), 2.0);
}

TEST_F(ObsTest, DefaultHandlesAreNoOps) {
  const Counter c;
  const Gauge g;
  const Histogram h;
  c.inc();
  g.set(1.0);
  h.observe(1);  // must not hit any registered shard cell
  const MetricsSnapshot snap = snapshot();
  for (const MetricValue& m : snap.metrics) {
    EXPECT_EQ(m.value, 0.0) << m.name;
  }
}

TEST_F(ObsTest, ThreadSnapshotSeesOnlyOwnShard) {
  const Counter c = counter("test.sharded");
  c.add(3);
  std::thread other([&c] { c.add(40); });
  other.join();
  EXPECT_EQ(counter_value(snapshot_thread(), "test.sharded"), 3.0);
  EXPECT_EQ(counter_value(snapshot(), "test.sharded"), 43.0);
}

TEST_F(ObsTest, DiffDropsZeroDeltasAndSubtracts) {
  const Counter a = counter("test.diff_a");
  const Counter b = counter("test.diff_b");
  a.add(5);
  const MetricsSnapshot before = snapshot_thread();
  a.add(7);
  (void)b;  // registered but untouched: must not appear in the diff
  const MetricsSnapshot delta = diff(before, snapshot_thread());
  EXPECT_EQ(counter_value(delta, "test.diff_a"), 7.0);
  EXPECT_EQ(delta.find("test.diff_b"), nullptr);
}

TEST_F(ObsTest, GaugeTakesLastWrite) {
  const Gauge g = gauge("test.gauge");
  g.set(1.5);
  g.set(-2.25);
  const MetricsSnapshot snap = snapshot();
  const MetricValue* m = snap.find("test.gauge");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::Gauge);
  EXPECT_EQ(m->value, -2.25);
}

TEST_F(ObsTest, HistogramBucketsCountAndSum) {
  const Histogram h = histogram("test.hist");
  h.observe(0);    // bucket 0
  h.observe(1);    // bucket 1
  h.observe(5);    // bucket 3: [4, 8)
  h.observe(700);  // bucket 10: [512, 1024)
  const MetricsSnapshot snap = snapshot();
  const MetricValue* m = snap.find("test.hist");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->kind, MetricKind::Histogram);
  EXPECT_EQ(m->hist.count, 4u);
  EXPECT_EQ(m->hist.sum, 706u);
  EXPECT_EQ(m->hist.buckets[0], 1u);
  EXPECT_EQ(m->hist.buckets[1], 1u);
  EXPECT_EQ(m->hist.buckets[3], 1u);
  EXPECT_EQ(m->hist.buckets[10], 1u);
}

TEST_F(ObsTest, RegistrationIsIdempotentAndKindChecked) {
  (void)counter("test.kind");
  (void)counter("test.kind");  // same kind: fine
  EXPECT_THROW((void)gauge("test.kind"), std::runtime_error);
}

TEST_F(ObsTest, SpanRecordsCompleteEventAndHistogram) {
  const Histogram h = histogram("test.span_ns");
  {
    MO_SPAN_HIST("test.span", h);
  }
  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "test.span");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_GT(events[0].tid, 0u);
  const MetricsSnapshot snap = snapshot();
  const MetricValue* m = snap.find("test.span_ns");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->hist.count, 1u);
}

TEST_F(ObsTest, SpanIsNoOpWhileDisabled) {
  set_enabled(false);
  {
    MO_SPAN("test.disabled_span");
  }
  set_enabled(true);
  EXPECT_TRUE(trace_events().empty());
}

TEST_F(ObsTest, TraceJsonlRoundTrip) {
  record_counter("test.curve", 1.25);
  record_instant("test.marker");
  {
    MO_SPAN("test.work");
  }
  const std::vector<TraceEvent> events = trace_events();
  ASSERT_EQ(events.size(), 3u);

  std::ostringstream jsonl;
  write_trace_jsonl(jsonl);
  std::istringstream in(jsonl.str());
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), events.size());
  EXPECT_NE(lines[0].find("\"name\":\"test.curve\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"phase\":\"C\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"value\":1.25"), std::string::npos);
  EXPECT_NE(lines[1].find("\"phase\":\"i\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"name\":\"test.work\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"phase\":\"X\""), std::string::npos);

  // Timestamps survive the round trip verbatim.
  EXPECT_NE(lines[2].find("\"ts_ns\":" + std::to_string(events[2].ts_ns)),
            std::string::npos);
  EXPECT_NE(lines[2].find("\"dur_ns\":" + std::to_string(events[2].dur_ns)),
            std::string::npos);
}

TEST_F(ObsTest, ChromeTraceIsWellFormedJson) {
  {
    MO_SPAN("test.chrome");
  }
  record_counter("test.chrome_curve", 3.0);
  std::ostringstream out;
  write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":3"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  long braces = 0, brackets = 0;
  for (char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(ObsTest, RingWrapsKeepingMostRecent) {
  set_trace_capacity(4);
  for (int i = 0; i < 10; ++i) record_instant("test.wrap");
  const std::vector<TraceEvent> events = trace_events();
  EXPECT_EQ(events.size(), 4u);
  EXPECT_EQ(trace_dropped(), 6u);
  // Oldest-first ordering within the retained window.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
  }
  set_trace_capacity(1 << 16);  // restore the default for later tests
}

TEST_F(ObsTest, SnapshotJsonShape) {
  counter("test.json_c");  // registered-but-zero still serializes
  const Counter c = counter("test.json_c");
  const Gauge g = gauge("test.json_g");
  c.add(2);
  g.set(0.5);
  const std::string json = snapshot().to_json();
  EXPECT_NE(json.find("\"test.json_c\":2"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_g\":0.5"), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

TEST_F(ObsTest, BenchReportJsonHasAllSchemaKeys) {
  const Counter c = counter("test.bench_counter");
  c.add(11);
  BenchReport report;
  report.bench = "unit";
  report.config.emplace_back("scale", "0.5");
  report.wall_seconds = 1.5;
  report.metrics = snapshot();
  report.add_summary("samples", {1.0, 2.0, 3.0});
  const std::string json = report.to_json();
  for (const char* key :
       {"\"schema_version\": 1", "\"bench\": \"unit\"", "\"git_sha\": ",
        "\"timestamp_unix\": ", "\"config\": {\"scale\":\"0.5\"}",
        "\"wall_seconds\": 1.5", "\"test.bench_counter\":11",
        "\"summaries\": {", "\"samples\": {", "\"p99\":", "\"sum\":6"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

}  // namespace
}  // namespace metaopt::obs
