// Tests for the observability layer (src/obs): sharded metrics under
// concurrency, trace ring-buffer overflow, chrome://tracing export, the
// JSONL run report, and the instrumentation macros. The whole file also
// compiles with -DBIGCITY_OBS=OFF (the macro tests drop out), which is how
// CI proves the probes are compile-out-able.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.h"

namespace bigcity::obs {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CounterTest, ConcurrentAddsMerge) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(), uint64_t{kThreads} * kPerThread);
  counter.Reset();
  EXPECT_EQ(counter.Value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);
  gauge.Set(-1.0);
  EXPECT_EQ(gauge.Value(), -1.0);
  gauge.Reset();
  EXPECT_EQ(gauge.Value(), 0.0);
}

TEST(GaugeTest, AddAccumulatesAcrossThreads) {
  Gauge gauge;
  gauge.Set(3.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&gauge, t] {
      for (int i = 0; i < 1000; ++i) gauge.Add(t % 2 == 0 ? 2.0 : -1.0);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(gauge.Value(), 3.0 + 2 * 2000.0 - 2 * 1000.0);
}

TEST(HistogramTest, BucketsCountSumMean) {
  Histogram histogram({1.0, 10.0, 100.0});
  histogram.Record(0.5);    // <= 1
  histogram.Record(10.0);   // <= 10 (bounds are inclusive upper edges)
  histogram.Record(50.0);   // <= 100
  histogram.Record(500.0);  // overflow
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 560.5);
  EXPECT_DOUBLE_EQ(histogram.Mean(), 560.5 / 4.0);
  const std::vector<uint64_t> expected = {1, 1, 1, 1};
  EXPECT_EQ(histogram.BucketCounts(), expected);
  histogram.Reset();
  EXPECT_EQ(histogram.Count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 0.0);
}

TEST(HistogramTest, ConcurrentRecordsMerge) {
  Histogram histogram({1.0, 10.0});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (int i = 0; i < kPerThread; ++i) histogram.Record(2.0);
    });
  }
  for (auto& thread : threads) thread.join();
  const uint64_t total = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(histogram.Count(), total);
  // Integer-valued records sum exactly in a double (well below 2^53).
  EXPECT_DOUBLE_EQ(histogram.Sum(), 2.0 * static_cast<double>(total));
  EXPECT_EQ(histogram.BucketCounts()[1], total);
}

TEST(HistogramTest, EmptyBoundsIsCountSumOnly) {
  Histogram histogram({});
  histogram.Record(3.0);
  histogram.Record(7.0);
  EXPECT_EQ(histogram.Count(), 2u);
  EXPECT_DOUBLE_EQ(histogram.Sum(), 10.0);
  ASSERT_EQ(histogram.BucketCounts().size(), 1u);  // Overflow bucket only.
  EXPECT_EQ(histogram.BucketCounts()[0], 2u);
}

TEST(RegistryTest, HandlesAreStableAcrossReset) {
  auto& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("test.registry.stable");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(registry.GetCounter("test.registry.stable"), counter);
  counter->Add(5);
  registry.Reset();
  // Reset zeroes values but never invalidates handles: cached pointers in
  // the instrumentation macros must stay usable.
  EXPECT_EQ(counter->Value(), 0u);
  counter->Add(2);
  EXPECT_EQ(registry.GetCounter("test.registry.stable")->Value(), 2u);
  Histogram* histogram = registry.GetHistogram("test.registry.hist");
  EXPECT_EQ(registry.GetHistogram("test.registry.hist"), histogram);
}

TEST(RegistryTest, SnapshotCapturesAllMetricKinds) {
  auto& registry = MetricsRegistry::Global();
  registry.GetCounter("test.snapshot.counter")->Add(3);
  registry.GetGauge("test.snapshot.gauge")->Set(1.5);
  registry.GetHistogram("test.snapshot.hist", {10.0})->Record(4.0);
  const MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("test.snapshot.counter"), 3u);
  EXPECT_DOUBLE_EQ(snapshot.gauges.at("test.snapshot.gauge"), 1.5);
  const auto& hist = snapshot.histograms.at("test.snapshot.hist");
  EXPECT_EQ(hist.count, 1u);
  EXPECT_DOUBLE_EQ(hist.sum, 4.0);

  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"test.snapshot.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(TraceBufferTest, OverflowDropsOldestAndCounts) {
  TraceBuffer buffer(4);
  static const char* const kNames[] = {"e0", "e1", "e2", "e3", "e4", "e5"};
  for (uint64_t i = 0; i < 6; ++i) {
    TraceEvent event;
    event.name = kNames[i];
    event.category = "test";
    event.start_us = i;
    buffer.Record(event);
  }
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.dropped(), 2u);
  const std::vector<TraceEvent> events = buffer.Events();
  ASSERT_EQ(events.size(), 4u);
  // Drop-OLDEST: the survivors are the newest events, oldest first.
  EXPECT_STREQ(events.front().name, "e2");
  EXPECT_STREQ(events.back().name, "e5");
  EXPECT_EQ(events.front().start_us, 2u);
}

TEST(TraceBufferTest, SetCapacityClearsBufferAndDropCounter) {
  TraceBuffer buffer(2);
  TraceEvent event;
  event.name = "e";
  buffer.Record(event);
  buffer.Record(event);
  buffer.Record(event);
  EXPECT_EQ(buffer.dropped(), 1u);
  buffer.SetCapacity(8);
  EXPECT_EQ(buffer.capacity(), 8u);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.dropped(), 0u);
}

TEST(TraceSpanTest, DisabledTracingRecordsNoEvents) {
  TraceBuffer::Global().Clear();
  ASSERT_FALSE(TracingEnabled());
  { TraceSpan span("test.inert", "test"); }
  EXPECT_EQ(TraceBuffer::Global().size(), 0u);
}

TEST(TraceSpanTest, HistogramFeedsEvenWhenTracingDisabled) {
  Histogram histogram({});
  ASSERT_FALSE(TracingEnabled());
  { TraceSpan span("test.hist_only", "test", &histogram); }
  EXPECT_EQ(histogram.Count(), 1u);
}

TEST(TraceSpanTest, NestedSpansExportValidChromeJson) {
  TraceBuffer::Global().Clear();
  SetTracingEnabled(true);
  {
    TraceSpan outer("test.outer", "test");
    { TraceSpan inner("test.inner", "test"); }
  }
  SetTracingEnabled(false);

  const std::vector<TraceEvent> events = TraceBuffer::Global().Events();
  ASSERT_EQ(events.size(), 2u);
  // Spans record at destruction, so the inner one lands first.
  const TraceEvent& inner = events[0];
  const TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "test.inner");
  EXPECT_STREQ(outer.name, "test.outer");
  // Chrome infers nesting from containment on the same tid.
  EXPECT_EQ(inner.thread_id, outer.thread_id);
  EXPECT_GE(inner.start_us, outer.start_us);
  EXPECT_LE(inner.start_us + inner.duration_us,
            outer.start_us + outer.duration_us);

  const std::string path = testing::TempDir() + "/obs_test_trace.json";
  std::string error;
  ASSERT_TRUE(TraceBuffer::Global().WriteJson(path, &error)) << error;
  const std::string json = ReadFile(path);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.outer\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"test.inner\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceIdTest, NextTraceIdIsNonzeroAndUnique) {
  const uint64_t a = NextTraceId();
  const uint64_t b = NextTraceId();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
  uint64_t from_thread = 0;
  std::thread([&from_thread] { from_thread = NextTraceId(); }).join();
  EXPECT_NE(from_thread, 0u);
  EXPECT_NE(from_thread, a);
  EXPECT_NE(from_thread, b);
}

TEST(TraceIdTest, ScopeStampsSpansAndRestoresOnExit) {
  TraceBuffer::Global().Clear();
  ASSERT_EQ(CurrentTraceId(), 0u);
  SetTracingEnabled(true);
  const uint64_t outer_id = NextTraceId();
  const uint64_t inner_id = NextTraceId();
  {
    TraceIdScope outer(outer_id);
    EXPECT_EQ(CurrentTraceId(), outer_id);
    {
      // Nested scopes (the batch-fallback path) shadow and restore.
      TraceIdScope inner(inner_id);
      EXPECT_EQ(CurrentTraceId(), inner_id);
      TraceSpan span("test.scoped_inner", "test");
    }
    EXPECT_EQ(CurrentTraceId(), outer_id);
    TraceSpan span("test.scoped_outer", "test");
  }
  SetTracingEnabled(false);
  EXPECT_EQ(CurrentTraceId(), 0u);

  const std::vector<TraceEvent> events = TraceBuffer::Global().Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].trace_id, inner_id);
  EXPECT_EQ(events[1].trace_id, outer_id);
}

TEST(TraceFlowTest, FlowEventsExportWithBindingIdAndArgs) {
  TraceBuffer::Global().Clear();
  RecordFlowEvent("test.flow", "test", 's', 77);  // Tracing off: dropped.
  EXPECT_EQ(TraceBuffer::Global().size(), 0u);

  SetTracingEnabled(true);
  const uint64_t id = NextTraceId();
  {
    TraceIdScope scope(id);
    TraceSpan span("test.flow_span", "test");
    RecordFlowEvent("test.flow", "test", 's', id);
    RecordFlowEvent("test.flow", "test", 't', id);
    RecordFlowEvent("test.flow", "test", 'f', id);
  }
  SetTracingEnabled(false);

  const std::vector<TraceEvent> events = TraceBuffer::Global().Events();
  ASSERT_EQ(events.size(), 4u);  // Three flow markers + the enclosing span.
  EXPECT_EQ(events[0].phase, 's');
  EXPECT_EQ(events[1].phase, 't');
  EXPECT_EQ(events[2].phase, 'f');
  EXPECT_EQ(events[3].phase, 'X');
  for (const TraceEvent& event : events) EXPECT_EQ(event.trace_id, id);
  // Flow markers must land inside the span's interval on the same thread —
  // that containment is what chrome uses to attach the arrows to slices.
  const TraceEvent& span = events[3];
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(events[i].thread_id, span.thread_id);
    EXPECT_GE(events[i].start_us, span.start_us);
    EXPECT_LE(events[i].start_us, span.start_us + span.duration_us);
  }

  const std::string path = testing::TempDir() + "/obs_test_flow.json";
  std::string error;
  ASSERT_TRUE(TraceBuffer::Global().WriteJson(path, &error)) << error;
  const std::string json = ReadFile(path);
  const std::string id_str = std::to_string(id);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  // The finish marker binds to its enclosing slice, not the next one.
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":" + id_str), std::string::npos);
  // The span carries the id under args so X events are greppable by id.
  EXPECT_NE(json.find("\"args\":{\"trace_id\":" + id_str + "}"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceBufferTest, DropOldestKeepsDroppedCount) {
  TraceBuffer buffer(2);
  TraceEvent event;
  event.name = "drop";
  for (int i = 0; i < 5; ++i) buffer.Record(event);
  EXPECT_EQ(buffer.dropped(), 3u);
#if BIGCITY_OBS
  // Every ring overwrite also moves the global trace.dropped counter, so
  // run reports can surface truncation without touching the buffer.
  EXPECT_GE(MetricsRegistry::Global().GetCounter("trace.dropped")->Value(),
            3u);
#endif
}

TEST(SloTrackerTest, WindowStatisticsAndBurnRate) {
  SloTracker tracker;
  SloObjective objective;
  objective.success_rate = 0.9;  // Error budget: 10%.
  objective.p99_us = 100.0;
  objective.window = 8;
  const int task = tracker.RegisterTask("SloMath", objective);
  // Re-registration returns the same handle and keeps the window.
  EXPECT_EQ(tracker.RegisterTask("SloMath", objective), task);

  for (int i = 0; i < 6; ++i) tracker.Record(task, true, 10.0);
  tracker.Record(task, false, 50.0);
  tracker.Record(task, false, 500.0);

  const SloTracker::TaskSnapshot snapshot = tracker.Snapshot(task);
  EXPECT_EQ(snapshot.window_requests, 8u);
  EXPECT_DOUBLE_EQ(snapshot.success_rate, 0.75);
  // Burn = error rate / budget = 0.25 / 0.10.
  EXPECT_NEAR(snapshot.burn_rate, 2.5, 1e-9);
  EXPECT_DOUBLE_EQ(snapshot.p50_us, 10.0);
  EXPECT_DOUBLE_EQ(snapshot.p99_us, 500.0);
  EXPECT_FALSE(snapshot.p99_within_objective);

  tracker.Publish();
  auto& registry = MetricsRegistry::Global();
  EXPECT_DOUBLE_EQ(registry.GetGauge("slo.SloMath.success_rate")->Value(),
                   0.75);
  EXPECT_NEAR(registry.GetGauge("slo.SloMath.burn_rate")->Value(), 2.5, 1e-9);
  EXPECT_DOUBLE_EQ(registry.GetGauge("slo.SloMath.p99_us")->Value(), 500.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("slo.SloMath.p99_within_objective")->Value(), 0.0);
  EXPECT_DOUBLE_EQ(
      registry.GetGauge("slo.SloMath.window_requests")->Value(), 8.0);

  // The window slides: 8 successes evict both failures.
  for (int i = 0; i < 8; ++i) tracker.Record(task, true, 10.0);
  EXPECT_DOUBLE_EQ(tracker.Snapshot(task).success_rate, 1.0);
  EXPECT_DOUBLE_EQ(tracker.Snapshot(task).burn_rate, 0.0);
}

TEST(SloTrackerTest, PerfectObjectiveUsesSentinelBurn) {
  SloTracker tracker;
  SloObjective objective;
  objective.success_rate = 1.0;  // No error budget at all.
  objective.window = 4;
  const int task = tracker.RegisterTask("SloPerfect", objective);
  tracker.Record(task, true, 1.0);
  EXPECT_DOUBLE_EQ(tracker.Snapshot(task).burn_rate, 0.0);
  tracker.Record(task, false, 1.0);
  // Any failure against a 100% objective is infinite burn, reported as a
  // large finite sentinel so gauges stay plottable.
  EXPECT_DOUBLE_EQ(tracker.Snapshot(task).burn_rate, 1e9);
}

TEST(SloTrackerTest, MaxBurnRateFiltersThinWindows) {
  SloTracker tracker;
  SloObjective objective;
  objective.success_rate = 0.5;
  objective.window = 16;
  const int hot = tracker.RegisterTask("SloHot", objective);
  const int thin = tracker.RegisterTask("SloThin", objective);
  for (int i = 0; i < 10; ++i) tracker.Record(hot, i % 2 == 0, 1.0);
  tracker.Record(thin, false, 1.0);  // 100% errors but only one sample.
  // Burn(hot) = 0.5 / 0.5 = 1; burn(thin) = 1 / 0.5 = 2.
  EXPECT_NEAR(tracker.MaxBurnRate(/*min_requests=*/1), 2.0, 1e-9);
  EXPECT_NEAR(tracker.MaxBurnRate(/*min_requests=*/5), 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(tracker.MaxBurnRate(/*min_requests=*/100), 0.0);
}

TEST(TelemetryExporterTest, EmitsDeltasGaugesAndFinalTick) {
  auto& registry = MetricsRegistry::Global();
  Counter* counter = registry.GetCounter("serve.test.telemetry.count");
  Gauge* gauge = registry.GetGauge("slo.TelemetryT.level");
  Counter* filtered = registry.GetCounter("train.test.telemetry.hidden");
  counter->Reset();
  counter->Add(5);
  gauge->Set(1.5);
  filtered->Add(9);

  const std::string path = testing::TempDir() + "/obs_test_telemetry.jsonl";
  std::remove(path.c_str());
  TelemetryExporter exporter;
  int preludes = 0;
  exporter.SetPrelude([&preludes] { ++preludes; });
  TelemetryExporter::Options options;
  options.interval_ms = 60000.0;  // Only the forced final tick fires.
  std::string error;
  ASSERT_TRUE(exporter.Start(path, options, &error)) << error;
  EXPECT_TRUE(exporter.running());
  exporter.Stop();
  EXPECT_FALSE(exporter.running());
  ASSERT_GE(exporter.ticks(), 1u);
  EXPECT_GE(preludes, 1);

  const std::string json = ReadFile(path);
  EXPECT_NE(json.find("\"event\":\"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\":"), std::string::npos);
  // Counters ship as deltas since the previous tick, gauges as absolutes.
  EXPECT_NE(json.find("\"serve.test.telemetry.count\":5"),
            std::string::npos);
  EXPECT_NE(json.find("\"slo.TelemetryT.level\":1.5"), std::string::npos);
  // Names outside the serve./slo. prefixes never enter the stream.
  EXPECT_EQ(json.find("train.test.telemetry.hidden"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceThreadIdTest, StablePerThreadDistinctAcrossThreads) {
  const uint32_t main_id = TraceThreadId();
  EXPECT_EQ(TraceThreadId(), main_id);
  uint32_t other_id = main_id;
  std::thread([&other_id] { other_id = TraceThreadId(); }).join();
  EXPECT_NE(other_id, main_id);
}

TEST(RunReportTest, WritesOneJsonObjectPerLine) {
  const std::string path = testing::TempDir() + "/obs_test_report.jsonl";
  {
    RunReport report;
    ASSERT_TRUE(report.Open(path));
    RunReport::Record record;
    record.Str("event", "epoch").Int("epoch", 1).Num("loss", 0.5);
    report.Write(record);
    RunReport::Record summary;
    summary.Str("event", "summary").Int("epochs", 1);
    report.Write(summary);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"event\":\"epoch\",\"epoch\":1,\"loss\":0.5}");
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"event\":\"summary\",\"epochs\":1}");
  EXPECT_FALSE(std::getline(in, line));
  std::remove(path.c_str());
}

TEST(RunReportTest, UnopenedReportIsInert) {
  RunReport report;
  EXPECT_FALSE(report.is_open());
  RunReport::Record record;
  record.Int("x", 1);
  report.Write(record);  // Must not crash.
}

TEST(RunReportTest, EscapesStringValues) {
  RunReport::Record record;
  record.Str("msg", "a\"b\\c\n");
  // Control characters escape as \u00XX (valid JSON, simplest escaper).
  EXPECT_EQ(record.json(), "{\"msg\":\"a\\\"b\\\\c\\u000a\"");
}

#if BIGCITY_OBS

TEST(ObsMacrosTest, CounterMacroFeedsRegistry) {
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.macro.counter");
  const uint64_t before = counter->Value();
  BIGCITY_COUNTER_INC("test.macro.counter");
  BIGCITY_COUNTER_ADD("test.macro.counter", 4);
  EXPECT_EQ(counter->Value(), before + 5);
}

TEST(ObsMacrosTest, GaugeMacroFeedsRegistry) {
  BIGCITY_GAUGE_SET("test.macro.gauge", 3.25);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().GetGauge("test.macro.gauge")->Value(), 3.25);
}

TEST(ObsMacrosTest, TimedScopeRecordsHistogram) {
  Histogram* histogram =
      MetricsRegistry::Global().GetHistogram("test.macro.scope_us");
  const uint64_t before = histogram->Count();
  { BIGCITY_TIMED_SCOPE_NAMED("test.macro.scope_us", "scope", "test"); }
  EXPECT_EQ(histogram->Count(), before + 1);
}

#endif  // BIGCITY_OBS

}  // namespace
}  // namespace bigcity::obs
