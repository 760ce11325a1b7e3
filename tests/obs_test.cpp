// Tests for the telemetry layer: recorder, metrics, Chrome-trace export.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/exchange_engine.hpp"
#include "core/payload_exchange.hpp"
#include "core/step_program.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "util/step_pool.hpp"

namespace torex {
namespace {

const SpanInstance* find_span(const std::vector<SpanInstance>& spans,
                              const std::string& name) {
  for (const auto& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

TEST(RecorderTest, SpansNestAndPair) {
  Recorder recorder;
  recorder.begin("outer");
  recorder.begin("inner", 3, 1, 2);
  recorder.end("inner", 3, 1, 2);
  recorder.end("outer");
  const auto spans = pair_spans(recorder.snapshot());
  ASSERT_EQ(spans.size(), 2u);
  const SpanInstance* outer = find_span(spans, "outer");
  const SpanInstance* inner = find_span(spans, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_LE(outer->begin_ns, inner->begin_ns);
  EXPECT_GE(outer->end_ns, inner->end_ns);
  EXPECT_EQ(inner->node, 3);
  EXPECT_EQ(inner->phase, 1);
  EXPECT_EQ(inner->step, 2);
}

TEST(RecorderTest, RecursiveSameNameSpansMatchLifo) {
  Recorder recorder;
  recorder.begin("loop");
  recorder.begin("loop");
  recorder.end("loop");
  recorder.end("loop");
  const auto spans = pair_spans(recorder.snapshot());
  ASSERT_EQ(spans.size(), 2u);
  // The inner pair must sit inside the outer pair, not cross it.
  const auto& a = spans[0];
  const auto& b = spans[1];
  const auto& outer = a.duration_ns() >= b.duration_ns() ? a : b;
  const auto& inner = a.duration_ns() >= b.duration_ns() ? b : a;
  EXPECT_LE(outer.begin_ns, inner.begin_ns);
  EXPECT_GE(outer.end_ns, inner.end_ns);
}

TEST(RecorderTest, UnmatchedBeginClosesAtWallTime) {
  Recorder recorder;
  recorder.begin("crashed");
  recorder.instant("later");
  const Telemetry telemetry = recorder.snapshot();
  const auto spans = pair_spans(telemetry);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].end_ns, telemetry.wall_ns);
}

TEST(RecorderTest, DropAccountingOnFullBuffer) {
  ObsOptions options;
  options.events_per_thread = 4;
  Recorder recorder(options);
  for (int i = 0; i < 10; ++i) recorder.instant("tick");
  const Telemetry telemetry = recorder.snapshot();
  EXPECT_EQ(telemetry.events.size(), 4u);
  EXPECT_EQ(telemetry.dropped_events, 6);
  EXPECT_EQ(recorder.dropped_events(), 6);
}

TEST(RecorderTest, DisabledRecorderIsANoOp) {
  ObsOptions options;
  options.enabled = false;
  Recorder recorder(options);
  EXPECT_FALSE(recorder.enabled());
  recorder.begin("span");
  recorder.instant("instant");
  recorder.counter("track", 7);
  recorder.end("span");
  { SpanGuard guard(&recorder, "guarded"); }
  { SpanGuard guard(nullptr, "null"); }
  const Telemetry telemetry = recorder.snapshot();
  EXPECT_TRUE(telemetry.events.empty());
  EXPECT_EQ(telemetry.dropped_events, 0);
}

TEST(RecorderTest, CopiesShareOneSnapshot) {
  Recorder recorder;
  Recorder copy = recorder;
  recorder.instant("from_original");
  copy.instant("from_copy");
  const Telemetry telemetry = recorder.snapshot();
  ASSERT_EQ(telemetry.events.size(), 2u);
}

TEST(RecorderTest, ThreadsRecordIntoSeparateStreams) {
  Recorder recorder;
  recorder.instant("main");
  std::thread worker([&] { recorder.instant("worker"); });
  worker.join();
  const Telemetry telemetry = recorder.snapshot();
  EXPECT_EQ(telemetry.events.size(), 2u);
  EXPECT_EQ(telemetry.streams, 2);
  EXPECT_NE(telemetry.events[0].tid, telemetry.events[1].tid);
}

TEST(MetricsTest, HistogramBucketEdgesAreInclusive) {
  Histogram histogram({10, 20});
  for (std::int64_t v : {5, 10, 11, 20, 21, 1000}) histogram.observe(v);
  const auto counts = histogram.bucket_counts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 2);  // 5, 10 — the edge lands in its bucket
  EXPECT_EQ(counts[1], 2);  // 11, 20
  EXPECT_EQ(counts[2], 2);  // 21, 1000 overflow
  EXPECT_EQ(histogram.count(), 6);
  EXPECT_EQ(histogram.min(), 5);
  EXPECT_EQ(histogram.max(), 1000);
}

TEST(MetricsTest, RegistryFindOrCreateAndKindCollision) {
  MetricsRegistry registry;
  registry.counter("a.count").add(3);
  registry.counter("a.count").add(2);
  EXPECT_EQ(registry.counter("a.count").value(), 5);
  registry.gauge("a.level").set(9);
  EXPECT_THROW(registry.gauge("a.count"), std::logic_error);
  EXPECT_THROW(registry.histogram("a.level", {1, 2}), std::logic_error);
  const MetricsSnapshot snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counter_value("a.count"), 5);
  EXPECT_EQ(snapshot.counter_value("never.registered"), 0);
}

TEST(MetricsTest, LabeledMetricsAreDistinctInstruments) {
  MetricsRegistry registry;
  registry.counter("svc.offered").add(1);
  registry.counter("svc.offered", {{"tenant", "a"}}).add(10);
  registry.counter("svc.offered", {{"tenant", "b"}}).add(20);
  // Label order does not matter: the registry canonicalizes by key.
  registry.counter("x", {{"b", "2"}, {"a", "1"}}).add(7);
  EXPECT_EQ(registry.counter("x", {{"a", "1"}, {"b", "2"}}).value(), 7);

  const MetricsSnapshot snapshot = registry.snapshot();
  // The unlabeled lookup matches only the unlabeled instrument.
  EXPECT_EQ(snapshot.counter_value("svc.offered"), 1);
  EXPECT_EQ(snapshot.counter_value("svc.offered", {{"tenant", "a"}}), 10);
  EXPECT_EQ(snapshot.counter_value("svc.offered", {{"tenant", "b"}}), 20);
  EXPECT_EQ(snapshot.counter_value("svc.offered", {{"tenant", "absent"}}), 0);

  registry.gauge("depth", {{"tenant", "a"}}).set(3);
  EXPECT_EQ(registry.snapshot().gauge_value("depth", {{"tenant", "a"}}), 3);
  EXPECT_EQ(registry.snapshot().gauge_value("depth"), 0);

  // A name owns one kind across every label set.
  EXPECT_THROW(registry.gauge("svc.offered", {{"tenant", "c"}}), std::logic_error);
  EXPECT_THROW(registry.counter("depth"), std::logic_error);

  // Malformed labels are rejected outright.
  EXPECT_THROW(registry.counter("bad", {{"", "v"}}), std::exception);
  EXPECT_THROW(registry.counter("bad", {{"k", "1"}, {"k", "2"}}), std::exception);
}

TEST(MetricsTest, LabeledHistogramSnapshotLookup) {
  MetricsRegistry registry;
  registry.histogram("lat", {10, 100}, {{"tenant", "a"}}).observe(5);
  registry.histogram("lat", {10, 100}, {{"tenant", "a"}}).observe(50);
  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSnapshot* h = snapshot.histogram("lat", {{"tenant", "a"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 2);
  EXPECT_EQ(h->sum, 55);
  EXPECT_EQ(snapshot.histogram("lat"), nullptr);
  EXPECT_EQ(snapshot.histogram("lat", {{"tenant", "b"}}), nullptr);
}

TEST(MetricsTest, HistogramPercentileInterpolates) {
  Histogram histogram({100, 200, 400});
  for (std::int64_t v = 1; v <= 100; ++v) histogram.observe(v);
  // All mass in the first bucket: the median interpolates inside it.
  const double p50 = histogram.percentile(0.5);
  EXPECT_GT(p50, 25.0);
  EXPECT_LT(p50, 75.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.0), 1.0);   // min
  EXPECT_DOUBLE_EQ(histogram.percentile(1.0), 100.0); // max

  Histogram overflowing({10});
  overflowing.observe(5);
  overflowing.observe(1000);
  // p99 lives in the overflow bucket, which interpolates up to max.
  EXPECT_LE(overflowing.percentile(0.99), 1000.0);
  EXPECT_GT(overflowing.percentile(0.99), 10.0);

  Histogram empty({10});
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

  // The snapshot computes the same estimate from copied buckets.
  MetricsRegistry registry;
  Histogram& reg = registry.histogram("h", {100, 200, 400});
  for (std::int64_t v = 1; v <= 100; ++v) reg.observe(v);
  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSnapshot* snap = snapshot.histogram("h");
  ASSERT_NE(snap, nullptr);
  EXPECT_DOUBLE_EQ(snap->percentile(0.5), p50);
}

TEST(MetricsTest, PercentileEdgesClampToObservations) {
  // q=0 and q=1 are exactly the observed extremes, never bucket edges.
  Histogram histogram({100, 200, 400});
  histogram.observe(37);
  histogram.observe(53);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.0), 37.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(1.0), 53.0);
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(histogram.percentile(-0.5), 37.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(2.0), 53.0);
  // Interior percentiles stay inside [min, max] even though the
  // covering bucket's nominal range is [0, 100].
  for (double q : {0.01, 0.25, 0.5, 0.75, 0.99}) {
    EXPECT_GE(histogram.percentile(q), 37.0) << "q=" << q;
    EXPECT_LE(histogram.percentile(q), 53.0) << "q=" << q;
  }
}

TEST(MetricsTest, PercentileAllMassInOverflowBucket) {
  // Every observation beyond the last bound: the overflow bucket's
  // nominal lower edge (the last bound) undercuts the data; the
  // estimate must interpolate across the observed range instead.
  Histogram histogram({10, 20});
  histogram.observe(500);
  histogram.observe(600);
  histogram.observe(700);
  EXPECT_DOUBLE_EQ(histogram.percentile(0.0), 500.0);
  EXPECT_DOUBLE_EQ(histogram.percentile(1.0), 700.0);
  for (double q : {0.1, 0.5, 0.9}) {
    EXPECT_GE(histogram.percentile(q), 500.0) << "q=" << q;
    EXPECT_LE(histogram.percentile(q), 700.0) << "q=" << q;
  }
}

TEST(MetricsTest, PercentileEmptyAndDegenerateHistograms) {
  // Empty: no observations, every quantile reports 0.
  Histogram empty({10, 20});
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(empty.percentile(q), 0.0) << "q=" << q;
  }
  // A single observation: every quantile is that value.
  Histogram single({10, 20});
  single.observe(15);
  for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(single.percentile(q), 15.0) << "q=" << q;
  }
  // Single observation in the overflow bucket: still exactly itself
  // (the lo > hi guard keeps the degenerate bucket from inverting).
  Histogram single_over({10});
  single_over.observe(1000);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(single_over.percentile(q), 1000.0) << "q=" << q;
  }
  // The snapshot path hits the same estimator and the same edges.
  MetricsRegistry registry;
  registry.histogram("h", {10});  // registered but never observed
  const MetricsSnapshot snapshot = registry.snapshot();
  const HistogramSnapshot* snap = snapshot.histogram("h");
  ASSERT_NE(snap, nullptr);
  EXPECT_DOUBLE_EQ(snap->percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap->percentile(1.0), 0.0);
}

TEST(MetricsTest, FreePercentileMatchesOrderStatistics) {
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
}

TEST(MetricsTest, ConcurrentLabeledUpdatesAreRaceFree) {
  // TSan coverage: registration (registry mutex) races against
  // lock-free updates across many label sets.
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      const std::string tenant = "t" + std::to_string(t % 2);
      for (int i = 0; i < kIters; ++i) {
        registry.counter("conc.count", {{"tenant", tenant}}).add();
        registry.gauge("conc.level", {{"tenant", tenant}}).set(i);
        registry.histogram("conc.lat", {10, 100}, {{"tenant", tenant}}).observe(i % 128);
      }
    });
  }
  for (auto& t : threads) t.join();
  const MetricsSnapshot snapshot = registry.snapshot();
  const std::int64_t total = snapshot.counter_value("conc.count", {{"tenant", "t0"}}) +
                             snapshot.counter_value("conc.count", {{"tenant", "t1"}});
  EXPECT_EQ(total, kThreads * kIters);
  const HistogramSnapshot* h = snapshot.histogram("conc.lat", {{"tenant", "t0"}});
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, (kThreads / 2) * kIters);
}

TEST(ChromeTraceTest, ExportIsWellFormedJson) {
  Recorder recorder;
  {
    SpanGuard run(&recorder, "run");
    SpanGuard step(&recorder, "step", 4, 1, 2);
    recorder.instant("weird \"name\" \\ with\tescapes", 4, 1, 2, -17);
    recorder.counter("track", 42, 4);
  }
  std::string error;
  const std::string json = chrome_trace_json(recorder.snapshot());
  EXPECT_TRUE(json_well_formed(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(ChromeTraceTest, DropAccountingLandsInTraceMetadataAndSummary) {
  ObsOptions options;
  options.events_per_thread = 4;
  Recorder recorder(options);
  for (int i = 0; i < 10; ++i) recorder.instant("tick");
  const Telemetry telemetry = recorder.snapshot();
  const std::string json = chrome_trace_json(telemetry);
  std::string error;
  EXPECT_TRUE(json_well_formed(json, &error)) << error;
  // The telemetry metadata event carries the drop count, so a trace
  // file is self-describing about its own completeness.
  EXPECT_NE(json.find("\"name\":\"telemetry\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":6"), std::string::npos);

  PhaseSummary summary;
  summary.dropped_events = telemetry.dropped_events;
  summary.streams = telemetry.streams;
  std::ostringstream os;
  print_phase_summary(os, summary);
  EXPECT_NE(os.str().find("6 dropped event(s)"), std::string::npos);
  EXPECT_NE(os.str().find("WARNING"), std::string::npos);

  std::ostringstream clean;
  print_phase_summary(clean, PhaseSummary{});
  EXPECT_EQ(clean.str().find("WARNING"), std::string::npos);
}

TEST(ChromeTraceTest, ValidatorRejectsMalformedJson) {
  EXPECT_TRUE(json_well_formed("{\"a\": [1, 2.5e3, true, null, \"x\\n\"]}"));
  EXPECT_FALSE(json_well_formed(""));
  EXPECT_FALSE(json_well_formed("{\"a\": 1"));
  EXPECT_FALSE(json_well_formed("{\"a\": 1} trailing"));
  EXPECT_FALSE(json_well_formed("{\"a\": 01}"));
  EXPECT_FALSE(json_well_formed("{\"a\": \"\\q\"}"));
  EXPECT_FALSE(json_well_formed("{'a': 1}"));
  std::string error;
  EXPECT_FALSE(json_well_formed("[1, ]", &error));
  EXPECT_FALSE(error.empty());
}

TEST(ChromeTraceTest, InstrumentedEngineRunSummarizes) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  Recorder recorder;
  EngineOptions options;
  options.obs = &recorder;
  const ExchangeTrace trace = ExchangeEngine(algo, options).run_verified();
  const Telemetry telemetry = recorder.snapshot();
  EXPECT_GT(telemetry.events.size(), 0u);
  EXPECT_EQ(telemetry.metrics.counter_value("exchange.steps"),
            static_cast<std::int64_t>(trace.steps.size()));

  const PhaseSummary summary = summarize_vs_model(telemetry, trace, CostParams{});
  // One row per schedule phase that has steps, then the rearrangement
  // and total rows.
  std::set<int> phases;
  for (const auto& step : trace.steps) phases.insert(step.phase);
  ASSERT_EQ(summary.rows.size(), phases.size() + 2u);
  EXPECT_EQ(summary.rows.back().label, "total");
  EXPECT_GT(summary.rows.back().measured_ns, 0);
  EXPECT_GT(summary.rows.back().model_cost, 0.0);
  std::int64_t steps = 0;
  for (std::size_t i = 0; i + 2 < summary.rows.size(); ++i) steps += summary.rows[i].steps;
  EXPECT_EQ(steps, static_cast<std::int64_t>(trace.steps.size()));
}

TEST(ChromeTraceTest, DisabledRecorderThroughEngineRecordsNothing) {
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  ObsOptions obs_options;
  obs_options.enabled = false;
  Recorder recorder(obs_options);
  EngineOptions options;
  options.obs = &recorder;
  ExchangeEngine(algo, options).run_verified();
  EXPECT_TRUE(recorder.snapshot().events.empty());
}

TEST(ChromeTraceTest, PooledKernelRecordsOnTheCallingThreadOnly) {
  // The step kernel's workers record nothing: every span of a run on a
  // four-participant pool wraps the stages on the calling thread.
  const SuhShinAape algo(TorusShape::make_2d(4, 4));
  const auto n = static_cast<std::size_t>(algo.shape().num_nodes());
  std::vector<std::vector<std::int64_t>> rows(n, std::vector<std::int64_t>(n));
  Recorder recorder;
  StepPool pool(4);
  WireExchangeOptions options;
  options.pool = &pool;
  options.obs = &recorder;
  exchange_payloads_pooled(algo, StepProgram(algo), std::move(rows), options);
  const Telemetry telemetry = recorder.snapshot();
  EXPECT_EQ(telemetry.streams, 1);
  const auto spans = pair_spans(telemetry);
  for (const char* name : {"exchange", "phase", "step", "permute"}) {
    EXPECT_NE(find_span(spans, name), nullptr) << name;
  }
  std::string error;
  EXPECT_TRUE(json_well_formed(chrome_trace_json(telemetry), &error)) << error;
}

}  // namespace
}  // namespace torex
