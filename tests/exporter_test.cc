#include "obs/exporter.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/task_scheduler.h"

namespace rudolf {
namespace obs {
namespace {

std::string TempPath(const char* stem) {
  return "/tmp/rudolf_exporter_test_" + std::string(stem) + "_" +
         std::to_string(getpid());
}

// ---------------------------------------------------------------------------
// Prometheus name/label plumbing.

TEST(PromExposition, SanitizesRegistryNames) {
  EXPECT_EQ(SanitizePrometheusName("fleet.round.seconds"),
            "rudolf_fleet_round_seconds");
  EXPECT_EQ(SanitizePrometheusName("already_fine:yes"),
            "rudolf_already_fine:yes");
  EXPECT_EQ(SanitizePrometheusName("weird-name with spaces!"),
            "rudolf_weird_name_with_spaces_");
  // The rudolf_ prefix also shields names that would start with a digit.
  EXPECT_EQ(SanitizePrometheusName("9lives"), "rudolf_9lives");
}

TEST(PromExposition, EscapesLabelValues) {
  EXPECT_EQ(EscapePrometheusLabelValue("plain"), "plain");
  EXPECT_EQ(EscapePrometheusLabelValue("a\"b"), "a\\\"b");
  EXPECT_EQ(EscapePrometheusLabelValue("a\\b"), "a\\\\b");
  EXPECT_EQ(EscapePrometheusLabelValue("a\nb"), "a\\nb");
}

// ---------------------------------------------------------------------------
// Golden exposition rendering from a hand-built snapshot: exact text, so a
// format regression (ordering, TYPE lines, cumulativity) fails loudly.

TEST(PromExposition, GoldenCounterAndGauge) {
  MetricsSnapshot snap;
  snap.counters.push_back({"fleet.rounds", 12, 0});
  snap.counters.push_back({"fleet.rounds", 7, 3});
  snap.gauges.push_back({"fleet.memory.bytes", 4096, 0});

  std::string text = RenderPrometheus(snap);
  EXPECT_EQ(text,
            "# TYPE rudolf_fleet_rounds counter\n"
            "rudolf_fleet_rounds 12\n"
            "rudolf_fleet_rounds{tenant=\"3\"} 7\n"
            "# TYPE rudolf_fleet_memory_bytes gauge\n"
            "rudolf_fleet_memory_bytes 4096\n");
}

TEST(PromExposition, HistogramIsCumulativeWithInfBucket) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("t.seconds");
  h->Record(1.5e-6);   // bucket 0 ([0, 2µs))
  h->Record(3e-6);     // bucket 1 ([2µs, 4µs))
  h->Record(3.5e-6);   // bucket 1
  std::string text = RenderPrometheus(registry.Snapshot());

  // One TYPE line, then cumulative buckets closed by +Inf, then sum/count.
  EXPECT_NE(text.find("# TYPE rudolf_t_seconds histogram\n"),
            std::string::npos);
  EXPECT_NE(text.find("rudolf_t_seconds_bucket{le=\"2e-06\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("rudolf_t_seconds_bucket{le=\"4e-06\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rudolf_t_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("rudolf_t_seconds_count 3\n"), std::string::npos);
  // The +Inf bucket must be the last _bucket line (exposition requirement).
  size_t inf = text.find("le=\"+Inf\"");
  EXPECT_EQ(text.find("_bucket", inf + 1), std::string::npos);
}

TEST(PromExposition, TenantHistogramCarriesLabelOnEverySeries) {
  MetricsRegistry registry;
  registry.GetTenantHistogram("round.seconds", 5)->Record(1e-3);
  std::string text = RenderPrometheus(registry.Snapshot());
  EXPECT_NE(
      text.find("rudolf_round_seconds_bucket{tenant=\"5\",le=\"+Inf\"} 1\n"),
      std::string::npos);
  EXPECT_NE(text.find("rudolf_round_seconds_sum{tenant=\"5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("rudolf_round_seconds_count{tenant=\"5\"} 1\n"),
            std::string::npos);
}

TEST(PromExposition, AggregateAndLabeledShareOneTypeLine) {
  MetricsRegistry registry;
  registry.GetCounter("x.total")->Inc(10);
  registry.GetTenantCounter("x.total", 1)->Inc(4);
  registry.GetTenantCounter("x.total", 2)->Inc(6);
  std::string text = RenderPrometheus(registry.Snapshot());
  // Exactly one TYPE line for the family; unlabeled aggregate first.
  size_t first = text.find("# TYPE rudolf_x_total counter\n");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find("# TYPE rudolf_x_total counter\n", first + 1),
            std::string::npos);
  EXPECT_LT(text.find("rudolf_x_total 10\n"),
            text.find("rudolf_x_total{tenant=\"1\"} 4\n"));
}

// ---------------------------------------------------------------------------
// ValueAtQuantile: interpolation inside the holding bucket.

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("q.seconds");
  (void)h;
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSample* s = snap.FindHistogram("q.seconds");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->ValueAtQuantile(0.5), 0.0);
}

TEST(HistogramQuantile, InterpolatesWithinBucket) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("q.seconds");
  // 100 samples, all in bucket [2µs, 4µs): interpolation walks the bucket.
  for (int i = 0; i < 100; ++i) h->Record(3e-6);
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSample* s = snap.FindHistogram("q.seconds");
  ASSERT_NE(s, nullptr);
  double p50 = s->ValueAtQuantile(0.50);
  double p95 = s->ValueAtQuantile(0.95);
  EXPECT_GE(p50, 2e-6);
  EXPECT_LE(p50, 4e-6);
  EXPECT_GE(p95, p50);  // monotone in q
  EXPECT_LE(p95, 4e-6);
  // Low quantiles sit low in the bucket, strictly below its upper bound.
  EXPECT_LT(s->ValueAtQuantile(0.01), 4e-6);
}

TEST(HistogramQuantile, ClampsToObservedMax) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("q.seconds");
  for (int i = 0; i < 10; ++i) h->Record(1e-3);
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSample* s = snap.FindHistogram("q.seconds");
  ASSERT_NE(s, nullptr);
  EXPECT_LE(s->ValueAtQuantile(0.999), s->max_seconds + 1e-12);
}

TEST(HistogramQuantile, SpreadAcrossBucketsIsMonotone) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("q.seconds");
  for (int i = 0; i < 50; ++i) h->Record(1e-6);
  for (int i = 0; i < 30; ++i) h->Record(1e-4);
  for (int i = 0; i < 20; ++i) h->Record(1e-2);
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSample* s = snap.FindHistogram("q.seconds");
  ASSERT_NE(s, nullptr);
  double prev = 0;
  for (double q : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    double v = s->ValueAtQuantile(q);
    EXPECT_GE(v, prev) << "q=" << q;
    prev = v;
  }
  // p50 lands in the first mass (≤ 2µs bucket), p90 well above it.
  EXPECT_LE(s->ValueAtQuantile(0.4), 2e-6);
  EXPECT_GE(s->ValueAtQuantile(0.9), 1e-4 / 2);
}

// ---------------------------------------------------------------------------
// Tenant-labeled registry views.

TEST(TenantMetrics, TenantZeroDegradesToAggregate) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetTenantCounter("a", 0), registry.GetCounter("a"));
  EXPECT_EQ(registry.GetTenantGauge("g", 0), registry.GetGauge("g"));
  EXPECT_EQ(registry.GetTenantHistogram("h", 0), registry.GetHistogram("h"));
}

TEST(TenantMetrics, LabeledSeriesAreDistinctAndStable) {
  MetricsRegistry registry;
  Counter* t1 = registry.GetTenantCounter("a", 1);
  Counter* t2 = registry.GetTenantCounter("a", 2);
  EXPECT_NE(t1, t2);
  EXPECT_NE(t1, registry.GetCounter("a"));
  EXPECT_EQ(t1, registry.GetTenantCounter("a", 1));  // stable pointer
  t1->Inc(3);
  t2->Inc(4);
  registry.GetCounter("a")->Inc(7);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.FindCounter("a")->value, 7u);
  EXPECT_EQ(snap.FindCounter("a", 1)->value, 3u);
  EXPECT_EQ(snap.FindCounter("a", 2)->value, 4u);
}

TEST(TenantMetrics, MacrosRecordUnderTenantScope) {
  // The macros hit the Default() registry; unique names isolate the test.
  {
    TenantScope scope(41);
    RUDOLF_TENANT_COUNTER_INC("exporter_test.scoped.rounds");
    RUDOLF_TENANT_SCOPED_LATENCY("exporter_test.scoped.seconds");
  }
  RUDOLF_TENANT_COUNTER_INC("exporter_test.scoped.rounds");  // no tenant

  MetricsSnapshot snap = MetricsRegistry::Default().Snapshot();
  // Aggregate counts both increments; the labeled series only the scoped one.
  EXPECT_EQ(snap.FindCounter("exporter_test.scoped.rounds")->value, 2u);
  ASSERT_NE(snap.FindCounter("exporter_test.scoped.rounds", 41), nullptr);
  EXPECT_EQ(snap.FindCounter("exporter_test.scoped.rounds", 41)->value, 1u);
  ASSERT_NE(snap.FindHistogram("exporter_test.scoped.seconds", 41), nullptr);
  EXPECT_EQ(snap.FindHistogram("exporter_test.scoped.seconds", 41)->count, 1u);
  EXPECT_EQ(snap.FindHistogram("exporter_test.scoped.seconds")->count, 1u);
  // No labeled series materialized for the unscoped increment.
  EXPECT_EQ(snap.FindCounter("exporter_test.scoped.rounds", 0)->tenant, 0u);
}

TEST(TenantMetrics, DeltaSinceMatchesByTenant) {
  MetricsRegistry registry;
  registry.GetTenantCounter("d", 1)->Inc(5);
  MetricsSnapshot base = registry.Snapshot();
  registry.GetTenantCounter("d", 1)->Inc(2);
  registry.GetTenantCounter("d", 2)->Inc(9);
  MetricsSnapshot delta = registry.Snapshot().DeltaSince(base);
  EXPECT_EQ(delta.FindCounter("d", 1)->value, 2u);
  EXPECT_EQ(delta.FindCounter("d", 2)->value, 9u);
}

// ---------------------------------------------------------------------------
// SnapshotExporter: windowed flight recorder.

TEST(SnapshotExporter, TickRecordsDeltasNotTotals) {
  MetricsRegistry registry;
  registry.GetCounter("flight.ops")->Inc(100);
  SnapshotExporterOptions options;
  options.interval_ms = 100000;  // ticks are manual in this test
  SnapshotExporter exporter(&registry, options);
  exporter.Start();  // baseline swallows the pre-existing 100

  registry.GetCounter("flight.ops")->Inc(7);
  exporter.Tick();
  registry.GetCounter("flight.ops")->Inc(5);
  exporter.Tick();

  std::vector<std::string> lines = exporter.Lines();
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"window\": 0"), std::string::npos);
  EXPECT_NE(lines[0].find("\"flight.ops\": 7"), std::string::npos);
  EXPECT_NE(lines[1].find("\"window\": 1"), std::string::npos);
  EXPECT_NE(lines[1].find("\"flight.ops\": 5"), std::string::npos);
  // JSONL: one line per window, no embedded newlines.
  EXPECT_EQ(lines[0].find('\n'), std::string::npos);
  exporter.Stop();
}

TEST(SnapshotExporter, RingEvictsOldestWindows) {
  MetricsRegistry registry;
  SnapshotExporterOptions options;
  options.interval_ms = 100000;
  options.ring_windows = 3;
  SnapshotExporter exporter(&registry, options);
  exporter.Start();
  for (int i = 0; i < 10; ++i) {
    registry.GetCounter("ring.ops")->Inc();
    exporter.Tick();
  }
  std::vector<std::string> lines = exporter.Lines();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines.front().find("\"window\": 7"), std::string::npos);
  EXPECT_NE(lines.back().find("\"window\": 9"), std::string::npos);
  EXPECT_EQ(exporter.windows(), 10u);  // monotonic despite eviction
  exporter.Stop();
}

TEST(SnapshotExporter, StopFlushesFinalWindowToFile) {
  std::string path = TempPath("flush");
  MetricsRegistry registry;
  SnapshotExporterOptions options;
  options.interval_ms = 100000;
  options.flight_path = path;
  {
    SnapshotExporter exporter(&registry, options);
    exporter.Start();
    registry.GetCounter("flush.ops")->Inc(3);
    exporter.Stop();  // records the final partial window, then flushes
    exporter.Stop();  // idempotent
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  bool saw_delta = false;
  while (std::getline(in, line)) {
    ++lines;
    if (line.find("\"flush.ops\": 3") != std::string::npos) saw_delta = true;
  }
  EXPECT_EQ(lines, 1u);
  EXPECT_TRUE(saw_delta);
  std::remove(path.c_str());
}

TEST(SnapshotExporter, BackgroundThreadTicksOnItsOwn) {
  MetricsRegistry registry;
  SnapshotExporterOptions options;
  options.interval_ms = 5;
  SnapshotExporter exporter(&registry, options);
  exporter.Start();
  registry.GetCounter("bg.ops")->Inc();
  for (int i = 0; i < 200 && exporter.windows() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(exporter.windows(), 2u);
  exporter.Stop();
}

TEST(SnapshotExporter, ConcurrentStopsAreSafe) {
  MetricsRegistry registry;
  SnapshotExporterOptions options;
  options.interval_ms = 1;
  SnapshotExporter exporter(&registry, options);
  exporter.Start();
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] { exporter.Stop(); });
  }
  for (std::thread& t : stoppers) t.join();
  // Start/Stop cycle works again after a full stop.
  exporter.Start();
  exporter.Stop();
}

}  // namespace
}  // namespace obs
}  // namespace rudolf
