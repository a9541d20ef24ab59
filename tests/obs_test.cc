#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "rules/evaluator.h"
#include "workload/initial_rules.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal validating JSON parser — enough to check that the emitted trace
// and metrics documents are well-formed and to navigate their structure.
// Any syntax error fails the parse (ok() turns false).

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Find(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string text) : text_(std::move(text)) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->string);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      return Literal("false");
    }
    if (c == 'n') return Literal("null");
    return ParseNumber(out);
  }

  bool ParseString(std::string* out) {
    if (text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
      }
      out->push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseNumber(JsonValue* out) {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    out->number = std::stod(text_.substr(start, pos_ - start));
    return true;
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  std::string text_;
  size_t pos_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr) dir = "/tmp";
  return std::string(dir) + "/" + stem + "." +
         std::to_string(static_cast<unsigned long>(::getpid()));
}

// ---------------------------------------------------------------------------
// Counters.

TEST(CounterTest, IncrementsAccumulate) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(5);
  EXPECT_EQ(c.Value(), 6u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(CounterTest, MacroHitsTheSameRegistryCounter) {
  Counter* direct =
      MetricsRegistry::Default().GetCounter("obs_test.macro_counter");
  uint64_t before = direct->Value();
  RUDOLF_COUNTER_INC("obs_test.macro_counter");
  RUDOLF_COUNTER_ADD("obs_test.macro_counter", 4);
  EXPECT_EQ(direct->Value(), before + 5);
}

// ---------------------------------------------------------------------------
// Histograms.

TEST(HistogramTest, BucketBoundaries) {
  EXPECT_EQ(Histogram::BucketFor(0.0), 0u);
  EXPECT_EQ(Histogram::BucketFor(0.5e-6), 0u);   // sub-µs folds into bucket 0
  EXPECT_EQ(Histogram::BucketFor(1.5e-6), 0u);   // [1µs, 2µs)
  EXPECT_EQ(Histogram::BucketFor(3e-6), 1u);     // [2µs, 4µs)
  EXPECT_EQ(Histogram::BucketFor(1e-3), 9u);     // 1000µs ∈ [512µs, 1024µs)
  EXPECT_EQ(Histogram::BucketFor(3600.0), Histogram::kBuckets - 1);
  EXPECT_DOUBLE_EQ(Histogram::BucketUpperBound(0), 2e-6);
  EXPECT_TRUE(std::isinf(Histogram::BucketUpperBound(Histogram::kBuckets - 1)));
}

TEST(HistogramTest, RecordAndQuantiles) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(0.001);
  h.Record(0.1);
  EXPECT_EQ(h.Count(), 101u);
  EXPECT_NEAR(h.SumSeconds(), 0.2, 0.01);
  EXPECT_NEAR(h.MaxSeconds(), 0.1, 1e-6);

  // Quantiles are computed from a snapshot's bucket view.
  MetricsRegistry& reg = MetricsRegistry::Default();
  Histogram* reg_h = reg.GetHistogram("obs_test.quantile_hist");
  for (int i = 0; i < 100; ++i) reg_h->Record(0.001);
  reg_h->Record(0.1);
  MetricsSnapshot snap = reg.Snapshot();
  const HistogramSample* hs = snap.FindHistogram("obs_test.quantile_hist");
  ASSERT_NE(hs, nullptr);
  // p50 of a hundred 1ms samples falls inside the bucket holding 1ms; the
  // p100 is the observed max.
  size_t b = Histogram::BucketFor(0.001);
  EXPECT_GE(hs->ValueAtQuantile(0.50), Histogram::BucketUpperBound(b - 1));
  EXPECT_LE(hs->ValueAtQuantile(0.50), Histogram::BucketUpperBound(b));
  EXPECT_DOUBLE_EQ(hs->ValueAtQuantile(1.0), hs->max_seconds);
}

TEST(HistogramTest, ConcurrentRecordsCountExactly) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(1e-3);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_NEAR(h.SumSeconds(), kThreads * kPerThread * 1e-3, 1.0);
}

// ---------------------------------------------------------------------------
// Registry and snapshots.

TEST(MetricsRegistryTest, PointersAreStable) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  EXPECT_EQ(reg.GetCounter("obs_test.stable"), reg.GetCounter("obs_test.stable"));
  EXPECT_EQ(reg.GetHistogram("obs_test.stable_h"),
            reg.GetHistogram("obs_test.stable_h"));
}

TEST(MetricsRegistryTest, SnapshotDeltaIsolatesTheWindow) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  Counter* c = reg.GetCounter("obs_test.delta_counter");
  reg.GetCounter("obs_test.delta_untouched")->Inc();
  MetricsSnapshot before = reg.Snapshot();
  c->Inc(3);
  MetricsSnapshot delta = reg.Snapshot().DeltaSince(before);
  const CounterSample* changed = delta.FindCounter("obs_test.delta_counter");
  ASSERT_NE(changed, nullptr);
  EXPECT_EQ(changed->value, 3u);
  // Counters with no activity in the window are dropped from the delta.
  EXPECT_EQ(delta.FindCounter("obs_test.delta_untouched"), nullptr);
}

TEST(GaugeTest, SetAddAndValue) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Add(-50);
  EXPECT_EQ(g.Value(), -8);  // gauges are signed levels, not counters
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
}

TEST(GaugeTest, RegistryPointerIsStable) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  EXPECT_EQ(reg.GetGauge("obs_test.stable_g"), reg.GetGauge("obs_test.stable_g"));
}

TEST(GaugeTest, SnapshotReportsLevelAndDeltaPassesThrough) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  Gauge* g = reg.GetGauge("obs_test.gauge_level");
  g->Set(100);
  MetricsSnapshot before = reg.Snapshot();
  g->Set(60);  // down as well as up — a counter could not do this
  MetricsSnapshot now = reg.Snapshot();
  const GaugeSample* level = now.FindGauge("obs_test.gauge_level");
  ASSERT_NE(level, nullptr);
  EXPECT_EQ(level->value, 60);
  // Gauges are levels, not rates: DeltaSince reports the current value, not
  // the difference.
  MetricsSnapshot delta = now.DeltaSince(before);
  const GaugeSample* windowed = delta.FindGauge("obs_test.gauge_level");
  ASSERT_NE(windowed, nullptr);
  EXPECT_EQ(windowed->value, 60);
}

TEST(GaugeTest, SnapshotJsonCarriesGauges) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.GetGauge("obs_test.json_gauge")->Set(-5);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(reg.Snapshot().ToJson()).Parse(&doc));
  const JsonValue* gauges = doc.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* gauge = gauges->Find("obs_test.json_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->number, -5.0);
}

TEST(MetricsRegistryTest, SnapshotJsonIsWellFormed) {
  MetricsRegistry& reg = MetricsRegistry::Default();
  reg.GetCounter("obs_test.json_counter")->Inc(7);
  reg.GetHistogram("obs_test.json_hist")->Record(0.25);
  JsonValue doc;
  ASSERT_TRUE(JsonParser(reg.Snapshot().ToJson()).Parse(&doc));
  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* counters = doc.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* counter = counters->Find("obs_test.json_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_GE(counter->number, 7.0);
  const JsonValue* histograms = doc.Find("histograms");
  ASSERT_NE(histograms, nullptr);
  const JsonValue* hist = histograms->Find("obs_test.json_hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->Find("count"), nullptr);
  ASSERT_NE(hist->Find("p95_s"), nullptr);
}

// ---------------------------------------------------------------------------
// Tracing.

class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Get().Stop();
    Tracer::Get().Clear();
  }
  void TearDown() override {
    Tracer::Get().Stop();
    Tracer::Get().Clear();
  }
};

TEST_F(TracerTest, SpansNestAndUnwind) {
  Tracer::Get().Start();
  EXPECT_EQ(Tracer::CurrentDepth(), 0);
  {
    RUDOLF_SPAN("outer");
    EXPECT_EQ(Tracer::CurrentDepth(), 1);
    {
      RUDOLF_SPAN("inner");
      EXPECT_EQ(Tracer::CurrentDepth(), 2);
    }
    EXPECT_EQ(Tracer::CurrentDepth(), 1);
  }
  EXPECT_EQ(Tracer::CurrentDepth(), 0);
  EXPECT_EQ(Tracer::Get().EventCount(), 2u);
}

TEST_F(TracerTest, DisabledSpansRecordNothing) {
  ASSERT_FALSE(TracingEnabled());
  {
    RUDOLF_SPAN("invisible");
    RUDOLF_SPAN("also_invisible");
  }
  EXPECT_EQ(Tracer::Get().EventCount(), 0u);
  EXPECT_EQ(Tracer::CurrentDepth(), 0);
}

TEST_F(TracerTest, WritesWellFormedChromeTraceJson) {
  Tracer::Get().Start();
  {
    RUDOLF_SPAN("main.outer");
    RUDOLF_SPAN("main.inner");
  }
  std::thread worker([] {
    RUDOLF_SPAN("worker.span");
  });
  worker.join();
  Tracer::Get().Stop();

  std::string path = TempPath("rudolf_obs_test_trace");
  ASSERT_TRUE(Tracer::Get().WriteTo(path));
  JsonValue doc;
  ASSERT_TRUE(JsonParser(ReadFile(path)).Parse(&doc));
  std::remove(path.c_str());

  ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::Kind::kArray);
  ASSERT_EQ(events->array.size(), 3u);

  std::map<std::string, const JsonValue*> by_name;
  std::vector<double> tids;
  for (const JsonValue& e : events->array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    const JsonValue* name = e.Find("name");
    ASSERT_NE(name, nullptr);
    ASSERT_NE(e.Find("ph"), nullptr);
    EXPECT_EQ(e.Find("ph")->string, "X");  // complete events
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("tid"), nullptr);
    ASSERT_NE(e.Find("ts"), nullptr);
    ASSERT_NE(e.Find("dur"), nullptr);
    EXPECT_GE(e.Find("dur")->number, 0.0);
    by_name[name->string] = &e;
    tids.push_back(e.Find("tid")->number);
  }
  ASSERT_TRUE(by_name.count("main.outer"));
  ASSERT_TRUE(by_name.count("main.inner"));
  ASSERT_TRUE(by_name.count("worker.span"));
  // Nesting depth is exported under args.
  const JsonValue* inner_args = by_name["main.inner"]->Find("args");
  ASSERT_NE(inner_args, nullptr);
  EXPECT_EQ(inner_args->Find("depth")->number, 1.0);
  EXPECT_EQ(by_name["main.outer"]->Find("args")->Find("depth")->number, 0.0);
  // The worker thread exported a distinct tid.
  EXPECT_NE(by_name["worker.span"]->Find("tid")->number,
            by_name["main.outer"]->Find("tid")->number);
}

TEST_F(TracerTest, RingOverflowDropsOldestAndCounts) {
  Tracer::Get().Start();
  const size_t total = Tracer::kRingCapacity + 1000;
  for (size_t i = 0; i < total; ++i) {
    RUDOLF_SPAN("spin");
  }
  Tracer::Get().Stop();
  EXPECT_EQ(Tracer::Get().EventCount(), Tracer::kRingCapacity);
  EXPECT_GE(Tracer::Get().DroppedCount(), 1000u);
}

// ---------------------------------------------------------------------------
// Disabled-tracing overhead guard: a 100k-row EvalRule with spans compiled
// in but tracing off must record nothing and stay comfortably fast. The
// bound is deliberately loose (sanitizer builds run it too); it exists to
// catch a regression that puts a clock read or allocation on the disabled
// path.

TEST(TracingOverheadTest, DisabledSpansDoNotSlowEvalRule) {
  ASSERT_FALSE(TracingEnabled());
  Tracer::Get().Clear();
  Dataset dataset = GenerateDataset(DefaultScenario(100000).options);
  RuleSet rules = SynthesizeInitialRules(dataset);
  RuleEvaluator eval(*dataset.relation, dataset.relation->NumRows(),
                     EvalOptions{1});
  Rule rule = rules.Get(rules.LiveIds().front());
  Bitset warm = eval.EvalRule(rule);  // warm caches / indexes

  constexpr int kIters = 20;
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    Bitset b = eval.EvalRule(rule);
    ASSERT_EQ(b.Count(), warm.Count());
  }
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_EQ(Tracer::Get().EventCount(), 0u);
  EXPECT_LT(seconds / kIters, 1.0) << "EvalRule with disabled spans took "
                                   << seconds / kIters << "s per call";
}

}  // namespace
}  // namespace obs
}  // namespace rudolf
