#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

#include "obs/exporter.h"
#include "util/task_scheduler.h"

namespace rudolf {
namespace obs {

static_assert(std::is_same_v<TenantLabel, TenantId>,
              "obs::TenantLabel must mirror rudolf::TenantId");

TenantLabel CurrentTenantLabel() { return TaskScheduler::CurrentTenant(); }

namespace {

// Round-robin shard assignment at first touch: spreads any set of live
// threads evenly over the shards without coordination beyond one counter.
std::atomic<size_t> g_next_shard{0};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void AppendNumber(std::string* out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

}  // namespace

size_t Counter::ShardIndex() {
  thread_local const size_t shard =
      g_next_shard.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return shard;
}

size_t Histogram::BucketFor(double seconds) {
  if (!(seconds > 0.0)) return 0;
  double micros = seconds * 1e6;
  if (micros < 2.0) return 0;
  // floor(log2(micros)), clamped to the last (unbounded) bucket.
  int b = static_cast<int>(std::floor(std::log2(micros)));
  if (b < 0) b = 0;
  if (b >= static_cast<int>(kBuckets)) b = static_cast<int>(kBuckets) - 1;
  return static_cast<size_t>(b);
}

double Histogram::BucketUpperBound(size_t b) {
  if (b + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(b) + 1) * 1e-6;  // 2^(b+1) µs
}

void Histogram::Record(double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  buckets_[BucketFor(seconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  uint64_t nanos = static_cast<uint64_t>(seconds * 1e9);
  sum_nanos_.fetch_add(nanos, std::memory_order_relaxed);
  uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > seen &&
         !max_nanos_.compare_exchange_weak(seen, nanos,
                                           std::memory_order_relaxed)) {
  }
}

double HistogramSample::ValueAtQuantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // The q-th sample by cumulative rank, 1-based (the Prometheus
  // histogram_quantile convention).
  double target = q * static_cast<double>(count);
  if (target < 1.0) target = 1.0;
  uint64_t cum = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    if (buckets[b] == 0) continue;
    uint64_t before = cum;
    cum += buckets[b];
    if (static_cast<double>(cum) < target) continue;
    double hi = Histogram::BucketUpperBound(b);
    // The unbounded last bucket has no width to interpolate over; the
    // observed max is the best (and an exact-upper-bound) estimate.
    if (std::isinf(hi)) return max_seconds;
    double lo = b == 0 ? 0.0 : Histogram::BucketUpperBound(b - 1);
    double frac = (target - static_cast<double>(before)) /
                  static_cast<double>(buckets[b]);
    double v = lo + (hi - lo) * frac;
    // max is since registration; for a full-life snapshot it is a valid
    // ceiling and tightens the estimate when all samples sit low in the
    // bucket.
    if (max_seconds > 0.0 && v > max_seconds) v = max_seconds;
    return v;
  }
  return max_seconds;
}

MetricsSnapshot MetricsSnapshot::DeltaSince(const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta;
  for (const CounterSample& now : counters) {
    uint64_t base = 0;
    if (const CounterSample* then = earlier.FindCounter(now.name, now.tenant)) {
      base = then->value;
    }
    if (now.value > base) {
      delta.counters.push_back({now.name, now.value - base, now.tenant});
    }
  }
  // Gauges are levels: the windowed reading *is* the current value.
  for (const GaugeSample& now : gauges) {
    if (now.value != 0) delta.gauges.push_back(now);
  }
  for (const HistogramSample& now : histograms) {
    const HistogramSample* then = earlier.FindHistogram(now.name, now.tenant);
    HistogramSample d = now;
    if (then != nullptr) {
      d.count = now.count - std::min(now.count, then->count);
      d.sum_seconds = std::max(0.0, now.sum_seconds - then->sum_seconds);
      for (size_t b = 0; b < d.buckets.size(); ++b) {
        d.buckets[b] = now.buckets[b] - std::min(now.buckets[b], then->buckets[b]);
      }
    }
    if (d.count > 0) delta.histograms.push_back(std::move(d));
  }
  return delta;
}

const CounterSample* MetricsSnapshot::FindCounter(const std::string& name,
                                                  TenantLabel tenant) const {
  for (const CounterSample& c : counters) {
    if (c.tenant == tenant && c.name == name) return &c;
  }
  return nullptr;
}

const GaugeSample* MetricsSnapshot::FindGauge(const std::string& name,
                                              TenantLabel tenant) const {
  for (const GaugeSample& g : gauges) {
    if (g.tenant == tenant && g.name == name) return &g;
  }
  return nullptr;
}

const HistogramSample* MetricsSnapshot::FindHistogram(
    const std::string& name, TenantLabel tenant) const {
  for (const HistogramSample& h : histograms) {
    if (h.tenant == tenant && h.name == name) return &h;
  }
  return nullptr;
}

namespace {

// JSON key of a sample: the bare name for the aggregate series, the
// Prometheus-style `name{tenant="N"}` for labeled ones.
template <typename Sample>
std::string JsonKey(const Sample& s) {
  if (s.tenant == 0) return JsonEscape(s.name);
  return JsonEscape(s.name) + "{tenant=\\\"" + std::to_string(s.tenant) +
         "\\\"}";
}

}  // namespace

std::string MetricsSnapshot::ToJson(int indent) const {
  std::string pad(static_cast<size_t>(std::max(indent, 0)), ' ');
  std::string out = "{\n";
  out += pad + "  \"counters\": {";
  for (size_t i = 0; i < counters.size(); ++i) {
    out += (i > 0 ? ",\n" : "\n") + pad + "    \"" + JsonKey(counters[i]) +
           "\": ";
    AppendNumber(&out, static_cast<double>(counters[i].value));
  }
  out += (counters.empty() ? std::string() : "\n" + pad + "  ") + "},\n";
  out += pad + "  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += (i > 0 ? ",\n" : "\n") + pad + "    \"" + JsonKey(gauges[i]) +
           "\": ";
    AppendNumber(&out, static_cast<double>(gauges[i].value));
  }
  out += (gauges.empty() ? std::string() : "\n" + pad + "  ") + "},\n";
  out += pad + "  \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSample& h = histograms[i];
    out += (i > 0 ? ",\n" : "\n") + pad + "    \"" + JsonKey(h) + "\": ";
    out += "{\"count\": ";
    AppendNumber(&out, static_cast<double>(h.count));
    out += ", \"sum_s\": ";
    AppendNumber(&out, h.sum_seconds);
    out += ", \"max_s\": ";
    AppendNumber(&out, h.max_seconds);
    out += ", \"p50_s\": ";
    AppendNumber(&out, h.ValueAtQuantile(0.50));
    out += ", \"p95_s\": ";
    AppendNumber(&out, h.ValueAtQuantile(0.95));
    out += "}";
  }
  out += (histograms.empty() ? std::string() : "\n" + pad + "  ") + "}\n";
  out += pad + "}";
  return out;
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaked: metrics outlive static teardown of arbitrary clients (threads
  // may still increment counters while other statics destruct).
  //
  // Export is delegated to the exporter's single shutdown path
  // (ShutdownDefaultExport): the flight recorder flushes its final window
  // first, then the RUDOLF_METRICS snapshot is written — once, whether
  // shutdown comes from atexit, a server Stop, or an explicit call.
  static MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();
    InitDefaultExportFromEnv(r);
    return r;
  }();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

Counter* MetricsRegistry::GetTenantCounter(const std::string& name,
                                           TenantLabel tenant) {
  if (tenant == 0) return GetCounter(name);
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Counter>& slot = tenant_counters_[{name, tenant}];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetTenantGauge(const std::string& name,
                                       TenantLabel tenant) {
  if (tenant == 0) return GetGauge(name);
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Gauge>& slot = tenant_gauges_[{name, tenant}];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetTenantHistogram(const std::string& name,
                                               TenantLabel tenant) {
  if (tenant == 0) return GetHistogram(name);
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<Histogram>& slot = tenant_histograms_[{name, tenant}];
  if (!slot) slot = std::make_unique<Histogram>();
  return slot.get();
}

HistogramSample MetricsRegistry::SampleOf(const std::string& name,
                                          TenantLabel tenant,
                                          const Histogram& hist) {
  HistogramSample h;
  h.name = name;
  h.tenant = tenant;
  h.count = hist.Count();
  h.sum_seconds = hist.SumSeconds();
  h.max_seconds = hist.MaxSeconds();
  for (size_t b = 0; b < h.buckets.size(); ++b) {
    h.buckets[b] = hist.buckets_[b].load(std::memory_order_relaxed);
  }
  return h;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  // Unlabeled (aggregate) series first, each section name-sorted; labeled
  // series follow, sorted by (name, tenant). Find*'s default tenant of 0
  // therefore keeps resolving to the aggregates existing consumers expect.
  snap.counters.reserve(counters_.size() + tenant_counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->Value(), 0});
  }
  for (const auto& [key, counter] : tenant_counters_) {
    snap.counters.push_back({key.first, counter->Value(), key.second});
  }
  snap.gauges.reserve(gauges_.size() + tenant_gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->Value(), 0});
  }
  for (const auto& [key, gauge] : tenant_gauges_) {
    snap.gauges.push_back({key.first, gauge->Value(), key.second});
  }
  snap.histograms.reserve(histograms_.size() + tenant_histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    snap.histograms.push_back(SampleOf(name, 0, *hist));
  }
  for (const auto& [key, hist] : tenant_histograms_) {
    snap.histograms.push_back(SampleOf(key.first, key.second, *hist));
  }
  return snap;
}

ScopedTenantLatency::~ScopedTenantLatency() {
  double seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
  aggregate_->Record(seconds);
  if (tenant_ != 0) {
    MetricsRegistry::Default().GetTenantHistogram(name_, tenant_)
        ->Record(seconds);
  }
}

bool MetricsRegistry::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write metrics to %s\n", path.c_str());
    return false;
  }
  std::string json = Snapshot().ToJson();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

}  // namespace obs
}  // namespace rudolf
