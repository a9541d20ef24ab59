// Shared plumbing for the figure-reproduction benches: dataset sizing from
// the environment, method execution, and uniform table/shape-check output.

#ifndef RUDOLF_BENCH_BENCH_COMMON_H_
#define RUDOLF_BENCH_BENCH_COMMON_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "experiments/runner.h"
#include "metrics/report.h"
#include "obs/metrics.h"
#include "obs/metrics_server.h"
#include "util/env.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace bench {

/// Default stream size for the figure benches; override with RUDOLF_BENCH_N.
inline size_t BenchRows(size_t fallback = 60000) {
  std::optional<int64_t> n = EnvInt("RUDOLF_BENCH_N", 1, int64_t{1} << 32);
  return n ? static_cast<size_t>(*n) : fallback;
}

/// Prints the bench banner with the paper reference and expected shape.
inline void Banner(const char* figure, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("Reproducing %s — Milo, Novgorodov & Tan, EDBT 2018\n", figure);
  std::printf("Paper's finding: %s\n", claim);
  std::printf("==============================================================\n\n");
}

/// Prints a PASS/DEVIATES shape-check verdict line.
inline void ShapeCheck(const char* what, bool holds) {
  std::printf("[shape-check] %s: %s\n", what, holds ? "PASS" : "DEVIATES");
}

/// \brief Machine-readable sidecar for one bench run.
///
/// Collects named numeric metrics (wall times, counts, ratios) and writes
/// them as `BENCH_<name>.json` so scripted smoke runs and perf-trajectory
/// tooling can diff runs without scraping the human tables. The output
/// directory is `$RUDOLF_BENCH_JSON_DIR`, falling back to the repo's bench/
/// directory baked in at configure time (RUDOLF_BENCH_JSON_DEFAULT_DIR), and
/// only then to the CWD — so ad-hoc runs never scatter sidecars around the
/// tree. Keys and the bench name are code-controlled identifiers — no JSON
/// escaping is performed.
class BenchJson {
 public:
  BenchJson(std::string name, size_t rows) : name_(std::move(name)), rows_(rows) {}

  void Metric(const std::string& key, double value) {
    entries_.emplace_back(key, value);
  }

  /// Writes the sidecar; on I/O failure warns on stderr and returns false
  /// (a bench never fails because of its sidecar).
  bool Write() const {
#ifdef RUDOLF_BENCH_JSON_DEFAULT_DIR
    std::string dir = RUDOLF_BENCH_JSON_DEFAULT_DIR;
#else
    std::string dir = ".";
#endif
    if (const char* env = std::getenv("RUDOLF_BENCH_JSON_DIR")) dir = env;
    std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"rows\": %zu,\n  \"metrics\": {",
                 name_.c_str(), rows_);
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %.9g", i > 0 ? "," : "",
                   entries_[i].first.c_str(), entries_[i].second);
    }
    // Every sidecar carries the process-wide metrics registry, so perf
    // tooling can correlate a bench's headline numbers with the engine
    // counters (index/cache/tracker/pool activity) of the same run.
    std::string registry =
        obs::MetricsRegistry::Default().Snapshot().ToJson(/*indent=*/2);
    std::fprintf(f, "\n  },\n  \"metrics_registry\": %s\n}\n", registry.c_str());
    std::fclose(f);
    std::printf("[bench-json] wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  size_t rows_;
  std::vector<std::pair<std::string, double>> entries_;
};

/// \brief Serves live metrics for the duration of a bench run, when asked.
///
/// Opt-in via `RUDOLF_METRICS_PORT=<port>` (0 = ephemeral): constructs a
/// MetricsServer over the default registry and prints the bound address so
/// a scraper (or CI's curl) can attach while the timed phases run. With the
/// variable unset this is a complete no-op — the bench numbers are
/// unaffected. `RUDOLF_METRICS_HOLD_MS=<n>` keeps the server (and process)
/// alive that long after the bench body finishes, giving out-of-process
/// scrapers a window to observe the final state.
class LiveMetricsScope {
 public:
  LiveMetricsScope() {
    int port = obs::ResolveMetricsPort(/*requested=*/-1);
    if (port < 0) return;
    obs::ServeOptions options;
    options.port = port;
    server_ = std::make_unique<obs::MetricsServer>(
        &obs::MetricsRegistry::Default(), options);
    if (server_->Start()) {
      std::printf("[metrics-server] listening on 127.0.0.1:%d\n",
                  server_->port());
      std::fflush(stdout);
    } else {
      server_.reset();
    }
  }

  ~LiveMetricsScope() {
    if (server_ == nullptr) return;
    // Up to one hour.
    int64_t ms = EnvInt("RUDOLF_METRICS_HOLD_MS", 0, 3600000).value_or(0);
    if (ms > 0) {
      std::printf("[metrics-server] holding for %lld ms\n",
                  static_cast<long long>(ms));
      std::fflush(stdout);
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    }
    server_->Stop();
  }

  LiveMetricsScope(const LiveMetricsScope&) = delete;
  LiveMetricsScope& operator=(const LiveMetricsScope&) = delete;

  bool serving() const { return server_ != nullptr; }

 private:
  std::unique_ptr<obs::MetricsServer> server_;
};

/// Runs the given methods on one dataset with shared options.
inline std::vector<RunResult> RunMethods(Dataset* dataset,
                                         const RunnerOptions& options,
                                         const std::vector<Method>& methods) {
  ExperimentRunner runner(dataset, options);
  std::vector<RunResult> out;
  out.reserve(methods.size());
  for (Method m : methods) out.push_back(runner.Run(m));
  return out;
}

}  // namespace bench
}  // namespace rudolf

#endif  // RUDOLF_BENCH_BENCH_COMMON_H_
