// Command-line driver of the benchmark:
//
//   perfbench --workload <expert|auto-accept|serve> --seed <n> --seconds <s>
//             --trace <0|1> [--trace-out <spans.jsonl>] [--commit <id>]
//
// Prints the run's provenance and notes, then as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload <expert|auto-accept|serve> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>] "
               "[--commit <id>]\n",
               why);
  return 2;
}

bool ParseUnsigned(const char* text, unsigned long long* out) {
  if (text == nullptr || *text == '\0' || *text == '-') return false;
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

// Minimal JSON string escaping for the provenance values.
std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string commit = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) return Usage("missing value");
    ++i;
    unsigned long long v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!ParseUnsigned(value, &v)) return Usage("--seed takes a whole number");
      options.seed = v;
      have_seed = true;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!ParseUnsigned(value, &v) || v < 1 || v > 3600) {
        return Usage("--seconds takes a whole number from 1 to 3600");
      }
      options.seconds = static_cast<double>(v);
      have_seconds = true;
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
      have_trace = true;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      options.trace_out = value;
    } else if (std::strcmp(flag, "--commit") == 0) {
      commit = value;
    } else {
      return Usage("unknown flag");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == options.workload;
  }
  if (!known) return Usage("unknown workload");

  perfbench::RunReport report = perfbench::RunWorkload(options);

  std::string provenance = "{\"commit\": " + Quote(commit) +
                           ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE);
  for (const auto& [key, value] : report.provenance) {
    provenance += ", " + Quote(key) + ": " + Quote(value);
  }
  std::printf("provenance %s}\n", provenance.c_str());
  for (const std::string& line : report.notes) std::printf("%s\n", line.c_str());
  for (const std::string& line : report.problems) {
    std::printf("CHECK FAILED: %s\n", line.c_str());
  }

  bool correct = report.correct;
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::printf("CHECK FAILED: metric %s is not finite\n", m.name.c_str());
      correct = false;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    metrics += std::string(metrics.empty() ? "" : ", ") + Quote(m.name) +
               ": {\"value\": " + value + ", \"unit\": " + Quote(m.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
