// The benchmark's three workloads. Each drives the program only through its
// public functions and times the calls into each layer from here.
//
//   expert       the paper's protocol (Fig. 3(b)'s RUDOLF line) with the
//                simulated domain expert, scheduler width 1;
//   auto-accept  the same protocol with RUDOLF⁻ (every proposal accepted),
//                session evaluation width 2;
//   serve        one decision thread serves the stream while one publisher
//                thread alternates two compiled rule sets on a schedule
//                counted in decisions.
//
// Every workload runs the paper's pairing of refinement and serving: the
// protocol workloads serve each hop's arriving transactions against the
// rules their session published, and `serve` refines two hops of its stream
// before it serves. What differs is where the load is.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced mode writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Descriptions of failed correctness checks (empty when correct).
  std::vector<std::string> problems;
  /// Inputs and configuration of the run, printed with its metrics.
  std::vector<std::pair<std::string, std::string>> provenance;
  /// Human-readable lines printed before the result (tables, medians).
  std::vector<std::string> notes;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Unknown names are rejected by the caller.
RunReport RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
