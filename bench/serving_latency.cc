// Online serving latency: per-transaction decision cost of the compiled
// serving path (CompiledRuleSet probes behind a ServingEngine) with hot-swap
// active — a background thread republishes the artifact for the whole timed
// window, so every decision also pays the atomic snapshot pin.
//
// Protocol: generate a credit-card stream, synthesize R >= 200 conjunctive
// rules anchored at sampled stream values (so probes hit real segments and
// postings, not empty tables). Gate first: serving decisions must be
// bit-identical to the batch scan evaluator on a sample of the stream, for
// both rule sets the republisher alternates between. Then time one decision
// per stream row, collecting per-decision wall nanos for p50/p99, while the
// republisher swaps artifacts continuously. After the threads join, the gate
// reruns on the final artifact (post-swap correctness).
//
//   RUDOLF_BENCH_N=...       rows to decide (default 60,000)
//   RUDOLF_BENCH_JSON_DIR=.. where BENCH_serving_latency.json lands

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "rules/evaluator.h"
#include "serving/compiled_rule_set.h"
#include "serving/serving_engine.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace {

using Clock = std::chrono::steady_clock;

constexpr size_t kRules = 240;  // acceptance floor is R >= 200

// A conjunctive rule anchored at a sampled stream row: numeric conditions
// are windows around an observed value, categorical conditions name an
// observed concept — realistic selectivity instead of empty probe tables.
Rule AnchoredRule(const Relation& rel, Rng* rng) {
  const Schema& schema = rel.schema();
  Tuple anchor = rel.GetRow(static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(rel.NumRows()) - 1)));
  Rule rule = Rule::Trivial(schema);
  size_t conditions = static_cast<size_t>(rng->UniformInt(2, 4));
  for (size_t c = 0; c < conditions; ++c) {
    size_t i = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(schema.arity()) - 1));
    if (schema.attribute(i).kind == AttrKind::kNumeric) {
      int64_t v = anchor[i];
      rule.set_condition(
          i, Condition::MakeNumeric({v - rng->UniformInt(0, 10),
                                     v + rng->UniformInt(0, 10)}));
    } else {
      rule.set_condition(
          i, Condition::MakeCategorical(static_cast<ConceptId>(anchor[i])));
    }
  }
  return rule;
}

// Serving vs batch bit-identity on rows [0, sample): the differential gate.
bool ServingMatchesBatch(const ServingEngine& engine, const Relation& rel,
                         const RuleSet& rules, size_t sample) {
  const std::vector<RuleId> ids = rules.LiveIds();
  RuleEvaluator scan(rel, sample, EvalOptions{1});
  std::vector<Bitset> bitmaps(ids.size(), Bitset(sample));
  for (size_t k = 0; k < ids.size(); ++k) {
    scan.EvalRuleRange(rules.Get(ids[k]), 0, sample, &bitmaps[k]);
  }
  Decision d;
  for (size_t r = 0; r < sample; ++r) {
    std::vector<RuleId> expected;
    for (size_t k = 0; k < ids.size(); ++k) {
      if (bitmaps[k].Test(r)) expected.push_back(ids[k]);
    }
    engine.Decide(rel.GetRow(r), &d);
    if (d.fired != expected || d.flagged != !expected.empty()) {
      std::printf("FATAL: serving diverges from batch at row %zu "
                  "(fired %zu, expected %zu)\n",
                  r, d.fired.size(), expected.size());
      return false;
    }
  }
  return true;
}

}  // namespace
}  // namespace rudolf

int main() {
  using namespace rudolf;

  const size_t rows = bench::BenchRows(60000);
  bench::Banner(
      "online serving latency (compiled path, hot-swap active)",
      "refined rules deploy to production scoring — one transaction must be "
      "decided against all rules in microseconds, even mid-republish");

  Scenario scenario = DefaultScenario(rows);
  Dataset dataset = GenerateDataset(scenario.options);
  const Relation& rel = *dataset.relation;
  Rng rng(41);

  RuleSet rules_a;
  for (size_t k = 0; k < kRules; ++k) rules_a.AddRule(AnchoredRule(rel, &rng));
  // The republisher's alternate artifact: same rules plus one more, so the
  // two epochs genuinely differ in compiled shape.
  RuleSet rules_b = rules_a;
  rules_b.AddRule(AnchoredRule(rel, &rng));

  ServingEngine engine(rel.shared_schema());
  auto compiled = engine.Publish(rules_a);
  std::printf("rules: %zu live -> %zu slots, %zu numeric segments, "
              "%zu posting entries\n\n",
              rules_a.size(), compiled->num_slots(),
              compiled->stats().numeric_segments,
              compiled->stats().posting_entries);

  // Differential gate, both artifacts, before any timing.
  const size_t sample = std::min<size_t>(rows, 2000);
  if (!ServingMatchesBatch(engine, rel, rules_a, sample)) return 1;
  engine.Publish(rules_b);
  if (!ServingMatchesBatch(engine, rel, rules_b, sample)) return 1;
  engine.Publish(rules_a);

  // Warm: one untimed pass over the stream.
  Decision d;
  for (size_t r = 0; r < rel.NumRows(); ++r) engine.Decide(rel.GetRow(r), &d);

  // Timed pass with the republisher swapping artifacts throughout.
  std::atomic<bool> done{false};
  bool last_published_b = false;  // read only after join
  std::thread republisher([&] {
    bool flip = false;
    while (!done.load(std::memory_order_acquire)) {
      engine.Publish(flip ? rules_b : rules_a);
      last_published_b = flip;
      flip = !flip;
      // Pace the publishes like a refinement loop rather than recompiling
      // back-to-back: on single-CPU machines a tight compile loop starves
      // the decision thread and measures the scheduler, not the probe. The
      // pacing is short enough that even the 4000-row smoke run swaps
      // several times inside its timed window.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<double> nanos(rel.NumRows());
  size_t flagged = 0;
  size_t fired_total = 0;
  uint64_t epoch_floor = 0;
  auto wall_start = Clock::now();
  for (size_t r = 0; r < rel.NumRows(); ++r) {
    Tuple tuple = rel.GetRow(r);  // row fetch outside the timed window
    auto a = Clock::now();
    engine.Decide(tuple, &d);
    auto b = Clock::now();
    nanos[r] = std::chrono::duration<double, std::nano>(b - a).count();
    flagged += d.flagged ? 1 : 0;
    fired_total += d.fired.size();
    if (d.epoch < epoch_floor) {
      std::printf("FATAL: epoch went backwards under hot-swap\n");
      done.store(true, std::memory_order_release);
      republisher.join();
      return 1;
    }
    epoch_floor = d.epoch;
  }
  auto wall_end = Clock::now();
  done.store(true, std::memory_order_release);
  republisher.join();

  uint64_t final_epoch = engine.current_epoch();
  // Post-swap gate: whatever artifact won the final flip must still be
  // bit-identical to its batch semantics.
  if (!ServingMatchesBatch(engine, rel, last_published_b ? rules_b : rules_a,
                           sample)) {
    return 1;
  }

  std::sort(nanos.begin(), nanos.end());
  auto pct = [&](double p) {
    return nanos[std::min(nanos.size() - 1,
                          static_cast<size_t>(p * static_cast<double>(nanos.size())))];
  };
  double p50 = pct(0.50);
  double p99 = pct(0.99);
  double wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  double per_sec = static_cast<double>(rel.NumRows()) / wall_s;

  std::printf("decisions: %zu (%zu flagged, %.2f rules fired/decision) "
              "across %" PRIu64 " published epochs\n",
              rel.NumRows(), flagged,
              static_cast<double>(fired_total) /
                  static_cast<double>(rel.NumRows()),
              final_epoch);
  std::printf("latency:   p50 %.0f ns, p99 %.0f ns, mean %.0f ns\n", p50, p99,
              wall_s * 1e9 / static_cast<double>(rel.NumRows()));
  std::printf("throughput: %.0f decisions/sec (hot-swap active)\n\n", per_sec);

  bench::ShapeCheck("serving bit-identical to batch before and after swaps",
                    true);
  bench::ShapeCheck("hot-swap exercised during the timed window",
                    final_epoch > 3);
  bench::ShapeCheck("p99 decision latency < 5us with hot-swap active",
                    p99 < 5000.0);

  bench::BenchJson json("serving_latency", rel.NumRows());
  json.Metric("rules", static_cast<double>(kRules));
  json.Metric("slots", static_cast<double>(compiled->num_slots()));
  json.Metric("numeric_segments",
              static_cast<double>(compiled->stats().numeric_segments));
  json.Metric("posting_entries",
              static_cast<double>(compiled->stats().posting_entries));
  json.Metric("published_epochs", static_cast<double>(final_epoch));
  json.Metric("flagged", static_cast<double>(flagged));
  json.Metric("fired_per_decision",
              static_cast<double>(fired_total) /
                  static_cast<double>(rel.NumRows()));
  json.Metric("p50_ns", p50);
  json.Metric("p99_ns", p99);
  json.Metric("decisions_per_sec", per_sec);
  json.Write();
  return 0;
}
