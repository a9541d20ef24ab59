// Scan vs condition-indexed evaluation on the specialize-heavy inner loop:
// repeated SpecializationEngine::RankSplits sweeps over the captured
// legitimate tuples of a large stream. Each sweep evaluates every split
// candidate of every capturing rule; the indexed path serves the arity−1
// unchanged conditions from the bitmap cache and pays one narrowed-interval
// extraction, where the scan sweep re-reads the column prefix per candidate
// through RuleEvaluator::EvalRuleRange and scores the captures the way
// RankSplits does. The scan sweep is handed the candidates up front, so it
// leaves out the candidate generation and ranking that the indexed sweeps
// time as part of RankSplits: the reported speedup understates the gap.
//
// Correctness is asserted while timing: every proposal's ranking metadata
// and the replacement capture bitmaps themselves must be bit-identical
// between the scan and the indexed path at 1 and at 8 threads.
//
//   RUDOLF_BENCH_N=...  rows (default 1,000,000)
//   RUDOLF_THREADS overrides the measured thread counts — unset it when
//   running this bench.

#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "core/capture_tracker.h"
#include "core/specialize.h"
#include "rules/evaluator.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/initial_rules.h"

namespace rudolf {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

template <typename Fn>
double TimeMedian3(const Fn& fn) {
  double t[3];
  for (double& s : t) {
    auto a = Clock::now();
    fn();
    s = Seconds(a, Clock::now());
  }
  if (t[0] > t[1]) std::swap(t[0], t[1]);
  if (t[1] > t[2]) std::swap(t[1], t[2]);
  return t[0] > t[1] ? t[0] : t[1];
}

struct Config {
  const char* name;
  const char* metric;  // sidecar key of the config's sweep time
  EvalOptions eval;
};

}  // namespace
}  // namespace rudolf

int main() {
  using namespace rudolf;

  const size_t rows = bench::BenchRows(1000000);
  bench::Banner("incremental evaluation (condition index)",
                "proposal scoring must stay interactive (\"at most one "
                "second\") as the stream grows — candidate rules that share "
                "all but one condition must not cost a full re-scan");
  std::printf("relation: %zu rows\n\n", rows);

  Scenario scenario = DefaultScenario(rows);
  Dataset dataset = GenerateDataset(scenario.options);
  Rng rng(11);
  RevealLabels(dataset.relation.get(), 0, rows, 0.9, 0.08, 0.004, &rng);
  RuleSet rules = SynthesizeInitialRules(dataset);

  const Config kConfigs[] = {
      {"indexed @1T", "sweep_s_indexed_1t", EvalOptions{1}},
      {"indexed @8T", "sweep_s_indexed_8t", EvalOptions{8}},
  };
  const size_t kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);
  // The scan reference: EvalRuleRange over the whole prefix never touches
  // the condition index.
  const RuleEvaluator scan(*dataset.relation, rows, EvalOptions{1});

  std::vector<std::unique_ptr<CaptureTracker>> trackers;
  for (const Config& c : kConfigs) {
    trackers.push_back(std::make_unique<CaptureTracker>(*dataset.relation,
                                                        rules, rows, c.eval));
  }

  // The specialize-heavy workload: every (captured legitimate tuple,
  // capturing rule) pair up to a fixed budget — what one Algorithm 2 pass
  // ranks before consulting the expert.
  SpecializationEngine engine(*dataset.relation, SpecializeOptions{});
  std::vector<std::pair<RuleId, size_t>> work;
  const CaptureTracker& probe = *trackers[0];
  for (size_t r = 0; r < rows && work.size() < 16; ++r) {
    if (dataset.relation->VisibleLabel(r) != Label::kLegitimate) continue;
    if (!probe.IsCovered(r)) continue;
    for (RuleId id : rules.LiveIds()) {
      if (probe.RuleCapture(id).Test(r)) work.emplace_back(id, r);
    }
  }
  std::printf("workload: %zu (rule, legit tuple) split rankings per sweep; "
              "%zu rules live\n\n",
              work.size(), rules.size());
  if (work.empty()) {
    std::printf("FATAL: no captured legitimate tuples to split on\n");
    return 1;
  }

  auto sweep = [&](const CaptureTracker& tracker) {
    for (const auto& [id, row] : work) {
      engine.RankSplits(rules, tracker, id, row);
    }
  };

  // The candidates every sweep evaluates, per work item, in RankSplits order.
  std::vector<std::vector<SplitProposal>> candidates;
  for (const auto& [id, row] : work) {
    candidates.push_back(engine.RankSplits(rules, probe, id, row));
  }
  // One scan sweep: each candidate's captures by the range scan, scored as
  // RankSplits scores them (delta and per-replacement counts). Candidate
  // generation is not timed here, only evaluation and scoring.
  auto scan_captures = [&](const SplitProposal& p) {
    std::vector<Bitset> captures(p.replacements.size(), Bitset(rows));
    for (size_t k = 0; k < captures.size(); ++k) {
      scan.EvalRuleRange(p.replacements[k], 0, rows, &captures[k]);
    }
    return captures;
  };
  auto scan_sweep = [&] {
    for (const std::vector<SplitProposal>& proposals : candidates) {
      for (const SplitProposal& p : proposals) {
        std::vector<Bitset> captures = scan_captures(p);
        probe.DeltaForReplaceMany(p.rule_id, captures);
        for (const Bitset& c : captures) scan.CountsVisible(c);
      }
    }
  };

  // Warmup every config (builds the scheduler, attribute indexes and caches)
  // and assert the scan/indexed equivalence on the full workload: identical
  // proposal rankings and bit-identical replacement captures.
  for (size_t w = 0; w < work.size(); ++w) {
    const auto& [id, row] = work[w];
    const std::vector<SplitProposal>& expected = candidates[w];
    std::vector<Bitset> expected_captures;
    for (const SplitProposal& p : expected) {
      std::vector<Bitset> captures = scan_captures(p);
      bool same = p.delta == probe.DeltaForReplaceMany(p.rule_id, captures);
      for (size_t k = 0; same && k < captures.size(); ++k) {
        same = p.replacement_counts[k] == scan.CountsVisible(captures[k]);
      }
      if (!same) {
        std::printf("FATAL: scan scores diverge from %s on rule %u, row %zu\n",
                    kConfigs[0].name, id, row);
        return 1;
      }
      for (Bitset& b : captures) expected_captures.push_back(std::move(b));
    }
    for (size_t i = 0; i < kNumConfigs; ++i) {
      std::vector<SplitProposal> got =
          engine.RankSplits(rules, *trackers[i], id, row);
      bool same = got.size() == expected.size();
      for (size_t p = 0; same && p < got.size(); ++p) {
        same = got[p].attribute == expected[p].attribute &&
               got[p].delta == expected[p].delta &&
               got[p].benefit == expected[p].benefit &&
               got[p].replacement_counts == expected[p].replacement_counts;
      }
      std::vector<Bitset> captures;
      for (const SplitProposal& p : got) {
        for (Bitset& b : trackers[i]->EvalMany(p.replacements)) {
          captures.push_back(std::move(b));
        }
      }
      if (!same || captures != expected_captures) {
        std::printf("FATAL: %s diverges from the scan on rule %u, row %zu\n",
                    kConfigs[i].name, id, row);
        return 1;
      }
    }
  }

  bench::BenchJson json("incremental_eval", rows);
  std::printf("%-14s  %9s  %9s\n", "config", "sweep (s)", "vs scan@1T");
  const double scan1 = TimeMedian3(scan_sweep);
  std::printf("%-14s  %9.3f  %8.2fx\n", "scan @1T", scan1, 1.0);
  json.Metric("sweep_s_scan_1t", scan1);
  double indexed1 = 0.0;
  for (size_t i = 0; i < kNumConfigs; ++i) {
    double s = TimeMedian3([&] { sweep(*trackers[i]); });
    if (i == 0) indexed1 = s;
    std::printf("%-14s  %9.3f  %8.2fx\n", kConfigs[i].name, s, scan1 / s);
    json.Metric(kConfigs[i].metric, s);
  }

  std::printf("\n");
  bench::ShapeCheck("indexed and scan captures bit-identical at 1T and 8T",
                    true);
  bench::ShapeCheck("indexed eval >= 5x faster than scan on split ranking",
                    indexed1 > 0.0 && scan1 / indexed1 >= 5.0);
  json.Metric("scan_1t_s", scan1);
  json.Metric("indexed_1t_s", indexed1);
  json.Metric("indexed_speedup", indexed1 > 0.0 ? scan1 / indexed1 : 0.0);
  json.Write();
  return 0;
}
