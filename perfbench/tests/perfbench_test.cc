// Tests of the benchmark's own instruments: the reference evaluator against
// hand-computed captures of the paper's running example (Figure 1's rules
// over Figure 2's rows), the timing expert's attribution, the span trace's
// self times and nesting, and the histogram's quantiles.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <random>
#include <thread>

#include <gtest/gtest.h>

#include "core/session.h"
#include "expert/expert.h"
#include "log_histogram.h"
#include "reference.h"
#include "rules/parser.h"
#include "span_trace.h"
#include "timing_expert.h"
#include "workload/paper_example.h"

namespace perfbench {
namespace {

using rudolf::RuleId;
using rudolf::RuleSet;

// Rows 1..10 of Figure 2 (1-based), in the relation's column order.
std::vector<std::vector<rudolf::CellValue>> Rows(const rudolf::PaperExample& ex) {
  std::vector<std::vector<rudolf::CellValue>> rows;
  for (size_t r = 0; r < ex.relation->NumRows(); ++r) {
    rows.push_back(ex.relation->GetRow(r));
  }
  return rows;
}

// The 1-based rows a rule set flags, per the reference evaluator.
std::vector<size_t> FlaggedRows(const rudolf::PaperExample& ex, const RuleSet& rules) {
  ReferenceEvaluator ref(*ex.schema, rules);
  std::vector<size_t> out;
  auto rows = Rows(ex);
  for (size_t r = 0; r < rows.size(); ++r) {
    if (ref.Flagged(rows[r].data())) out.push_back(r + 1);
  }
  return out;
}

RuleSet Parse(const rudolf::PaperExample& ex, std::vector<const char*> texts) {
  RuleSet rules;
  for (const char* text : texts) {
    auto rule = rudolf::ParseRule(*ex.schema, text);
    EXPECT_TRUE(rule.ok()) << text;
    rules.AddRule(std::move(rule).ValueOrDie());
  }
  return rules;
}

TEST(ReferenceEvaluator, Figure1RulesOverFigure2Rows) {
  rudolf::PaperExample ex = rudolf::MakePaperExample();
  ReferenceEvaluator ref(*ex.schema, ex.rules);
  auto rows = Rows(ex);
  // Rule 1 (18:00-18:05, amount >= 110) captures only row 3 (18:04, 112);
  // rule 2 captures nothing; rule 3 (21:00-21:15, amount >= 40, GAS
  // Station A) captures only row 10.
  std::vector<std::vector<RuleId>> expected(rows.size());
  expected[2] = {0};
  expected[9] = {2};
  for (size_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(ref.Fired(rows[r].data()), expected[r]) << "row " << r + 1;
  }
  EXPECT_EQ(FlaggedRows(ex, ex.rules), (std::vector<size_t>{3, 10}));
}

TEST(ReferenceEvaluator, CategoricalContainmentWalksParents) {
  rudolf::PaperExample ex = rudolf::MakePaperExample();
  // Gas Station is the parent of GAS Station A and B: rows 6, 7, 8 (B) and
  // 10 (A).
  EXPECT_EQ(FlaggedRows(ex, Parse(ex, {"location <= 'Gas Station'"})),
            (std::vector<size_t>{6, 7, 8, 10}));
  // "No code" is a second parent of "Online, no CCV" (rows 1, 2, 4) and of
  // "Offline, without PIN" (rows 6, 7, 8): containment follows every parent
  // of a DAG concept.
  EXPECT_EQ(FlaggedRows(ex, Parse(ex, {"type <= 'No code'"})),
            (std::vector<size_t>{1, 2, 4, 6, 7, 8}));
  // A leaf contains only itself.
  EXPECT_EQ(FlaggedRows(ex, Parse(ex, {"location <= 'Supermarket'"})),
            (std::vector<size_t>{9}));
}

TEST(ReferenceEvaluator, NumericIntervalsAreClosed) {
  rudolf::PaperExample ex = rudolf::MakePaperExample();
  // Amounts 106 and 107 are rows 2 and 1; 112 is row 3.
  EXPECT_EQ(FlaggedRows(ex, Parse(ex, {"amount in [106,107]"})),
            (std::vector<size_t>{1, 2}));
  EXPECT_EQ(FlaggedRows(ex, Parse(ex, {"time in [18:04,19:08] && amount >= 112"})),
            (std::vector<size_t>{3, 4}));
}

TEST(ReferenceEvaluator, ConfusionCountsTrueLabels) {
  rudolf::PaperExample ex = rudolf::MakePaperExample();
  // True frauds are rows 1, 2, 4, 6, 7, 8; the rules flag rows 3 and 10,
  // both not fraud.
  RefConfusion q = ReferenceEvaluator(*ex.schema, ex.rules)
                       .Confusion(*ex.relation, 0, ex.relation->NumRows());
  EXPECT_EQ(q.rows, 10u);
  EXPECT_EQ(q.true_fraud, 6u);
  EXPECT_EQ(q.true_legit, 4u);
  EXPECT_EQ(q.fraud_captured, 0u);
  EXPECT_EQ(q.fraud_missed, 6u);
  EXPECT_EQ(q.legit_captured, 2u);
  EXPECT_DOUBLE_EQ(q.BalancedErrorPct(), (100.0 + 50.0) / 2.0);
  // Rows [5, 10) (0-based) hold frauds 6, 7, 8 and the flagged row 10.
  RefConfusion tail = ReferenceEvaluator(*ex.schema, ex.rules)
                          .Confusion(*ex.relation, 5, 10);
  EXPECT_EQ(tail.rows, 5u);
  EXPECT_EQ(tail.fraud_missed, 3u);
  EXPECT_EQ(tail.legit_captured, 1u);
}

// An expert that spends a known time in each review and accepts.
class SlowAcceptExpert : public rudolf::AutoAcceptExpert {
 public:
  rudolf::GeneralizationReview ReviewGeneralization(
      const rudolf::GeneralizationProposal& p, const rudolf::Relation& r) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ++generalizations;
    return AutoAcceptExpert::ReviewGeneralization(p, r);
  }
  rudolf::SplitReview ReviewSplit(const rudolf::SplitProposal& p,
                                  const rudolf::Relation& r) override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    ++splits;
    return AutoAcceptExpert::ReviewSplit(p, r);
  }
  int generalizations = 0;
  int splits = 0;
};

TEST(TimingExpert, WaitsPlusReviewsEqualRefineWallTime) {
  rudolf::PaperExample ex = rudolf::MakePaperExample();
  rudolf::MarkPaperLegitimates(&ex);
  SlowAcceptExpert inner;
  TimingExpert expert(&inner);
  rudolf::RefinementSession session(*ex.relation, rudolf::SessionOptions{});
  RuleSet rules = ex.rules;
  rudolf::EditLog log;

  auto outside_begin = std::chrono::steady_clock::now();
  expert.Begin();
  session.Refine(ex.relation->NumRows(), &rules, &expert, &log);
  RefineTiming timing = expert.End();
  double outside = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - outside_begin)
                       .count();

  int reviews = inner.generalizations + inner.splits;
  ASSERT_GT(inner.generalizations, 0);
  ASSERT_GT(inner.splits, 0);
  EXPECT_EQ(timing.reviews.size(), static_cast<size_t>(reviews));
  // One wait ends at each review and one at Refine's return.
  ASSERT_EQ(timing.waits.size(), static_cast<size_t>(reviews) + 1);
  EXPECT_EQ(timing.waits.back().kind, WaitKind::kReturn);
  int gen_waits = 0, split_waits = 0;
  for (const Wait& w : timing.waits) {
    gen_waits += w.kind == WaitKind::kGeneralization;
    split_waits += w.kind == WaitKind::kSplit;
  }
  EXPECT_EQ(gen_waits, inner.generalizations);
  EXPECT_EQ(split_waits, inner.splits);
  // The intervals tile the call: each starts where the previous ended.
  double cursor = 0.0;
  for (size_t i = 0; i < timing.waits.size(); ++i) {
    EXPECT_DOUBLE_EQ(timing.waits[i].span.begin_s, cursor);
    cursor = timing.waits[i].span.end_s;
    if (i < timing.reviews.size()) {
      EXPECT_DOUBLE_EQ(timing.reviews[i].begin_s, cursor);
      cursor = timing.reviews[i].end_s;
    }
  }
  EXPECT_DOUBLE_EQ(cursor, timing.wall_s);
  // Waits plus reviews equal the wall time to within clock resolution, and
  // the wall time sits inside an outside timer around the same call.
  EXPECT_NEAR(timing.WaitSeconds() + timing.review_s, timing.wall_s, 1e-9);
  EXPECT_LE(timing.wall_s, outside);
  EXPECT_GE(timing.review_s, reviews * 200e-6);
}

TEST(TimingExpert, RefineWithoutReviewsIsOneTailWait) {
  rudolf::PaperExample ex = rudolf::MakePaperExample();
  SlowAcceptExpert inner;
  TimingExpert expert(&inner);
  rudolf::RefinementSession session(*ex.relation, rudolf::SessionOptions{});
  RuleSet rules;  // nothing to refine from, no labels beyond the frauds
  rudolf::EditLog log;
  expert.Begin();
  session.Refine(0, &rules, &expert, &log);
  RefineTiming timing = expert.End();
  ASSERT_EQ(timing.waits.size(), 1u);
  EXPECT_EQ(timing.reviews.size(), 0u);
  EXPECT_EQ(timing.waits.front().kind, WaitKind::kReturn);
  EXPECT_DOUBLE_EQ(timing.waits.front().span.seconds(), timing.wall_s);
}

TEST(SpanTrace, SelfTimesSumToRootWallTime) {
  SpanTrace trace(true);
  {
    SpanTrace::Scope root(&trace, "root");
    {
      SpanTrace::Scope child(&trace, "child");
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      SpanTrace::Scope grandchild(&trace, "grandchild");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto t = SpanTrace::Clock::now();
    trace.AddClosed("closed", t, t + std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  double sum = 0.0;
  for (const auto& [name, self] : trace.SelfTimes()) {
    EXPECT_GE(self, -1e-9) << name;
    sum += self;
  }
  EXPECT_NEAR(sum, trace.RootSeconds(), 1e-9);
  EXPECT_EQ(trace.size(), 4u);
}

TEST(SpanTrace, NestedRejectsOpenAndEscapingSpans) {
  SpanTrace trace(true);
  auto t = SpanTrace::Clock::now();
  {
    SpanTrace::Scope root(&trace, "root");
    auto begin = SpanTrace::Clock::now();
    trace.AddClosed("inside", begin, SpanTrace::Clock::now());
  }
  EXPECT_TRUE(trace.Nested());
  {
    SpanTrace::Scope root(&trace, "root");
    // Begins before its parent opened.
    auto end = SpanTrace::Clock::now();
    trace.AddClosed("escaping", t, end);
  }
  EXPECT_FALSE(trace.Nested());

  SpanTrace open(true);
  SpanTrace::Scope root(&open, "root");
  EXPECT_FALSE(open.Nested());
}

TEST(LogHistogram, QuantilesWithinOneBinOfExact) {
  std::mt19937_64 rng(7);
  std::lognormal_distribution<double> dist(std::log(1e-3), 1.0);
  std::vector<double> values;
  LogHistogram hist;
  for (int i = 0; i < 100000; ++i) {
    values.push_back(dist(rng));
    hist.Add(values.back());
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(hist.count(), values.size());
  for (double q : {0.01, 0.5, 0.98}) {
    double exact = values[static_cast<size_t>(q * (values.size() - 1))];
    EXPECT_NEAR(hist.Quantile(q), exact, exact / LogHistogram::kSubBins) << q;
  }
}

TEST(LogHistogram, EmptyAndOutOfRange) {
  LogHistogram hist;
  EXPECT_EQ(hist.Quantile(0.5), 0.0);
  // Below the first bin lands in bin 0; past the last octave, in the last bin.
  hist.Add(0.0);
  hist.Add(1e9);
  EXPECT_LE(hist.Quantile(0.0), LogHistogram::kMinSeconds * 1.1);
  EXPECT_GT(hist.Quantile(1.0), 600.0);
}

TEST(SpanTrace, DisabledRecordsNothing) {
  SpanTrace trace(false);
  { SpanTrace::Scope root(&trace, "root"); }
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.RootSeconds(), 0.0);
}

}  // namespace
}  // namespace perfbench
