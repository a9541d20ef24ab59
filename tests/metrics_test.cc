#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "metrics/quality.h"
#include "metrics/report.h"
#include "obs/metrics.h"
#include "rules/edit.h"
#include "rules/parser.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/paper_example.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace {

TEST(PredictionQuality, EmptyRangeIsAllZero) {
  PredictionQuality q;
  EXPECT_DOUBLE_EQ(q.MissPct(), 0.0);
  EXPECT_DOUBLE_EQ(q.FalsePositivePct(), 0.0);
  EXPECT_DOUBLE_EQ(q.ErrorPct(), 0.0);
  EXPECT_DOUBLE_EQ(q.BalancedErrorPct(), 0.0);
  EXPECT_DOUBLE_EQ(q.F1(), 0.0);
}

TEST(PredictionQuality, DerivedRates) {
  PredictionQuality q;
  q.rows = 100;
  q.true_fraud = 10;
  q.true_legit = 90;
  q.fraud_captured = 8;
  q.fraud_missed = 2;
  q.legit_captured = 9;
  EXPECT_DOUBLE_EQ(q.MissPct(), 20.0);
  EXPECT_DOUBLE_EQ(q.FalsePositivePct(), 10.0);
  EXPECT_DOUBLE_EQ(q.ErrorPct(), 11.0);
  EXPECT_DOUBLE_EQ(q.BalancedErrorPct(), 15.0);
  EXPECT_DOUBLE_EQ(q.Recall(), 0.8);
  EXPECT_NEAR(q.Precision(), 8.0 / 17.0, 1e-12);
}

TEST(PredictionQuality, CaptureNothingScoresBalanced50) {
  PredictionQuality q;
  q.rows = 100;
  q.true_fraud = 5;
  q.true_legit = 95;
  q.fraud_missed = 5;
  EXPECT_DOUBLE_EQ(q.BalancedErrorPct(), 50.0);
  // Plain error looks deceptively good on imbalanced data.
  EXPECT_DOUBLE_EQ(q.ErrorPct(), 5.0);
}

TEST(EvaluateOnRange, UsesGroundTruthOnTheGivenWindow) {
  PaperExample ex = MakePaperExample();
  // Rule capturing exactly the two online-store frauds at 18:02/18:03.
  RuleSet rules;
  rules.AddRule(
      ParseRule(*ex.schema, "time in [18:02,18:03]").ValueOrDie());
  PredictionQuality q = EvaluateOnRange(*ex.relation, rules, 0, 10);
  EXPECT_EQ(q.rows, 10u);
  EXPECT_EQ(q.true_fraud, 6u);
  EXPECT_EQ(q.fraud_captured, 2u);
  EXPECT_EQ(q.fraud_missed, 4u);
  EXPECT_EQ(q.legit_captured, 0u);
  // Restricting to the last five rows sees only the gas-station frauds.
  PredictionQuality tail = EvaluateOnRange(*ex.relation, rules, 5, 10);
  EXPECT_EQ(tail.rows, 5u);
  EXPECT_EQ(tail.true_fraud, 3u);
  EXPECT_EQ(tail.fraud_captured, 0u);
}

TEST(EvaluateOnRange, DegenerateRanges) {
  PaperExample ex = MakePaperExample();
  RuleSet rules;
  EXPECT_EQ(EvaluateOnRange(*ex.relation, rules, 5, 5).rows, 0u);
  EXPECT_EQ(EvaluateOnRange(*ex.relation, rules, 8, 100).rows, 2u);  // clamped
}

// The definitional count: ground truth and Rule::MatchesRow, row by row.
PredictionQuality RowByRowQuality(const Relation& rel, const RuleSet& rules,
                                  size_t begin, size_t end) {
  PredictionQuality q;
  end = std::min(end, rel.NumRows());
  for (size_t r = begin; r < end; ++r) {
    bool hit = false;
    for (RuleId id : rules.LiveIds()) hit = hit || rules.Get(id).MatchesRow(rel, r);
    ++q.rows;
    if (rel.TrueLabel(r) == Label::kFraud) {
      ++q.true_fraud;
      ++(hit ? q.fraud_captured : q.fraud_missed);
    } else {
      ++q.true_legit;
      if (hit) ++q.legit_captured;
    }
  }
  return q;
}

uint64_t CounterIn(const obs::MetricsSnapshot& delta, const std::string& name) {
  const obs::CounterSample* c = delta.FindCounter(name);
  return c == nullptr ? 0 : c->value;
}

TEST(EvaluateOnRange, MatchesRowByRowCountWithoutBuildingIndexes) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 3000;
  Dataset ds = GenerateDataset(s.options);
  const Relation& rel = *ds.relation;
  const Schema& schema = *ds.cc.schema;
  const size_t n = rel.NumRows();

  // Random rules mixing numeric intervals and ontology concepts, so both
  // predicate kernels run over ragged windows.
  Rng rng(41);
  RuleSet random_rules;
  for (int i = 0; i < 6; ++i) {
    Rule rule = Rule::Trivial(schema);
    for (size_t a = 0; a < schema.arity(); ++a) {
      if (rng.Bernoulli(0.6)) continue;
      const AttributeDef& def = schema.attribute(a);
      if (def.kind == AttrKind::kNumeric) {
        int64_t lo = rng.UniformInt(0, 1200);
        rule.set_condition(
            a, Condition::MakeNumeric({lo, lo + rng.UniformInt(0, 600)}));
      } else {
        rule.set_condition(
            a, Condition::MakeCategorical(static_cast<ConceptId>(rng.UniformInt(
                   0, static_cast<int64_t>(def.ontology->size()) - 1))));
      }
    }
    random_rules.AddRule(rule);
  }
  RuleSet with_trivial = random_rules;
  with_trivial.AddRule(Rule::Trivial(schema));
  RuleSet empty;

  const std::pair<size_t, size_t> windows[] = {
      {0, n},          {1, n / 2},      {63, 700},  {64, 1000},
      {65, n - 3},     {n - 1, n},      {n / 2, n / 2},
      {n / 3, n + 500},  // end past NumRows(): clamped
  };
  const obs::MetricsSnapshot before = obs::MetricsRegistry::Default().Snapshot();
  for (const RuleSet* rules : {&random_rules, &with_trivial, &empty}) {
    for (const auto& [begin, end] : windows) {
      PredictionQuality got = EvaluateOnRange(rel, *rules, begin, end);
      PredictionQuality want = RowByRowQuality(rel, *rules, begin, end);
      std::string where = "rules " + std::to_string(rules->size()) +
                          " window [" + std::to_string(begin) + ", " +
                          std::to_string(end) + ")";
      EXPECT_EQ(got.rows, want.rows) << where;
      EXPECT_EQ(got.true_fraud, want.true_fraud) << where;
      EXPECT_EQ(got.true_legit, want.true_legit) << where;
      EXPECT_EQ(got.fraud_captured, want.fraud_captured) << where;
      EXPECT_EQ(got.fraud_missed, want.fraud_missed) << where;
      EXPECT_EQ(got.legit_captured, want.legit_captured) << where;
    }
  }
  // Scoring a window scans only its rows: no attribute index is built.
  const obs::MetricsSnapshot delta =
      obs::MetricsRegistry::Default().Snapshot().DeltaSince(before);
  EXPECT_EQ(CounterIn(delta, "index.numeric.builds"), 0u);
  EXPECT_EQ(CounterIn(delta, "index.categorical.builds"), 0u);
}

TEST(TablePrinter, AlignsColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer-name", "12345"});
  std::string out = table.ToString();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  // Labels left-aligned, numbers right-aligned.
  EXPECT_NE(out.find("name         value"), std::string::npos);
  EXPECT_NE(out.find("a                1"), std::string::npos);
  EXPECT_NE(out.find("longer-name  12345"), std::string::npos);
}

TEST(TablePrinter, Formatters) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Int(-42), "-42");
  EXPECT_EQ(TablePrinter::Pct(12.345, 1), "12.3%");
}

TEST(EditLogUpdates, GroupsCountAsOneUpdate) {
  EditLog log;
  uint64_t g = log.NewGroup();
  for (int i = 0; i < 3; ++i) {
    Edit e;
    e.kind = EditKind::kModifyCondition;
    e.group = g;
    log.Record(e);
  }
  Edit single;
  single.kind = EditKind::kAddRule;
  log.Record(single);  // group 0: its own update
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.NumUpdates(), 2u);
}

TEST(EditLogUpdates, DistinctGroupsCounted) {
  EditLog log;
  for (int u = 0; u < 3; ++u) {
    uint64_t g = log.NewGroup();
    for (int i = 0; i < 2; ++i) {
      Edit e;
      e.group = g;
      log.Record(e);
    }
  }
  EXPECT_EQ(log.NumUpdates(), 3u);
  log.Reset();
  EXPECT_EQ(log.NumUpdates(), 0u);
}

}  // namespace
}  // namespace rudolf
