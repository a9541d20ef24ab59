#include "core/session.h"

#include <gtest/gtest.h>

#include "expert/scripted_expert.h"
#include "metrics/quality.h"
#include "rules/parser.h"
#include "workload/paper_example.h"

namespace rudolf {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  SessionTest() : ex_(MakePaperExample()) { MarkPaperLegitimates(&ex_); }
  PaperExample ex_;
};

TEST_F(SessionTest, ReachesPerfectRulesOnPaperExample) {
  SessionOptions options;
  RefinementSession session(*ex_.relation, ex_.relation->NumRows(), options);
  RuleSet rules = ex_.rules;
  EditLog log;
  ScriptedExpert expert;
  SessionStats stats = session.Refine(&rules, &expert, &log);
  EXPECT_GE(stats.rounds, 1);
  // All frauds captured, all legitimates excluded.
  for (size_t r = 0; r < ex_.relation->NumRows(); ++r) {
    Label l = ex_.relation->VisibleLabel(r);
    bool captured = rules.CapturesRow(*ex_.relation, r);
    if (l == Label::kFraud) {
      EXPECT_TRUE(captured) << r;
    }
    if (l == Label::kLegitimate) {
      EXPECT_FALSE(captured) << r;
    }
  }
  EXPECT_EQ(stats.edits, log.size());
}

TEST_F(SessionTest, FixpointStopsEarly) {
  SessionOptions options;
  options.max_rounds = 10;
  // Rules that are already perfect: exact rules for each fraud row.
  RuleSet rules;
  for (size_t r : ex_.relation->RowsWithVisibleLabel(Label::kFraud)) {
    rules.AddRule(Rule::Exactly(*ex_.schema, ex_.relation->GetRow(r)));
  }
  RefinementSession session(*ex_.relation, ex_.relation->NumRows(), options);
  EditLog log;
  ScriptedExpert expert;
  SessionStats stats = session.Refine(&rules, &expert, &log);
  EXPECT_EQ(stats.rounds, 1);  // one no-op round, then fixpoint
  EXPECT_EQ(log.size(), 0u);
}

// Simplify edits the rule set after the rounds; the next Refine takes the
// edits in through the held tracker (extend, then Sync) instead of building
// a new one.
TEST_F(SessionTest, SimplifyEditsKeepTheTracker) {
  RuleSet rules;
  for (size_t r : ex_.relation->RowsWithVisibleLabel(Label::kFraud)) {
    rules.AddRule(Rule::Exactly(*ex_.schema, ex_.relation->GetRow(r)));
  }
  RuleId duplicate = rules.AddRule(rules.Get(rules.LiveIds()[0]));
  RefinementSession session(*ex_.relation, SessionOptions{});
  EditLog log;
  ScriptedExpert expert;
  SessionStats first = session.Refine(5, &rules, &expert, &log);
  EXPECT_EQ(first.tracker_rebuilds, 1u);
  ASSERT_FALSE(rules.IsLive(duplicate));  // simplify changed the rule set
  SessionStats second =
      session.Refine(ex_.relation->NumRows(), &rules, &expert, &log);
  EXPECT_EQ(second.tracker_rebuilds, 0u);
  EXPECT_EQ(second.tracker_extends, 1u);
}

TEST_F(SessionTest, MaxRoundsBoundsWork) {
  SessionOptions options;
  options.max_rounds = 1;
  RefinementSession session(*ex_.relation, ex_.relation->NumRows(), options);
  RuleSet rules = ex_.rules;
  EditLog log;
  ScriptedExpert expert;
  SessionStats stats = session.Refine(&rules, &expert, &log);
  EXPECT_EQ(stats.rounds, 1);
}

TEST_F(SessionTest, StatsAggregateBothPhases) {
  SessionOptions options;
  RefinementSession session(*ex_.relation, ex_.relation->NumRows(), options);
  RuleSet rules = ex_.rules;
  EditLog log;
  ScriptedExpert expert;
  SessionStats stats = session.Refine(&rules, &expert, &log);
  EXPECT_GT(stats.generalize.proposals, 0u);
  EXPECT_GT(stats.specialize.proposals, 0u);
  EXPECT_DOUBLE_EQ(stats.expert_seconds, stats.generalize.expert_seconds +
                                             stats.specialize.expert_seconds);
}

TEST_F(SessionTest, PrefixLimitsWhatTheSessionSees) {
  SessionOptions options;
  // Only the first three rows (two frauds + one legit) are visible.
  RefinementSession session(*ex_.relation, 3, options);
  RuleSet rules = ex_.rules;
  EditLog log;
  ScriptedExpert expert;
  session.Refine(&rules, &expert, &log);
  EXPECT_TRUE(rules.CapturesRow(*ex_.relation, 0));
  EXPECT_TRUE(rules.CapturesRow(*ex_.relation, 1));
  // The gas-station frauds (rows 5-7) were invisible; still uncaptured.
  EXPECT_FALSE(rules.CapturesRow(*ex_.relation, 5));
}

TEST_F(SessionTest, QualityImprovesOverNoChange) {
  // Measured on the whole relation with ground truth (the paper example's
  // visible labels are the truth here).
  for (size_t r = 0; r < ex_.relation->NumRows(); ++r) {
    // Align true labels with the example's reports for the metric.
    if (ex_.relation->VisibleLabel(r) == Label::kFraud) continue;
  }
  PredictionQuality before =
      EvaluateOnRange(*ex_.relation, ex_.rules, 0, ex_.relation->NumRows());
  SessionOptions options;
  RefinementSession session(*ex_.relation, ex_.relation->NumRows(), options);
  RuleSet rules = ex_.rules;
  EditLog log;
  ScriptedExpert expert;
  session.Refine(&rules, &expert, &log);
  PredictionQuality after =
      EvaluateOnRange(*ex_.relation, rules, 0, ex_.relation->NumRows());
  EXPECT_LT(after.ErrorPct(), before.ErrorPct());
  EXPECT_EQ(after.fraud_missed, 0u);
}

}  // namespace
}  // namespace rudolf
