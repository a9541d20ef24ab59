// Extend-vs-rebuild equivalence for the incremental append path: delta-
// maintained attribute indexes, cache-preserving ConditionIndex::ExtendTo,
// CaptureTracker::ExtendPrefix and CaptureTracker::Sync under randomized
// append / relabel / rule-edit / simplify interleavings (at 1, 4 and 8
// threads), and a session that keeps its tracker across Refine calls —
// every incremental result must be BIT-IDENTICAL to building from scratch.
//
// Alongside ParallelEquivalence, this binary is a TSan target: the README's
// RUDOLF_SANITIZE=thread invocation runs it to race-check the parallel
// extension pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/capture_tracker.h"
#include "core/session.h"
#include "expert/oracle_expert.h"
#include "index/attribute_index.h"
#include "index/condition_index.h"
#include "rules/evaluator.h"
#include "rules/simplify.h"
#include "util/random.h"
#include "workload/generator.h"
#include "workload/initial_rules.h"
#include "workload/scenarios.h"

namespace rudolf {
namespace {

// Ground truth for interval extraction.
Bitset ScanInterval(const std::vector<CellValue>& column, size_t prefix,
                    const Interval& iv) {
  Bitset out(prefix);
  for (size_t r = 0; r < prefix; ++r) {
    if (iv.Contains(column[r])) out.Set(r);
  }
  return out;
}

// Draws a random syntactically valid rule over the dataset's schema (same
// construction as parallel_equivalence_test.cc).
Rule RandomRule(const Schema& schema, Rng* rng) {
  Rule rule = Rule::Trivial(schema);
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (rng->Bernoulli(0.45)) continue;
    const AttributeDef& def = schema.attribute(i);
    if (def.kind == AttrKind::kNumeric) {
      bool clock = def.display == NumericDisplay::kClock;
      int64_t a = rng->UniformInt(0, clock ? 1000 : 1200);
      int64_t b = a + rng->UniformInt(0, clock ? 1439 - a : 400);
      rule.set_condition(i, Condition::MakeNumeric({a, b}));
    } else {
      ConceptId c = static_cast<ConceptId>(
          rng->UniformInt(0, static_cast<int64_t>(def.ontology->size()) - 1));
      rule.set_condition(i, Condition::MakeCategorical(c));
    }
  }
  return rule;
}

TEST(NumericAppend, MatchesFreshBuildAcrossCompactions) {
  Rng rng(31);
  std::vector<CellValue> column;
  for (int i = 0; i < 30000; ++i) column.push_back(rng.UniformInt(-50, 1300));

  size_t prefix = 5000;
  NumericAttributeIndex index(column, prefix);
  bool compacted = false;
  while (prefix < column.size()) {
    size_t batch = static_cast<size_t>(rng.UniformInt(1, 1500));
    size_t delta_before = index.delta_size();
    prefix = std::min(prefix + batch, column.size());
    index.AppendRows(column, prefix);
    if (index.delta_size() < delta_before) compacted = true;

    NumericAttributeIndex fresh(column, prefix);
    for (int i = 0; i < 6; ++i) {
      int64_t a = rng.UniformInt(-60, 1310);
      int64_t b = rng.UniformInt(-60, 1310);
      Interval iv{std::min(a, b), std::max(a, b)};
      Bitset expected = ScanInterval(column, prefix, iv);
      ASSERT_EQ(index.Extract(iv), expected)
          << "extended diverges at prefix " << prefix;
      ASSERT_EQ(fresh.Extract(iv), expected)
          << "fresh diverges at prefix " << prefix;
    }
    ASSERT_EQ(index.Extract(Interval::All()),
              ScanInterval(column, prefix, Interval::All()));
  }
  // The schedule must have crossed the compaction threshold at least once,
  // or the test would only cover the pure-delta regime.
  EXPECT_TRUE(compacted);
  EXPECT_GT(index.DeltaCompactionThreshold(), 1000u);
}

TEST(CategoricalAppend, MatchesFreshBuildWithLateNewValues) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 8000;
  Dataset ds = GenerateDataset(s.options);
  const Schema& schema = ds.relation->schema();
  Rng rng(32);

  for (size_t attr = 0; attr < schema.arity(); ++attr) {
    const AttributeDef& def = schema.attribute(attr);
    if (def.kind != AttrKind::kCategorical) continue;
    const std::vector<CellValue>& column = ds.relation->Column(attr);

    size_t prefix = 500;  // small start so later batches introduce values
    CategoricalAttributeIndex index(column, prefix, def.ontology.get());
    while (prefix < column.size()) {
      prefix = std::min(prefix + static_cast<size_t>(rng.UniformInt(1, 900)),
                        column.size());
      index.AppendRows(column, prefix);
    }
    CategoricalAttributeIndex fresh(column, prefix, def.ontology.get());
    for (ConceptId c = 0; c < def.ontology->size(); ++c) {
      ASSERT_EQ(index.Extract(c), fresh.Extract(c))
          << def.name << " <= " << def.ontology->NameOf(c);
    }
  }
}

TEST(ConditionIndexExtend, KeepsCacheAndMatchesRebuild) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 6000;
  Dataset ds = GenerateDataset(s.options);
  const Relation& rel = *ds.relation;
  const Schema& schema = rel.schema();
  Rng rng(33);
  Rule rule = RandomRule(schema, &rng);

  ConditionIndex index(rel, 3000);
  index.EnsureForRule(rule);
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (rule.condition(i).IsTrivial(schema.attribute(i))) continue;
    ASSERT_NE(index.ConditionBitmap(i, rule.condition(i)), nullptr);
  }
  ConditionCacheStats before = index.cache_stats();
  ASSERT_GT(before.misses, 0u);

  index.ExtendTo(5000);
  EXPECT_EQ(index.prefix_rows(), 5000u);

  ConditionIndex fresh(rel, 5000);
  fresh.EnsureForRule(rule);
  for (size_t i = 0; i < schema.arity(); ++i) {
    if (rule.condition(i).IsTrivial(schema.attribute(i))) continue;
    auto extended = index.ConditionBitmap(i, rule.condition(i));
    auto rebuilt = fresh.ConditionBitmap(i, rule.condition(i));
    ASSERT_EQ(extended->size(), 5000u);
    EXPECT_EQ(extended->ToBitset(), rebuilt->ToBitset()) << "attribute " << i;
  }
  // The extension preserved the cache: the post-extend retrievals were hits,
  // not re-extractions.
  ConditionCacheStats after = index.cache_stats();
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.hits, before.hits);
}

// Range-boundary coverage for the delta pass: EvalRulesRange at lo = 0 and
// hi = relation size (plus empty ranges at both ends) must agree with the
// full indexed EvalRule bitmaps restricted to the range, and with the
// row-by-row Rule::MatchesRow semantics — the interior-range cases below
// only exercise 0 < lo < hi < size.
TEST(EvalRulesRangeBoundaries, IndexedAndScanAgreeAtZeroAndRelationSize) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 5000;
  Dataset ds = GenerateDataset(s.options);
  const Relation& rel = *ds.relation;
  const size_t n = rel.NumRows();
  Rng rng(57);

  RuleSet rules;
  for (int i = 0; i < 5; ++i) rules.AddRule(RandomRule(rel.schema(), &rng));
  const std::vector<RuleId> ids = rules.LiveIds();
  std::vector<const Rule*> rule_ptrs;
  for (RuleId id : ids) rule_ptrs.push_back(&rules.Get(id));

  RuleEvaluator serial(rel, n, EvalOptions{1});
  RuleEvaluator parallel_eval(rel, n, EvalOptions{4});

  // Full bitmaps from the whole-prefix indexed path, checked row by row.
  std::vector<Bitset> full = serial.EvalRules(rules, ids);
  for (size_t k = 0; k < ids.size(); ++k) {
    for (size_t r = 0; r < n; ++r) {
      ASSERT_EQ(full[k].Test(r), rules.Get(ids[k]).MatchesRow(rel, r))
          << "rule " << ids[k] << " row " << r;
    }
  }

  const std::pair<size_t, size_t> ranges[] = {
      {0, n},         // the whole prefix through the range path
      {0, n / 3},     // lo at the 0 boundary
      {n / 3, n},     // hi at the relation-size boundary
      {0, 0},         // empty at the low edge
      {n, n},         // empty at the high edge
  };
  for (const RuleEvaluator* ev : {&serial, &parallel_eval}) {
    for (const auto& [lo, hi] : ranges) {
      std::vector<Bitset> outs(ids.size(), Bitset(n));
      std::vector<Bitset*> out_ptrs;
      for (Bitset& b : outs) out_ptrs.push_back(&b);
      ev->EvalRulesRange(rule_ptrs, lo, hi, out_ptrs);
      for (size_t k = 0; k < ids.size(); ++k) {
        Bitset expected(n);
        expected.OrRange(full[k], lo, hi);
        ASSERT_EQ(outs[k], expected)
            << "rule " << ids[k] << " range [" << lo << ", " << hi << ")";
      }
    }
  }
}

// Randomized interleavings of prefix growth, in-prefix relabels, rule edits
// (one at a time, in multi-edit batches, and by a simplify pass), each edit
// taken in by CaptureTracker::Sync: incrementally maintained trackers
// (serial, 4- and 8-thread) must stay bit-identical to a tracker freshly
// built after every operation.
class ExtendEquivalence : public ::testing::TestWithParam<uint64_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, ExtendEquivalence,
                         ::testing::Values(1, 2, 3, 4));

TEST_P(ExtendEquivalence, TrackerInterleavingsMatchFreshBuilds) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 6000;
  Dataset ds = GenerateDataset(s.options);
  Relation rel = *ds.relation;  // private copy: the test relabels rows
  const Schema& schema = rel.schema();
  Rng rng(GetParam() ^ 0xE57E);
  RevealLabels(&rel, 0, rel.NumRows(), 0.9, 0.08, 0.004, &rng);

  RuleSet rules;
  for (int i = 0; i < 4; ++i) rules.AddRule(RandomRule(schema, &rng));

  const EvalOptions kConfigs[] = {EvalOptions{1}, EvalOptions{4},
                                  EvalOptions{8}};
  size_t prefix = 1500;
  std::vector<std::unique_ptr<CaptureTracker>> trackers;
  for (const EvalOptions& eval : kConfigs) {
    trackers.push_back(
        std::make_unique<CaptureTracker>(rel, rules, prefix, eval));
  }

  auto check_all = [&](const char* op) {
    CaptureTracker fresh(rel, rules, prefix, EvalOptions{1});
    for (size_t t = 0; t < trackers.size(); ++t) {
      const CaptureTracker& got = *trackers[t];
      ASSERT_EQ(got.prefix_rows(), fresh.prefix_rows()) << op << " cfg " << t;
      for (RuleId id : rules.LiveIds()) {
        ASSERT_EQ(got.RuleCapture(id), fresh.RuleCapture(id))
            << op << " cfg " << t << " rule " << id;
      }
      for (size_t r = 0; r < prefix; ++r) {
        ASSERT_EQ(got.CoverCount(r), fresh.CoverCount(r))
            << op << " cfg " << t << " row " << r;
      }
      ASSERT_EQ(got.TotalCounts(), fresh.TotalCounts()) << op << " cfg " << t;
      ASSERT_EQ(got.UnionCapture(), fresh.UnionCapture()) << op << " cfg " << t;
    }
  };

  // One random add, replace or remove (never the last live rule).
  auto random_edit = [&] {
    std::vector<RuleId> live = rules.LiveIds();
    RuleId id = live[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
    switch (rng.UniformInt(0, 2)) {
      case 0:
        rules.AddRule(RandomRule(schema, &rng));
        return "add";
      case 1:
        rules.Replace(id, RandomRule(schema, &rng));
        return "replace";
      default:
        if (live.size() == 1) return "skip";
        rules.RemoveRule(id);
        return "remove";
    }
  };
  auto sync_all = [&] {
    for (auto& t : trackers) t->Sync(rules);
  };

  check_all("initial");
  for (int step = 0; step < 32; ++step) {
    switch (rng.UniformInt(0, 5)) {
      case 0:    // the stream advances
      case 1: {  // (twice as likely as each other operation)
        prefix = std::min(prefix + static_cast<size_t>(rng.UniformInt(1, 500)),
                          rel.NumRows());
        for (auto& t : trackers) t->ExtendPrefix(prefix);
        check_all("extend");
        break;
      }
      case 2: {  // a row inside the prefix gets relabeled
        size_t row = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(prefix) - 1));
        Label old_label = rel.VisibleLabel(row);
        Label new_label = static_cast<Label>(rng.UniformInt(0, 2));
        rel.SetVisibleLabel(row, new_label);
        for (auto& t : trackers) {
          t->OnVisibleLabelChanged(row, old_label, new_label);
        }
        check_all("relabel");
        break;
      }
      case 3: {  // one rule edit, synced
        const char* op = random_edit();
        sync_all();
        check_all(op);
        break;
      }
      case 4: {  // several edits, synced once
        int edits = static_cast<int>(rng.UniformInt(2, 5));
        for (int i = 0; i < edits; ++i) random_edit();
        sync_all();
        check_all("batch");
        break;
      }
      case 5: {  // a simplify pass over a set with a duplicate rule
        std::vector<RuleId> live = rules.LiveIds();
        RuleId id = live[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1))];
        rules.AddRule(rules.Get(id));
        sync_all();
        EditLog log;
        ASSERT_GT(SimplifyRuleSet(schema, &rules, &log).total(), 0u);
        sync_all();
        check_all("simplify");
        break;
      }
    }
  }
}

// End-to-end: a session that keeps its tracker across Refine calls
// (extending it and syncing simplify's edits) must be indistinguishable —
// rules, edit log, per-call records — from a reference session that drops
// its tracker before every call and so builds a fresh one each time.
TEST(PersistentSession, MatchesRebuildModeEndToEnd) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 1500;
  Dataset kept_ds = GenerateDataset(s.options);
  Dataset rebuilt_ds = GenerateDataset(s.options);
  const Schema& schema = kept_ds.relation->schema();
  // The experiment protocol: 40% revealed up front, then 8% hops, each
  // revealed before the Refine over the grown prefix.
  const std::vector<size_t> prefixes = {600, 720, 840, 960};

  struct World {
    Dataset* ds = nullptr;
    RuleSet rules;
    EditLog log;
    std::unique_ptr<OracleExpert> expert;
    std::unique_ptr<RefinementSession> session;
    Rng reveal{0xA11CE};
  };
  World kept;
  World rebuilt;
  kept.ds = &kept_ds;
  rebuilt.ds = &rebuilt_ds;
  auto reveal = [](World* w, size_t begin, size_t end) {
    RevealLabels(w->ds->relation.get(), begin, end,
                 w->ds->options.label_coverage, w->ds->options.mislabel_fraction,
                 w->ds->options.false_fraud_fraction, &w->reveal);
  };
  for (World* w : {&kept, &rebuilt}) {
    w->rules = SynthesizeInitialRules(*w->ds);
    w->expert = MakeDomainExpert(*w->ds, 1);
    w->session =
        std::make_unique<RefinementSession>(*w->ds->relation, SessionOptions{});
    reveal(w, 0, prefixes[0]);
  }

  size_t extends_kept = 0, rebuilds_kept = 0, rebuilds_ref = 0;
  SessionStats a;
  for (size_t i = 1; i < prefixes.size(); ++i) {
    reveal(&kept, prefixes[i - 1], prefixes[i]);
    a = kept.session->Refine(prefixes[i], &kept.rules, kept.expert.get(),
                             &kept.log);
    reveal(&rebuilt, prefixes[i - 1], prefixes[i]);
    rebuilt.session->ReleaseTracker();
    SessionStats b = rebuilt.session->Refine(prefixes[i], &rebuilt.rules,
                                             rebuilt.expert.get(), &rebuilt.log);
    EXPECT_EQ(a.rounds, b.rounds) << i;
    EXPECT_EQ(a.edits, b.edits) << i;
    EXPECT_EQ(kept.log.NumUpdates(), rebuilt.log.NumUpdates()) << i;
    EXPECT_EQ(kept.rules.ToString(schema), rebuilt.rules.ToString(schema)) << i;
    extends_kept += a.tracker_extends;
    rebuilds_kept += a.tracker_rebuilds;
    rebuilds_ref += b.tracker_rebuilds;
    EXPECT_EQ(b.tracker_extends, 0u);  // the reference never extends
  }
  EXPECT_EQ(kept.log.size(), rebuilt.log.size());
  EXPECT_GT(extends_kept, 0u);     // the fast path actually ran
  EXPECT_EQ(rebuilds_kept, 1u);    // one build for the whole session
  EXPECT_EQ(rebuilds_ref, prefixes.size() - 1);
  // Cache counters surface through SessionStats.
  EXPECT_GT(a.cache.hits + a.cache.misses, 0u);
}

TEST(RelationCounts, VisibleCountsStayExactUnderRelabels) {
  Scenario s = TinyScenario();
  s.options.num_transactions = 2000;
  Dataset ds = GenerateDataset(s.options);
  Relation rel = *ds.relation;
  Rng rng(41);
  RevealLabels(&rel, 0, rel.NumRows(), 0.8, 0.1, 0.01, &rng);

  auto check = [&] {
    for (Label label :
         {Label::kUnlabeled, Label::kFraud, Label::kLegitimate}) {
      size_t scanned = 0;
      std::vector<size_t> expected_rows;
      for (size_t r = 0; r < rel.NumRows(); ++r) {
        if (rel.VisibleLabel(r) == label) {
          ++scanned;
          expected_rows.push_back(r);
        }
      }
      ASSERT_EQ(rel.CountVisible(label), scanned);
      ASSERT_EQ(rel.RowsWithVisibleLabel(label), expected_rows);
    }
  };
  check();
  for (int i = 0; i < 500; ++i) {
    size_t row = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(rel.NumRows()) - 1));
    rel.SetVisibleLabel(row, static_cast<Label>(rng.UniformInt(0, 2)));
  }
  check();
}

}  // namespace
}  // namespace rudolf
