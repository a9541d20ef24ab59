// The benchmark's own reference evaluator: a row-by-row interpreter of the
// rule language that shares no evaluation code with the program. Numeric
// conditions are interval containment; categorical conditions are decided by
// walking the ontology's parent links upward from the stored value. Every
// output the benchmark checks (quality confusion counts, served decisions)
// is compared against this interpreter.

#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "relation/relation.h"
#include "rules/rule_set.h"

namespace perfbench {

/// Confusion counts of a rule set over a row range against the true labels.
/// Rows whose true label is not fraud count as legitimate.
struct RefConfusion {
  size_t rows = 0;
  size_t true_fraud = 0;
  size_t true_legit = 0;
  size_t fraud_captured = 0;
  size_t fraud_missed = 0;
  size_t legit_captured = 0;

  /// (miss% + false-positive%) / 2 — the paper's per-class error folded.
  double BalancedErrorPct() const;

  bool operator==(const RefConfusion& other) const = default;
};

/// \brief Interprets one rule set against rows, one row at a time.
///
/// Holds the rule set's live rules by value; the schema (and its ontologies)
/// must outlive the evaluator.
class ReferenceEvaluator {
 public:
  ReferenceEvaluator(const rudolf::Schema& schema, const rudolf::RuleSet& rules);

  /// True iff live rule `index` (position in LiveIds order) accepts the row.
  bool RuleMatches(size_t index, const rudolf::CellValue* row) const;

  /// Ids of the live rules that accept the row, ascending.
  std::vector<rudolf::RuleId> Fired(const rudolf::CellValue* row) const;

  /// True iff any live rule accepts the row.
  bool Flagged(const rudolf::CellValue* row) const;

  /// Confusion counts over rows [begin, end) of `relation`.
  RefConfusion Confusion(const rudolf::Relation& relation, size_t begin,
                         size_t end) const;

 private:
  struct Cond {
    size_t attr = 0;
    bool categorical = false;
    int64_t lo = 0;
    int64_t hi = 0;
    rudolf::ConceptId concept_id = 0;
  };
  struct CompiledRule {
    rudolf::RuleId id = 0;
    std::vector<Cond> conds;
  };

  // True iff `ancestor` is `value` or reachable from it through parents.
  bool IsAncestor(size_t attr, rudolf::ConceptId ancestor,
                  rudolf::ConceptId value) const;

  const rudolf::Schema& schema_;
  std::vector<CompiledRule> rules_;
  // Per categorical attribute: value -> every concept reachable upward from
  // it (itself included), filled lazily by walking ParentsOf.
  mutable std::vector<std::unordered_map<rudolf::ConceptId,
                                         std::vector<rudolf::ConceptId>>>
      ancestors_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
