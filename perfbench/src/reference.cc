#include "reference.h"

#include <algorithm>

namespace perfbench {

using rudolf::AttrKind;
using rudolf::CellValue;
using rudolf::ConceptId;
using rudolf::Label;
using rudolf::RuleId;

double RefConfusion::BalancedErrorPct() const {
  double miss = true_fraud == 0 ? 0.0
                                : 100.0 * static_cast<double>(fraud_missed) /
                                      static_cast<double>(true_fraud);
  double fp = true_legit == 0 ? 0.0
                              : 100.0 * static_cast<double>(legit_captured) /
                                    static_cast<double>(true_legit);
  return (miss + fp) / 2.0;
}

ReferenceEvaluator::ReferenceEvaluator(const rudolf::Schema& schema,
                                       const rudolf::RuleSet& rules)
    : schema_(schema), ancestors_(schema.arity()) {
  for (RuleId id : rules.LiveIds()) {
    const rudolf::Rule& rule = rules.Get(id);
    CompiledRule compiled;
    compiled.id = id;
    for (size_t a = 0; a < rule.arity(); ++a) {
      const rudolf::Condition& c = rule.condition(a);
      Cond cond;
      cond.attr = a;
      if (c.kind() == AttrKind::kCategorical) {
        cond.categorical = true;
        cond.concept_id = c.concept_id();
      } else {
        cond.lo = c.interval().lo;
        cond.hi = c.interval().hi;
      }
      compiled.conds.push_back(cond);
    }
    rules_.push_back(std::move(compiled));
  }
}

bool ReferenceEvaluator::IsAncestor(size_t attr, ConceptId ancestor,
                                    ConceptId value) const {
  auto& memo = ancestors_[attr];
  auto it = memo.find(value);
  if (it == memo.end()) {
    const rudolf::Ontology& ontology = *schema_.attribute(attr).ontology;
    std::vector<ConceptId> seen;
    if (ontology.IsValid(value)) {
      std::vector<ConceptId> stack = {value};
      while (!stack.empty()) {
        ConceptId c = stack.back();
        stack.pop_back();
        if (std::find(seen.begin(), seen.end(), c) != seen.end()) continue;
        seen.push_back(c);
        for (ConceptId p : ontology.ParentsOf(c)) stack.push_back(p);
      }
    }
    std::sort(seen.begin(), seen.end());
    it = memo.emplace(value, std::move(seen)).first;
  }
  return std::binary_search(it->second.begin(), it->second.end(), ancestor);
}

bool ReferenceEvaluator::RuleMatches(size_t index, const CellValue* row) const {
  for (const Cond& c : rules_[index].conds) {
    CellValue v = row[c.attr];
    if (c.categorical) {
      if (v < 0 || !IsAncestor(c.attr, c.concept_id, static_cast<ConceptId>(v))) {
        return false;
      }
    } else if (v < c.lo || v > c.hi) {
      return false;
    }
  }
  return true;
}

std::vector<RuleId> ReferenceEvaluator::Fired(const CellValue* row) const {
  std::vector<RuleId> out;
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (RuleMatches(i, row)) out.push_back(rules_[i].id);
  }
  return out;
}

bool ReferenceEvaluator::Flagged(const CellValue* row) const {
  for (size_t i = 0; i < rules_.size(); ++i) {
    if (RuleMatches(i, row)) return true;
  }
  return false;
}

RefConfusion ReferenceEvaluator::Confusion(const rudolf::Relation& relation,
                                           size_t begin, size_t end) const {
  RefConfusion q;
  end = std::min(end, relation.NumRows());
  std::vector<CellValue> row(schema_.arity());
  for (size_t r = begin; r < end; ++r) {
    for (size_t a = 0; a < row.size(); ++a) row[a] = relation.Get(r, a);
    bool hit = Flagged(row.data());
    ++q.rows;
    if (relation.TrueLabel(r) == Label::kFraud) {
      ++q.true_fraud;
      ++(hit ? q.fraud_captured : q.fraud_missed);
    } else {
      ++q.true_legit;
      if (hit) ++q.legit_captured;
    }
  }
  return q;
}

}  // namespace perfbench
