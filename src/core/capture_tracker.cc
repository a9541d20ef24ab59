#include "core/capture_tracker.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "simd/simd.h"

namespace rudolf {

CaptureTracker::CaptureTracker(const Relation& relation, const RuleSet& rules,
                               size_t prefix_rows, EvalOptions eval)
    : relation_(relation),
      prefix_(std::min(prefix_rows, relation.NumRows())),
      evaluator_(relation, prefix_, eval) {
  RUDOLF_SPAN("tracker.build");
  RUDOLF_SCOPED_LATENCY("tracker.build.seconds");
  RUDOLF_COUNTER_INC("tracker.builds");
  cover_count_.assign(prefix_, 0);
  Sync(rules);
}

void CaptureTracker::Sync(const RuleSet& rules) {
  for (auto it = tracked_.begin(); it != tracked_.end();) {
    if (rules.IsLive(it->first)) {
      ++it;
      continue;
    }
    it->second.capture.ForEach([this](size_t row) { LowerCover(row); });
    it = tracked_.erase(it);
  }
  std::vector<RuleId> stale;
  for (RuleId id : rules.LiveIds()) {
    auto it = tracked_.find(id);
    if (it == tracked_.end() || !(it->second.rule == rules.Get(id))) {
      stale.push_back(id);
    }
  }
  if (stale.empty()) return;
  // Bitmap evaluation fans out across rules; the cover-count accumulation
  // stays serial (it is a cheap pass and rules would contend on the array).
  std::vector<Bitset> bitmaps = evaluator_.EvalRules(rules, stale);
  for (size_t i = 0; i < stale.size(); ++i) {
    // A new id starts from an empty capture, whose bits lower nothing.
    Tracked& tracked = tracked_[stale[i]];
    tracked.capture.ForEach([this](size_t row) { LowerCover(row); });
    bitmaps[i].ForEach([this](size_t row) { RaiseCover(row); });
    tracked.rule = rules.Get(stale[i]);
    tracked.capture = std::move(bitmaps[i]);
  }
}

void CaptureTracker::AdjustTotals(size_t row, int direction) {
  size_t delta = static_cast<size_t>(direction);  // +1 or (wrapping) -1
  switch (relation_.VisibleLabel(row)) {
    case Label::kFraud:
      total_counts_.fraud += delta;
      break;
    case Label::kLegitimate:
      total_counts_.legitimate += delta;
      break;
    case Label::kUnlabeled:
      total_counts_.unlabeled += delta;
      break;
  }
}

void CaptureTracker::RaiseCover(size_t row) {
  if (cover_count_[row]++ == 0) AdjustTotals(row, +1);
}

void CaptureTracker::LowerCover(size_t row) {
  if (--cover_count_[row] == 0) AdjustTotals(row, -1);
}

void CaptureTracker::ExtendPrefix(size_t new_prefix) {
  RUDOLF_SPAN("tracker.extend");
  RUDOLF_SCOPED_LATENCY("tracker.extend.seconds");
  RUDOLF_COUNTER_INC("tracker.extends");
  size_t old_prefix = prefix_;
  evaluator_.ExtendPrefix(new_prefix);
  prefix_ = evaluator_.num_rows();
  if (prefix_ == old_prefix) return;
  cover_count_.resize(prefix_, 0);
  std::vector<const Rule*> rules;
  std::vector<Bitset*> outs;
  rules.reserve(tracked_.size());
  outs.reserve(tracked_.size());
  for (auto& [id, tracked] : tracked_) {
    tracked.capture.Resize(prefix_);
    rules.push_back(&tracked.rule);
    outs.push_back(&tracked.capture);
  }
  // Each rule scans only the new row range, in parallel across rules; the
  // cover/label-count accumulation walks just the new bits, serially.
  evaluator_.EvalRulesRange(rules, old_prefix, prefix_, outs);
  for (Bitset* capture : outs) {
    capture->ForEachInRange(old_prefix, prefix_,
                            [this](size_t row) { RaiseCover(row); });
  }
}

void CaptureTracker::OnVisibleLabelChanged(size_t row, Label old_label,
                                           Label new_label) {
  if (row >= prefix_ || cover_count_[row] == 0 || old_label == new_label) return;
  auto bucket = [this](Label l) -> size_t& {
    switch (l) {
      case Label::kFraud:
        return total_counts_.fraud;
      case Label::kLegitimate:
        return total_counts_.legitimate;
      default:
        return total_counts_.unlabeled;
    }
  };
  --bucket(old_label);
  ++bucket(new_label);
}

const Bitset& CaptureTracker::RuleCapture(RuleId id) const {
  auto it = tracked_.find(id);
  assert(it != tracked_.end());
  return it->second.capture;
}

Bitset CaptureTracker::UnionCapture() const {
  Bitset out(prefix_);
  if (prefix_ == 0) return out;
  // Collapse the cover counts into word-packed bits in one kernel pass.
  std::vector<uint64_t> words(Bitset::WordsFor(prefix_));
  simd::NonZeroMaskU32(cover_count_.data(), prefix_, words.data());
  out.OrWords(words.data(), 0, words.size());
  return out;
}

Bitset CaptureTracker::Eval(const Rule& rule) const {
  return evaluator_.EvalRule(rule);
}

std::vector<Bitset> CaptureTracker::EvalMany(const std::vector<Rule>& rules) const {
  std::vector<Bitset> captures;
  captures.reserve(rules.size());
  for (const Rule& rule : rules) captures.push_back(evaluator_.EvalRule(rule));
  return captures;
}

BenefitDelta CaptureTracker::DeltaBetween(const Bitset& old_capture,
                                          const Bitset& new_capture) const {
  BenefitDelta delta;
  auto classify = [&](size_t row, int direction) {
    switch (relation_.VisibleLabel(row)) {
      case Label::kFraud:
        delta.fraud += direction;  // ΔF counts *increase* in captured fraud
        break;
      case Label::kLegitimate:
        delta.legit -= direction;  // ΔL counts *decrease* in captured legit
        break;
      case Label::kUnlabeled:
        delta.unlabeled -= direction;  // ΔR likewise
        break;
    }
  };
  // Rows newly covered: in new, not in old, not covered by any other rule.
  new_capture.ForEach([&](size_t row) {
    if (!old_capture.Test(row) && cover_count_[row] == 0) classify(row, +1);
  });
  // Rows newly uncovered: in old, not in new, covered only by this rule.
  old_capture.ForEach([&](size_t row) {
    if (!new_capture.Test(row) && cover_count_[row] == 1) classify(row, -1);
  });
  return delta;
}

BenefitDelta CaptureTracker::DeltaForReplace(RuleId id,
                                             const Bitset& new_capture) const {
  return DeltaBetween(RuleCapture(id), new_capture);
}

BenefitDelta CaptureTracker::DeltaForAdd(const Bitset& capture) const {
  Bitset empty(prefix_);
  return DeltaBetween(empty, capture);
}

BenefitDelta CaptureTracker::DeltaForRemove(RuleId id) const {
  Bitset empty(prefix_);
  return DeltaBetween(RuleCapture(id), empty);
}

BenefitDelta CaptureTracker::DeltaForReplaceMany(
    RuleId id, const std::vector<Bitset>& captures) const {
  Bitset unioned(prefix_);
  for (const Bitset& b : captures) unioned |= b;
  return DeltaBetween(RuleCapture(id), unioned);
}

size_t CaptureTracker::ApproxMemoryBytes() const {
  size_t bytes = evaluator_.ApproxMemoryBytes();
  bytes += cover_count_.capacity() * sizeof(uint32_t);
  for (const auto& [id, tracked] : tracked_) {
    bytes += sizeof(id) + sizeof(Tracked) +
             tracked.rule.arity() * sizeof(Condition) +
             tracked.capture.WordCount() * sizeof(uint64_t);
  }
  return bytes;
}

void CaptureTracker::ReleaseCachedBitmaps() {
  evaluator_.ReleaseCachedBitmaps();
}

}  // namespace rudolf
