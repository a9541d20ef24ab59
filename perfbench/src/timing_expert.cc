#include "timing_expert.h"

namespace perfbench {

double RefineTiming::WaitSeconds() const {
  double total = 0.0;
  for (const Wait& w : waits) total += w.span.seconds();
  return total;
}

void TimingExpert::Begin() {
  current_ = RefineTiming{};
  begin_ = Clock::now();
  mark_ = begin_;
}

RefineTiming TimingExpert::End() {
  Clock::time_point now = Clock::now();
  current_.waits.push_back({WaitKind::kReturn, {Since(mark_), Since(now)}});
  current_.wall_s = Since(now);
  current_.start = begin_;
  return std::move(current_);
}

void TimingExpert::StartReview(WaitKind kind) {
  review_start_ = Clock::now();
  current_.waits.push_back({kind, {Since(mark_), Since(review_start_)}});
}

void TimingExpert::FinishReview() {
  mark_ = Clock::now();
  TimeRange review{Since(review_start_), Since(mark_)};
  current_.review_s += review.seconds();
  current_.reviews.push_back(review);
}

rudolf::GeneralizationReview TimingExpert::ReviewGeneralization(
    const rudolf::GeneralizationProposal& proposal,
    const rudolf::Relation& relation) {
  StartReview(WaitKind::kGeneralization);
  rudolf::GeneralizationReview review =
      inner_->ReviewGeneralization(proposal, relation);
  FinishReview();
  return review;
}

rudolf::SplitReview TimingExpert::ReviewSplit(
    const rudolf::SplitProposal& proposal, const rudolf::Relation& relation) {
  StartReview(WaitKind::kSplit);
  rudolf::SplitReview review = inner_->ReviewSplit(proposal, relation);
  FinishReview();
  return review;
}

rudolf::RetirementReview TimingExpert::ReviewRetirement(
    const rudolf::Rule& rule, const rudolf::Relation& relation) {
  StartReview(WaitKind::kRetirement);
  rudolf::RetirementReview review = inner_->ReviewRetirement(rule, relation);
  FinishReview();
  return review;
}

}  // namespace perfbench
