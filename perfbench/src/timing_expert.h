// An Expert decorator that attributes a Refine call's wall time. Every
// interval of the call is either a review (time spent inside the wrapped
// expert) or a proposal wait (the expert waiting on the system): from Refine
// entry, or from the previous review's return, to the next review or to
// Refine's return. The waits and reviews tile the call, so they sum to its
// wall time.

#ifndef PERFBENCH_TIMING_EXPERT_H_
#define PERFBENCH_TIMING_EXPERT_H_

#include <chrono>
#include <string>
#include <vector>

#include "expert/expert.h"

namespace perfbench {

/// What ended a proposal wait.
enum class WaitKind {
  kGeneralization,  ///< a generalization review began
  kSplit,           ///< a split review began
  kRetirement,      ///< a retirement review began
  kReturn,          ///< Refine returned (the tail wait)
};

/// One review or wait of a Refine call, in seconds since the call began.
struct TimeRange {
  double begin_s = 0.0;
  double end_s = 0.0;
  double seconds() const { return end_s - begin_s; }
};

struct Wait {
  WaitKind kind = WaitKind::kReturn;
  TimeRange span;
};

/// Attribution of one Refine call.
struct RefineTiming {
  std::chrono::steady_clock::time_point start;  ///< Refine entry
  double wall_s = 0.0;           ///< Refine entry to return
  /// In call order: the first (head) wait starts at entry, the last (tail)
  /// ends at return.
  std::vector<Wait> waits;
  std::vector<TimeRange> reviews; ///< time inside the wrapped expert
  double review_s = 0.0;         ///< sum of `reviews`

  /// Sum of every wait's seconds.
  double WaitSeconds() const;
};

/// \brief Wraps any Expert and times the calls the session makes into it.
///
/// Call Begin() right before RefinementSession::Refine and End() right after
/// it; End() returns the call's attribution. Single-threaded, like the
/// session's expert calls.
class TimingExpert : public rudolf::Expert {
 public:
  explicit TimingExpert(rudolf::Expert* inner) : inner_(inner) {}

  void Begin();
  RefineTiming End();

  rudolf::GeneralizationReview ReviewGeneralization(
      const rudolf::GeneralizationProposal& proposal,
      const rudolf::Relation& relation) override;
  rudolf::SplitReview ReviewSplit(const rudolf::SplitProposal& proposal,
                                  const rudolf::Relation& relation) override;
  rudolf::RetirementReview ReviewRetirement(
      const rudolf::Rule& rule, const rudolf::Relation& relation) override;
  std::string name() const override { return inner_->name(); }

 private:
  using Clock = std::chrono::steady_clock;

  double Since(Clock::time_point t) const {
    return std::chrono::duration<double>(t - begin_).count();
  }
  // Closes the wait that the review about to start ends, and opens the
  // review.
  void StartReview(WaitKind kind);
  void FinishReview();

  rudolf::Expert* inner_;
  Clock::time_point begin_{};
  Clock::time_point mark_{};  // end of the last review (or Begin)
  Clock::time_point review_start_{};
  RefineTiming current_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_EXPERT_H_
