// The experiment protocol of Section 5: split the stream into "past" and
// "future", advance in hops of newly arrived (and newly labeled)
// transactions, refine the rules with the chosen method after every hop,
// and measure the prediction quality of the refined rules on the unseen
// future suffix, the cumulative number of rule modifications, and the
// expert time spent.

#ifndef RUDOLF_EXPERIMENTS_RUNNER_H_
#define RUDOLF_EXPERIMENTS_RUNNER_H_

#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "core/session.h"
#include "metrics/quality.h"
#include "expert/manual_expert.h"
#include "obs/metrics.h"
#include "workload/initial_rules.h"

namespace rudolf {

/// Protocol configuration.
struct RunnerOptions {
  /// Fraction of the stream considered "up to yesterday" — labels revealed
  /// and the initial rules assumed adequate for it.
  double initial_frac = 0.4;
  /// Fraction of the stream arriving between refinement rounds (the paper
  /// refines every 10–20% of new transactions; this is relative to the full
  /// stream).
  double hop_frac = 0.08;
  /// Number of refinement rounds.
  int rounds = 5;
  SessionOptions session;
  InitialRuleOptions initial_rules;
  ManualExpertOptions manual;
  uint64_t seed = 2024;
};

/// Measurements after one refinement round.
struct RoundRecord {
  int round = 0;             ///< 1-based
  size_t prefix = 0;         ///< rows visible when the round ran
  size_t cumulative_edits = 0;    ///< condition-level edit count
  size_t cumulative_updates = 0;  ///< rule updates (Figure 3(a)/(d)'s unit)
  size_t rules = 0;          ///< live rules after the round
  double round_seconds = 0;  ///< expert time this round
  double total_seconds = 0;  ///< cumulative expert time
  PredictionQuality future;  ///< quality on the unseen suffix
  // Incremental-tracker accounting of the refinement session this round
  // (zeros for methods that run without one). The session keeps one
  // tracker, so rounds after the first report extends and no rebuilds.
  size_t tracker_rebuilds = 0;  ///< capture trackers built from scratch
  size_t tracker_extends = 0;   ///< ExtendPrefix delta updates
  double rebuild_seconds = 0;   ///< wall time building trackers
  double extend_seconds = 0;    ///< wall time inside ExtendPrefix
  ConditionCacheStats cache;    ///< condition-cache counters at round end
  /// What this round added to the process-wide metrics registry (counter
  /// deltas plus histogram activity). Process-wide, so only meaningful when
  /// rounds run one at a time — which the runner guarantees.
  obs::MetricsSnapshot metrics_delta;
};

/// Full trace of one method over one dataset.
struct RunResult {
  Method method = Method::kRudolf;
  std::string method_name;
  std::vector<RoundRecord> rounds;
  EditLog log;
  RuleSet final_rules;
};

/// \brief Drives one method through the protocol.
///
/// Label revelation is re-done identically (same seed) for every method, so
/// all methods see the same reported labels. The dataset's visible labels
/// are mutated during a run and reset at the start of the next.
class ExperimentRunner {
 public:
  ExperimentRunner(Dataset* dataset, RunnerOptions options);

  /// Runs one method end-to-end.
  RunResult Run(Method method);

  /// The row count visible at round `k` (k = 0 is the initial prefix).
  size_t PrefixAtRound(int k) const;

 private:
  void ResetAndRevealInitial();

  Dataset* dataset_;
  RunnerOptions options_;
};

}  // namespace rudolf

#endif  // RUDOLF_EXPERIMENTS_RUNNER_H_
