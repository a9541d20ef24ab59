// The outer interactive loop of Section 4: generalize to capture the
// fraudulent transactions, specialize to exclude the legitimate ones, and
// repeat until a fixpoint (or the round limit — the expert "exits when
// satisfied").

#ifndef RUDOLF_CORE_SESSION_H_
#define RUDOLF_CORE_SESSION_H_

#include <cstdint>
#include <memory>

#include "core/capture_tracker.h"
#include "core/drift.h"
#include "core/generalize.h"
#include "core/specialize.h"
#include "index/condition_cache.h"

namespace rudolf {

class ServingEngine;
class IngestPipeline;

/// Configuration of a refinement session.
struct SessionOptions {
  /// Evaluation parallelism for the session: used for the session's
  /// CaptureTracker and inherited by `generalize` / `specialize`
  /// engines whose own EvalOptions are left at the serial default. The
  /// refinement outcome is identical at every thread count (see DESIGN.md
  /// "Parallel evaluation pipeline").
  EvalOptions eval;
  GeneralizeOptions generalize;
  SpecializeOptions specialize;
  /// Maximum generalize+specialize rounds per session (the paper reports
  /// ~10 modification rounds per rule-set update; each of our rounds makes
  /// many modifications, so a small number suffices).
  int max_rounds = 3;
  /// Run a capture-preserving maintenance pass (duplicate/subsumed-rule
  /// removal, fragment re-merge) after each session. Free in the cost model
  /// — Φ(I) does not change.
  bool simplify_after = true;
  /// Propose retiring rules whose fraud yield dried up (core/drift.h) at
  /// the end of each session. An extension beyond the paper's algorithms;
  /// off by default.
  bool retire_obsolete = false;
  DriftOptions drift;
  /// Online serving hook: when set, every round that changed the rule set
  /// compiles and atomically publishes the new set here (and Refine
  /// publishes the final post-simplify set before returning), so serving
  /// threads answer against the freshest refined epoch while the session
  /// keeps running. Not owned; must outlive the session's Refine calls.
  ServingEngine* serving = nullptr;
  /// Streaming ingest hook: when set, the session is *pipelined* — every
  /// Refine(prefix_rows, ...) call advances an epoch on this pipeline
  /// instead of trusting the caller to have stopped appends. The call pins
  /// a frozen prefix (waiting until at least `prefix_rows` rows are
  /// applied; SIZE_MAX freezes at whatever has been applied), refines
  /// against that immutable prefix while ingest workers keep applying rows
  /// beyond it, and on return re-opens the gate, re-attaching the session's
  /// tracker so workers extend it toward the live end between Refine
  /// calls. Not owned; the pointer must stay valid for the session's whole
  /// lifetime — the session's destructor detaches its tracker from the
  /// pipeline (workers may be mid-extension on it), so either teardown
  /// order is safe, as long as both outlive the relation.
  IngestPipeline* pipelined = nullptr;
};

/// Aggregate outcome of a session.
struct SessionStats {
  int rounds = 0;
  GeneralizeStats generalize;  ///< summed over rounds
  SpecializeStats specialize;  ///< summed over rounds
  double expert_seconds = 0.0;
  size_t edits = 0;  ///< edits appended to the log by this session
  // Incremental-tracker accounting: a session builds its tracker once and
  // then extends it, unless the prefix shrank or the tracker was released.
  size_t tracker_rebuilds = 0;   ///< trackers built from scratch this call
  size_t tracker_extends = 0;    ///< ExtendPrefix delta updates this call
  double rebuild_seconds = 0.0;  ///< wall time building trackers
  double extend_seconds = 0.0;   ///< wall time inside ExtendPrefix
  /// Condition-cache counters of the session's evaluator at return time
  /// (monotonic since that tracker's build; zeros when indexing is off).
  ConditionCacheStats cache;
  // Pipelined-mode accounting (zeros when SessionOptions::pipelined is
  // unset).
  size_t frozen_prefix = 0;  ///< prefix the epoch froze this call at
  uint64_t epoch = 0;        ///< pipeline epoch the call refined against
  double epoch_advance_seconds = 0.0;  ///< wall time inside PinEpoch
};

/// \brief One refinement session over the visible prefix of a relation.
///
/// Owns nothing: the rule set and edit log live with the caller (the
/// experiment runner refines the same rule set session after session as new
/// transactions arrive).
class RefinementSession {
 public:
  /// A session may be reused as transactions arrive: each Refine() call
  /// names its own visible prefix, and the engines' expert memories
  /// (dismissed noise clusters / tolerated inclusions) persist across
  /// calls, as a human expert's would.
  RefinementSession(const Relation& relation, SessionOptions options);

  /// Backward-compatible constructor binding a default prefix for the
  /// prefix-less Refine() overload.
  RefinementSession(const Relation& relation, size_t prefix_rows,
                    SessionOptions options);

  /// Pipelined sessions detach their tracker from the pipeline before it is
  /// destroyed: an ingest worker may be extending it at this very moment,
  /// and the detach synchronizes with that through the pipeline's state
  /// mutex.
  ~RefinementSession();

  /// Runs generalize → specialize rounds over the first `prefix_rows` rows
  /// with the expert until neither pass changes anything or max_rounds is
  /// hit.
  SessionStats Refine(size_t prefix_rows, RuleSet* rules, Expert* expert,
                      EditLog* log);

  /// Refine() over the constructor's prefix.
  SessionStats Refine(RuleSet* rules, Expert* expert, EditLog* log);

  /// Label fixup: a caller that changes the visible label of a row *inside*
  /// the last refined prefix between Refine() calls must forward the change
  /// here so the held tracker's label counts stay current. Rows at or
  /// beyond the held prefix need no notification (the next extension reads
  /// them), and the call is a no-op when no tracker is held (before the
  /// first Refine, or after ReleaseTracker).
  void NotifyVisibleLabelChanged(size_t row, Label old_label, Label new_label);

  /// Approximate heap bytes held by the session's tracker
  /// (capture bitmaps + condition index + caches); 0 when no tracker is
  /// held. Fleet memory accounting — call only between Refine() calls, and
  /// only on non-pipelined sessions (a pipelined session's tracker may be
  /// under concurrent extension by ingest workers; reported as 0).
  size_t HeldMemoryBytes() const;

  /// Tier-1 fleet eviction: drops the held tracker's cached condition
  /// bitmaps (attribute indexes, captures and cover counts stay); later
  /// rounds re-extract on demand, bit-identically. No-op when no tracker is
  /// held or the session is pipelined.
  void ReleaseCachedBitmaps();

  /// Tier-2 fleet eviction: discards the tracker entirely — the next
  /// Refine() rebuilds it from scratch, which is bit-identical to having
  /// extended and synced it (DESIGN.md "Incremental append path"), just
  /// slower.
  /// No-op when the session is pipelined (ingest workers may hold the
  /// attached tracker).
  void ReleaseTracker();

 private:
  // Returns a tracker over `prefix` rows that is consistent with `rules`:
  // a fresh one when none is held or the prefix shrank; otherwise the held
  // tracker, extended over the new rows if the prefix grew, then synced
  // with whatever edits `rules` received since (simplify, retirement,
  // caller edits between Refine calls). Updates `stats`'s rebuild/extend
  // accounting.
  CaptureTracker* AcquireTracker(size_t prefix, const RuleSet& rules,
                                 SessionStats* stats);

  const Relation& relation_;
  size_t default_prefix_;
  SessionOptions options_;
  GeneralizationEngine generalizer_;
  SpecializationEngine specializer_;
  // The session's tracker, kept across rounds and Refine() calls.
  std::unique_ptr<CaptureTracker> tracker_;
};

}  // namespace rudolf

#endif  // RUDOLF_CORE_SESSION_H_
