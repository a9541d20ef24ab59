#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "core/session.h"
#include "expert/expert.h"
#include "expert/oracle_expert.h"
#include "log_histogram.h"
#include "metrics/quality.h"
#include "obs/metrics.h"
#include "reference.h"
#include "serving/serving_engine.h"
#include "span_trace.h"
#include "timing_expert.h"
#include "workload/generator.h"
#include "workload/initial_rules.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using rudolf::Dataset;
using rudolf::RuleId;
using rudolf::RuleSet;
using rudolf::Tuple;

// ---------------------------------------------------------------------------
// Workload shapes. Both streams are paper-scale: the protocol stream grows
// the rule set from 13 to about 75 rules over 5 rounds; the serving stream's
// two rule sets hold about 56 and 110 rules.

constexpr size_t kProtocolRows = 240000;
constexpr int kProtocolPatterns = 24;
constexpr int kProtocolInitiallyActive = 12;
constexpr int kProtocolRounds = 5;
constexpr double kInitialFrac = 0.4;  // labels revealed before round 1
constexpr double kHopFrac = 0.08;     // stream share arriving per round

constexpr size_t kServeRows = 240000;
constexpr int kServePatterns = 110;
constexpr int kServeInitiallyActive = 55;
// `serve` publishes once per hop of its stream, as the protocol does: a
// Refine round, which ends in one publish, follows each arriving hop of
// kHopFrac of the stream. That is 19,200 decisions per publish. Publishes
// are counted in decisions, never timed, so every run does the same write
// load per decision.
constexpr uint64_t kPublishEvery =
    static_cast<uint64_t>(kHopFrac * static_cast<double>(kServeRows) + 0.5);
// `serve` refines the first hops of its stream before it serves, this many
// times per run.
constexpr int kServeRefineRounds = 2;
constexpr int kServeRefinePasses = 10;

// Set-up is repeated and its median reported. The set-ups are spread over
// the run (see RunWorkload).
constexpr size_t kSetupRepeats = 9;

// Largest share of Refine's wall time the simulated expert's reviews may take.
constexpr double kMaxReviewShare = 0.05;

// A Refine call's waits and reviews, as the timing expert measured them,
// must add up to the harness's own timer around the call. They may not
// exceed it (beyond rounding); they may fall short of it by the decorator's
// Begin and End, a few clock reads, and by at most this slack.
constexpr double kAttributionSlack = 1e-3;
constexpr double kRounding = 1e-9;

// The traced mode's self-time rows must add up to the harness's own clock
// around the traced set-ups and passes within this share of it.
constexpr double kTraceWallTolerance = 1e-3;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double SecondsSince(Clock::time_point t) { return Seconds(Clock::now() - t); }

Clock::time_point Later(Clock::time_point t, double seconds) {
  return t + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
}

// Linear interpolation between order statistics (numpy's default).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// splitmix64: derives the independent seeds of one run from --seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + salt * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

// Registry activity between two snapshots.
struct RegistryDelta {
  rudolf::obs::MetricsSnapshot delta;

  double Count(const char* name) const {
    const rudolf::obs::CounterSample* c = delta.FindCounter(name);
    return c == nullptr ? 0.0 : static_cast<double>(c->value);
  }
  double SumSeconds(const char* name) const {
    const rudolf::obs::HistogramSample* h = delta.FindHistogram(name);
    return h == nullptr ? 0.0 : h->sum_seconds;
  }
  double Samples(const char* name) const {
    const rudolf::obs::HistogramSample* h = delta.FindHistogram(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->count);
  }
};

rudolf::obs::MetricsSnapshot Snap() {
  return rudolf::obs::MetricsRegistry::Default().Snapshot();
}

// ---------------------------------------------------------------------------
// Decisions and their check against the reference evaluator.

// Outputs of consecutive decisions, kept so they can be checked after the
// timed loop.
struct DecisionLog {
  std::vector<uint32_t> row;
  std::vector<uint64_t> epoch;
  std::vector<uint8_t> flagged;
  std::vector<uint32_t> fired_end;  // fired ids of decision i end here
  std::vector<RuleId> fired;
  std::vector<double> latency_s;

  void Clear() {
    row.clear();
    epoch.clear();
    flagged.clear();
    fired_end.clear();
    fired.clear();
    latency_s.clear();
  }
  size_t size() const { return row.size(); }
};

// Decides rows [begin, end) in order, one at a time, and returns the time
// spent inside Decide. `decided`, when given, is advanced after every
// decision (the publisher's schedule counts it).
double DecideRows(const rudolf::ServingEngine& engine,
                  const std::vector<Tuple>& tuples, size_t begin, size_t end,
                  DecisionLog* log, std::atomic<uint64_t>* decided) {
  rudolf::Decision decision;
  uint64_t count = decided == nullptr ? 0 : decided->load();
  double total_s = 0.0;
  for (size_t r = begin; r < end; ++r) {
    Clock::time_point t0 = Clock::now();
    engine.Decide(tuples[r], &decision);
    Clock::time_point t1 = Clock::now();
    log->latency_s.push_back(Seconds(t1 - t0));
    total_s += log->latency_s.back();
    log->row.push_back(static_cast<uint32_t>(r));
    log->epoch.push_back(decision.epoch);
    log->flagged.push_back(decision.flagged ? 1 : 0);
    log->fired.insert(log->fired.end(), decision.fired.begin(),
                      decision.fired.end());
    log->fired_end.push_back(static_cast<uint32_t>(log->fired.size()));
    if (decided != nullptr) decided->store(++count, std::memory_order_release);
  }
  return total_s;
}

// Expected fired ids of every row under one rule set, from the reference
// evaluator (CSR layout).
struct ExpectedFired {
  std::vector<uint32_t> end;
  std::vector<RuleId> ids;

  ExpectedFired(const rudolf::Schema& schema, const RuleSet& rules,
                const std::vector<Tuple>& tuples, size_t begin, size_t stop) {
    ReferenceEvaluator ref(schema, rules);
    for (size_t r = begin; r < stop; ++r) {
      std::vector<RuleId> fired = ref.Fired(tuples[r].data());
      ids.insert(ids.end(), fired.begin(), fired.end());
      end.push_back(static_cast<uint32_t>(ids.size()));
    }
  }
  // Fired ids of the i-th row of the range.
  std::pair<const RuleId*, const RuleId*> Of(size_t i) const {
    uint32_t b = i == 0 ? 0 : end[i - 1];
    return {ids.data() + b, ids.data() + end[i]};
  }
};

// Checks decision i of `log` against `expected` (row offset `base`): the
// fired ids equal the reference's, and the flag says whether any fired.
bool DecisionMatches(const DecisionLog& log, size_t i,
                     const ExpectedFired& expected, size_t base) {
  uint32_t b = i == 0 ? 0 : log.fired_end[i - 1];
  auto [eb, ee] = expected.Of(log.row[i] - base);
  size_t n = log.fired_end[i] - b;
  if (n != static_cast<size_t>(ee - eb)) return false;
  if (!std::equal(eb, ee, log.fired.begin() + b)) return false;
  return (log.flagged[i] != 0) == (n > 0);
}

// ---------------------------------------------------------------------------
// Inputs, built by the set-up.

struct Inputs {
  Dataset dataset;
  RuleSet initial;            // SynthesizeInitialRules
  RuleSet all_patterns;       // serve only: ToRule of every pattern
  std::vector<Tuple> tuples;  // the stream, materialized for serving
  std::unique_ptr<rudolf::ServingEngine> engine;  // serve only: epoch 1 = A
};

// The transaction stream of a workload is the same in every run: which
// attack patterns a generator seed draws moves a pass's cost by 25-33%
// between seeds, more than any bound the benchmark could hold. --seed draws
// everything else: the initial rules' staleness, the label reveal and the
// expert's noise.
constexpr uint64_t kStreamSeed = 7;

rudolf::GeneratorOptions StreamOptions(size_t rows, int patterns,
                                       int initially_active) {
  rudolf::GeneratorOptions options;
  options.num_transactions = rows;
  options.patterns.count = patterns;
  options.patterns.initially_active = initially_active;
  options.seed = kStreamSeed;
  return options;
}

// One set-up: stream generation, initial rules, row materialization and,
// for `serve`, the second rule set and the first publish.
Inputs SetUp(bool serve, uint64_t seed, SpanTrace* trace,
             double* generate_s) {
  SpanTrace::Scope root(trace, "setup");
  Inputs in;
  {
    SpanTrace::Scope span(trace, "workload.generate");
    Clock::time_point t = Clock::now();
    in.dataset = serve ? rudolf::GenerateDataset(StreamOptions(
                             kServeRows, kServePatterns, kServeInitiallyActive))
                       : rudolf::GenerateDataset(StreamOptions(
                             kProtocolRows, kProtocolPatterns,
                             kProtocolInitiallyActive));
    *generate_s = SecondsSince(t);
  }
  {
    SpanTrace::Scope span(trace, "workload.initial_rules");
    rudolf::InitialRuleOptions options;
    options.seed = Mix(seed, 2);
    in.initial = rudolf::SynthesizeInitialRules(in.dataset, options);
    if (serve) {
      for (const rudolf::AttackPattern& p : in.dataset.patterns) {
        in.all_patterns.AddRule(p.ToRule(in.dataset.cc));
      }
    }
  }
  {
    SpanTrace::Scope span(trace, "workload.materialize");
    const rudolf::Relation& relation = *in.dataset.relation;
    in.tuples.reserve(relation.NumRows());
    for (size_t r = 0; r < relation.NumRows(); ++r) {
      in.tuples.push_back(relation.GetRow(r));
    }
  }
  if (serve) {
    SpanTrace::Scope span(trace, "serving.publish");
    in.engine = std::make_unique<rudolf::ServingEngine>(
        in.dataset.relation->shared_schema());
    in.engine->Publish(in.initial);
  }
  return in;
}

// ---------------------------------------------------------------------------
// One pass of the refinement protocol.

struct ProtocolConfig {
  bool domain_expert = true;  // false: RUDOLF⁻ (AutoAcceptExpert)
  int width = 1;              // session evaluation width
  int rounds = kProtocolRounds;
  bool serve_hops = true;     // decide each hop's rows as they arrive
};

// Per-layer metrics read from the registry's delta over a pass: a counter's
// value, or a latency histogram's sum in seconds.
struct RegistryFigure {
  const char* metric;
  const char* source;
  bool histogram_sum;
};

constexpr RegistryFigure kRegistryFigures[] = {
    {"session.rounds", "session.rounds", false},
    {"generalize.proposals", "generalize.proposals", false},
    {"generalize.accepted", "generalize.accepted", false},
    {"generalize.rank_s", "generalize.rank.seconds", true},
    {"generalize.cluster_s", "generalize.cluster.seconds", true},
    {"specialize.proposals", "specialize.proposals", false},
    {"specialize.accepted", "specialize.accepted", false},
    {"specialize.rank_splits_s", "specialize.rank_splits.seconds", true},
    {"tracker.builds", "tracker.builds", false},
    {"tracker.extends", "tracker.extends", false},
    {"tracker.build_s", "tracker.build.seconds", true},
    {"index.numeric.builds", "index.numeric.builds", false},
    {"index.categorical.builds", "index.categorical.builds", false},
    {"index.numeric.build_s", "index.numeric.build.seconds", true},
    {"index.categorical.build_s", "index.categorical.build.seconds", true},
    {"index.cache.hits", "index.cache.hits", false},
    {"index.cache.misses", "index.cache.misses", false},
    {"index.cache.evictions", "index.cache.evictions", false},
    {"scheduler.episodes", "scheduler.episodes", false},
    {"scheduler.chunks", "scheduler.chunks", false},
    {"scheduler.steals", "scheduler.steals", false},
};

// What one pass leaves behind: scalars only, so the harness's memory does
// not grow with the number of passes a run fits. Its Decide latencies live
// only while the pass runs; its waits go to the run's histogram.
struct ProtocolPass {
  double wall_s = 0.0;      // the caller's timer around the whole pass
  double protocol_s = 0.0;  // reveal + Refine + quality scoring
  double reveal_s = 0.0;
  double refine_s = 0.0;
  double quality_s = 0.0;
  double review_s = 0.0;
  double first_wait_s = 0.0;
  double tail_s = 0.0;
  double generalize_wait_s = 0.0;
  double split_wait_s = 0.0;
  size_t waits = 0;
  // Reviews by kind, as the timing expert saw them.
  size_t generalization_reviews = 0;
  size_t split_reviews = 0;
  size_t retirement_reviews = 0;
  // Harness timer around a Refine call minus its attribution, largest.
  double max_attribution_gap_s = 0.0;
  // Serving of the arriving rows.
  double decide_s = 0.0;  // time inside Decide
  size_t decisions = 0;
  size_t fired = 0;
  double decide_p50_s = 0.0;
  double decide_p99_s = 0.0;
  // kRegistryFigures by metric name, and the session's publishes.
  std::map<std::string, double> registry;
  double publish_ms = 0.0;  // mean compile time per publish
  double publishes = 0.0;
  double served = 0.0;      // serving.decisions
  // Digest of the rules after each round; a traced pass must reproduce its
  // untraced twin.
  uint64_t rules_digest = 0;
  RefConfusion final_quality;
  size_t operations = 0;
};

// FNV-1a, folded over the rule sets of successive rounds.
uint64_t Digest(uint64_t h, const std::string& text) {
  if (h == 0) h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

size_t PrefixAt(size_t n, int round) {
  double frac = std::min(kInitialFrac + kHopFrac * round, 1.0);
  return static_cast<size_t>(frac * static_cast<double>(n));
}

// Adds the timing expert's intervals of one Refine call to the trace as
// children of the open session.refine span, and to the pass's sums.
// `outer_s` is the harness's own timer around the same call; the
// attribution must account for it from both sides.
void AttributeRefine(const RefineTiming& timing, double outer_s, SpanTrace* trace,
                     LogHistogram* waits, ProtocolPass* pass,
                     std::vector<std::string>* problems) {
  double gap = outer_s - (timing.WaitSeconds() + timing.review_s);
  pass->max_attribution_gap_s = std::max(pass->max_attribution_gap_s, gap);
  if (gap < -kRounding || gap > kAttributionSlack) {
    problems->push_back("waits plus reviews of a Refine call are " +
                        Fmt("%.9f", outer_s - gap) + " s, its harness timer " +
                        Fmt("%.9f", outer_s) + " s");
  }
  auto at = [&](double s) {
    return timing.start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(s));
  };
  for (size_t i = 0; i < timing.waits.size(); ++i) {
    const Wait& w = timing.waits[i];
    const char* name = "session.tail";
    double* sum = &pass->tail_s;
    if (w.kind == WaitKind::kGeneralization) ++pass->generalization_reviews;
    if (w.kind == WaitKind::kSplit) ++pass->split_reviews;
    if (w.kind == WaitKind::kRetirement) ++pass->retirement_reviews;
    if (w.kind != WaitKind::kReturn) {
      if (i == 0) {
        name = "session.first_wait";
        sum = &pass->first_wait_s;
      } else if (w.kind == WaitKind::kSplit) {
        name = "specialize.wait";
        sum = &pass->split_wait_s;
      } else {
        name = "generalize.wait";
        sum = &pass->generalize_wait_s;
      }
    }
    *sum += w.span.seconds();
    if (waits != nullptr) waits->Add(w.span.seconds());
    trace->AddClosed(name, at(w.span.begin_s), at(w.span.end_s));
  }
  for (const TimeRange& r : timing.reviews) {
    trace->AddClosed("expert.review", at(r.begin_s), at(r.end_s));
  }
  pass->waits += timing.waits.size();
  pass->review_s += timing.review_s;
}

// Runs the protocol once from the initial rules. Checks every round's
// quality score against the reference evaluator and every served decision
// against the reference evaluation of the rules that were published. Adds
// every proposal wait to `waits` when it is given.
ProtocolPass RunProtocolPass(Inputs* in, const ProtocolConfig& config,
                             uint64_t seed, SpanTrace* trace, LogHistogram* waits,
                             std::vector<std::string>* problems) {
  SpanTrace::Scope root(trace, "pass");
  ProtocolPass pass;
  rudolf::Relation* relation = in->dataset.relation.get();
  const rudolf::Schema& schema = relation->schema();
  const size_t n = relation->NumRows();
  const rudolf::GeneratorOptions& gen = in->dataset.options;

  std::unique_ptr<rudolf::Expert> inner;
  rudolf::ServingEngine engine(relation->shared_schema());
  RuleSet rules = in->initial;
  rudolf::EditLog log;
  std::unique_ptr<rudolf::RefinementSession> session;
  rudolf::Rng reveal_rng(Mix(seed, 4));
  {
    SpanTrace::Scope span(trace, "workload.reveal");
    for (size_t r = 0; r < n; ++r) {
      relation->SetVisibleLabel(r, rudolf::Label::kUnlabeled);
    }
    rudolf::Rng rng(Mix(seed, 3));
    rudolf::RevealLabels(relation, 0, PrefixAt(n, 0), gen.label_coverage,
                         gen.mislabel_fraction, gen.false_fraud_fraction, &rng);
  }
  {
    SpanTrace::Scope span(trace, "session.setup");
    if (config.domain_expert) {
      inner = rudolf::MakeDomainExpert(in->dataset, Mix(seed, 5));
    } else {
      inner = std::make_unique<rudolf::AutoAcceptExpert>();
    }
    rudolf::SessionOptions options;
    options.eval.num_threads = config.width;
    if (config.serve_hops) options.serving = &engine;
    session = std::make_unique<rudolf::RefinementSession>(*relation, options);
  }
  TimingExpert expert(inner.get());
  if (config.serve_hops) {
    SpanTrace::Scope span(trace, "serving.publish");
    engine.Publish(rules);
    ++pass.operations;
  }

  rudolf::obs::MetricsSnapshot before = Snap();
  DecisionLog decisions;
  std::vector<double> latency;
  auto serve_rows = [&](size_t begin, size_t end) {
    decisions.Clear();
    {
      SpanTrace::Scope span(trace, "serving.decide");
      pass.decide_s +=
          DecideRows(engine, in->tuples, begin, end, &decisions, nullptr);
    }
    SpanTrace::Scope span(trace, "check.reference");
    ExpectedFired expected(schema, rules, in->tuples, begin, end);
    uint64_t epoch = engine.current_epoch();
    size_t bad = 0;
    for (size_t i = 0; i < decisions.size(); ++i) {
      if (decisions.epoch[i] != epoch || !DecisionMatches(decisions, i, expected, begin)) {
        ++bad;
      }
    }
    if (bad > 0) {
      problems->push_back(std::to_string(bad) + " decisions in rows [" +
                          std::to_string(begin) + ", " + std::to_string(end) +
                          ") differ from the reference evaluation");
    }
    pass.decisions += decisions.size();
    pass.fired += decisions.fired.size();
    pass.operations += decisions.size();
    latency.insert(latency.end(), decisions.latency_s.begin(),
                   decisions.latency_s.end());
  };

  for (int round = 1; round <= config.rounds; ++round) {
    size_t prev = PrefixAt(n, round - 1);
    size_t prefix = PrefixAt(n, round);
    if (config.serve_hops) serve_rows(prev, prefix);
    double reveal_s = 0.0;
    {
      SpanTrace::Scope span(trace, "workload.reveal");
      Clock::time_point t = Clock::now();
      rudolf::RevealLabels(relation, prev, prefix, gen.label_coverage,
                           gen.mislabel_fraction, gen.false_fraud_fraction,
                           &reveal_rng);
      reveal_s = SecondsSince(t);
    }
    pass.reveal_s += reveal_s;
    double refine_s = 0.0;
    {
      SpanTrace::Scope span(trace, "session.refine");
      Clock::time_point t = Clock::now();
      expert.Begin();
      session->Refine(prefix, &rules, &expert, &log);
      RefineTiming timing = expert.End();
      refine_s = SecondsSince(t);
      AttributeRefine(timing, refine_s, trace, waits, &pass, problems);
    }
    ++pass.operations;
    rudolf::PredictionQuality q;
    double quality_s = 0.0;
    {
      SpanTrace::Scope span(trace, "quality.evaluate");
      Clock::time_point t = Clock::now();
      q = rudolf::EvaluateOnRange(*relation, rules, prefix, n);
      quality_s = SecondsSince(t);
    }
    pass.refine_s += refine_s;
    pass.quality_s += quality_s;

    ++pass.operations;
    SpanTrace::Scope span(trace, "check.reference");
    RefConfusion ref = ReferenceEvaluator(schema, rules).Confusion(*relation, prefix, n);
    RefConfusion got{q.rows,          q.true_fraud,   q.true_legit,
                     q.fraud_captured, q.fraud_missed, q.legit_captured};
    if (!(got == ref)) {
      problems->push_back("round " + std::to_string(round) +
                          ": EvaluateOnRange confusion differs from the reference");
    }
    pass.rules_digest = Digest(pass.rules_digest, rules.ToString(schema));
    pass.final_quality = ref;
  }
  if (config.serve_hops) serve_rows(PrefixAt(n, config.rounds), n);

  RegistryDelta delta{Snap().DeltaSince(before)};
  for (const RegistryFigure& f : kRegistryFigures) {
    pass.registry[f.metric] =
        f.histogram_sum ? delta.SumSeconds(f.source) : delta.Count(f.source);
  }
  double compiles = delta.Samples("serving.compile.seconds");
  pass.publish_ms =
      compiles == 0.0 ? 0.0 : delta.SumSeconds("serving.compile.seconds") / compiles * 1e3;
  pass.publishes = delta.Count("serving.publishes");
  pass.served = delta.Count("serving.decisions");

  // The timing expert must have seen every review the session counted.
  if (static_cast<double>(pass.generalization_reviews) !=
          delta.Count("generalize.proposals") ||
      static_cast<double>(pass.split_reviews) != delta.Count("specialize.proposals") ||
      pass.retirement_reviews != 0) {
    problems->push_back(
        "the timing expert saw " + std::to_string(pass.generalization_reviews) +
        " generalization, " + std::to_string(pass.split_reviews) + " split and " +
        std::to_string(pass.retirement_reviews) + " retirement reviews; the registry counted " +
        Fmt("%.0f", delta.Count("generalize.proposals")) + " and " +
        Fmt("%.0f", delta.Count("specialize.proposals")) + " proposals");
  }
  pass.protocol_s = pass.reveal_s + pass.refine_s + pass.quality_s;
  pass.decide_p50_s = Quantile(latency, 0.5);
  pass.decide_p99_s = Quantile(std::move(latency), 0.99);
  // The simulated expert is harness, not program: its reviews must stay a
  // small share of Refine, or expert_wait_s would hide program time.
  if (pass.review_s > kMaxReviewShare * pass.refine_s) {
    problems->push_back("simulated expert reviews took " + Fmt("%.4f", pass.review_s) +
                        " s of " + Fmt("%.4f", pass.refine_s) + " s in Refine");
  }
  return pass;
}

// ---------------------------------------------------------------------------
// Serving passes with a concurrent publisher.

struct ServePhase {
  std::vector<double> pass_rate;     // decisions per second inside Decide
  std::vector<double> pass_p50_s;
  std::vector<double> pass_p99_s;
  std::vector<double> pass_wall_s;   // pass incl. its check
  std::vector<bool> pass_traced;
  std::vector<double> publish_s;     // Publish wall times
  uint64_t decisions = 0;
  uint64_t fired = 0;
  uint64_t publishes = 0;
  RegistryDelta registry;
};

// Decides the stream in repeated passes until `deadline` while a publisher
// thread alternates rule sets B and A, one publish per kPublishEvery
// decisions. Epoch 1 (A) was published by the set-up, so an odd epoch
// serves A and an even one B.
ServePhase RunServePhase(Inputs* in, Clock::time_point deadline, bool trace_mode,
                         SpanTrace* trace, std::vector<std::string>* problems) {
  ServePhase out;
  rudolf::ServingEngine& engine = *in->engine;
  const rudolf::Schema& schema = in->dataset.relation->schema();
  const size_t n = in->tuples.size();
  ExpectedFired expect_a(schema, in->initial, in->tuples, 0, n);
  ExpectedFired expect_b(schema, in->all_patterns, in->tuples, 0, n);

  std::atomic<uint64_t> decided{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> publisher_failed{false};
  rudolf::obs::MetricsSnapshot before = Snap();
  std::thread publisher([&] {
    try {
      for (uint64_t k = 1;; ++k) {
        const uint64_t due = k * kPublishEvery;
        while (decided.load(std::memory_order_acquire) < due) {
          if (stop.load(std::memory_order_acquire) &&
              decided.load(std::memory_order_acquire) < due) {
            return;
          }
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        Clock::time_point t = Clock::now();
        engine.Publish(k % 2 == 1 ? in->all_patterns : in->initial);
        out.publish_s.push_back(SecondsSince(t));
        ++out.publishes;
      }
    } catch (...) {
      publisher_failed = true;
    }
  });

  // Stops and joins the publisher on every way out of this function.
  struct Joiner {
    std::atomic<bool>* stop;
    std::thread* thread;
    ~Joiner() {
      stop->store(true, std::memory_order_release);
      thread->join();
    }
  };
  DecisionLog log;
  uint64_t last_epoch = 1;
  size_t bad = 0;
  SpanTrace null_trace(false);
  {
    Joiner joiner{&stop, &publisher};
    do {
      // Trace mode alternates untraced and traced passes, untraced first.
      bool traced = trace_mode && out.pass_wall_s.size() % 2 == 1;
      SpanTrace* t = traced ? trace : &null_trace;
      Clock::time_point pass_start = Clock::now();
      {
        SpanTrace::Scope root(t, "pass");
        log.Clear();
        {
          SpanTrace::Scope span(t, "serving.decide");
          double decide_s = DecideRows(engine, in->tuples, 0, n, &log, &decided);
          out.pass_rate.push_back(static_cast<double>(n) / decide_s);
        }
        SpanTrace::Scope span(t, "check.reference");
        for (size_t i = 0; i < log.size(); ++i) {
          uint64_t e = log.epoch[i];
          if (e < last_epoch) ++bad;  // epochs never go backwards
          last_epoch = e;
          if (!DecisionMatches(log, i, e % 2 == 1 ? expect_a : expect_b, 0)) ++bad;
        }
        std::vector<double> lat = log.latency_s;
        out.pass_p50_s.push_back(Quantile(lat, 0.5));
        out.pass_p99_s.push_back(Quantile(std::move(lat), 0.99));
        out.decisions += n;
        out.fired += log.fired.size();
      }
      out.pass_wall_s.push_back(SecondsSince(pass_start));
      out.pass_traced.push_back(traced);
    } while (Clock::now() < deadline || (trace_mode && out.pass_wall_s.size() < 2));
  }
  out.registry.delta = Snap().DeltaSince(before);

  if (bad > 0) {
    problems->push_back(std::to_string(bad) +
                        " served decisions differ from the reference evaluation "
                        "of their epoch's rule set or went back in epoch");
  }
  if (publisher_failed) problems->push_back("publisher thread threw");
  if (out.publishes != out.decisions / kPublishEvery) {
    problems->push_back("publishes " + std::to_string(out.publishes) +
                        " != schedule " +
                        std::to_string(out.decisions / kPublishEvery));
  }
  if (engine.current_epoch() != 1 + out.publishes) {
    problems->push_back("final epoch " + std::to_string(engine.current_epoch()) +
                        " != 1 + publishes");
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reporting.

struct PassSet {
  std::vector<ProtocolPass> untraced;
  std::vector<ProtocolPass> traced;
  LogHistogram waits;  // every proposal wait of the untraced passes
};

template <typename F>
double MedianOf(const std::vector<ProtocolPass>& passes, F f) {
  std::vector<double> v;
  for (const ProtocolPass& p : passes) v.push_back(f(p));
  return Median(v);
}

void AddProtocolLayers(const std::vector<ProtocolPass>& passes,
                       std::vector<Metric>* m) {
  auto add = [&](const char* name, const char* unit, auto f) {
    m->push_back({name, MedianOf(passes, f), unit});
  };
  using P = const ProtocolPass&;
  add("workload.reveal_s", "s", [](P p) { return p.reveal_s; });
  add("session.refine_s", "s", [](P p) { return p.refine_s; });
  add("session.first_wait_s", "s", [](P p) { return p.first_wait_s; });
  add("session.tail_s", "s", [](P p) { return p.tail_s; });
  add("generalize.wait_s", "s", [](P p) { return p.generalize_wait_s; });
  add("specialize.wait_s", "s", [](P p) { return p.split_wait_s; });
  add("quality.evaluate_s", "s", [](P p) { return p.quality_s; });
  add("expert.review_s", "s", [](P p) { return p.review_s; });
  add("expert.proposals", "count", [](P p) {
    return static_cast<double>(p.generalization_reviews + p.split_reviews +
                               p.retirement_reviews);
  });
  for (const RegistryFigure& f : kRegistryFigures) {
    add(f.metric, f.histogram_sum ? "s" : "count",
        [&](P p) { return p.registry.at(f.metric); });
  }
  add("index.cache.hit_ratio", "ratio", [](P p) {
    double hits = p.registry.at("index.cache.hits");
    double lookups = hits + p.registry.at("index.cache.misses");
    return lookups == 0.0 ? 0.0 : hits / lookups;
  });
}

Metric* Find(std::vector<Metric>* m, const std::string& name) {
  for (Metric& x : *m) {
    if (x.name == name) return &x;
  }
  return nullptr;
}

std::vector<const ProtocolPass*> AllPasses(const PassSet& set) {
  std::vector<const ProtocolPass*> all;
  for (const ProtocolPass& p : set.untraced) all.push_back(&p);
  for (const ProtocolPass& p : set.traced) all.push_back(&p);
  return all;
}

// Runs protocol passes until the deadline, at least `min_passes` of them.
// Each pass draws its own labels and expert noise from (seed, pass index),
// so a run's medians are over independent draws. In trace mode every draw
// runs twice, untraced then traced: the pair must refine identical rules,
// and their wall times give the tracing overhead. `between_passes` runs
// after each pass (or pair) and returns the seconds it took, by which the
// deadline moves.
PassSet RunProtocolPasses(Inputs* in, const ProtocolConfig& config,
                          uint64_t seed, Clock::time_point deadline,
                          int min_passes, bool trace_mode, SpanTrace* trace,
                          const std::function<double()>& between_passes,
                          std::vector<std::string>* problems) {
  PassSet set;
  SpanTrace null_trace(false);
  auto timed_pass = [&](uint64_t pass_seed, SpanTrace* t, LogHistogram* waits) {
    Clock::time_point start = Clock::now();
    ProtocolPass pass = RunProtocolPass(in, config, pass_seed, t, waits, problems);
    pass.wall_s = SecondsSince(start);
    return pass;
  };
  int done = 0;
  do {
    uint64_t pass_seed = Mix(seed, 100 + static_cast<uint64_t>(done));
    set.untraced.push_back(timed_pass(pass_seed, &null_trace, &set.waits));
    if (trace_mode) {
      set.traced.push_back(timed_pass(pass_seed, trace, nullptr));
      if (set.traced.back().rules_digest != set.untraced.back().rules_digest) {
        problems->push_back("a traced pass refined different rules than its "
                            "untraced twin");
      }
    }
    ++done;
    deadline = Later(deadline, between_passes());
  } while (done < min_passes || Clock::now() < deadline);
  return set;
}

// Times are medians over the run's passes. The p98 wait is pooled over
// them instead: a pass has too few waits (about 650 on auto-accept, 13
// beyond its p98) for its own p98 to repeat.
void AddProtocolEndToEnd(const PassSet& passes, std::vector<Metric>* m) {
  using P = const ProtocolPass&;
  m->push_back({"protocol_s",
                MedianOf(passes.untraced, [](P p) { return p.protocol_s; }), "s"});
  m->push_back({"expert_wait_s",
                MedianOf(passes.untraced, [](P p) { return p.refine_s - p.review_s; }),
                "s"});
  m->push_back({"wait_p98_ms", passes.waits.Quantile(0.98) * 1e3, "ms"});
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"expert", "auto-accept", "serve"};
  return names;
}

RunReport RunWorkload(const RunOptions& options) {
  RunReport report;
  const bool serve = options.workload == "serve";
  SpanTrace trace(options.trace);

  // Set-ups are spread over the run rather than made back to back: the
  // host's speed drifts in phases of a few seconds, and set-ups made within
  // one phase would all read it. The first one makes the inputs. Each later
  // one frees them and makes them again, identical, between two passes,
  // once it is due: set-up i is due when i/(kSetupRepeats - 1) of the run's
  // seconds have passed. Their time moves the deadline, so the passes keep
  // the whole run. Set-ups not made by the end of the timed part follow it.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  Inputs in;
  auto set_up = [&] {
    in = Inputs{};  // free the previous set-up's stream first
    Clock::time_point t = Clock::now();
    double gen_s = 0.0;
    in = SetUp(serve, options.seed, &trace, &gen_s);
    setup_s.push_back(SecondsSince(t));
    generate_s.push_back(gen_s);
    return setup_s.back();
  };
  set_up();
  std::vector<std::string>& problems = report.problems;
  Clock::time_point start = Clock::now();
  double set_up_in_run_s = 0.0;
  auto due_set_ups = [&] {
    double spent = 0.0;
    double elapsed = SecondsSince(start) - set_up_in_run_s;
    while (setup_s.size() < kSetupRepeats &&
           static_cast<double>(setup_s.size()) <=
               static_cast<double>(kSetupRepeats - 1) * elapsed / options.seconds) {
      spent += set_up();
    }
    set_up_in_run_s += spent;
    return spent;
  };

  ProtocolConfig config;
  if (options.workload == "auto-accept") {
    config.domain_expert = false;
    config.width = 2;
  } else if (serve) {
    config.rounds = kServeRefineRounds;
    config.serve_hops = false;
  }

  PassSet passes;
  ServePhase serving;
  try {
    passes = RunProtocolPasses(&in, config, options.seed,
                               serve ? start : Later(start, options.seconds),
                               serve ? kServeRefinePasses : 1, options.trace,
                               &trace, due_set_ups, &problems);
    if (serve) {
      serving = RunServePhase(&in, Later(start, options.seconds + set_up_in_run_s),
                              options.trace, &trace, &problems);
    }
    while (setup_s.size() < kSetupRepeats) set_up();
  } catch (const std::exception& e) {
    ++report.failed;
    report.notes.push_back(std::string("failed: ") + e.what());
  }

  std::vector<const ProtocolPass*> all = AllPasses(passes);
  const std::vector<ProtocolPass>& measured =
      options.trace ? passes.traced : passes.untraced;
  for (const ProtocolPass* p : all) report.attempted += p->operations;
  report.attempted += serving.decisions + serving.publishes + report.failed;

  // The paper's property: refined rules beat the unrefined ones (No-Change)
  // on the future suffix, both scored by the reference evaluator.
  if (!serve && !all.empty()) {
    const rudolf::Relation& relation = *in.dataset.relation;
    size_t n = relation.NumRows();
    RefConfusion no_change = ReferenceEvaluator(relation.schema(), in.initial)
                                 .Confusion(relation, PrefixAt(n, config.rounds), n);
    double worst = 0.0;
    for (const ProtocolPass* p : all) {
      worst = std::max(worst, p->final_quality.BalancedErrorPct());
    }
    report.notes.push_back("balanced error on the future suffix: refined at most " +
                           Fmt("%.3f", worst) + "% over " + std::to_string(all.size()) +
                           " passes vs no-change " +
                           Fmt("%.3f", no_change.BalancedErrorPct()) + "%");
    if (!(worst < no_change.BalancedErrorPct())) {
      problems.push_back("refined rules do not beat No-Change on the future suffix");
    }
  }
  double max_gap_s = 0.0;
  size_t refine_calls = 0;
  for (const ProtocolPass* p : all) {
    max_gap_s = std::max(max_gap_s, p->max_attribution_gap_s);
    refine_calls += static_cast<size_t>(config.rounds);
  }
  report.notes.push_back("wait attribution: harness timer minus waits and reviews at most " +
                         Fmt("%.2f", max_gap_s * 1e6) + " us over " +
                         std::to_string(refine_calls) + " Refine calls");

  // Serving figures, medians over passes: protocol workloads serve each
  // hop single-threaded; `serve` reports its concurrent-publisher passes.
  // A percentile pooled over the run would be set by whichever of the
  // host's slow phases the run met; a pass's 144,000 or more decisions are
  // enough for its own p99.
  double decide_rate = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double fired_per_decision = 0.0;
  if (serve) {
    decide_rate = Median(serving.pass_rate);
    p50_us = Median(serving.pass_p50_s) * 1e6;
    p99_us = Median(serving.pass_p99_s) * 1e6;
    fired_per_decision = serving.decisions == 0
                             ? 0.0
                             : static_cast<double>(serving.fired) /
                                   static_cast<double>(serving.decisions);
  } else {
    using P = const ProtocolPass&;
    decide_rate = MedianOf(measured, [](P p) {
      return static_cast<double>(p.decisions) / p.decide_s;
    });
    p50_us = MedianOf(measured, [](P p) { return p.decide_p50_s; }) * 1e6;
    p99_us = MedianOf(measured, [](P p) { return p.decide_p99_s; }) * 1e6;
    fired_per_decision = MedianOf(measured, [](const ProtocolPass& p) {
      return static_cast<double>(p.fired) / static_cast<double>(p.decisions);
    });
  }

  if (!options.trace) {
    std::vector<Metric>& m = report.metrics;
    m.push_back({"setup_s", Median(setup_s), "s"});
    m.push_back({"rss_peak_mb", 0.0, "MB"});  // filled last
    AddProtocolEndToEnd(passes, &m);
    m.push_back({"decide_per_s", decide_rate, "1/s"});
    m.push_back({"decide_p50_us", p50_us, "us"});
    m.push_back({"decide_p99_us", p99_us, "us"});
    std::string per_pass = "protocol_s per pass:";
    for (const ProtocolPass& p : measured) per_pass += " " + Fmt("%.3f", p.protocol_s);
    report.notes.push_back(per_pass);
    std::string setups = "setup_s per set-up:";
    for (double s : setup_s) setups += " " + Fmt("%.3f", s);
    report.notes.push_back(setups);
    report.notes.push_back(
        "wait samples per pass: " +
        Fmt("%.0f", MedianOf(measured, [](const ProtocolPass& p) {
              return static_cast<double>(p.waits);
            })) +
        ", median wait " + Fmt("%.4f", passes.waits.Quantile(0.5) * 1e3) + " ms");
  } else {
    std::vector<Metric>& m = report.metrics;
    m.push_back({"workload.generate_s", Median(generate_s), "s"});
    AddProtocolLayers(measured, &m);
    double publish_ms = 0.0;
    double publishes = 0.0;
    double decisions = 0.0;
    if (serve) {
      publish_ms = Median(serving.publish_s) * 1e3;
      publishes = static_cast<double>(serving.publishes);
      decisions = serving.registry.Count("serving.decisions");
    } else {
      publish_ms = MedianOf(measured, [](const ProtocolPass& p) { return p.publish_ms; });
      publishes = MedianOf(measured, [](const ProtocolPass& p) { return p.publishes; });
      decisions = MedianOf(measured, [](const ProtocolPass& p) { return p.served; });
    }
    m.push_back({"serving.publish_ms", publish_ms, "ms"});
    m.push_back({"serving.publishes", publishes, "count"});
    m.push_back({"serving.decisions", decisions, "count"});
    m.push_back({"serving.fired_per_decision", fired_per_decision, "count"});
    // Tracing overhead: traced minus untraced wall of the same pass, median
    // over the pairs; `serve` adds its serving passes' difference.
    std::vector<double> pair_overhead;
    for (size_t i = 0; i < passes.traced.size(); ++i) {
      pair_overhead.push_back(passes.traced[i].wall_s - passes.untraced[i].wall_s);
    }
    double overhead = Median(pair_overhead);
    if (serve) {
      std::vector<double> traced_wall, untraced_wall;
      for (size_t i = 0; i < serving.pass_wall_s.size(); ++i) {
        (serving.pass_traced[i] ? traced_wall : untraced_wall)
            .push_back(serving.pass_wall_s[i]);
      }
      overhead += Median(traced_wall) - Median(untraced_wall);
    }
    m.push_back({"trace.overhead_s", overhead, "s"});

    // The per-layer self-time table of the traced set-ups and passes. The
    // rows add up to the root spans by construction, so they are checked
    // against the harness's own clock around the same set-ups and passes.
    double wall = 0.0;
    for (double s : setup_s) wall += s;
    for (const ProtocolPass& p : passes.traced) wall += p.wall_s;
    for (size_t i = 0; i < serving.pass_wall_s.size(); ++i) {
      if (serving.pass_traced[i]) wall += serving.pass_wall_s[i];
    }
    double rows_sum = 0.0;
    report.notes.push_back("self-time by layer (" + options.workload +
                           ", traced set-ups and passes):");
    for (const auto& [name, self] : trace.SelfTimes()) {
      rows_sum += self;
      report.notes.push_back("  " + name + std::string(name.size() < 24 ? 24 - name.size() : 1, ' ') +
                             Fmt("%10.4f s", self) + Fmt("  %5.1f%%", 100.0 * self / wall));
    }
    report.notes.push_back("  rows sum " + Fmt("%.6f s", rows_sum) +
                           ", harness wall of the traced parts " + Fmt("%.6f s", wall) +
                           " (" + std::to_string(trace.size()) + " spans)");
    if (rows_sum > wall + kRounding || wall - rows_sum > kTraceWallTolerance * wall) {
      problems.push_back("self-time rows sum to " + Fmt("%.6f", rows_sum) +
                         " s, the harness clock reads " + Fmt("%.6f", wall) + " s");
    }
    if (!trace.Nested()) {
      problems.push_back("a span is open or reaches outside its parent");
    }
    if (!options.trace_out.empty() && !trace.WriteJsonl(options.trace_out)) {
      problems.push_back("cannot write " + options.trace_out);
    }
  }

  // Provenance.
  int width = config.width;
  int threads = serve ? 2 : std::max(1, width);
  std::vector<std::pair<std::string, std::string>>& prov = report.provenance;
  prov.push_back({"workload", options.workload});
  prov.push_back({"seed", std::to_string(options.seed)});
  prov.push_back({"rows", std::to_string(in.dataset.relation ? in.dataset.relation->NumRows() : 0)});
  prov.push_back({"patterns", std::to_string(in.dataset.patterns.size())});
  prov.push_back({"initial_rules", std::to_string(in.initial.size())});
  if (serve) prov.push_back({"pattern_rules", std::to_string(in.all_patterns.size())});
  if (!all.empty()) {
    prov.push_back({"protocol_passes", std::to_string(all.size())});
  }
  if (serve) {
    prov.push_back({"serve_passes", std::to_string(serving.pass_wall_s.size())});
    prov.push_back({"publish_every", std::to_string(kPublishEvery)});
  }
  prov.push_back({"scheduler_width", std::to_string(width)});
  prov.push_back({"threads", std::to_string(threads)});
  prov.push_back({"nproc", std::to_string(std::thread::hardware_concurrency())});
  const rudolf::obs::MetricsSnapshot snap = Snap();
  const rudolf::obs::CounterSample* tier = snap.FindCounter("simd.dispatch_tier");
  static const char* kTierNames[] = {"scalar", "sse2", "avx2", "neon", "avx512"};
  uint64_t tier_value = tier == nullptr ? 0 : tier->value;
  prov.push_back({"simd_tier", tier_value < 5 ? kTierNames[tier_value] : "unknown"});

  report.correct = problems.empty();
  if (!options.trace) Find(&report.metrics, "rss_peak_mb")->value = PeakRssMb();
  return report;
}

}  // namespace perfbench
