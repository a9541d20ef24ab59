// In-memory span recorder for the benchmark's traced mode. Spans are
// recorded from the benchmark's own files around the calls it makes into
// each layer of the program; each span carries its parent, spans stay in
// memory while the workload runs, and they are written out at the end.
// A layer's self time is its spans' durations minus the parts covered by
// their child spans, so the self times of all layers sum to the root spans'
// wall time by construction. Whether the root spans cover the work that was
// meant to be traced can only be checked against a clock kept apart from the
// trace.

#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class SpanTrace {
 public:
  using Clock = std::chrono::steady_clock;

  /// A disabled trace records nothing; every call is a cheap no-op.
  explicit SpanTrace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// RAII span: opened as a child of the innermost open span, closed on
  /// destruction. Spans of one trace must nest (one thread per trace).
  class Scope {
   public:
    Scope(SpanTrace* trace, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanTrace* trace_;
    int index_;
  };

  /// Adds an already finished span [begin, end] as a child of the innermost
  /// open span (used for the intervals the timing expert measured).
  void AddClosed(const char* name, Clock::time_point begin,
                 Clock::time_point end);

  /// Per-name self time in seconds, largest first.
  std::vector<std::pair<std::string, double>> SelfTimes() const;

  /// Total duration of the root spans (spans without a parent).
  double RootSeconds() const;

  /// Whether every span is closed and lies within its parent, so that no
  /// self time is negative.
  bool Nested() const;

  size_t size() const { return spans_.size(); }

  /// Writes every span as one JSON object per line:
  /// {"id":..,"parent":..,"name":..,"begin_us":..,"end_us":..}.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point begin;
    Clock::time_point end;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;  // innermost open span, -1 when none
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
