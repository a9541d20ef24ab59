#include "span_trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

double Seconds(SpanTrace::Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

}  // namespace

SpanTrace::Scope::Scope(SpanTrace* trace, const char* name)
    : trace_(trace), index_(-1) {
  if (!trace_->enabled_) return;
  index_ = static_cast<int>(trace_->spans_.size());
  trace_->spans_.push_back({name, trace_->open_, Clock::now(), {}});
  trace_->open_ = index_;
}

SpanTrace::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = trace_->spans_[static_cast<size_t>(index_)];
  span.end = Clock::now();
  trace_->open_ = span.parent;
}

void SpanTrace::AddClosed(const char* name, Clock::time_point begin,
                          Clock::time_point end) {
  if (!enabled_) return;
  spans_.push_back({name, open_, begin, end});
}

std::vector<std::pair<std::string, double>> SpanTrace::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] += Seconds(spans_[i].end - spans_[i].begin);
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -=
          Seconds(spans_[i].end - spans_[i].begin);
    }
  }
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) by_name[spans_[i].name] += self[i];
  std::vector<std::pair<std::string, double>> out(by_name.begin(),
                                                  by_name.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

double SpanTrace::RootSeconds() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += Seconds(s.end - s.begin);
  }
  return total;
}

bool SpanTrace::Nested() const {
  for (const Span& s : spans_) {
    if (s.end < s.begin) return false;
    if (s.parent < 0) continue;
    const Span& parent = spans_[static_cast<size_t>(s.parent)];
    if (s.begin < parent.begin || s.end > parent.end) return false;
  }
  return true;
}

bool SpanTrace::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"begin_us\":%.3f,"
                 "\"end_us\":%.3f}\n",
                 i, s.parent, s.name, Seconds(s.begin - origin_) * 1e6,
                 Seconds(s.end - origin_) * 1e6);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
