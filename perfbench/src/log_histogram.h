// Fixed-size histogram of durations, for a quantile pooled over a whole run.
// Its memory does not grow with the number of samples, so a faster program,
// which fits more samples into a run, does not report more memory.
//
// Bins are log-linear: each power-of-two octave above kMinSeconds is split
// into kSubBins equal bins, so a bin is at most 1/kSubBins of its value wide.
// Quantiles interpolate linearly within the bin that holds them.

#ifndef PERFBENCH_LOG_HISTOGRAM_H_
#define PERFBENCH_LOG_HISTOGRAM_H_

#include <array>
#include <cstdint>

namespace perfbench {

class LogHistogram {
 public:
  static constexpr double kMinSeconds = 1e-8;  // 10 ns; smaller lands in bin 0
  static constexpr int kOctaves = 36;          // up to about 687 s
  static constexpr int kSubBins = 64;

  void Add(double seconds);

  uint64_t count() const { return count_; }

  /// The q-quantile (0 <= q <= 1) of the samples; 0 when there are none.
  double Quantile(double q) const;

 private:
  static constexpr int kBins = kOctaves * kSubBins;
  static double LowerEdge(int bin);

  std::array<uint64_t, kBins> bins_{};
  uint64_t count_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOG_HISTOGRAM_H_
