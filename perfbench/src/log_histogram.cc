#include "log_histogram.h"

#include <cmath>

namespace perfbench {

void LogHistogram::Add(double seconds) {
  int bin = 0;
  double r = seconds / kMinSeconds;
  if (r >= 1.0) {
    int exp = 0;
    double mantissa = std::frexp(r, &exp);  // r = mantissa * 2^exp, [0.5, 1)
    int octave = exp - 1;
    int sub = static_cast<int>((2.0 * mantissa - 1.0) * kSubBins);
    bin = octave >= kOctaves ? kBins - 1 : octave * kSubBins + sub;
  }
  ++bins_[static_cast<size_t>(bin)];
  ++count_;
}

double LogHistogram::LowerEdge(int bin) {
  int octave = bin / kSubBins;
  int sub = bin % kSubBins;
  return kMinSeconds * std::ldexp(1.0 + static_cast<double>(sub) / kSubBins, octave);
}

double LogHistogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  double rank = q * static_cast<double>(count_);
  double below = 0.0;
  for (int b = 0; b < kBins; ++b) {
    double n = static_cast<double>(bins_[static_cast<size_t>(b)]);
    if (n == 0.0) continue;
    if (below + n >= rank) {
      double lo = LowerEdge(b);
      double frac = rank <= below ? 0.0 : (rank - below) / n;
      return lo + (LowerEdge(b + 1) - lo) * frac;
    }
    below += n;
  }
  return LowerEdge(kBins);
}

}  // namespace perfbench
