#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

std::size_t samplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto lo = static_cast<std::size_t>(
      std::floor(q * static_cast<double>(n - 1)));
  return n - 1 - lo;
}

bool quantileReportable(std::size_t n, double q) {
  return samplesBeyond(n, q) >= kMinTailSamples;
}

std::size_t minSamplesFor(double q) {
  std::size_t n = 1;
  while (!quantileReportable(n, q)) ++n;
  return n;
}

}  // namespace perfbench
