// Sample statistics for the benchmark's reports.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Fewest samples that must lie beyond a reported percentile.
inline constexpr std::size_t kMinTailSamples = 10;

/// The q-quantile (q in [0, 1]) of `samples`, linearly interpolated
/// between the order statistics around position q * (n - 1).  Returns 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

/// How many samples lie strictly beyond the q-quantile's position.
[[nodiscard]] std::size_t samplesBeyond(std::size_t n, double q);

/// True when a q-quantile of n samples has at least kMinTailSamples beyond
/// it (for p99 that takes about 1000 samples).
[[nodiscard]] bool quantileReportable(std::size_t n, double q);

/// Fewest samples for which quantileReportable(n, q) holds.
[[nodiscard]] std::size_t minSamplesFor(double q);

}  // namespace perfbench
