// The benchmark's workloads: seeded inputs, a timed closed loop over the
// public serving API, output checks, and the metrics of one run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Timed-phase length; the loop runs whole rounds until it is reached
  /// and every latency sample set can report its p99.
  double seconds = 10.0;
  /// true: spans around every layer call, replays, per-layer metrics.
  bool trace = false;
  /// Test hook: population size multiplier, so the self-test can run tiny
  /// populations.  The benchmark itself always runs at 1.
  double scale = 1.0;
  std::string revision = "unknown";
  /// Where a traced run writes its span and layer files ("" = nowhere).
  std::string outDir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, Metric> metrics;
  /// CRC32 over every served stream and backlight schedule of the seeded
  /// population; identical for a fixed seed and scale.
  std::uint32_t digest = 0;
  /// Traced run: self time per span name, as a share of all self time.
  std::map<std::string, double> selfShare;
  std::string topLayer;  ///< layer (span name prefix) with the most self time
  std::vector<std::string> problems;
};

[[nodiscard]] const std::vector<std::string>& workloadNames();

/// CRC32 over the seeded session plan of `workload` (no stack involved).
[[nodiscard]] std::uint32_t planDigest(const std::string& workload,
                                       std::uint64_t seed, double scale = 1.0);

/// Runs one workload end to end.  Throws std::invalid_argument on an
/// unknown workload name.
[[nodiscard]] RunResult runWorkload(const RunConfig& cfg);

/// Host, CPU model, nproc, SIMD level, build type, compiler, revision and
/// seed as one JSON object.
[[nodiscard]] std::string provenanceJson(const RunConfig& cfg);

}  // namespace perfbench
