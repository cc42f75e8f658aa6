// Tests of the benchmark's own helpers: the percentile rule, span self
// time, and seeded determinism of plans and digests.  Exit code 0 when all
// pass.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void percentileRule() {
  using perfbench::quantile;
  using perfbench::quantileReportable;
  using perfbench::samplesBeyond;
  check(samplesBeyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  check(quantileReportable(1000, 0.99), "p99 reportable at 1000 samples");
  check(!quantileReportable(900, 0.99), "p99 not reportable at 900 samples");
  check(!quantileReportable(0, 0.99), "p99 not reportable without samples");
  check(perfbench::minSamplesFor(0.99) <= 1000 &&
            !quantileReportable(perfbench::minSamplesFor(0.99) - 1, 0.99),
        "minSamplesFor(0.99) is the smallest reportable count");
  check(quantileReportable(20, 0.5), "p50 reportable at 20 samples");
  std::vector<double> v;
  for (int i = 1; i <= 101; ++i) v.push_back(i);
  check(quantile(v, 0.5) == 51.0, "median of 1..101 is 51");
  check(quantile(v, 0.99) == 100.0, "p99 of 1..101 is 100");
  check(quantile({1.0, 2.0}, 0.5) == 1.5, "median interpolates");
  check(quantile({}, 0.5) == 0.0, "empty sample gives 0");
}

void spanSelfTime() {
  perfbench::SpanRecorder rec;
  using Span = perfbench::SpanRecorder::Span;
  // root [0,100) with children [10,30) and [20,50) (overlapping: union 40)
  // and a grandchild [12,18) under the first child.
  const int root = rec.add(Span{"root", 0, 100, -1, -1, 1});
  const int a = rec.add(Span{"a", 10, 30, root, -1, 1});
  const int b = rec.add(Span{"b", 20, 50, root, -1, 1});
  const int g = rec.add(Span{"g", 12, 18, a, -1, 1});
  // A call the benchmark cannot see into [200,260) and its replay
  // [300,340), which explains 40 of its 60.
  const int call = rec.add(Span{"call", 200, 260, -1, -1, 2});
  const int replay = rec.add(Span{"replay", 300, 340, -1, call, 2});
  const int inner = rec.add(Span{"inner", 305, 335, replay, -1, 2});
  const std::vector<std::int64_t> self = rec.selfNs();
  check(self[root] == 60, "self time subtracts the union of child intervals");
  check(self[a] == 14, "child self time subtracts the grandchild");
  check(self[b] == 30, "leaf self time is its duration");
  check(self[g] == 6, "grandchild self time");
  check(self[call] == 20, "replay durations count as covered time");
  check(self[replay] == 10, "replay self time subtracts its children");
  check(self[inner] == 30, "replayed call self time");
  const auto byName = rec.selfNsByName();
  check(byName.at("root") == 60 && byName.size() == 7, "self time by name");

  perfbench::SpanRecorder live;
  {
    perfbench::ScopedSpan outer(&live, "outer", 7);
    perfbench::ScopedSpan nested(&live, "nested", 7);
  }
  check(live.spans().size() == 2 && live.spans()[1].parent == 0,
        "scoped spans nest under the open span");
  std::ostringstream json;
  live.writeChromeTrace(json);
  check(json.str().find("\"traceEvents\"") != std::string::npos &&
            json.str().find("\"ph\":\"X\"") != std::string::npos,
        "chrome trace output");
}

perfbench::RunResult tinyRun(const std::string& workload, std::uint64_t seed) {
  perfbench::RunConfig cfg;
  cfg.workload = workload;
  cfg.seed = seed;
  cfg.seconds = 0.01;  // runs on until the request sample holds a p99
  cfg.scale = 0.1;
  return perfbench::runWorkload(cfg);
}

void seededDeterminism() {
  for (const std::string& w : perfbench::workloadNames()) {
    check(perfbench::planDigest(w, 11) == perfbench::planDigest(w, 11),
          w + ": same seed, same session plan");
    check(perfbench::planDigest(w, 11) != perfbench::planDigest(w, 12),
          w + ": different seed, different session plan");
    const perfbench::RunResult a = tinyRun(w, 5);
    const perfbench::RunResult b = tinyRun(w, 5);
    const perfbench::RunResult c = tinyRun(w, 6);
    for (const std::string& p : a.problems) std::printf("  %s\n", p.c_str());
    check(a.correct && b.correct && c.correct, w + ": tiny runs pass checks");
    check(a.digest == b.digest, w + ": same seed, same digest");
    check(a.digest != c.digest, w + ": different seed, different digest");
  }
}

}  // namespace

int main() {
  percentileRule();
  spanSelfTime();
  seededDeterminism();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
