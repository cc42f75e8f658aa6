// Benchmark entry point: runs one workload and prints its metrics as the
// last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--revision <id>] [--out-dir <dir>]
//
// Exit code 0 when every output check passed, 1 when one failed (the result
// line then says "correct": false), 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--revision <id>] "
               "[--out-dir <dir>]\nworkloads:",
               msg);
  for (const std::string& w : perfbench::workloadNames()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      cfg.trace = value == "1";
    } else if (arg == "--revision") {
      cfg.revision = value;
    } else if (arg == "--out-dir") {
      cfg.outDir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return usage(("bad number for " + arg).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::workloadNames()) known |= w == cfg.workload;
  if (!known) return usage("unknown or missing --workload");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::RunResult r;
  try {
    r = perfbench::runWorkload(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  }
  for (const auto& [name, m] : r.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      r.correct = false;
      r.metrics[name].value = 0.0;
    }
  }

  std::printf("{\"provenance\":%s,\"digest\":\"%08x\"",
              perfbench::provenanceJson(cfg).c_str(), r.digest);
  if (cfg.trace) std::printf(",\"top_layer\":\"%s\"", r.topLayer.c_str());
  std::printf("}\n");
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", first ? "" : ",",
                name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}
