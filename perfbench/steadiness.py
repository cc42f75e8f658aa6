#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs every workload once per seed, in two sets started at different times,
and writes a report: per metric and workload, the median and quartiles of
each set, the spread (interquartile range as a share of the median) against
the metric's bound, and how much the second set's median is worse than the
first's, also against the bound.

    python3 perfbench/steadiness.py --seeds 10 --sets 2 \
        --report perfbench/STEADINESS.md --raw perfbench/steadiness_runs.json

Run it from the root of a checkout.  `--workloads` and `--seconds` narrow a
tuning run; `--from-raw` rewrites the report from saved runs without running.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    started = time.time()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    provenance = json.loads(lines[-2]) if len(lines) > 1 else {}
    return {"workload": workload, "seed": seed, "started": started,
            "wall_s": time.time() - started, "result": result,
            "digest": provenance.get("digest"),
            "provenance": provenance.get("provenance")}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(first, second, better):
    """How much the second median is worse than the first, as a share."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def report(spec, runs, sets):
    out = ["# Benchmark steadiness report", ""]
    prov = next((r["provenance"] for r in runs if r.get("provenance")), {})
    out.append("Host: {} ({}, nproc {}), SIMD {}, {} build, {}, revision {}."
               .format(prov.get("host"), prov.get("cpu"), prov.get("nproc"),
                       prov.get("simd"), prov.get("build_type"),
                       prov.get("compiler"), prov.get("revision")))
    for s in range(sets):
        rs = [r for r in runs if r["set"] == s]
        if rs:
            out.append("Set {}: {} runs, seeds {}, started {}.".format(
                s + 1, len(rs), sorted({r["seed"] for r in rs}),
                time.strftime("%Y-%m-%d %H:%M:%S UTC",
                              time.gmtime(min(r["started"] for r in rs)))))
    out += ["", "Spread is (Q3 - Q1) / median of one set.  A set is steady "
            "when every spread is within its metric's bound, ideally "
            "within a third of it.  'Worse' is how much "
            "set 2's median is worse than set 1's, as a share of set 1's; "
            "it must stay within the bound.", ""]
    header = ("| workload | metric | bound | set | median | Q1 | Q3 | spread "
              "| spread/bound |")
    failures = []
    for workload in spec["workloads"]:
        name = workload["name"]
        out += [f"## {name}", "", header,
                "|---|---|---|---|---|---|---|---|---|"]
        verdicts = []
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(sets):
                values = [r["result"]["metrics"][m]["value"] for r in runs
                          if r["set"] == s and r["workload"] == name]
                if len(values) < 2:
                    continue
                med, q1, q3, sp = spread(values)
                medians.append(med)
                out.append(f"| {name} | {m} | {bound} | {s + 1} | {med:.6g} "
                           f"| {q1:.6g} | {q3:.6g} | {sp:.4f} "
                           f"| {sp / bound:.2f} |")
                if sp > bound:
                    failures.append(f"{name} {m} set {s + 1}: spread {sp:.4f}"
                                    f" > bound {bound}")
            if len(medians) >= 2:
                w = worse_by(medians[0], medians[1], metric["better"])
                verdicts.append(f"- {m}: set 2 worse by {w:+.4f} "
                                f"({w / bound:+.2f} of the bound "
                                f"{bound})")
                if w > bound:
                    failures.append(f"{name} {m}: set 2 worse by {w:.4f} > "
                                    f"bound {bound}")
        out += ["", *verdicts, ""]
    out += ["## Verdict", ""]
    out += [f"- FAIL {f}" for f in failures] or ["- every spread and every "
                                                  "set-to-set change is within "
                                                  "its bound"]
    return "\n".join(out) + "\n", failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--report", default=str(HERE / "STEADINESS.md"))
    parser.add_argument("--raw", default=str(HERE / "steadiness_runs.json"))
    parser.add_argument("--from-raw", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workloads:
        spec["workloads"] = [w for w in spec["workloads"]
                             if w["name"] in args.workloads]
    seconds = args.seconds or spec["run_seconds"]

    if args.from_raw:
        runs = json.loads(Path(args.raw).read_text())
    else:
        runs = []
        for s in range(args.sets):
            for workload in spec["workloads"]:
                for i in range(args.seeds):
                    # Set s uses its own seeds, so the sets share no input.
                    seed = 1 + s * args.seeds + i
                    r = run_once(workload["name"], seed, seconds)
                    r["set"] = s
                    runs.append(r)
                    print(f"set {s + 1} {workload['name']} seed {seed}: "
                          f"{r['wall_s']:.1f}s", file=sys.stderr)
        Path(args.raw).write_text(json.dumps(runs, indent=1) + "\n")
    text, failures = report(spec, runs, args.sets)
    Path(args.report).write_text(text)
    print(text)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
