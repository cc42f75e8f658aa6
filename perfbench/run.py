#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fleet_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds `perfbench/` (which compiles the
library sources under `src/`) into `.bench_build/`; later calls only rebuild
what changed.  Build output goes to standard error.  The last line of
standard output is the result object printed by the benchmark program; a
traced run (`--trace 1`) also writes its span file (Chrome trace-event JSON,
loadable in Perfetto) and its per-layer table to `.bench_out/`.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
WORKLOADS = ("fleet_cold", "fleet_hot", "client_receive", "proxy_live")


def revision():
    """The git revision of the checkout, else a digest of the sources."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and \
                Path(lines[0]).resolve() == ROOT:
            return lines[1][:12]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base in (ROOT / "src", HERE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def build():
    """Configures (once) and builds the benchmark; True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no library sources (src/) next to the benchmark",
              file=sys.stderr)
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "perfbench",
         "perfbench_selftest"],
        stdout=sys.stderr, stderr=sys.stderr)
    return made.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own helper tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        return subprocess.run([str(BUILD / "perfbench_selftest")]).returncode

    command = [str(BUILD / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--revision", revision()]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        command += ["--out-dir", str(OUT)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
