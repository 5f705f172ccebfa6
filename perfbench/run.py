#!/usr/bin/env python3
"""Builds and runs the steering-loop benchmark.

    python3 perfbench/run.py --workload <sdss-loop|adhoc-wide|tenants> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Configures perfbench/ with CMake (Release) into .bench_build/perfbench at
the checkout root, builds it (only when a source is newer than the
binary), then runs the benchmark binary with the same arguments. The binary's stdout
is passed through, so its last line is the JSON result; build output
goes to stderr. A traced run (--trace 1) also writes its spans to
.bench_build/traces/<workload>-seed<n>.json.

Exits non-zero, without a result line, when the build fails (for
example in a directory without the library sources); otherwise exits
with the binary's code, which is non-zero only when an output check
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")


def up_to_date(binary):
    """True when `binary` is newer than every source it is built from."""
    if not os.path.exists(binary):
        return False
    built = os.path.getmtime(binary)
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, _, files in os.walk(top):
            for name in files:
                if name.endswith((".cc", ".h", ".txt")) and \
                        os.path.getmtime(os.path.join(dirpath, name)) > built:
                    return False
    return True


def build(binary):
    # Skipping make when nothing changed keeps its file scan and worker
    # processes out of the machine right before the timed set-up.
    if up_to_date(binary):
        return True
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        if rc != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    binary = os.path.join(BUILD, "perfbench")
    if not os.path.isdir(os.path.join(ROOT, "src")) or not build(binary):
        print("perfbench: cannot build the benchmark here", file=sys.stderr)
        return 2

    if args.selftest:
        cmd = [binary, "--selftest", "--seed", str(args.seed)]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            cmd += ["--trace-file", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
