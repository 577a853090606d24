#!/usr/bin/env python3
"""End-to-end benchmark of the AFRAID simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the library from src/) with CMake in
Release mode into $CARGO_TARGET_DIR or .bench_build, runs the benchmark
binary, checks its output against the metrics declared in BENCHMARK.json,
and prints two JSON lines: a stamp (workload, seed, optimisation level,
input size, sim_digest, span file, failures) and, last, the result
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones from
the separate traced run. Exits non-zero without a result line when the
build fails, the binary fails, the build is unoptimised, or the metric set
differs from BENCHMARK.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay", "fleet-rebuild", "mc-campaign")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures and builds the benchmark; returns the binary path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    declared = declared_metrics(args.trace == 1)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit("perfbench: benchmark exited with %d" % proc.returncode)
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    if out["opt_level"] in ("", "-O0", "unknown"):
        raise SystemExit("perfbench: refusing numbers from an unoptimised build")
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    if got != declared:
        missing = sorted(set(declared) - set(got))
        extra = sorted(set(got) - set(declared))
        raise SystemExit("perfbench: metrics differ from BENCHMARK.json; missing %s, extra %s,"
                         " or units differ" % (missing, extra))
    for name, m in out["metrics"].items():
        value = m["value"]
        if value is None or not math.isfinite(value):
            raise SystemExit("perfbench: metric %s is not finite" % name)
        if args.trace == 0 and value <= 0:
            raise SystemExit("perfbench: end-to-end metric %s is not positive" % name)

    failures = out.pop("failures")
    for why in failures:
        log("perfbench: failed check: " + why)
    metrics = out.pop("metrics")
    stamp = dict(out, failures=failures)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps({
        "correct": out["failed"] == 0 and not failures,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
