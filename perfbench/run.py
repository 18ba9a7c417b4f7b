#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run builds the benchmark
(perfbench/CMakeLists.txt, which compiles the library from src/) into
.bench_build/perfbench. Each repetition runs as its own perfbench_rep
process; see perfbench/README.md for the workloads and the metrics.

--trace 0 prints the end-to-end metrics of BENCHMARK.json. Repetitions
(set-up plus measured phase) continue while another fits in --seconds,
and there are at least three; host metrics are their medians. Only the first
runs the scan probe and the correctness checks. --trace 1 prints the
per-layer metrics: one untraced and one traced repetition, which must
agree on every virtual metric and count, and whose host-time difference
is the tracing overhead.

All progress goes to stderr; the last line of stdout is the result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REP = BUILD / "perfbench_rep"
MIN_REPS = 3
# Wall-clock budget of one run after the build; a run must end within
# 180 seconds.
BUDGET_S = 165.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "core" / "experiment.h").is_file():
        raise BenchError(f"no ptsbench sources under {ROOT / 'src'}")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in (
        cache.read_text()
    ):
        shutil.rmtree(BUILD)  # configured for another checkout
    if not cache.is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench_rep",
         "-j", jobs],
        stdout=sys.stderr, check=True)


def run_rep(args, deadline, traced=False, checks=False):
    cmd = [str(REP), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(int(traced)), "--checks", str(int(checks))]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - start))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(cmd)} exited with {proc.returncode}")
    rep = json.loads(lines[-1])
    rep["wall_s"] = time.monotonic() - start
    for err in rep["errors"]:
        log(f"{args.workload} seed {args.seed}: {err}")
    return rep


def same_outputs(checked, other):
    """Whether two repetitions of one seed agree on every virtual metric
    and count, as a deterministic simulation must. Only `checked` ran the
    scan probe, so it may report metrics `other` lacks."""
    virtual = {k: checked["virtual"].get(k) for k in other["virtual"]}
    return virtual == other["virtual"] and checked["counts"] == other["counts"]


def end_to_end(args, started, deadline, spec):
    reps = []
    while True:
        reps.append(run_rep(args, deadline, checks=not reps))
        # Start another repetition only if it can end in time; the last
        # one's wall time predicts the next.
        next_end = time.monotonic() + reps[-1]["wall_s"]
        if next_end > deadline:
            break
        if len(reps) >= MIN_REPS and next_end - started > args.seconds:
            break
    correct = all(r["correct"] for r in reps)
    if not all(same_outputs(reps[0], r) for r in reps[1:]):
        log("repetitions of one seed disagree on virtual metrics or counts")
        correct = False
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values = dict(reps[0]["virtual"])
    for name in ("setup_s", "host_kops", "peak_rss_mb"):
        values[name] = statistics.median(r["host"][name] for r in reps)
    values["op_ok_ratio"] = 1.0 - failed / attempted
    log(f"{len(reps)} repetitions")
    return correct, attempted, failed, pick(values, spec["end_to_end"])


def per_layer(args, deadline, spec):
    plain = run_rep(args, deadline, checks=True)
    traced = run_rep(args, deadline, traced=True)
    correct = plain["correct"] and traced["correct"]
    if not same_outputs(plain, traced):
        log("traced run differs from the untraced run")
        correct = False
    values = {}
    for section in ("virtual", "counts", "trace_counts", "host"):
        values.update(traced[section])
    for phase, total in (("setup", "setup_s"), ("run", "run.host_s")):
        values[f"{phase}.trace_overhead_s"] = (
            traced["host"][total] - plain["host"][total])
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return correct, attempted, failed, pick(values, spec["per_layer"])


def pick(values, metrics):
    out = {}
    for m in metrics:
        if m["name"] not in values:
            raise BenchError(f"no value for metric {m['name']}")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload}")
        build()
        started = time.monotonic()
        deadline = started + BUDGET_S
        if args.trace:
            result = per_layer(args, deadline, spec)
        else:
            result = end_to_end(args, started, deadline, spec)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        log(f"error: {e}")
        return 1
    correct, attempted, failed, metrics = result
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
