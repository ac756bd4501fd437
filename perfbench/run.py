#!/usr/bin/env python3
"""Benchmark of cmclab: three workloads, timed end to end and per module.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload geometry --seed 1 --seconds 20 --trace 0

``--workload`` is ``geometry``, ``extraction`` or ``sweeps``.  Each pass runs
in its own fresh process as a closed loop (one caller, next call after the
previous one returns) through ``cmclab.cli.main``.  Passes repeat until
``--seconds`` of pass time have been measured, and at least twice.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` the passes are traced and it holds the per-layer
metrics instead.  Exits non-zero without a result when the program or a
worker process is missing or fails.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("geometry", "extraction", "sweeps")
MIN_PASSES = 2        # the byte-identity check needs two passes to compare
SETUP_PROBES = 3      # extra set-up-only processes, so set-up has 5 or more samples
RUN_LIMIT_S = 170.0   # the whole run
PASS_DEADLINE_S = 120.0  # no pass starts after this (a pass takes at most ~20 s)
# one BLAS/OpenMP thread: the figures do not depend on how many cores the
# shared machine happens to leave free
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_worker(args, out, pass_id, start, setup_only=False):
    """Run one worker process; return (its result dict, set-up seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
           "--out", out, "--pass-id", str(pass_id)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, **THREAD_ENV)
    env.pop("PYTHONPATH", None)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "worker.log"), "ab") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(1.0, start + RUN_LIMIT_S - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail(f"{args.workload} worker exceeded the {RUN_LIMIT_S:.0f} s run limit")
        finally:  # on timeout, interrupt or SIGTERM the worker must not outlive us
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        fail(f"{args.workload} worker exited {code}; see {os.path.join(out, 'worker.log')}")
    with open(os.path.join(out, f"result-{pass_id}.json")) as fh:
        result = json.load(fh)
    return result, result["ready"] - spawned


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "cmclab", "cli.py")):
        fail(f"no program to measure: {os.path.join(ROOT, 'src', 'cmclab')} is missing")
    work = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    run_dir = os.path.join(work, "run")  # one directory, so reports embed the same paths

    passes, setups, failures = [], [], []
    attempted = 0
    measured = 0.0
    while len(passes) < MIN_PASSES or (
            measured < args.seconds
            and time.monotonic() + passes[-1]["steps"]["pass_s"] < start + PASS_DEADLINE_S):
        pass_id = len(passes) + 1
        result, setup_s = run_worker(args, run_dir, pass_id, start)
        checks = result["checks"]
        if passes:
            checks.append(("report and CSV bytes identical to pass 1",
                           result["digest"] == passes[0]["digest"]))
        attempted += len(checks)
        failures += [f"pass {pass_id}: {name}" for name, ok in checks if not ok]
        passes.append(result)
        setups.append(setup_s)
        measured += result["steps"]["pass_s"]
    if not args.trace:
        for i in range(SETUP_PROBES):
            setups.append(run_worker(args, os.path.join(work, f"setup-{i}"), 0, start,
                                     setup_only=True)[1])

    median = statistics.median
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}, each in a fresh process  (closed loop, one caller)")
    if args.trace:
        metrics = {name: {"value": median(p["per_layer"][name]["value"] for p in passes),
                          "unit": m["unit"]}
                   for name, m in passes[0]["per_layer"].items()}
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name:<56} {m['value']:14.6g} {m['unit']}")
        print(f"  traced pass_s {median(p['steps']['pass_s'] for p in passes):.4f} s; "
              f"spans in {os.path.join(run_dir, 'trace-<pass>.json')}")
    else:
        for step in passes[0]["steps"]:
            if step != "pass_s":
                print(f"  {step:<16} {median(p['steps'][step] for p in passes):12.4f} s    "
                      f"median of {len(passes)} passes")
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "pass_s": {"value": median(p["steps"]["pass_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": median(p["peak_rss_mb"] for p in passes), "unit": "MB"},
        }
        notes = {"setup_s": f"median of {len(setups)} fresh processes",
                 "pass_s": f"median of {len(passes)} passes",
                 "peak_rss_mb": f"median of {len(passes)} pass processes"}
        for name, m in metrics.items():
            print(f"  {name:<16} {m['value']:12.4f} {m['unit']:<4} {notes[name]}")
    print(f"  operations attempted {attempted}  failed {len(failures)}")
    for line in failures:
        print(f"  FAILED {line}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


if __name__ == "__main__":
    main()
