"""One pass of one workload in one fresh process.

Started by ``run.py``; not meant to be run by hand.  It imports cmclab from
the checkout's ``src/``, builds the workload's inputs from the seed, and
records ``ready`` (a CLOCK_MONOTONIC reading, comparable across processes)
as soon as set-up is done.  Unless ``--setup-only`` is given it then runs one
timed pass, checks it against the workload's oracles, hashes the files the
pass wrote, and writes ``result-<pass>.json``.

Each pass gets a fresh process because that is how the CLI is used: one
command per process.  The first pass in a process runs up to 25% slower than
a repeat in the same process (the Wente sweep's ``PolarGrid.gradient``
calls take 7.4 s against 5.4 s), so repeats would time a state users
never see.
"""

import argparse
import json
import os
import resource
import sys
import time


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--pass-id", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import cmclab
    if os.path.dirname(os.path.abspath(cmclab.__file__)) != os.path.join(src, "cmclab"):
        raise SystemExit(f"cmclab imported from {cmclab.__file__}, not from {src}")
    from tracer import Tracer
    from workloads import WORKLOADS

    os.makedirs(args.out, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.out)
    workload.setup()
    ready = time.monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.pass_id, tracer.active = args.pass_id, True
        workload.clear_outputs()
        t0 = time.perf_counter()
        steps = workload.run_pass()
        pass_s = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        try:
            checks = workload.checks()
        except Exception as exc:  # missing or malformed outputs fail the pass's checks
            checks = [(f"oracle checks ran ({type(exc).__name__}: {exc})", False)]
        result.update(
            steps=dict(steps, pass_s=pass_s),
            checks=checks,
            digest=workload.digest(),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer:
            result["per_layer"] = tracer.per_layer(args.pass_id)
            tracer.dump(os.path.join(args.out, f"trace-{args.pass_id}.json"), {"pass_s": pass_s})
    with open(os.path.join(args.out, f"result-{args.pass_id}.json"), "w") as fh:
        json.dump(result, fh, indent=1)


if __name__ == "__main__":
    main()
