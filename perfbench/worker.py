"""One round of one workload, in a fresh Python process.

    python3 perfbench/worker.py --workload decay --seed 1 --size full --traced 0 --check 1

Set-up (imports, Markov model, ThermoLab with delta and constants(), group
tables) ends at the monotonic time reported as `setup_end`; the caller
subtracts the time it started the process.  Then the workload's inputs are
built and its operations run under a wall clock, the peak resident memory and
the minor page faults of the timed region are read, and, if asked, the outputs
are checked.  The last line of standard output is one JSON object.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--traced", type=int, default=0)
    ap.add_argument("--check", type=int, default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import thinlab.errors
    import tracer as tracing
    import workloads

    tracer = None
    if args.traced:
        tracer = tracing.Tracer()
        tracer.install(tracing.TARGETS)
    wl = workloads.WORKLOADS[args.workload](args.size)
    ctx = workloads.Context(args.seed)
    wl.setup(ctx)
    setup_end = time.monotonic()

    self_before = tracer.total_self_s() if tracer else 0.0
    faults_before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    outputs = []
    failed = 0
    t0 = time.perf_counter()
    # the seeded inputs are built by thinlab, so building them is timed work
    ops = wl.operations(ctx, wl.inputs(ctx))
    for op in ops:
        try:
            outputs.append(op())
        except thinlab.errors.ThinlabError as exc:
            failed += 1
            outputs.append(None)
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    wall = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rss_mb = usage.ru_maxrss / 1024.0

    result = {"setup_end": setup_end, "wall_s": wall, "peak_rss_mb": rss_mb,
              "minor_faults": usage.ru_minflt - faults_before,
              "attempted": len(ops), "failed": failed, "numbers": workloads.numbers(outputs)}
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer)
        result["unattributed_s"] = wall - (tracer.total_self_s() - self_before)
    if args.check:
        t1 = time.perf_counter()
        result["checks"] = wl.check(ctx, outputs)
        result["check_s"] = time.perf_counter() - t1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
