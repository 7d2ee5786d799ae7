"""Benchmark of thinlab on the example group: four workloads, timed end to end.

    python3 perfbench/run.py --workload decay --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; thinlab need not be installed, `src/` is put
on the import path.  Each round is a fresh process (worker.py) that sets up,
runs the workload's operations once and reports; rounds repeat until
`--seconds` would be exceeded, and every run makes at least MIN_ROUNDS.  The
first round also checks the outputs.  All rounds of a run use the same seed,
so their outputs must agree.

--trace 0 prints the end-to-end metrics (medians over rounds).  --trace 1
alternates untraced and traced rounds and prints the per-layer metrics of the
traced ones (medians), the minor page faults of the untraced ones, the time
left unattributed and the tracing overhead (median over traced rounds of the
difference to the untraced round before each).
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decay", "expansion", "flatten", "approx")
MIN_ROUNDS = {"full": 3, "tiny": 1}
ROUND_TIMEOUT_S = 170

# one thinlab worker thread and one BLAS thread: the round process stays
# within nproc = 2 threads, and BLAS reductions keep a fixed order
THREAD_ENV = {"THINLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def environment():
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "commit": _commit(), "threads": THREAD_ENV}


def one_round(workload, seed, size, traced, check):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--size", size, "--traced", str(int(traced)), "--check", str(int(check))]
    env = dict(os.environ, **THREAD_ENV)
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=ROUND_TIMEOUT_S)
    lifetime = time.monotonic() - start
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"round of {workload} exited with code {proc.returncode}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["setup_end"] - start
    rec["traced"] = traced
    rec["round_s"] = lifetime - rec.get("check_s", 0.0)
    return rec


def run_rounds(workload, seed, seconds, size, trace):
    """Rounds until the next one would end after `seconds`; traced runs alternate."""
    min_rounds = 2 * MIN_ROUNDS[size] if trace else MIN_ROUNDS[size]
    start = time.monotonic()
    records = []
    while True:
        traced = bool(trace) and len(records) % 2 == 1
        records.append(one_round(workload, seed, size, traced, check=not records))
        elapsed = time.monotonic() - start
        if len(records) >= min_rounds and elapsed + records[-1]["round_s"] > seconds:
            return records


def same_outputs(records):
    """Whether every round's outputs match the first round's to a relative 1e-12.

    Bitwise equality is not asked: thinlab's results can differ in the last
    digits between processes with the same seed (cayley_gap at q = 15, seed 106).
    """
    first = records[0]["numbers"]
    return all(len(r["numbers"]) == len(first)
               and all(math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)
                       for a, b in zip(r["numbers"], first))
               for r in records[1:])


def end_to_end(records):
    plain = [r for r in records if not r["traced"]]
    return {
        "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
        "setup_s": {"value": statistics.median(r["setup_s"] for r in records), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
    }


def per_layer(records):
    import tracer
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    out = {}
    for name in tracer.METRICS:
        unit = "s" if name.endswith("_s") else "count"
        out[name] = {"value": statistics.median(r["layers"][name] for r in traced), "unit": unit}
    out["process.minor_faults"] = {"value": statistics.median(r["minor_faults"] for r in plain),
                                   "unit": "count"}
    out["trace.unattributed_s"] = {"value": statistics.median(r["unattributed_s"] for r in traced),
                                   "unit": "s"}
    # each traced round against the untraced round just before it, so that
    # the machine's slow drift cancels
    diffs = [t["wall_s"] - p["wall_s"] for p, t in zip(records[::2], records[1::2])]
    out["trace.overhead_s"] = {"value": statistics.median(diffs), "unit": "s"}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-check's sizes")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "thinlab" / "__init__.py").is_file():
        print(f"no thinlab sources under {ROOT / 'src'}; run from a thinlab checkout",
              file=sys.stderr)
        return 2

    try:
        records = run_rounds(args.workload, args.seed, args.seconds, args.size, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    checks = records[0]["checks"]
    same = same_outputs(records)
    for c in checks:
        print(f"# check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    for i, r in enumerate(records):
        print(f"# round {i}: traced {int(r['traced'])}, wall_s {r['wall_s']:.4f}, "
              f"setup_s {r['setup_s']:.4f}, peak_rss_mb {r['peak_rss_mb']:.1f}, "
              f"minor_faults {r['minor_faults']}")
    print(f"# rounds {len(records)}, traced {sum(r['traced'] for r in records)}, "
          f"same outputs {same}")
    print("# env " + json.dumps(environment()))
    correct = all(c["ok"] for c in checks) and same
    metrics = per_layer(records) if args.trace else end_to_end(records)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
