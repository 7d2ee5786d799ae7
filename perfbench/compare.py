"""Summarise one set of benchmark runs, or compare two sets run in alternation.

    python3 perfbench/compare.py RUNS_A [RUNS_B]

A set is a directory of saved standard outputs of run.py, one file per run,
named <workload>-<seed>.txt; the last line of each file is the run's JSON
result.  For every workload and metric this prints the median over the set and
the quartile spread (third minus first quartile, as a share of the median).

Given a second set, runs are paired by file name: the same workload and seed,
run one after the other, alternating which side goes first.  The machine's
speed drifts by tens of percent over tens of minutes, so two medians taken at
different times do not show a change; a pair, run within a minute, does.  Per
metric it prints B's median, the change (median over pairs of B/A, minus 1),
the pair spread (quartile spread of those ratios) and the share of pairs B
wins.  Metrics with a bound in BENCHMARK.json get a verdict:

  unresolved  A's spread or the pair spread exceeds the bound, and not every
              run of B is better than every run of A
  worse       B is worse than A by more than the bound
  better      B wins at least nine tenths of the pairs and the medians differ
              by more than A's quartile distance (or B beats every run of A)
  ok          otherwise

It exits 1 if any metric is worse.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{workload: {seed: result}}: the JSON result of each saved run."""
    runs = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.txt")):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        workload, _, seed = path.stem.partition("-")
        runs[workload][seed] = json.loads(lines[-1])
    return runs


def quartiles(vals):
    if len(vals) < 2:
        return float("nan"), statistics.median(vals), float("nan")
    return tuple(statistics.quantiles(vals, n=4))


def spread(vals):
    q1, q2, q3 = quartiles(vals)
    return (q3 - q1) / q2 if q2 else float("nan")


def paired(a, b, bound, lower):
    """Change, pair spread, share of pairs B wins and verdict for paired values a[i], b[i]."""
    ratios = [y / x for x, y in zip(a, b) if x]
    if not ratios:      # a layer that does not run on this workload reads 0
        return float("nan"), float("nan"), 0.0, ""
    change = statistics.median(ratios) - 1
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b)) / len(a)
    if bound is None:
        return change, spread(ratios), wins, ""
    q1, qa, q3 = quartiles(a)
    if (max(b) < min(a)) if lower else (min(b) > max(a)):
        v = "better"
    elif spread(a) > bound or spread(ratios) > bound:
        v = "unresolved"
    elif (change if lower else -change) > bound:
        v = "worse"
    elif wins >= 0.9 and abs(statistics.median(b) - qa) > q3 - q1:
        v = "better"
    else:
        v = "ok"
    return change, spread(ratios), wins, v


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    info = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    a = load(argv[0])
    b = load(argv[1]) if len(argv) == 2 else {}
    head = f"{'workload':10} {'metric':34} {'n':>3} {'A median':>12} {'A spread':>9}"
    if b:
        head += (f" {'B median':>12} {'B spread':>9} {'change':>8} {'pair spr':>9} {'B wins':>7}"
                 f" {'bound':>6}  verdict")
    print(head)
    worse = False
    for workload in sorted(a):
        seeds = sorted(set(a[workload]) & set(b.get(workload, {}))) if b else sorted(a[workload])
        if not seeds:
            print(f"{workload:10} no runs of this workload in both sets")
            continue
        for name in a[workload][seeds[0]]["metrics"]:
            av = [a[workload][s]["metrics"][name]["value"] for s in seeds]
            row = f"{workload:10} {name:34} {len(av):3d} {statistics.median(av):12.6g} {spread(av):9.4f}"
            if b:
                bv = [b[workload][s]["metrics"][name]["value"] for s in seeds]
                lower = info.get(name, {}).get("better", "lower") == "lower"
                bound = info.get(name, {}).get("bound")
                change, pair_spread, wins, v = paired(av, bv, bound, lower)
                worse = worse or v == "worse"
                row += (f" {statistics.median(bv):12.6g} {spread(bv):9.4f} {change:+8.3f}"
                        f" {pair_spread:9.4f} {wins:7.2f}"
                        f" {'' if bound is None else bound:>6}  {v}")
            print(row)
    for label, runs in (("A", a), ("B", b)):
        for workload, by_seed in sorted(runs.items()):
            nf = sum(r["failed"] for r in by_seed.values())
            na = sum(r["attempted"] for r in by_seed.values())
            print(f"{label} {workload}: {nf} of {na} operations failed")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
