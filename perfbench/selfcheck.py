"""Self-check of the benchmark at tiny sizes; takes about a minute.

    python3 perfbench/selfcheck.py

Runs every workload through run.py with --size tiny, once untraced and once
traced, so that every operation, every output check and the tracer run.  It
fails unless each run is correct with no failed operation, prints exactly
the metric names that BENCHMARK.json lists (end_to_end untraced, per_layer
traced), and, traced, reads above 0 on every layer the workload exercises.  The file name keeps pytest from collecting it.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# per-layer metrics that must read above 0 in a workload's traced run: a layer
# the workload exercises, so a renamed or bypassed function shows as a failure
EVERY = ("thermo.critical_exponent_s", "thermo.rpf_solve_s", "thermo.constants_s",
         "congruence.group_build_s", "process.minor_faults")
OWN = {
    "decay": EVERY + ("thermo.cylinder_data_s", "congruence.apply_s", "congruence.apply_calls",
                      "congruence.fiber_updates", "congruence.operator_build_s",
                      "congruence.cf_lip_s", "decay.decay_small_b_self_s",
                      "decay.random_new_vector_s"),
    "expansion": EVERY + ("congruence.index_of_calls", "expander.detect_expansion_s",
                          "expander.generates_full_s", "expander.generates_full_calls",
                          "expander.closure_elements", "expander.cayley_gap_s",
                          "expander.cayley_gap_calls", "expander.return_set_s"),
    "flatten": EVERY + ("congruence.index_of_calls", "congruence.convolve_fn_s",
                        "congruence.convolve_fn_calls", "congruence.decomposition_s",
                        "expander.conv_opnorm_dense_s", "expander.conv_opnorm_dense_calls",
                        "expander.conv_opnorm_iter_s", "expander.conv_opnorm_iter_calls",
                        "expander.flattening_self_s", "expander.generates_full_calls",
                        "expander.cayley_gap_calls", "expander.build_measures_calls"),
    "approx": EVERY + ("congruence.cf_lip_s", "congruence.convolve_fn_calls",
                       "expander.build_measures_s", "expander.build_measures_calls",
                       "expander.walk_leaves", "expander.transfer_apply_at_s",
                       "expander.approx_check_self_s", "symbolic.birkhoff_s",
                       "symbolic.birkhoff_calls"),
}
# whole-run figures that may read 0 or below
UNOWNED = {"trace.unattributed_s", "trace.overhead_s"}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    owned = set().union(*OWN.values())
    if owned | UNOWNED != expected[1]:
        problems.append(f"per-layer metrics no workload must move: {sorted(expected[1] - owned - UNOWNED)}, "
                        f"named here but not listed: {sorted(owned - expected[1])}")
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--seed", "3",
                   "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
            label = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            names = set(result["metrics"])
            if names != expected[trace]:
                problems.append(f"{label}: printed but not listed {sorted(names - expected[trace])}, "
                                f"listed but not printed {sorted(expected[trace] - names)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']}, "
                                f"attempted={result['attempted']}, failed={result['failed']}")
            if trace:
                idle = [n for n in OWN[w["name"]] if not result["metrics"].get(n, {}).get("value", 0) > 0]
                if idle:
                    problems.append(f"{label}: layers of this workload that read 0: {idle}")
            print(f"{label}: ok, {len(names)} metrics, {result['attempted']} operations")
    for p in problems:
        print("FAIL " + p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
