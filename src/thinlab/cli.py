"""Command-line orchestration: config ingestion, experiment sweeps, artifacts.

Artifacts are CSV for curves and JSON for reports, written to the output
directory as <command>-<timestamp>.<ext>; bodies contain no timestamps, so
identical configs and seeds reproduce them byte for byte.  Floats print with
17 significant digits.

Every eigenvalue a subcommand prints comes from a dense LAPACK solve (the
pressure root delta, the RPF data and gap, the twisted radius, convolution
norms and Cayley gaps), and each is residual-checked; a failed check or an
unconverged solve exits with EXIT_NUMERICAL.
"""

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import congruence, decay, expander, thermo
from .errors import ConfigParse, NoConvergence, NotGenerating, ThinlabError
from .schottky import SchottkyData, build_markov_model, validate_schottky

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
CONFIG_KEYS = ("generators", "theta", "degree", "depth", "q", "p", "l", "seed", "out_dir")


def fmt(x):
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    theta: float = None
    degree: int = 16
    depth: int = 8
    q_list: list = field(default_factory=list)
    p: int = None
    l: int = None
    seed: int = 7
    out_dir: str = "thinlab-out"

    def validate(self):
        for name in ("degree", "depth", "seed", "p", "l"):
            v = getattr(self, name)
            if v is None and name in ("p", "l"):
                continue  # detected or derived when absent
            if isinstance(v, bool) or not isinstance(v, int):
                raise ConfigParse(f"{name} must be an integer, got {v!r}")
            if v < 1 and name != "seed":
                raise ConfigParse(f"{name} must be >= 1, got {v}")
        if self.theta is not None and not (type(self.theta) in (int, float) and 0 < self.theta < 1):
            raise ConfigParse(f"theta must be a number in (0, 1), got {self.theta!r}")
        if len(self.q_list) != len(set(self.q_list)):
            raise ConfigParse("q entries must be pairwise distinct")
        for q in self.q_list:
            if q != 1 and any(e > 1 for _, e in congruence.factorize(q)):
                raise ConfigParse(f"NotSquareFree: q = {q}")


def _is_int_matrix(m):
    return isinstance(m, list) and len(m) == 2 and all(
        isinstance(row, list) and len(row) == 2 and all(type(e) is int for e in row) for row in m)


def load_config(path, args):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigParse(f"config {path} must hold a JSON object")
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigParse(f"unknown config keys {unknown}; known keys are {list(CONFIG_KEYS)}")
    gens = doc.get("generators")
    if not (isinstance(gens, list) and all(_is_int_matrix(g) for g in gens)):
        raise ConfigParse(f"generators must be a list of integer matrices [[a, b], [c, d]], got {gens!r}")
    cfg = RunConfig()
    for key in ("theta", "degree", "depth", "p", "l", "seed", "out_dir"):
        if key in doc:
            setattr(cfg, key, doc[key])
    if not (isinstance(cfg.out_dir, str) and cfg.out_dir):
        raise ConfigParse(f"out_dir must be a non-empty path string, got {cfg.out_dir!r}")
    if "q" in doc:
        qs = doc["q"]
        if not isinstance(qs, list) or any(isinstance(q, bool) or not isinstance(q, int) for q in qs):
            raise ConfigParse(f"q must be a list of integers, got {qs!r}")
        cfg.q_list = qs
    for key in ("degree", "depth", "seed", "p", "l"):
        v = getattr(args, key, None)
        if v is not None:
            setattr(cfg, key, v)
    if getattr(args, "q", None):
        cfg.q_list = [int(s) for s in args.q.split(",")]
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    return cfg, doc


def finite_float(text):
    """The value of a float flag (--a, --b, each entry of twist's --b); inf and
    nan, like non-numbers, are argument errors, which exit with EXIT_VALIDATION."""
    if not abs(v := float(text)) < float("inf"):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return v


def finite_floats(text):
    return [finite_float(t) for t in text.split(",")]


def write_artifact(out_dir, command, ext, body):
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    path = os.path.join(out_dir, f"{command}-{stamp}.{ext}")
    # never clobber an artifact written in the same second
    k = 0
    while os.path.exists(path):
        k += 1
        path = os.path.join(out_dir, f"{command}-{stamp}-{k}.{ext}")
    with open(path, "w") as fh:
        fh.write(body)
    return path


def csv_body(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def n_workers():
    env = os.environ.get("THINLAB_THREADS")
    return max(1, int(env)) if env else min(4, os.cpu_count() or 1)


def _pmap(fn, items):
    if len(items) <= 1 or n_workers() == 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n_workers()) as pool:
        return list(pool.map(fn, items))


# ---- subcommands: each returns (printed text, [(command, ext, body), ...]) ----

def _level(cfg, model, qs):
    """The return level p: --p, else the smallest that generates mod every q."""
    return cfg.p if cfg.p is not None else expander.detect_expansion(model, qs)["p"]


def cmd_delta(cfg, model, args):
    # the pressure root at twice the degree shows how far delta is from converged;
    # its grid comes first, so a degree past the grid cap is refused before any solve
    fine_grid = thermo.CollocationGrid(model, 2 * cfg.degree)
    lab = thermo.ThermoLab(model, degree=cfg.degree, theta=cfg.theta)
    sol = lab.rpf(0.0)
    fine = thermo.critical_exponent(model, fine_grid)
    payload = {"delta": lab.delta, "gap": sol.gap, "degree": cfg.degree, "residual": sol.residual,
               "discretization": abs(lab.delta - fine)}
    body = json.dumps(payload, indent=2)
    return body, [("delta", "json", body)]


def cmd_rpf(cfg, model, args):
    lab = thermo.ThermoLab(model, degree=cfg.degree, theta=cfg.theta)
    sol = lab.rpf(args.a)
    summary = json.dumps({"a": fmt(args.a), "lambda": fmt(sol.lam), "gap": fmt(sol.gap)}, indent=2)
    rows = []
    for j in range(model.N):
        for i in range(lab.grid.m):
            rows.append([j + 1, i, fmt(lab.grid.nodes[j][i]), fmt(sol.h[j, i]), fmt(sol.nu[j, i])])
    return summary, [("rpf", "csv", csv_body(["symbol", "node", "x", "h", "nu"], rows))]


def cmd_cayley(cfg, model, args):
    qs = cfg.q_list or [5, 7, 11, 13]
    S = expander.build_return_set(model, 0, 0, _level(cfg, model, qs))

    def one(q):
        group = congruence.GroupModQ.build(q)
        lam1, lam2, eps = expander.cayley_gap(S, group)
        return [q, fmt(lam1), fmt(lam2), fmt(eps)]

    body = csv_body(["q", "degree", "lambda2", "epsilon"], _pmap(one, qs))
    return body, [("cayley", "csv", body)]


def cmd_flatten(cfg, model, args):
    if len(cfg.q_list) > 1:
        raise ConfigParse(f"flatten runs one modulus, got q = {cfg.q_list}")
    q = (cfg.q_list or [15])[0]
    lab = thermo.ThermoLab(model, degree=cfg.degree, theta=cfg.theta)
    p = _level(cfg, model, [q])
    l = cfg.l if cfg.l is not None else p + 1
    if args.r % l != 0 or args.r // l < 2:
        raise ConfigParse(f"r = {args.r} must be a multiple >= 2 of l = {l}")
    group = congruence.GroupModQ.build(q)
    report = expander.flattening_pipeline(lab, group, _base_point(model), args.r // l, l, p,
                                          xi=1j * args.b, seed=cfg.seed)
    body = json.dumps(report.to_json_dict(), indent=2)
    artifacts = [("flatten", "json", body)]
    if len(congruence.factorize(q)) <= 3:
        dec = congruence.NewSpaceDecomposition(group)
        artifacts.append(("decomposition", "csv", congruence.decomposition_table_csv(dec, seed=cfg.seed)))
    return body, artifacts


def cmd_decay(cfg, model, args):
    lab = thermo.ThermoLab(model, degree=cfg.degree, theta=cfg.theta)
    consts = lab.constants()
    qs = cfg.q_list or [5, 7, 11]
    p = _level(cfg, model, qs)
    l = cfg.l if cfg.l is not None else p + 1
    S = expander.build_return_set(model, 0, 0, p)

    def one(q):
        group = congruence.GroupModQ.build(q)
        if not expander.generates_full(S, group)[0]:
            raise NotGenerating(f"modulus {q} lacks a generating return set")
        sched = decay.make_schedule(q, consts, l=l)
        return decay.decay_small_b(lab, group, sched, complex(args.a, args.b), cfg.seed, depth=cfg.depth)

    rows = []
    rows_u = []
    for curve in _pmap(one, qs):
        for j, nrm, nrm_u, bound in zip(curve.js, curve.norms, curve.norms_uniform, curve.bounds):
            rows.append([curve.q, j, fmt(nrm), fmt(bound)])
            rows_u.append([curve.q, j, fmt(nrm_u), fmt(bound)])
    body = csv_body(["q", "j", "norm", "bound"], rows)
    return body, [("decay", "csv", body), ("decay-uniform", "csv", csv_body(["q", "j", "norm", "bound"], rows_u))]


def cmd_twist(cfg, model, args):
    lab = thermo.ThermoLab(model, degree=cfg.degree, theta=cfg.theta)

    def one(b):
        return [fmt(b), fmt(decay.twisted_radius(lab, b))]

    body = csv_body(["b", "radius"], _pmap(one, args.b))
    return body, [("twist", "csv", body)]


def cmd_report(cfg, model, args):
    out = cfg.out_dir
    if not os.path.isdir(out):
        raise ConfigParse(f"no artifact directory {out}")
    merged = {"artifacts": [], "uniformity": {}}
    eps_by_q = {}
    decay_pass = {}
    for name in sorted(os.listdir(out)):
        path = os.path.join(out, name)
        merged["artifacts"].append(name)
        if name.startswith("cayley") and name.endswith(".csv"):
            with open(path) as fh:
                for row in csv.DictReader(fh):
                    eps_by_q[int(row["q"])] = float(row["epsilon"])
        if name.startswith("decay-") and name.endswith(".csv") and "uniform" not in name:
            with open(path) as fh:
                for row in csv.DictReader(fh):
                    q = int(row["q"])
                    ok = float(row["norm"]) <= float(row["bound"]) * (1 + 1e-12)
                    decay_pass[q] = decay_pass.get(q, True) and ok
    if eps_by_q:
        merged["uniformity"]["epsilon_by_q"] = {str(q): fmt(e) for q, e in sorted(eps_by_q.items())}
        merged["uniformity"]["epsilon_min"] = fmt(min(eps_by_q.values()))
    if decay_pass:
        merged["uniformity"]["decay_below_bound"] = {str(q): bool(v) for q, v in sorted(decay_pass.items())}
    body = json.dumps(merged, indent=2)
    return body, [("report", "json", body)]


def _base_point(model):
    from .symbolic import SymbolicPoint, omega_tail
    tail = omega_tail(model.T, 0)
    return SymbolicPoint((0,), tail.period)


def build_parser():
    ap = argparse.ArgumentParser(prog="thinlab", description="congruence transfer-operator laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    # flags shared by several subcommands; each overrides its config key
    shared = {"out": dict(help="artifact directory"),
              "degree": dict(type=int), "depth": dict(type=int), "seed": dict(type=int),
              "p": dict(type=int), "l": dict(type=int),
              "q": dict(help="comma-separated square-free moduli")}

    def command(name, run, *flags):
        """A subcommand running `run`, with --config and the shared flags `run` reads."""
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        p.add_argument("--config", required=True, help="group JSON file")
        for flag in flags:
            p.add_argument("--" + flag, **shared[flag])
        return p

    command("validate", None)
    command("delta", cmd_delta, "out", "degree")
    command("rpf", cmd_rpf, "out", "degree").add_argument("--a", type=finite_float, default=0.0)
    command("cayley", cmd_cayley, "out", "p", "q")
    p_fl = command("flatten", cmd_flatten, "out", "degree", "seed", "p", "l", "q")
    p_fl.add_argument("--r", type=int, required=True)
    p_fl.add_argument("--b", type=finite_float, default=0.3)
    p_dec = command("decay", cmd_decay, "out", "degree", "depth", "seed", "p", "l", "q")
    p_dec.add_argument("--a", type=finite_float, default=0.0)
    p_dec.add_argument("--b", type=finite_float, default=0.0)
    command("twist", cmd_twist, "out", "degree").add_argument("--b", type=finite_floats, default="5,20,80",
                                                              help="comma-separated twist frequencies")
    p_rep = sub.add_parser("report")
    p_rep.set_defaults(run=cmd_report)
    p_rep.add_argument("--out", default="thinlab-out")
    return ap


def main(argv=None):
    """Run one subcommand: print its text, then write its artifacts in order.  A
    refusal or failure raised by the subcommand writes nothing."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cfg, model = RunConfig(out_dir=args.out), None
        else:
            cfg, doc = load_config(args.config, args)
            cfg.validate()
            data = SchottkyData.from_json_dict(doc)
            if args.command == "validate":
                report = validate_schottky(data)
                print(json.dumps({"ok": report.ok, "checks": report.checks,
                                  "violations": [str(v) for v in report.violations]}, indent=2))
                return EXIT_OK if report.ok else EXIT_VALIDATION
            # raises the first violation of validate_schottky, as `thinlab validate` lists them
            model = build_markov_model(data)
        text, artifacts = args.run(cfg, model, args)
        print(text.rstrip("\n"))  # CSV bodies end in a newline, JSON bodies do not
        for command, ext, body in artifacts:
            write_artifact(cfg.out_dir, command, ext, body)
        return EXIT_OK
    except NoConvergence as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ThinlabError, ValueError) as exc:
        name = type(exc).__name__
        print(f"{name}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
