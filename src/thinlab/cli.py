"""Command-line orchestration: config ingestion, experiment sweeps, artifacts.

Artifacts are CSV for curves and JSON for reports, written to the output
directory as <command>-<timestamp>.<ext>; bodies contain no timestamps, so
identical configs and seeds reproduce them byte for byte.  Floats print with
17 significant digits.

Every eigenvalue a subcommand prints comes from a dense LAPACK solve (the
pressure root delta, the RPF data and gap, the twisted radius) or from one
Lanczos solve (Cayley gaps, convolution norms above expander.SVD_ORDER).
Eigenpairs are residual-checked; a failed check or an unconverged solve exits
with EXIT_NUMERICAL.
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
from .errors import ConfigParse, NoConvergence, ThinlabError
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
        if self.theta is not None and not (type(self.theta) in (int, float) and 0 < self.theta < 1):
            raise ConfigParse(f"theta must be a number in (0, 1), got {self.theta!r}")
        if self.degree < 1 or self.depth < 1:
            raise ConfigParse(f"degree and depth must be >= 1, got {self.degree} and {self.depth}")
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


def build_model(doc):
    data = SchottkyData.from_json_dict(doc)
    report = validate_schottky(data)
    if not report.ok:
        raise report.violations[0]
    return build_markov_model(data)


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


# ---- subcommands ----

def cmd_validate(cfg, doc):
    data = SchottkyData.from_json_dict(doc)
    report = validate_schottky(data)
    payload = {"ok": report.ok, "checks": report.checks,
               "violations": [str(v) for v in report.violations]}
    print(json.dumps(payload, indent=2))
    if not report.ok:
        return EXIT_VALIDATION
    return EXIT_OK


def cmd_delta(cfg, doc):
    model = build_model(doc)
    lab = thermo.ThermoLab(model, degree=cfg.degree, theta=cfg.theta)
    sol = lab.rpf(0.0)
    residual = abs(sol.lam - 1.0)
    payload = {"delta": lab.delta, "gap": sol.gap, "degree": cfg.degree, "residual": residual}
    body = json.dumps(payload, indent=2)
    print(body)
    write_artifact(cfg.out_dir, "delta", "json", body)
    return EXIT_OK


def cmd_rpf(cfg, doc, a):
    model = build_model(doc)
    lab = thermo.ThermoLab(model, degree=cfg.degree, theta=cfg.theta)
    sol = lab.rpf(a)
    print(json.dumps({"a": fmt(a), "lambda": fmt(sol.lam), "gap": fmt(sol.gap)}, indent=2))
    rows = []
    for j in range(model.N):
        for i in range(lab.grid.m):
            rows.append([j + 1, i, fmt(lab.grid.nodes[j][i]), fmt(sol.h[j, i]), fmt(sol.nu[j, i])])
    body = csv_body(["symbol", "node", "x", "h", "nu"], rows)
    write_artifact(cfg.out_dir, "rpf", "csv", body)
    return EXIT_OK


def cmd_cayley(cfg, doc, p):
    model = build_model(doc)
    qs = cfg.q_list or [5, 7, 11, 13]
    if p is None:
        det = expander.detect_expansion(model, qs)
        p = det["p"]
    S = expander.build_return_set(model, 0, 0, p)

    def one(q):
        group = congruence.GroupModQ.build(q)
        lam1, lam2, eps = expander.cayley_gap(S, group, seed=cfg.seed)
        return [q, fmt(lam1), fmt(lam2), fmt(eps)]

    rows = _pmap(one, qs)
    body = csv_body(["q", "degree", "lambda2", "epsilon"], rows)
    print(body, end="")
    write_artifact(cfg.out_dir, "cayley", "csv", body)
    return EXIT_OK


def cmd_flatten(cfg, doc, q, r, l, b):
    model = build_model(doc)
    lab = thermo.ThermoLab(model, degree=cfg.degree, theta=cfg.theta)
    if cfg.p is None:
        det = expander.detect_expansion(model, [q])
        p = det["p"]
    else:
        p = cfg.p
    l = l if l is not None else p + 1
    if r % l != 0 or r // l < 2:
        raise ConfigParse(f"r = {r} must be a multiple >= 2 of l = {l}")
    group = congruence.GroupModQ.build(q)
    x = _base_point(model)
    report = expander.flattening_pipeline(lab, group, x, r // l, l, p, xi=1j * b, seed=cfg.seed)
    body = json.dumps(report.to_json_dict(), indent=2)
    print(body)
    write_artifact(cfg.out_dir, "flatten", "json", body)
    if len(congruence.factorize(q)) <= 3:
        dec = congruence.NewSpaceDecomposition(group)
        write_artifact(cfg.out_dir, "decomposition", "csv",
                       congruence.decomposition_table_csv(dec, seed=cfg.seed))
    return EXIT_OK


def cmd_decay(cfg, doc, a, b):
    model = build_model(doc)
    lab = thermo.ThermoLab(model, degree=cfg.degree, theta=cfg.theta)
    consts = lab.constants()
    qs = cfg.q_list or [5, 7, 11]
    if cfg.p is None:
        det = expander.detect_expansion(model, qs)
        p = det["p"]
    else:
        p = cfg.p
    l = cfg.l if cfg.l is not None else p + 1
    xi = complex(a, b)

    def one(q):
        group = congruence.GroupModQ.build(q)
        sched = decay.make_schedule(q, consts, l=l)
        return decay.decay_small_b(lab, group, sched, xi, cfg.seed, depth=cfg.depth)

    curves = _pmap(one, qs)
    rows = []
    rows_u = []
    for curve in curves:
        for j, nrm, nrm_u, bound in zip(curve.js, curve.norms, curve.norms_uniform, curve.bounds):
            rows.append([curve.q, j, fmt(nrm), fmt(bound)])
            rows_u.append([curve.q, j, fmt(nrm_u), fmt(bound)])
    body = csv_body(["q", "j", "norm", "bound"], rows)
    print(body, end="")
    write_artifact(cfg.out_dir, "decay", "csv", body)
    write_artifact(cfg.out_dir, "decay-uniform", "csv", csv_body(["q", "j", "norm", "bound"], rows_u))
    return EXIT_OK


def cmd_twist(cfg, doc, bs):
    model = build_model(doc)
    lab = thermo.ThermoLab(model, degree=cfg.degree, theta=cfg.theta)

    def one(b):
        return [fmt(b), fmt(decay.twisted_radius(lab, b))]

    rows = _pmap(one, bs)
    body = csv_body(["b", "radius"], rows)
    print(body, end="")
    write_artifact(cfg.out_dir, "twist", "csv", body)
    return EXIT_OK


def cmd_report(cfg):
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
    print(body)
    write_artifact(out, "report", "json", body)
    return EXIT_OK


def _base_point(model):
    from .symbolic import SymbolicPoint, omega_tail
    tail = omega_tail(model.T, 0)
    return SymbolicPoint((0,), tail.period)


def build_parser():
    ap = argparse.ArgumentParser(prog="thinlab", description="congruence transfer-operator laboratory")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="group JSON file")
        p.add_argument("--out", default=None, help="artifact directory")
        p.add_argument("--degree", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--p", type=int, default=None, dest="p")
        p.add_argument("--l", type=int, default=None, dest="l")
        p.add_argument("--q", default=None, help="comma-separated square-free moduli")

    for name in ("validate", "delta"):
        common(sub.add_parser(name))
    p_rpf = sub.add_parser("rpf")
    common(p_rpf)
    p_rpf.add_argument("--a", type=float, default=0.0)
    p_cay = sub.add_parser("cayley")
    common(p_cay)
    p_fl = sub.add_parser("flatten")
    common(p_fl)
    p_fl.add_argument("--r", type=int, required=True)
    p_fl.add_argument("--b", type=float, default=0.3)
    p_dec = sub.add_parser("decay")
    common(p_dec)
    p_dec.add_argument("--a", type=float, default=0.0)
    p_dec.add_argument("--b", type=float, default=0.0)
    p_tw = sub.add_parser("twist")
    common(p_tw)
    p_tw.add_argument("--b", default="5,20,80", help="comma-separated twist frequencies")
    p_rep = sub.add_parser("report")
    p_rep.add_argument("--out", default="thinlab-out")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            cfg = RunConfig(out_dir=args.out)
            return cmd_report(cfg)
        cfg, doc = load_config(args.config, args)
        cfg.validate()
        if args.command == "validate":
            return cmd_validate(cfg, doc)
        if args.command == "delta":
            return cmd_delta(cfg, doc)
        if args.command == "rpf":
            return cmd_rpf(cfg, doc, args.a)
        if args.command == "cayley":
            return cmd_cayley(cfg, doc, cfg.p)
        if args.command == "flatten":
            if len(cfg.q_list) > 1:
                raise ConfigParse(f"flatten runs one modulus, got q = {cfg.q_list}")
            return cmd_flatten(cfg, doc, (cfg.q_list or [15])[0], args.r, cfg.l, args.b)
        if args.command == "decay":
            return cmd_decay(cfg, doc, args.a, args.b)
        if args.command == "twist":
            bs = [float(s) for s in str(args.b).split(",")]
            return cmd_twist(cfg, doc, bs)
        raise ConfigParse(f"unknown command {args.command}")
    except NoConvergence as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ThinlabError, ValueError) as exc:
        name = type(exc).__name__
        print(f"{name}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
