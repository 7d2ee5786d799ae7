"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 3-9 produce their numbers through body functions that serialize to
CSV; criterion 10 re-runs every body with the same seeds and requires the
bytes to match.  Stated runtime budgets are asserted.
"""

import io
import csv
import time

import numpy as np
import pytest

from thinlab import (
    CongruenceFunction,
    ThermoLab,
    approx_transfer_check,
    build_return_set,
    cayley_gap,
    decay_small_b,
    flattening_pipeline,
    generates_full,
    make_schedule,
    twisted_radius,
)
from thinlab import congruence as cg
from thinlab import expander as ex
from thinlab import symbolic as sym
from thinlab.congruence import cf_l2_norm, cf_lip_norm

from oracles import refinement_dimension

SEED = 7


def fmt(x):
    return format(float(x), ".17g")


def csv_body(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def report(n, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"[ACCEPTANCE] criterion {n}: {status} ({detail}; {elapsed:.1f}s / budget {budget}s)")


@pytest.fixture(scope="module")
def acc(model, lab, consts, groups, expansion):
    return {
        "model": model,
        "lab": lab,
        "consts": consts,
        "groups": groups,
        "expansion": expansion,
        "bodies": {},
        "gaps": {},
    }


def _block_gaps(acc, q):
    """Cayley gaps for all block endpoint pairs at the detected level (cached)."""
    if q not in acc["gaps"]:
        model = acc["model"]
        p = acc["expansion"]["p"]
        group = acc["groups"](q)
        gaps = {}
        for y in range(model.N):
            for z in range(model.N):
                S = build_return_set(model, y, z, p)
                gaps[(y, z)] = cayley_gap(S, group)
        acc["gaps"][q] = gaps
    return acc["gaps"][q]


# ---- criterion 1 ----

def test_criterion_1_rpf_normalization(model):
    t0 = time.time()
    fresh = ThermoLab(model, degree=16)
    sol = fresh.rpf(0.0)
    nu_h = float(np.sum(sol.nu * sol.h))
    passed = abs(sol.lam - 1.0) <= 1e-10 and abs(nu_h - 1.0) <= 1e-12
    elapsed = time.time() - t0
    report(1, passed, f"|lam0-1|={abs(sol.lam-1):.2e}, |nu(h)-1|={abs(nu_h-1):.2e}", elapsed, 5)
    assert passed and elapsed < 5


# ---- criterion 2 ----

def test_criterion_2_critical_exponent(model, lab):
    t0 = time.time()
    oracle = refinement_dimension(model, depth=7)
    lab32 = ThermoLab(model, degree=32)
    err_oracle = abs(lab.delta - oracle)
    err_degree = abs(lab32.delta - lab.delta)
    passed = err_oracle <= 1e-4 and err_degree <= 1e-8
    elapsed = time.time() - t0
    report(2, passed, f"delta={lab.delta:.8f}, |delta-oracle|={err_oracle:.2e}, "
                      f"|m16-m32|={err_degree:.2e}", elapsed, 30)
    assert passed and elapsed < 30


# ---- criterion 3 ----

def _criterion3_body(acc):
    model, lab = acc["model"], acc["lab"]
    g15 = acc["groups"](15)
    dec = cg.NewSpaceDecomposition(g15)
    xi = 0.02 + 0.4j
    depth = 4
    rng = np.random.default_rng(SEED)
    rows = []
    worst = {"orth": 0.0, "spade": 0.0, "comm": 0.0, "equiv": 0.0}
    # projector orthogonality on 50 random vectors
    for _ in range(50):
        phi = rng.standard_normal(g15.order) + 1j * rng.standard_normal(g15.order)
        for d1, d2 in ((3, 5), (3, 15), (5, 15)):
            val = abs(np.vdot(dec.project_new(d1, phi), dec.project_new(d2, phi)))
            worst["orth"] = max(worst["orth"], val / np.linalg.norm(phi) ** 2)
    op = cg.CongruenceOperator(lab, g15, xi.imag, depth, a=xi.real)
    op_down = {d: cg.CongruenceOperator(lab, dec.subgroups[d], xi.imag, depth, a=xi.real) for d in (3, 5)}
    for t in range(20):
        H = CongruenceFunction.random(model, g15, depth, rng)
        H.values -= H.values.mean(axis=1, keepdims=True)
        MH = op.apply(H.values)
        scale = np.abs(H.values).max()
        for d in (3, 5, 15):
            He = CongruenceFunction(depth, H.words, dec.project_new(d, H.values))
            MHe = op.apply(He.values)
            comm = np.abs(dec.project_new(d, MH) - MHe).max() / scale
            worst["comm"] = max(worst["comm"], comm)
            if d < 15:
                down = dec.proj_down(d, MHe)
                equiv = np.abs(down - op_down[d].apply(dec.proj_down(d, He.values))).max() / scale
                worst["equiv"] = max(worst["equiv"], equiv)
            # norm scaling through the projection
            _, masses = lab.cylinder_masses(depth)
            Hd2 = CongruenceFunction(depth, H.words, dec.proj_down(d, He.values))
            n_up = cf_l2_norm(He, masses)
            n_dn = cf_l2_norm(Hd2, masses)
            if n_up > 0:
                spade_resid = abs(n_up - np.sqrt(dec.spade(d)) * n_dn) / n_up
                worst["spade"] = max(worst["spade"], spade_resid)
            rows.append([t, d, fmt(comm), fmt(spade_resid)])
    body = csv_body(["trial", "divisor", "commutation", "spade_residual"], rows)
    passed = (worst["orth"] <= 1e-10 and worst["spade"] <= 1e-9
              and worst["comm"] <= 1e-9 and worst["equiv"] <= 1e-9)
    detail = (f"orth={worst['orth']:.1e}, spade={worst['spade']:.1e}, "
              f"comm={worst['comm']:.1e}, equiv={worst['equiv']:.1e}")
    return passed, detail, body


def test_criterion_3_decomposition_identities(acc):
    t0 = time.time()
    passed, detail, body = _criterion3_body(acc)
    acc["bodies"][3] = body
    elapsed = time.time() - t0
    report(3, passed, detail, elapsed, 60)
    assert passed and elapsed < 60


# ---- criterion 4 ----

def _criterion4_body(acc):
    model, lab, consts = acc["model"], acc["lab"], acc["consts"]
    C = consts.mu_hat_nu_C()
    rng = np.random.default_rng(SEED)
    rows = []
    ok = True
    for q in (5, 7):
        group = acc["groups"](q)
        for t in range(10):
            r = int(rng.integers(3, 6))
            s = r + int(rng.integers(2, 4))
            x = sym.lip_quotient_pairs(model, rng, depths=[0], samples_per_depth=1)[0][1]
            tails = sym.all_words(model.T, s - r)
            tail = tails[int(rng.integers(len(tails)))]
            meas = ex.build_measures(lab, group, x, r, s, tail, 0.02 + 0.4j)
            mu, nu0, mu_hat, nu = meas["mu"], meas["nu0"], meas["mu_hat"], meas["nu"]
            abs_ok = float((np.abs(mu.weights) - mu_hat.weights).max())
            mask = mu_hat.weights > 0
            ratios = mu_hat.weights[mask] / nu.weights[mask]
            hi, lo = float(ratios.max()), float(ratios.min())
            mass = nu0.l1()
            ok = ok and abs_ok <= 1e-12 and hi <= C and 1.0 / lo <= C and mass <= consts.C_f
            rows.append([q, t, r, s, fmt(hi), fmt(lo), fmt(mass)])
    body = csv_body(["q", "trial", "r", "s", "ratio_hi", "ratio_lo", "nu0_mass"], rows)
    return ok, f"C={C:.3f}, C_f={consts.C_f:.4f}", body


def test_criterion_4_measure_lemmas(acc):
    t0 = time.time()
    passed, detail, body = _criterion4_body(acc)
    acc["bodies"][4] = body
    elapsed = time.time() - t0
    report(4, passed, detail, elapsed, 60)
    assert passed and elapsed < 60


# ---- criterion 5 ----

def _criterion5_body(acc):
    model, lab, consts = acc["model"], acc["lab"], acc["consts"]
    group = acc["groups"](5)
    theta = consts.theta
    rows = []
    ok = True
    sums = {2: 0.0, 3: 0.0, 4: 0.0}
    n_inputs = 20
    for seed in range(n_inputs):
        H = CongruenceFunction.random_dtheta_lipschitz(model, group, 6,
                                                       np.random.default_rng(SEED + seed), theta)
        for sr in (2, 3, 4):
            rep = approx_transfer_check(lab, group, H, 0.3j, 6 - sr, 6)
            ok = ok and rep["ratio"] <= 1.0
            sums[sr] += rep["sup"]
            rows.append([seed, sr, fmt(rep["sup"]), fmt(rep["bound"]), fmt(rep["ratio"])])
    curve = [sums[sr] / n_inputs for sr in (2, 3, 4)]
    slope = float(np.exp(np.polyfit([2, 3, 4], np.log(curve), 1)[0]))
    ok = ok and theta / 2 <= slope <= 2 * theta
    rows.append(["slope", "", fmt(slope), fmt(theta / 2), fmt(2 * theta)])
    body = csv_body(["seed", "s_minus_r", "sup", "bound", "ratio"], rows)
    return ok, f"slope={slope:.4f} in [{theta/2:.4f}, {2*theta:.4f}]", body


def test_criterion_5_approximation_bound(acc):
    t0 = time.time()
    passed, detail, body = _criterion5_body(acc)
    acc["bodies"][5] = body
    elapsed = time.time() - t0
    report(5, passed, detail, elapsed, 120)
    assert passed and elapsed < 120


# ---- criterion 6 ----

def _criterion6_body(acc):
    model = acc["model"]
    det = acc["expansion"]
    p = det["p"]
    S = build_return_set(model, 0, 0, p)
    rows = []
    eps_seen = []
    ok = True
    for q in (5, 7, 11, 13, 15, 35):
        if any(pr in det["q0_primes"] for pr, _ in cg.factorize(q)):
            rows.append([q, "excluded_q0", "", ""])
            continue
        group = acc["groups"](q)
        gen_ok, cert = generates_full(S, group)
        ok = ok and gen_ok
        lam1, lam2, eps = cayley_gap(S, group)
        ok = ok and lam1 == len(ex.reduced_generator_indices(S, group)) and eps > 0
        eps_seen.append(eps)
        rows.append([q, fmt(lam1), fmt(lam2), fmt(eps)])
    eps_min = min(eps_seen)
    ok = ok and eps_min > 0
    body = csv_body(["q", "degree", "lambda2", "epsilon"], rows)
    return ok, f"p={p}, q0_primes={det['q0_primes']}, min eps={eps_min:.4f}", body


def test_criterion_6_expansion(acc):
    t0 = time.time()
    passed, detail, body = _criterion6_body(acc)
    acc["bodies"][6] = body
    elapsed = time.time() - t0
    report(6, passed, detail, elapsed, 120)
    assert passed and elapsed < 120


# ---- criterion 7 ----

def _criterion7_body(acc):
    model, lab = acc["model"], acc["lab"]
    p = acc["expansion"]["p"]
    l = p + 1
    x = sym.point((0,), (1,))
    rows = []
    vals, Ns = [], []
    ok = True
    for q in (5, 7, 11, 13):
        group = acc["groups"](q)
        rep = flattening_pipeline(lab, group, x, r_prime=3, l=l, p=p, xi=0.3j,
                                  gaps=_block_gaps(acc, q), seed=SEED)
        ok = ok and rep.passed()
        svd_used = group.order <= ex.SVD_ORDER
        if q in (5, 7):
            ok = ok and svd_used and rep.entries["new_space_opnorm"]["passed"]
        vals.append(rep.values["flatten_value"])
        Ns.append(q)
        rows.append([q, fmt(rep.values["flatten_value"]), fmt(rep.values["flatten_opnorm"]),
                     fmt(rep.values["new_space_C_eff"]), int(svd_used)])
    slope = float(np.polyfit(np.log(Ns), np.log(vals), 1)[0])
    ok = ok and slope <= -0.2
    rows.append(["slope", fmt(slope), "", "", ""])
    body = csv_body(["q", "flatten_value", "flatten_opnorm", "C_eff", "svd"], rows)
    return ok, f"slope={slope:.3f} (need <= -0.2)", body


def test_criterion_7_flattening_trend(acc):
    t0 = time.time()
    passed, detail, body = _criterion7_body(acc)
    acc["bodies"][7] = body
    elapsed = time.time() - t0
    report(7, passed, detail, elapsed, 300)
    assert passed and elapsed < 300


# ---- criterion 8 ----

def _criterion8_body(acc):
    model, lab, consts = acc["model"], acc["lab"], acc["consts"]
    p = acc["expansion"]["p"]
    l = p + 1
    rows = []
    ok = True
    per_ab = {}
    for a in (0.0, 0.02, -0.02):
        for b in (0.0, 0.5, -0.5):
            factors = []
            for q in (5, 7, 11):
                sched = make_schedule(q, consts, l=l)
                v_ok, _ = sched.validate()
                ok = ok and v_ok
                curve = decay_small_b(lab, acc["groups"](q), sched, complex(a, b),
                                      seed=SEED, depth=5)
                ok = ok and curve.passed
                factors.append(curve.per_step_factor)
                for j, nrm, nrm_u, bound in zip(curve.js, curve.norms, curve.norms_uniform,
                                                curve.bounds):
                    rows.append([q, fmt(a), fmt(b), j, fmt(nrm), fmt(nrm_u), fmt(bound)])
            per_ab[(a, b)] = factors
            ok = ok and max(factors) <= 2.0 * min(factors)
    spread = max(max(f) / min(f) for f in per_ab.values())
    body = csv_body(["q", "a", "b", "j", "norm", "norm_uniform", "bound"], rows)
    return ok, f"worst per-step spread across q = {spread:.3f} (cap 2.0)", body


def test_criterion_8_uniform_decay(acc):
    t0 = time.time()
    passed, detail, body = _criterion8_body(acc)
    acc["bodies"][8] = body
    elapsed = time.time() - t0
    report(8, passed, detail, elapsed, 600)
    assert passed and elapsed < 600


# ---- criterion 9 ----

def _criterion9_body(acc):
    lab = acc["lab"]
    radii = {}
    rows = []
    for b in (5.0, 20.0, 80.0):
        radii[b] = twisted_radius(lab, b)
        rows.append([fmt(b), fmt(radii[b])])
    ok = all(r < 1.0 for r in radii.values())
    ok = ok and radii[20.0] <= 1.05 * radii[5.0] and radii[80.0] <= 1.05 * radii[20.0]
    body = csv_body(["b", "radius"], rows)
    detail = ", ".join(f"b={b:g}: {r:.4f}" for b, r in radii.items())
    return ok, detail, body


def test_criterion_9_twisted_contraction(acc):
    t0 = time.time()
    passed, detail, body = _criterion9_body(acc)
    acc["bodies"][9] = body
    elapsed = time.time() - t0
    report(9, passed, detail, elapsed, 300)
    assert passed and elapsed < 300


# ---- criterion 10 ----

def test_criterion_10_determinism(acc):
    builders = {3: _criterion3_body, 4: _criterion4_body, 5: _criterion5_body,
                6: _criterion6_body, 7: _criterion7_body, 8: _criterion8_body,
                9: _criterion9_body}
    missing = [n for n in builders if n not in acc["bodies"]]
    if missing:
        pytest.skip(f"criteria {missing} were deselected; determinism needs their first run")
    t0 = time.time()
    mismatches = [n for n, build in builders.items() if build(acc)[2] != acc["bodies"][n]]
    passed = not mismatches
    elapsed = time.time() - t0
    report(10, passed, f"byte-identical reruns of criteria 3-9, mismatches={mismatches}",
           elapsed, 1200)
    assert passed
