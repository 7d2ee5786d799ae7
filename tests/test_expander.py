import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg

import thinlab
from thinlab import (
    CongruenceFunction,
    MobiusMap,
    approx_transfer_check,
    build_measures,
    build_return_set,
    cayley_gap,
    flattening_pipeline,
    generates_full,
)
from thinlab import congruence as cg
from thinlab import expander as ex
from thinlab import symbolic as sym
from thinlab.errors import EnumerationTooLarge, ModulusMismatch, NoConvergence, NotGenerating

from oracles import build_measures_fresh, cayley_lambda2_power, min_nontrivial_irrep_dim


def test_return_set_contains_identity(model):
    S = build_return_set(model, 0, 0, 1)
    assert (1, 0, 0, 1) in {m.tuple() for m in S.elements}


def test_return_set_symmetric(model):
    S = build_return_set(model, 0, 1, 2)
    tuples = {m.tuple() for m in S.elements}
    for m in S.elements:
        assert m.inverse().tuple() in tuples
        assert m.a * m.d - m.b * m.c == 1


@pytest.mark.parametrize("p0", [1, 2])
def test_return_set_inclusion_trick(model, p0):
    # S^{p0}(y, z) is contained in S^{p0 + N_T}(y, z)
    N_T = 2
    small = {m.tuple() for m in build_return_set(model, 0, 2, p0).elements}
    big = {m.tuple() for m in build_return_set(model, 0, 2, p0 + N_T).elements}
    assert small <= big


def test_return_set_cap(model):
    with pytest.raises(EnumerationTooLarge):
        build_return_set(model, 0, 0, 6, cap=10)


def test_mod_two_collapses(model, groups):
    # both generators reduce to the same matrix mod 2, so every return product
    # collapses to the identity
    S = build_return_set(model, 0, 0, 2)
    ok, cert = generates_full(S, groups(2))
    assert not ok and cert["closure_size"] == 1


def test_generates_q5(model, groups):
    S = build_return_set(model, 0, 0, 2)
    ok, cert = generates_full(S, groups(5))
    assert ok and cert["closure_size"] == 120


def test_closure_divides_group_order(model, groups):
    for q, p in ((2, 2), (3, 1), (5, 1)):
        S = build_return_set(model, 0, 0, p)
        _, cert = generates_full(S, groups(q))
        assert groups(q).order % cert["closure_size"] == 0


def test_cayley_gap_degree_exact(model, groups, expansion):
    p = expansion["p"]
    S = build_return_set(model, 0, 0, p)
    g5 = groups(5)
    lam1, lam2, eps = cayley_gap(S, g5)
    assert lam1 == len(ex.reduced_generator_indices(S, g5))
    assert eps > 0 and lam2 < lam1


def test_cayley_gap_methods_agree(model, groups, expansion):
    S = build_return_set(model, 0, 0, expansion["p"])
    g5 = groups(5)
    lan = cayley_gap(S, g5)
    gens = ex.reduced_generator_indices(S, g5)
    assert abs(lan[1] - cayley_lambda2_power(g5, gens)) <= 1e-8 * max(1.0, lan[0])
    # dense oracle
    A = np.zeros((g5.order, g5.order))
    inv = g5.inv_perm()
    for i in gens:
        A[np.arange(g5.order), g5.right_mul_perm(int(inv[i]))] += 1
    w = np.sort(np.linalg.eigvalsh(A))
    assert abs(w[-1] - lan[0]) <= 1e-9 * lan[0]
    assert abs(w[-2] - lan[1]) <= 1e-8 * max(1.0, lan[0])


def test_cayley_gap_conjugation_invariant(model, groups, expansion):
    # relabeling the group by an inner automorphism preserves the spectrum
    S = build_return_set(model, 0, 0, expansion["p"])
    g5 = groups(5)
    base = cayley_gap(S, g5)
    h = model.gens[1]
    conj = ex.ReturnSet(0, 0, S.p, tuple(h @ m @ h.inverse() for m in S.elements))
    moved = cayley_gap(conj, g5)
    assert abs(base[0] - moved[0]) <= 1e-10
    assert abs(base[1] - moved[1]) <= 1e-10 * max(1.0, base[0])


def test_cayley_not_generating(model, groups):
    S = build_return_set(model, 0, 0, 2)
    with pytest.raises(NotGenerating):
        cayley_gap(S, groups(2))


def test_measure_lemmas(model, lab, groups, consts):
    rng = np.random.default_rng(12)
    C = consts.mu_hat_nu_C()
    for q in (5, 7):
        g = groups(q)
        for _ in range(3):
            r = int(rng.integers(3, 6))
            s = r + int(rng.integers(2, 4))
            base = sym.lip_quotient_pairs(model, rng, depths=[0], samples_per_depth=1)[0][1]
            tails = sym.all_words(model.T, s - r)
            tail = tails[int(rng.integers(len(tails)))]
            meas = build_measures(lab, g, base, r, s, tail, 0.02 + 0.4j)
            mu, nu0, mu_hat, nu = meas["mu"], meas["nu0"], meas["mu_hat"], meas["nu"]
            assert (np.abs(mu.weights) <= mu_hat.weights + 1e-14).all()
            mask = mu_hat.weights > 0
            ratios = mu_hat.weights[mask] / nu.weights[mask]
            assert ratios.max() <= C and ratios.min() >= 1.0 / C
            assert nu0.l1() <= consts.C_f


def test_build_measures_matches_fresh_walk(model, lab, groups):
    # calls come in pairs of tails on one (group, xi, anchor): the first walks
    # a new head, the second branches the cached one.  From pair to pair the
    # settings run through a Gray code, so each of the group, xi and anchor
    # changes on its own somewhere: a stale head or an aliased branch would show
    anchors = [sym.point((0,), (1,)), sym.SymbolicPoint((1, 0), sym.omega_tail(model.T, 0).period)]
    gray = [(0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1), (1, 0, 0)]
    settings = [((5, 7)[i], (0.3j, 0.02 + 0.4j)[j], anchors[k]) for i, j, k in gray]
    s = 6
    for r in (2, 3, 4):
        tails = sym.all_words(model.T, s - r)
        for pair in zip(tails[::2], tails[1::2]):
            for q, xi, x in settings:
                for tail in pair:
                    got = build_measures(lab, groups(q), x, r, s, tail, xi)
                    want = build_measures_fresh(lab, groups(q), x, r, s, tail, xi)
                    for name in ("mu", "nu0", "mu_hat", "nu"):
                        assert np.array_equal(got[name].weights, want[name]), (q, xi, x, r, tail, name)
                    assert got["n_words"] == want["n_words"]


@pytest.mark.parametrize("q_H, q_group", [(5, 7), (7, 5)])
def test_transfer_checks_reject_other_modulus(model, lab, groups, q_H, q_group):
    H = CongruenceFunction.random(model, groups(q_H), 6, np.random.default_rng(17))
    x = sym.point((0,), (1,))
    with pytest.raises(ModulusMismatch):
        ex.transfer_apply_at(lab, groups(q_group), H, 0.3j, 6, x)
    with pytest.raises(ModulusMismatch):
        approx_transfer_check(lab, groups(q_group), H, 0.3j, 4, 6)


def test_convolution_identities(model, lab, groups):
    g = groups(7)
    rng = np.random.default_rng(13)
    phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    delta_e = np.zeros(g.order)
    delta_e[g.identity] = 1.0
    assert np.abs(g.convolve_fn(delta_e, phi) - phi).max() == 0.0
    for _ in range(5):
        h = int(rng.integers(g.order))
        delta_h = np.zeros(g.order)
        delta_h[h] = 1.0
        out = g.convolve_fn(delta_h, phi)
        assert np.array_equal(np.sort(np.abs(out)), np.sort(np.abs(phi)))


def test_convolution_flat_identity(model, lab, groups):
    # ||nu * uniform||_2 = ||nu||_1 / sqrt(#F) for nonnegative nu
    g = groups(5)
    x = sym.point((0,), (1,))
    meas = build_measures(lab, g, x, 4, 6, (1, 1), 0.0)
    nu = meas["nu"]
    uniform = np.full(g.order, 1.0 / g.order, dtype=complex)
    got = np.linalg.norm(g.convolve_fn(nu.weights.astype(complex), uniform))
    assert abs(got - nu.l1() / np.sqrt(g.order)) <= 1e-12 * nu.l1()


def test_approx_exact_on_locally_constant(model, lab, groups):
    g5 = groups(5)
    rng = np.random.default_rng(14)
    r, s, depth = 4, 6, 6
    low = CongruenceFunction.random(model, g5, min(r, s - r), rng)
    lift = CongruenceFunction.build(model, g5, depth)
    idx = {w: i for i, w in enumerate(map(tuple, low.words.tolist()))}
    for i, w in enumerate(map(tuple, lift.words.tolist())):
        lift.values[i] = low.values[idx[w[: low.depth]]]
    rep = approx_transfer_check(lab, g5, lift, 0.3j, r, s)
    assert rep["sup"] <= 1e-9


def test_approx_ratio_and_slope(model, lab, groups, consts):
    g5 = groups(5)
    theta = consts.theta
    sups = np.zeros(3)
    for seed in range(4):
        H = CongruenceFunction.random_dtheta_lipschitz(model, g5, 6, np.random.default_rng(seed), theta)
        for i, sr in enumerate((2, 3, 4)):
            rep = approx_transfer_check(lab, g5, H, 0.3j, 6 - sr, 6)
            assert rep["ratio"] <= 1.0
            sups[i] += rep["sup"]
    slope = np.exp(np.polyfit([2, 3, 4], np.log(sups / 4), 1)[0])
    assert theta / 2 <= slope <= 2 * theta


def test_nu1_atom_identity(model, lab, groups):
    # expanding nu1 as a single sum over head words reproduces the measure
    # atom by atom: direct expansion computed independently here for p = 1
    from thinlab.expander import _build_nu1
    from thinlab.schottky import IDENTITY

    g5 = groups(5)
    p, l, r_prime = 1, 2, 2
    r = r_prime * l
    x = sym.point((0,), (1,))
    tail = (1, 1)
    pot = lab.potential(0.0)
    nu1, flat_ratio, blocks, n_chains = _build_nu1(lab, g5, x, r_prime, l, p, tail, 0.0)

    direct = np.zeros(g5.order)
    heads = [w for w in sym.all_words(model.T, r) if model.T[w[-1], x.first]
             and model.T[tail[-1], w[0]]]
    for head in heads:
        # head = (alpha_4, alpha_3, alpha_2, alpha_1); with p = 1, l = 2 the
        # blocks split as p_2 = head[0:1], u_2 = head[1:2], p_1 = head[2:3],
        # u_1 = head[3:4]
        # j = 1 coefficient: f_{2l-p}(u_2 + p_1 + u_1, x) over 3 symbols
        w1 = head[1:]
        _, _, f1 = sym.birkhoff(pot, w1, x)
        # j = r' = 2: f_p(p_2, (u_2, omega)) with p_2 = head[0:1], u_2 = head[1:2]
        base = sym.SymbolicPoint(head[1:2], sym.omega_tail(model.T, head[1]).period)
        _, _, f2 = sym.birkhoff(pot, head[0:1], base)
        coc = IDENTITY
        for jsym in (tail[-1],) + head:
            coc = coc @ model.gens[jsym]
        direct[g5.reduce(coc)] += np.exp(f1) * np.exp(f2)
    assert np.abs(nu1 - direct).max() <= 1e-12 * max(1.0, direct.max())


def test_flattening_pipeline_passes(model, lab, groups, expansion):
    g5 = groups(5)
    x = sym.point((0,), (1,))
    rep = flattening_pipeline(lab, g5, x, r_prime=2, l=expansion["p"] + 1, p=expansion["p"], xi=0.3j)
    assert rep.passed(), rep.to_json_dict()
    assert rep.values["eta_bound_deficit"] > 0.0
    assert rep.entries["eta_contraction"]["ratio"] < 1.0


def _random_measure(group, atoms, seed):
    rng = np.random.default_rng(seed)
    weights = np.zeros(group.order, dtype=complex)
    weights[rng.choice(group.order, size=atoms, replace=False)] = rng.random(atoms)
    return weights


def _stalled_eigsh(*args, **kwargs):
    raise scipy.sparse.linalg.ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))


def test_conv_opnorm_iteration_raises_when_unconverged(groups, monkeypatch):
    g13 = groups(13)
    weights = _random_measure(g13, 50, 16)
    mz = cg.mean_zero_projector(g13)
    assert 0.0 < ex.conv_opnorm(g13, weights, mz, svd_cap=0) <= np.abs(weights).sum()
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _stalled_eigsh)
    with pytest.raises(NoConvergence):
        ex.conv_opnorm(g13, weights, mz, svd_cap=0)


def test_conv_opnorm_lanczos_matches_dense(groups):
    g13 = groups(13)
    weights = _random_measure(g13, 50, 16)
    for proj in (cg.mean_zero_projector(g13), cg.new_space_projector(g13)):
        dense = ex.conv_opnorm(g13, weights, proj)
        assert abs(ex.conv_opnorm(g13, weights, proj, svd_cap=0) - dense) <= 1e-10 * dense


def test_cayley_gap_raises_when_lanczos_fails(model, groups, expansion, monkeypatch):
    S = build_return_set(model, 0, 0, expansion["p"])
    eigsh = scipy.sparse.linalg.eigsh

    def shifted_eigsh(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals + 1e-6, vecs

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _stalled_eigsh)
    with pytest.raises(NoConvergence):
        cayley_gap(S, groups(5))
    # converged but wrong Ritz values fail the residual check
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", shifted_eigsh)
    with pytest.raises(NoConvergence):
        cayley_gap(S, groups(5))


def test_cayley_gap_reproducible_across_processes(expansion):
    script = (
        "from thinlab import cayley_gap, build_return_set, GroupModQ\n"
        "from thinlab.schottky import SchottkyData, build_markov_model\n"
        "doc = {'generators': [[[2, 3], [1, 2]], [[6, 35], [1, 6]]]}\n"
        "model = build_markov_model(SchottkyData.from_json_dict(doc))\n"
        f"S = build_return_set(model, 0, 0, {expansion['p']})\n"
        "print(cayley_gap(S, GroupModQ.build(15), seed=106)[1].hex())\n"
    )
    src = str(Path(thinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outs = {subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                           check=True).stdout for _ in range(3)}
    assert len(outs) == 1


def test_min_nontrivial_irrep_dimension(groups):
    # underpins the new-space convolution bound: (p - 1) / 2 for SL2(F_p)
    for q in (5, 7):
        assert min_nontrivial_irrep_dim(groups(q)) == (q - 1) // 2


def test_young_sanity(model, lab, groups):
    g5 = groups(5)
    x = sym.point((0,), (1,))
    meas = build_measures(lab, g5, x, 4, 6, (1, 1), 0.3j)
    rng = np.random.default_rng(15)
    phi = rng.standard_normal(g5.order) + 1j * rng.standard_normal(g5.order)
    phi -= phi.mean()
    nu = meas["nu"]
    lhs = np.linalg.norm(g5.convolve_fn(nu.weights.astype(complex), phi))
    assert lhs <= nu.l1() * np.linalg.norm(phi) * (1 + 1e-12)
