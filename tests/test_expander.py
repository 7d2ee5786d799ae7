import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from thinlab.errors import (DepthExhausted, EnumerationTooLarge, ModulusMismatch, NoConvergence, NotGenerating,
                            TooLarge)
from thinlab.thermo import Walk

from oracles import (
    approx_residuals_longdouble,
    approx_residuals_per_tail,
    build_measures_fresh,
    build_nu1_chains,
    cayley_blocks_unfolded,
    cayley_lambda2_power,
    closure_size_bfs,
    constant_function,
    conv_blocks_unfolded,
    conv_opnorm_dense,
    conv_opnorm_lanczos,
    min_nontrivial_irrep_dim,
    sl2_count_bruteforce,
)


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
        build_return_set(model, 0, 0, 6)  # 547^2 word pairs, past the cap


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


def test_closure_matches_bfs_oracle(model, groups):
    # every return set of levels 1-3 plus the Schottky generators, at moduli
    # whose closures run from 1 to the whole group: the same verdict and size
    # as a breadth-first closure over all generators at once
    sets = [build_return_set(model, y, z, p)
            for p in (1, 2, 3) for y in range(model.N) for z in range(model.N)]
    sets.append(ex.ReturnSet(tuple(model.gens)))
    verdicts, sizes = set(), set()
    for q in (2, 3, 6, 10, 15):
        order = sl2_count_bruteforce(q)
        for i, S in enumerate(sets):
            ok, cert = generates_full(S, groups(q))
            size = closure_size_bfs([m.tuple() for m in S.elements], q)
            assert (ok, cert["closure_size"]) == (size == order, size), (q, i)
            verdicts.add(ok)
            sizes.add(size)
    assert verdicts == {True, False}
    assert min(sizes) == 1 and max(sizes) == sl2_count_bruteforce(15)


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
    for i in gens:
        A[np.arange(g5.order), g5.act(i)] += 1
    w = np.sort(np.linalg.eigvalsh(A))
    assert abs(w[-1] - lan[0]) <= 1e-9 * lan[0]
    assert abs(w[-2] - lan[1]) <= 1e-8 * max(1.0, lan[0])


def test_cayley_gap_conjugation_invariant(model, groups, expansion):
    # relabeling the group by an inner automorphism preserves the spectrum
    S = build_return_set(model, 0, 0, expansion["p"])
    g5 = groups(5)
    base = cayley_gap(S, g5)
    h = model.gens[1]
    conj = ex.ReturnSet(tuple(h @ m @ h.inverse() for m in S.elements))
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
    # calls come in pairs of tails on one (group, xi, anchor), and from pair to
    # pair the settings run through a Gray code, so each of the group, xi and
    # anchor changes on its own somewhere: state carried from one call to the
    # next, such as a reused head walk, would show
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
    # H on a leaf's cylinder is H on its tail cylinder, so every difference is 0
    g5 = groups(5)
    rng = np.random.default_rng(14)
    r, s, depth = 4, 6, 6
    low = CongruenceFunction.random(model, g5, min(r, s - r), rng)
    lift = constant_function(model, g5, depth, 0.0)
    idx = {w: i for i, w in enumerate(map(tuple, low.words.tolist()))}
    for i, w in enumerate(map(tuple, lift.words.tolist())):
        lift.values[i] = low.values[idx[w[: low.depth]]]
    rep = approx_transfer_check(lab, g5, lift, 0.3j, r, s)
    assert rep["sup"] == 0.0


@pytest.mark.parametrize("q", [5, 7])
def test_approx_matches_per_tail_oracle(model, lab, groups, q, monkeypatch):
    # the residual is one word sum of H less H on the tail cylinder: it matches
    # the per-tail mu convolutions in long double, and fresh per-tail walks; the
    # anchor walk, summed over plain H, is transfer_apply_at's walk bit for bit
    g = groups(q)
    H = CongruenceFunction.random_dtheta_lipschitz(model, g, 6, np.random.default_rng(q), lab.constants().theta)
    word_sum = ex._word_sum
    walks = []

    def recorded(lab_, group, H_, values, xi, x, walk, word):
        walks.append((x, walk, word))
        return word_sum(lab_, group, H_, values, xi, x, walk, word)

    for sr in (1, 2, 3, 4):
        walks.clear()
        monkeypatch.setattr(ex, "_word_sum", recorded)
        rep = approx_transfer_check(lab, g, H, 0.3j, 6 - sr, 6)
        monkeypatch.setattr(ex, "_word_sum", word_sum)
        np.testing.assert_allclose(rep["residuals"], approx_residuals_longdouble(lab, g, H, 0.3j, 6 - sr, 6),
                                   rtol=1e-14, atol=0, err_msg=f"q={q}, s-r={sr}")
        want, want_exacts = approx_residuals_per_tail(lab, g, H, 0.3j, 6 - sr, 6)
        np.testing.assert_allclose(rep["residuals"], want, rtol=1e-12, atol=0, err_msg=f"q={q}, s-r={sr}")
        assert len(walks) == len(want_exacts)
        for (x, walk, word), exact in zip(walks, want_exacts):
            assert np.array_equal(word_sum(lab, g, H, H.values, 0.3j, x, walk, word), exact), (q, sr)


def test_approx_walks_once_per_anchor(model, lab, groups, monkeypatch):
    # one walk per anchor and no tail measure: no convolution, no cocycle reduced per tail
    g5 = groups(5)
    H = CongruenceFunction.random(model, g5, 6, np.random.default_rng(16))
    calls = {"step": 0, "convolve_fn": 0, "cocycle_mod": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Walk, "step", counted("step", Walk.step))
    monkeypatch.setattr(cg.GroupModQ, "convolve_fn", counted("convolve_fn", cg.GroupModQ.convolve_fn))
    monkeypatch.setattr(cg, "cocycle_mod", counted("cocycle_mod", cg.cocycle_mod))
    monkeypatch.setattr(ex, "cocycle_mod", counted("cocycle_mod", ex.cocycle_mod))
    approx_transfer_check(lab, g5, H, 0.3j, 3, 6)
    assert calls == {"step": len(sym.all_words(model.T, 2)) * 6, "convolve_fn": 0, "cocycle_mod": 0}


@pytest.mark.parametrize("r, s", [(0, 4), (4, 4), (5, 4)])
def test_approx_refuses_r_outside_0_s(model, lab, groups, r, s):
    H = CongruenceFunction.random(model, groups(5), 6, np.random.default_rng(17))
    with pytest.raises(ValueError, match="need 0 < r < s"):
        approx_transfer_check(lab, groups(5), H, 0.3j, r, s)


def test_transfer_apply_at_refuses_zero_steps(model, lab, groups):
    H = CongruenceFunction.random(model, groups(5), 6, np.random.default_rng(17))
    with pytest.raises(ValueError, match="s = 0"):
        ex.transfer_apply_at(lab, groups(5), H, 0.3j, 0, sym.point((0,), (1,)))


def test_approx_refuses_shallow_input(model, lab, groups):
    # the s-step word sum reads H on cylinders of depth s
    g5 = groups(5)
    H = constant_function(model, g5, 5, 1.0)
    with pytest.raises(DepthExhausted):
        approx_transfer_check(lab, g5, H, 0.3j, 4, 6)


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
    nu1, flat_ratio, blocks = _build_nu1(lab, g5, x, r_prime, l, p, tail, 0.0)

    direct = np.zeros(g5.order)
    heads = [w for w in sym.all_words(model.T, r) if model.T[w[-1], x.first]
             and model.T[tail[-1], w[0]]]
    for head in heads:
        # head = (alpha_4, alpha_3, alpha_2, alpha_1); with p = 1, l = 2 the
        # blocks split as p_2 = head[0:1], u_2 = head[1:2], p_1 = head[2:3],
        # u_1 = head[3:4]
        # j = 1 coefficient: f_{2l-p}(u_2 + p_1 + u_1, x) over 3 symbols
        w1 = head[1:]
        f1 = sym.birkhoff(pot, w1, x)
        # j = r' = 2: f_p(p_2, (u_2, omega)) with p_2 = head[0:1], u_2 = head[1:2]
        base = sym.SymbolicPoint(head[1:2], sym.omega_tail(model.T, head[1]).period)
        f2 = sym.birkhoff(pot, head[0:1], base)
        coc = IDENTITY
        for jsym in (tail[-1],) + head:
            coc = coc @ model.gens[jsym]
        direct[g5.reduce([coc])[0]] += np.exp(f1) * np.exp(f2)
    assert np.abs(nu1 - direct).max() <= 1e-12 * max(1.0, direct.max())


# p = 0 leaves some blocks without a p-word, which cuts the chains through them
@pytest.mark.parametrize("q, r_prime, l, p", [(5, 3, 4, 3), (7, 2, 4, 3), (5, 2, 5, 3), (5, 2, 3, 1), (5, 3, 2, 0)])
def test_nu1_matches_chain_oracle(lab, groups, q, r_prime, l, p):
    # the per-position sum and the per-block walks against every chain and every word
    g = groups(q)
    x = sym.point((0,), (1,))
    nu1, flat_ratio, blocks = ex._build_nu1(lab, g, x, r_prime, l, p, (0, 0), 0.0)
    want, want_ratio, want_blocks, _ = build_nu1_chains(lab, g, x, r_prime, l, p, (0, 0), 0.0)
    assert np.abs(nu1 - want).max() <= 1e-12 * want.max()
    assert abs(flat_ratio - want_ratio) <= 1e-12 * want_ratio
    assert [key for key, _ in blocks] == [key for key, _ in want_blocks]
    for (key, eta), (_, want_eta) in zip(blocks, want_blocks):
        assert np.abs(eta - want_eta).max() <= 1e-12 * want_eta.max(), key


@pytest.mark.parametrize("r_prime, n_blocks", [(3, 32), (5, 64)])
def test_nu1_builds_each_block_once(lab, groups, monkeypatch, r_prime, n_blocks):
    # q = 7, l = 4, p = 3: 12 blocks at position 1 (3 first parts under 4 parts),
    # 16 at each middle position and 4 at the last; listing the chains instead
    # evaluates 144 blocks at r' = 3 and 3,840 at r' = 5
    calls = {"walk": 0, "convolve": 0}
    walk, convolve = ex._walk, cg.GroupModQ.convolve_fn

    def counted_walk(*args):
        calls["walk"] += 1
        return walk(*args)

    def counted_convolve(*args):
        calls["convolve"] += 1
        return convolve(*args)

    monkeypatch.setattr(ex, "_walk", counted_walk)
    monkeypatch.setattr(cg.GroupModQ, "convolve_fn", counted_convolve)
    ex._build_nu1(lab, groups(7), sym.point((0,), (1,)), r_prime, 4, 3, (0, 0), 0.0)
    assert calls == {"walk": n_blocks, "convolve": n_blocks}


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


def test_conv_opnorm_blocks_raise_when_norm_not_attained(groups):
    def zero_first(phi):  # a projector that does not commute with translations, in phi's dtype
        out = np.array(phi)
        out[..., 0] = 0.0
        return out

    # at small and large orders alike; complex weights, then the same measure as
    # real weights, which take the rfft blocks
    for q in (5, 7, 13):
        g = groups(q)
        for weights in (_random_measure(g, 50, 16), _random_measure(g, 50, 16).real):
            assert 0.0 < ex.conv_opnorm(g, weights, cg.mean_zero_projector) <= np.abs(weights).sum()
            with pytest.raises(NoConvergence):
                ex.conv_opnorm(g, weights, zero_first)


def test_conv_opnorm_blocks_refused_before_they_are_filled(monkeypatch):
    # at q = 13 the blocks have 26 * 84^2 = 183,456 entries
    monkeypatch.setattr(ex, "MAX_BLOCK_ENTRIES", 100_000)
    g13 = cg.GroupModQ.build(13)
    w = np.zeros(g13.order, dtype=complex)
    w[:3] = 1.0
    with pytest.raises(TooLarge):
        ex.conv_opnorm(g13, w, cg.mean_zero_projector)
    assert not g13._perm_cache


def test_conv_opnorm_blocks_match_dense(groups):
    g13 = groups(13)
    weights = _random_measure(g13, 50, 16)
    # at prime q the new-space projector is the mean-zero one
    assert cg.new_space_projector(g13) is cg.mean_zero_projector
    dense = conv_opnorm_dense(g13, weights, cg.mean_zero_projector)
    assert abs(ex.conv_opnorm(g13, weights, cg.mean_zero_projector) - dense) <= 1e-10 * dense


@pytest.mark.parametrize("q", [5, 6, 10, 13, 15])
def test_conv_opnorm_blocks_match_lanczos_oracle(groups, q):
    """Block SVDs against the Lanczos solve of P mu~* mu P; c has order q for
    even q (-1 = 1 mod 2), 2q for odd q, and q = 6, 10, 15 are composite."""
    g = groups(q)
    cells, t, i = g.coset_coords()
    o = q if q % 2 == 0 else 2 * q
    assert cells.shape == (o, g.order // o)
    assert np.array_equal(np.sort(cells, axis=None), np.arange(g.order))
    assert np.array_equal(cells[t, i], np.arange(g.order))
    assert cells[0, 0] == g.identity
    weights = _random_measure(g, 50, q)
    for proj in (cg.mean_zero_projector, cg.new_space_projector(g)):
        want = conv_opnorm_lanczos(g, weights, proj)
        assert abs(ex.conv_opnorm(g, weights, proj) - want) <= 1e-12 * want


@pytest.mark.parametrize("q", [5, 6, 7, 10, 13, 15])
def test_conv_opnorm_real_weights_match_complex(groups, q):
    """A real measure takes real arithmetic (half the blocks from one rfft),
    except where the projector returns complex (the new-space projector at
    composite q); cast to complex, it takes the complex path."""
    g = groups(q)
    weights = _random_measure(g, 50, q).real
    for proj in (cg.mean_zero_projector, cg.new_space_projector(g)):
        want = ex.conv_opnorm(g, weights.astype(complex), proj)
        assert abs(ex.conv_opnorm(g, weights, proj) - want) <= 1e-12 * want
    want = conv_opnorm_lanczos(g, weights, cg.mean_zero_projector)
    assert abs(ex.conv_opnorm(g, weights, cg.mean_zero_projector) - want) <= 1e-12 * want


def _recorded_stacks(monkeypatch, name):
    """The 3-d stacks handed to np.linalg.<name>, recorded as they are solved."""
    stacks = []
    solve = getattr(np.linalg, name)

    def recorded(a, *args, **kwargs):
        if a.ndim == 3:
            stacks.append(np.array(a))
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return stacks


@pytest.mark.parametrize("q", [6, 13, 15])
def test_conv_opnorm_real_weights_take_half_the_blocks(groups, monkeypatch, q):
    # blocks chi and o - chi of a real measure are conjugate: o // 2 + 1 characters instead
    # of o, each split by the centre into nz blocks of size m' = m / nz (nz = 2 at q = 15)
    g = groups(q)
    o, m = g.coset_coords()[0].shape
    nz = len(cg.central_scalars(q))
    assert nz == (2 if q == 15 else 1)
    stacks = _recorded_stacks(monkeypatch, "svd")
    weights = _random_measure(g, 50, q)
    ex.conv_opnorm(g, weights.real, cg.mean_zero_projector)
    ex.conv_opnorm(g, weights, cg.mean_zero_projector)
    assert [a.shape for a in stacks] == [((o // 2 + 1) * nz, m // nz, m // nz), (o * nz, m // nz, m // nz)]


def _spectra_match(folded, unfolded, scale):
    # the sorted union of each character's nz folded spectra against its unfolded spectrum
    folded = np.sort(folded.reshape(len(unfolded), -1), axis=1)
    return np.abs(folded - np.sort(unfolded, axis=1)).max() <= 1e-12 * scale


def test_cayley_gap_folded_blocks_match_unfolded(model, groups, expansion, monkeypatch):
    S = build_return_set(model, 0, 0, expansion["p"])
    g = groups(15)
    gens = ex.reduced_generator_indices(S, g)
    stacks = _recorded_stacks(monkeypatch, "eigvalsh")
    cayley_gap(S, g)
    folded, = stacks
    unfolded = cayley_blocks_unfolded(g, gens)
    assert folded.shape == (2 * len(unfolded), 48, 48)
    assert _spectra_match(np.linalg.eigvalsh(folded), np.linalg.eigvalsh(unfolded), len(gens))


@pytest.mark.parametrize("q", [5, 15])
def test_cayley_blocks_are_the_conv_blocks_of_the_counting_measure(model, groups, expansion, q):
    # the adjacency phi -> sum_s phi(. s^{-1}) is the convolution by 1_S, so cayley_gap may
    # take conv_opnorm's character blocks: each block chi <= o/2 has the same spectrum
    S = build_return_set(model, 0, 0, expansion["p"])
    g = groups(q)
    gens = ex.reduced_generator_indices(S, g)
    counting = np.zeros(g.order)
    counting[gens] = 1.0
    cayley = np.linalg.eigvalsh(cayley_blocks_unfolded(g, gens))
    conv = np.linalg.eigvals(conv_blocks_unfolded(g, counting, lambda w: w)[: len(cayley)])
    assert np.abs(conv.imag).max() <= 1e-12 * len(gens)
    assert np.abs(np.sort(conv.real, axis=1) - cayley).max() <= 1e-12 * len(gens)


def test_conv_opnorm_folded_blocks_match_unfolded(groups, monkeypatch):
    g = groups(15)
    weights = _random_measure(g, 50, 15)
    for w, proj in [(weights, cg.mean_zero_projector), (weights, cg.new_space_projector(g)),
                    (weights.real, cg.mean_zero_projector)]:
        stacks = _recorded_stacks(monkeypatch, "svd")
        sigma = ex.conv_opnorm(g, w, proj)
        folded, = stacks
        unfolded = conv_blocks_unfolded(g, w, proj)[: len(folded) // 2]  # real weights: chi <= o/2
        assert folded.shape == (2 * len(unfolded), 48, 48)
        sv = np.linalg.svd(unfolded, compute_uv=False)
        assert abs(sv.max() - sigma) <= 1e-12 * sigma
        assert _spectra_match(np.linalg.svd(folded, compute_uv=False), sv, sigma)


def test_central_fold_splits_an_xor_circulant_block():
    # no square-free q whose blocks fit MAX_BLOCK_ENTRIES has three odd primes, so nz = 4
    # is checked on a synthetic block B[(a, i), (b, j)] = X_(a xor b)[i, j]
    from scipy.linalg import block_diag

    nz, mp = 4, 5
    rng = np.random.default_rng(4)
    X = rng.standard_normal((nz, mp, mp)) + 1j * rng.standard_normal((nz, mp, mp))
    X = X + X.conj().transpose(0, 2, 1)  # Hermitian, so eigenvalues are checked as well
    B = np.block([[X[a ^ b] for b in range(nz)] for a in range(nz)])
    Y, signs = ex._central_fold(B[:mp], nz)
    assert Y.shape == (nz, mp, mp)
    hadamard = np.kron(signs, np.eye(mp))
    assert np.abs(hadamard @ B @ hadamard / nz - block_diag(*Y)).max() <= 1e-12 * np.abs(B).max()
    assert np.abs(np.sort(np.linalg.eigvalsh(Y), axis=None) - np.linalg.eigvalsh(B)).max() <= 1e-12 * np.abs(B).max()
    vals, vecs = np.linalg.eigh(Y)
    for eps in range(nz):
        lifted = np.kron(signs[eps], vecs[eps][:, 0]) / np.sqrt(nz)
        assert abs(np.linalg.norm(lifted) - 1.0) <= 1e-12
        assert np.abs(B @ lifted - vals[eps][0] * lifted).max() <= 1e-12 * np.abs(B).max()


def _shift_eigvalsh(monkeypatch, shift):
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shift(eigvalsh(a)))


def test_cayley_gap_raises_when_block_zero_top_is_not_the_degree(model, groups, expansion, monkeypatch):
    S = build_return_set(model, 0, 0, expansion["p"])
    deg = len(ex.reduced_generator_indices(S, groups(5)))
    _shift_eigvalsh(monkeypatch, lambda vals: vals + 1e-6 * deg)
    with pytest.raises(NoConvergence, match="not the degree"):
        cayley_gap(S, groups(5))


def test_cayley_gap_raises_when_lambda2_residual_fails(model, groups, expansion, monkeypatch):
    # the degree stays, so only the lifted eigenvector's check can fail
    S = build_return_set(model, 0, 0, expansion["p"])
    deg = len(ex.reduced_generator_indices(S, groups(5)))
    _shift_eigvalsh(monkeypatch, lambda vals: np.where(abs(vals - deg) <= 1e-9 * deg, vals, vals + 1e-6))
    with pytest.raises(NoConvergence, match="eigenvector residual"):
        cayley_gap(S, groups(5))


def _dense_lambda2(group, gens):
    A = np.zeros((group.order, group.order))
    for s in gens:
        A[np.arange(group.order), group.act(s)] += 1
    return np.linalg.eigvalsh(A)[-2]


def _modular_return_set():
    # I, S^{+-1} and T^{+-1} generate SL2(Z/q) for every q; no return set of the
    # example group generates at an even q
    mats = [(1, 0, 0, 1), (0, -1, 1, 0), (0, 1, -1, 0), (1, 1, 0, 1), (1, -1, 0, 1)]
    return ex.ReturnSet(tuple(MobiusMap(*m) for m in mats))


@pytest.mark.parametrize("q", [5, 7, 11, 2, 6, 10])
def test_cayley_gap_matches_dense_adjacency(model, groups, expansion, q):
    S = build_return_set(model, 0, 0, expansion["p"]) if q % 2 else _modular_return_set()
    g = groups(q)
    gens = ex.reduced_generator_indices(S, g)
    lam1, lam2, eps = cayley_gap(S, g)
    assert lam1 == len(gens)
    assert abs(lam2 - _dense_lambda2(g, gens)) <= 1e-12 * lam1
    assert eps == 1.0 - lam2 / lam1


def test_cayley_gap_formerly_failing_seeds_agree(model, groups, expansion):
    # seeds on which an ARPACK Lanczos solve of this gap failed its residual check
    S = build_return_set(model, 0, 0, expansion["p"])
    g5 = groups(5)
    gaps = {cayley_gap(S, g5, seed=seed) for seed in (79, 117, 122, 196, 197, 199)}
    assert len(gaps) == 1
    lam1, lam2, _ = gaps.pop()
    assert abs(lam2 - _dense_lambda2(g5, ex.reduced_generator_indices(S, g5))) <= 1e-12 * lam1


def test_block_solvers_load_no_scipy(expansion):
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from thinlab import cayley_gap, build_return_set, GroupModQ\n"
        "from thinlab.congruence import mean_zero_projector\n"
        "from thinlab.expander import conv_opnorm, generates_full\n"
        "from thinlab.schottky import SchottkyData, build_markov_model\n"
        "doc = {'generators': [[[2, 3], [1, 2]], [[6, 35], [1, 6]]]}\n"
        "model = build_markov_model(SchottkyData.from_json_dict(doc))\n"
        "g = GroupModQ.build(7)\n"
        f"S = build_return_set(model, 0, 0, {expansion['p']})\n"
        "generates_full(S, g)\n"
        "cayley_gap(S, g)\n"
        "w = np.zeros(g.order, dtype=complex)\n"
        "w[:5] = 1.0\n"
        "conv_opnorm(g, w, mean_zero_projector)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(thinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] False"


def test_build_measures_loads_no_numpy_ma():
    # np.unique imports numpy.ma on its first call, a few hundredths of a second
    # inside every approximation round; the walk's tail symbols need no sort
    script = (
        "import sys\n"
        "from thinlab import GroupModQ, ThermoLab, build_measures\n"
        "from thinlab.schottky import SchottkyData, build_markov_model\n"
        "from thinlab.symbolic import SymbolicPoint\n"
        "doc = {'generators': [[[2, 3], [1, 2]], [[6, 35], [1, 6]]]}\n"
        "model = build_markov_model(SchottkyData.from_json_dict(doc))\n"
        "build_measures(ThermoLab(model), GroupModQ.build(5), SymbolicPoint((0,), (1,)), 2, 4, (1, 1), 0.3j)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(thinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cayley_gap_reproducible_across_processes(expansion):
    script = (
        "from thinlab import cayley_gap, build_return_set, GroupModQ\n"
        "from thinlab.schottky import SchottkyData, build_markov_model\n"
        "doc = {'generators': [[[2, 3], [1, 2]], [[6, 35], [1, 6]]]}\n"
        "model = build_markov_model(SchottkyData.from_json_dict(doc))\n"
        f"S = build_return_set(model, 0, 0, {expansion['p']})\n"
        "print(cayley_gap(S, GroupModQ.build(15))[1].hex())\n"
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
