import itertools

import numpy as np
import pytest

from thinlab import birkhoff, d_theta, enumerate_words, eval_point, mixing_exponent
from thinlab import symbolic as sym
from thinlab.errors import EnumerationTooLarge, InadmissibleWord, NotMixing
from thinlab.schottky import IDENTITY

from oracles import brute_force_words


def test_mixing_full_shift():
    assert mixing_exponent(np.ones((2, 2), dtype=int)) == 1


def test_mixing_no_backtracking(model):
    assert mixing_exponent(model.T) == 2


def test_mixing_permutation_fails():
    T = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(NotMixing):
        mixing_exponent(T)


def test_enumerate_words_single_edge():
    T = np.ones((2, 2), dtype=np.int8)
    assert enumerate_words(T, 0, 1, 1) == [(0, 1)]


def test_enumerate_words_degenerate(model):
    assert enumerate_words(model.T, 1, 1, 0) == [(1,)]
    assert enumerate_words(model.T, 1, 2, 0) == []


def test_enumerate_words_counts(model):
    # oracle-computed: 3 two-step loops at a symbol; the 3-step count is 7,
    # matching the matrix powers (T^2)_{00} and (T^3)_{00}
    two = enumerate_words(model.T, 0, 0, 2)
    assert len(two) == 3
    T2 = np.linalg.matrix_power(model.T.astype(int), 2)
    assert T2[0, 0] == 3
    three = enumerate_words(model.T, 0, 0, 3)
    assert len(three) == 7
    T3 = np.linalg.matrix_power(model.T.astype(int), 3)
    assert T3[0, 0] == 7


@pytest.mark.parametrize("y,z,p", [(0, 0, 2), (0, 1, 3), (2, 3, 4), (1, 1, 5)])
def test_enumerate_words_matches_bruteforce(model, y, z, p):
    got = enumerate_words(model.T, y, z, p)
    assert got == brute_force_words(model.T, y, z, p)
    assert got == sorted(got)


def test_enumeration_cap(model):
    with pytest.raises(InadmissibleWord):
        enumerate_words(model.T, 0, 0, 17)


def test_eval_fixed_word_is_branch_fixed_point(model):
    for j in range(model.N):
        v = eval_point(model, sym.point((), (j,)))
        g = model.gens_inv[j]
        # oracle: solve the fixed-point quadratic c x^2 + (d - a) x - b = 0
        roots = np.roots([g.c, g.d - g.a, -g.b])
        lo, hi = model.intervals[j]
        inside = [r for r in roots if lo <= r <= hi]
        assert len(inside) == 1
        assert abs(v - inside[0]) <= 1e-13 * max(1.0, abs(v))


def test_eval_preperiod_absorption(model):
    x = sym.point((), (0, 1))
    y = sym.point((0, 1), (0, 1))
    assert eval_point(model, x) == eval_point(model, y)


def test_eval_contraction_rate(model, consts):
    # points sharing m symbols are theta^m-close up to a measured constant
    rng = np.random.default_rng(11)
    pairs = sym.lip_quotient_pairs(model, rng, depths=range(1, 7), samples_per_depth=12)
    ratios = [abs(eval_point(model, x) - eval_point(model, y)) / consts.theta**m
              for m, x, y in pairs]
    assert max(ratios) <= consts.C_theta


def test_d_theta_basic(model):
    x = sym.point((0,), (1,))
    assert d_theta(x, x, 0.5) == 0.0
    y = sym.point((2,), (1,))
    assert d_theta(x, y, 0.5) == 1.0
    a = sym.point((0, 1, 0), (3,))
    b = sym.point((0, 1, 0), (1,))
    assert d_theta(a, b, 0.5) == 0.125


def test_d_theta_ultrametric(model, consts):
    rng = np.random.default_rng(5)
    pts = [p for _, p, q in sym.lip_quotient_pairs(model, rng, depths=range(0, 5), samples_per_depth=8)
           for p in (p, q)]
    theta = consts.theta
    for _ in range(60):
        x, y, z = (pts[rng.integers(len(pts))] for _ in range(3))
        assert d_theta(x, z, theta) <= max(d_theta(x, y, theta), d_theta(y, z, theta)) + 1e-15


def test_birkhoff_empty_word(lab):
    x = sym.point((0,), (1,))
    tau, coc, f = birkhoff(lab.potential(0.0), (), x)
    assert tau == 0.0 and f == 0.0 and coc.tuple() == IDENTITY.tuple()


def test_birkhoff_additivity(lab, model):
    pot = lab.potential(0.0)
    x = sym.point((2,), (1,))
    word = (0, 1)
    assert model.T[word[-1], x.first]
    t2, c2, f2 = birkhoff(pot, word, x)
    t_in, c_in, f_in = birkhoff(pot, (word[1],), x)
    t_out, c_out, f_out = birkhoff(pot, (word[0],), x.prepend((word[1],)))
    assert abs(t2 - (t_in + t_out)) <= 1e-12
    assert abs(f2 - (f_in + f_out)) <= 1e-12
    assert c2.tuple() == (c_out @ c_in).tuple()


def test_birkhoff_inadmissible(lab):
    x = sym.point((0,), (1,))  # first symbol 0, bar(2) = 0 forbids 2 -> 0
    with pytest.raises(InadmissibleWord):
        birkhoff(lab.potential(0.0), (2,), x)


def test_normalized_mass_is_one(lab):
    for x in (sym.point((0,), (1,)), sym.point((), (2, 3)), sym.point((1, 2), (3,))):
        for k in (1, 2, 4, 6):
            assert abs(lab.sum_exp_f(k, x, 0.0) - 1.0) <= 1e-10


def test_mass_bound_up_to_twelve(lab, consts):
    x = sym.point((0,), (1,))
    for a in (0.04, -0.04, 0.8 * lab.a0p):
        for k in (1, 4, 8, 12):
            assert lab.sum_exp_f(k, x, a) <= consts.C_f


def test_omega_tail_smallest(model):
    for y in range(model.N):
        om = sym.omega_tail(model.T, y)
        k = om.period[0]
        assert model.T[y, k]
        assert all(not model.T[y, j] for j in range(k))


def test_word_table_and_rank(model):
    T = model.T
    for depth in range(1, 7):
        table = sym.word_table(T, depth)
        brute = [w for w in itertools.product(range(model.N), repeat=depth) if sym.admissible(T, w)]
        assert table.dtype == np.int8
        assert list(map(tuple, table.tolist())) == brute
        assert np.array_equal(sym.word_rank(table, table, model.N), np.arange(len(table)))
    with pytest.raises(InadmissibleWord):
        sym.word_rank(sym.word_table(T, 2), [[0, model.bar[0]]], model.N)
    # depth 14 would hold 4 * 3^13 rows, past the walk's cap; refused before it is built
    with pytest.raises(EnumerationTooLarge):
        enumerate_words(T, 0, 0, 16)


def test_sum_exp_f_matches_birkhoff_sum(model, lab):
    # two routes to the same normalization: the vectorized level walk vs
    # enumerating words and summing exp of birkhoff f-sums
    pot = lab.potential(0.02)
    x = sym.point((0,), (1,))
    for k in (1, 2, 3):
        total = 0.0
        for w in sym.all_words(model.T, k):
            if model.T[w[-1], x.first]:
                _, _, f = birkhoff(pot, w, x)
                total += np.exp(f)
        assert abs(total - lab.sum_exp_f(k, x, 0.02)) <= 1e-12 * total
