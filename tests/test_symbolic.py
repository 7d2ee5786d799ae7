import itertools

import numpy as np
import pytest

from thinlab import birkhoff, enumerate_words, eval_point
from thinlab import symbolic as sym
from thinlab.errors import EnumerationTooLarge, InadmissibleWord
from thinlab.schottky import IDENTITY
from thinlab.thermo import A0P, Walk

from oracles import birkhoff_scalar, brute_force_words, lip_quotient_pairs_per_draw


def _walk_mass(lab, k, x, a):
    # sum of exp(f_k^(a)) over the admissible k-step words prepended to x
    walk = Walk.from_point(lab.model, lab.potential(a), x)
    for _ in range(k):
        walk.step(range(lab.model.N))
    return float(np.exp(walk.f).sum())


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



@pytest.mark.parametrize("seed", [0, 1, 7])
def test_lip_quotient_pairs_keep_the_per_draw_stream(model, seed):
    # the measured constants depend on these pairs, so the draws must not move
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    pairs = sym.lip_quotient_pairs(model, rng, depths=range(0, 9), samples_per_depth=20)
    assert pairs == lip_quotient_pairs_per_draw(model, ref, depths=range(0, 9), samples_per_depth=20)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert all(type(s) is int for _, x, y in pairs for s in x.preperiod + x.period + y.preperiod + y.period)
    # each pair agrees on exactly its first m symbols, so it lies theta^m apart
    assert all(x.symbols(m) == y.symbols(m) and x.symbol(m) != y.symbol(m) for m, x, y in pairs)


def test_birkhoff_empty_word(lab, model):
    x = sym.point((0,), (1,))
    assert birkhoff(lab.potential(0.0), (), x) == 0.0
    assert model.word_cocycle(()).tuple() == IDENTITY.tuple()


def test_birkhoff_additivity(lab, model):
    pot = lab.potential(0.0)
    x = sym.point((2,), (1,))
    word = (0, 1)
    assert model.T[word[-1], x.first]
    f2 = birkhoff(pot, word, x)
    f_in = birkhoff(pot, (word[1],), x)
    f_out = birkhoff(pot, (word[0],), x.prepend((word[1],)))
    assert abs(f2 - (f_in + f_out)) <= 1e-12
    c2, c_in, c_out = (model.word_cocycle(w) for w in (word, (word[1],), (word[0],)))
    assert c2.tuple() == (c_out @ c_in).tuple()


def test_birkhoff_matches_scalar_loop(lab, model):
    # the one-leaf walk sums the steps in the scalar loop's order, bit for bit
    rng = np.random.default_rng(20)
    pairs = sym.lip_quotient_pairs(model, rng, depths=[0, 2, 4], samples_per_depth=5)
    words = {k: sym.all_words(model.T, k) for k in (1, 2, 3, 5)}
    n_cases = 0
    for a in (0.0, 0.02, -0.04):
        pot = lab.potential(a)
        for x in (p for _, x, y in pairs for p in (x, y)):
            for k, table in words.items():
                fits = [w for w in table if model.T[w[-1], x.first]]
                for i in rng.choice(len(fits), size=3, replace=False):
                    assert birkhoff(pot, fits[i], x) == birkhoff_scalar(pot, fits[i], x)[1], (a, x, fits[i])
                    n_cases += 1
    assert n_cases == 3 * 30 * 4 * 3


def test_birkhoff_inadmissible(lab):
    x = sym.point((0,), (1,))  # first symbol 0, bar(2) = 0 forbids 2 -> 0
    with pytest.raises(InadmissibleWord):
        birkhoff(lab.potential(0.0), (2,), x)


def test_birkhoff_inadmissible_point(lab):
    x = sym.SymbolicPoint((0, 2), (1,))  # the word may precede 0, but 0 -> 2 is forbidden
    with pytest.raises(InadmissibleWord):
        birkhoff(lab.potential(0.0), (1,), x)


def test_normalized_mass_is_one(lab):
    for x in (sym.point((0,), (1,)), sym.point((), (2, 3)), sym.point((1, 2), (3,))):
        for k in (1, 2, 4, 6):
            assert abs(_walk_mass(lab, k, x, 0.0) - 1.0) <= 1e-10


def test_mass_bound_up_to_twelve(lab, consts):
    x = sym.point((0,), (1,))
    for a in (0.04, -0.04, 0.8 * A0P):
        for k in (1, 4, 8, 12):
            assert _walk_mass(lab, k, x, a) <= consts.C_f


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
        sym.word_rank(sym.word_table(T, 2), [[0, int(np.flatnonzero(T[0] == 0)[0])]], model.N)
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
                f = birkhoff(pot, w, x)
                total += np.exp(f)
        assert abs(total - _walk_mass(lab, k, x, 0.02)) <= 1e-12 * total
