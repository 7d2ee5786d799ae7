import numpy as np
import pytest

from thinlab import MobiusMap, SchottkyData, build_markov_model, validate_schottky
from thinlab.errors import (
    NonHyperbolicGenerator,
    OverlappingDisks,
    PoleHit,
    ZeroLowerLeftEntry,
)

from conftest import EXAMPLE_GENERATORS
from oracles import intervals_disjoint


def test_example_group_valid(model):
    report = validate_schottky(SchottkyData.from_matrices(EXAMPLE_GENERATORS))
    assert report.ok
    # isometric-circle formulas checked directly: center -d/c, radius 1/|c|
    expected = {(-3.0, -1.0), (1.0, 3.0), (-7.0, -5.0), (5.0, 7.0)}
    got = {tuple(iv) for iv in model.intervals}
    assert got == expected
    assert intervals_disjoint([tuple(iv) for iv in model.intervals])


def test_duplicate_generators_overlap():
    data = SchottkyData.from_matrices([(2, 3, 1, 2), (2, 3, 1, 2)])
    report = validate_schottky(data)
    assert not report.ok
    assert any(isinstance(v, OverlappingDisks) for v in report.violations)


def test_parabolic_generator_rejected():
    data = SchottkyData.from_matrices([(1, 1, 0, 1), (2, 3, 1, 2)])
    report = validate_schottky(data)
    assert not report.ok
    assert any(isinstance(v, ZeroLowerLeftEntry) for v in report.violations)


def test_non_hyperbolic_generator_rejected():
    data = SchottkyData.from_matrices([(0, -1, 1, 0), (2, 3, 1, 2)])
    report = validate_schottky(data)
    assert any(isinstance(v, NonHyperbolicGenerator) for v in report.violations)


def test_determinant_enforced():
    with pytest.raises(ValueError):
        MobiusMap(1, 1, 1, 1)


def test_mobius_map_apply_identity():
    assert MobiusMap(1, 0, 0, 1).apply(0.7) == (0.7, 1.0)


def test_mobius_map_apply_example():
    img, deriv = MobiusMap(2, 3, 1, 2).apply(0.0)
    assert img == 1.5 and deriv == 0.25


def test_mobius_map_apply_pole():
    with pytest.raises(PoleHit):
        MobiusMap(2, 3, 1, 2).apply(-2.0)


def test_transition_count(model):
    # 2g * (2g - 1) allowed no-backtracking transitions
    assert model.N == 4
    assert int(model.T.sum()) == 12


def test_roof_positive_on_nodes(model, lab):
    for k in range(model.N):
        for j in range(model.N):
            if not model.T[j, k]:
                continue
            v = model.inv_branch(j, lab.grid.nodes[k])
            assert (model.tau(j, v) > 0).all()


def test_branch_roundtrip(model, lab):
    for k in range(model.N):
        u = lab.grid.nodes[k]
        for j in range(model.N):
            if not model.T[j, k]:
                continue
            back = model.forward(j, model.inv_branch(j, u))
            assert np.abs(back - u).max() <= 1e-12



def test_cocycle_multiplicative_along_words(model):
    # the k-step cocycle of (w_0 ... w_k) is the ascending product over the
    # first k symbols, exactly in integer arithmetic
    rng = np.random.default_rng(0)
    for _ in range(20):
        word = [int(rng.integers(model.N))]
        for _ in range(6):
            choices = np.flatnonzero(model.T[word[-1]])
            word.append(int(choices[rng.integers(len(choices))]))
        expected = model.gens[word[0]]
        for a in word[1:-1]:
            expected = expected @ model.gens[a]
        assert model.word_cocycle(word[:-1]).tuple() == expected.tuple()
