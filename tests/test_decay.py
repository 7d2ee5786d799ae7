import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thinlab

from thinlab import CongruenceFunction, GroupModQ, decay_small_b, make_schedule, twisted_radius
from thinlab import symbolic as sym
from thinlab.congruence import CongruenceOperator, cf_l2_norm
from thinlab.thermo import CollocationGrid, NormalizedPotential, assemble_transfer, dense_leading, rpf_solve

from oracles import birkhoff_scalar, constant_function, growth_rate


def _normalized_operator(lab, b, degree):
    """Collocation matrix of the normalized operator twisted by b at `degree`,
    with the nu_U quadrature weights of that grid."""
    grid = CollocationGrid(lab.model, degree)
    sol = rpf_solve(lab.model, grid, 0.0, delta=lab.delta)
    pot = NormalizedPotential(lab.model, grid, 0.0, lab.delta, sol.lam, sol.h)
    M = assemble_transfer(lab.model, grid, 1j * b, potential=pot)
    return M, (sol.nu * sol.h).reshape(-1)


def _dense_sentinel_operator(lab, depth):
    """The q = 1 operator at xi = 0 as a dense real matrix, one column per unit input."""
    op = CongruenceOperator(lab, GroupModQ.build(1), 0.0, depth)
    return np.column_stack([op.apply(e[:, None])[:, 0] for e in np.eye(op.shape[0])]).real


def _sentinel_rate(lab):
    # second eigenvalue modulus of the q = 1 operator at depth 6 and xi = 0
    return dense_leading(_dense_sentinel_operator(lab, 6))[2]


def _random_word_and_pair(model, rng, s):
    pairs = sym.lip_quotient_pairs(model, rng, depths=[int(rng.integers(0, 5))], samples_per_depth=1)
    m, x, y = pairs[0]
    word = [int(np.flatnonzero(model.T[:, x.first])[rng.integers(3)])]
    for _ in range(s - 1):
        prev = np.flatnonzero(model.T[:, word[0]])
        word.insert(0, int(prev[rng.integers(len(prev))]))
    return tuple(word), m, x, y


def _distortion(lab, word, m, x, y, b):
    # |1 - exp(Delta(f + i b tau))| along the word over the distance theta^m of x and y
    pot = lab.potential(0.0)
    tx, fx = birkhoff_scalar(pot, word, x)
    ty, fy = birkhoff_scalar(pot, word, y)
    return abs(1.0 - np.exp((fy - fx) + 1j * b * (ty - tx))) / lab.constants().theta ** m


def test_distortion_bound_b0(model, lab, consts):
    # b = 0, a = 0, one-step words over 100 random point pairs
    rng = np.random.default_rng(20)
    t = consts.T0 * consts.theta_factor
    bound = t * np.exp(t)
    worst = 0.0
    for _ in range(100):
        word, m, x, y = _random_word_and_pair(model, rng, 1)
        if x.first != y.first:
            continue
        worst = max(worst, _distortion(lab, word, m, x, y, 0.0))
    assert worst <= bound


@pytest.mark.parametrize("b", [0.0, 0.5, 1.0])
def test_distortion_linear_in_b(model, lab, consts, b):
    # the (1 + b) structure of the constant: ratios stay under (1 + b) L e^L
    rng = np.random.default_rng(21)
    t = consts.T0 * consts.theta_factor
    bound = (1.0 + b) * t * np.exp(t)
    worst = 0.0
    for _ in range(40):
        word, m, x, y = _random_word_and_pair(model, rng, int(rng.integers(1, 5)))
        if x.first != y.first:
            continue
        worst = max(worst, _distortion(lab, word, m, x, y, b))
    assert worst <= bound


def test_schedule_validity(consts, expansion):
    l = expansion["p"] + 1
    for q in (5, 7, 11, 13):
        sched = make_schedule(q, consts, l=l)
        ok, detail = sched.validate()
        assert ok, detail


def test_sentinel_rate_is_rpf_gap(lab):
    # the q = 1 operator's second eigenvalue is the cylinder surrogate of the RPF gap
    assert abs(_sentinel_rate(lab) - lab.rpf(0.0).gap) <= 1e-6


def test_consistency_of_regimes(lab):
    # word-model decay at b = 0 vs grid twisted radius at b = 0 within 10%
    rate = _sentinel_rate(lab)
    base = growth_rate(*_normalized_operator(lab, 0.0, lab.grid.m), mean_zero=True)
    assert abs(rate - base) <= 0.1 * base


def test_fiber_constant_has_no_decay(model, lab, groups, consts, expansion):
    g5 = groups(5)
    sched = make_schedule(5, consts, l=expansion["p"] + 1)
    H = constant_function(model, g5, 5, 1.0)
    op = CongruenceOperator(lab, g5, 0.0, 5, a=0.0)
    out = op.apply_k(H.values.copy(), sched.s_q)
    assert np.abs(out - 1.0).max() <= 1e-9


def test_decay_curves_pass_and_agree(model, lab, groups, consts, expansion):
    factors = []
    for q in (5, 7, 11):
        sched = make_schedule(q, consts, l=expansion["p"] + 1)
        curve = decay_small_b(lab, groups(q), sched, 0.02 + 0.5j, seed=7, depth=5)
        assert curve.passed
        assert all(n2 < n1 for n1, n2 in zip(curve.norms, curve.norms[1:]))
        factors.append(curve.per_step_factor)
    assert max(factors) <= 2.0 * min(factors)


def test_decay_loads_no_scipy(expansion):
    # scipy costs a third of a second to import, paid inside every decay run if the
    # congruence operator needed it; its step is numpy permutations and one matmul
    script = (
        "import sys\n"
        "from thinlab import GroupModQ, ThermoLab, decay_small_b, make_schedule\n"
        "from thinlab.schottky import SchottkyData, build_markov_model\n"
        "doc = {'generators': [[[2, 3], [1, 2]], [[6, 35], [1, 6]]]}\n"
        "lab = ThermoLab(build_markov_model(SchottkyData.from_json_dict(doc)), degree=16)\n"
        f"sched = make_schedule(5, lab.constants(), l={expansion['p'] + 1})\n"
        "decay_small_b(lab, GroupModQ.build(5), sched, 0.02 + 0.5j, seed=1, depth=3)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(thinlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_monotone_norm_chain(model, lab, groups, consts):
    g5 = groups(5)
    rng = np.random.default_rng(22)
    H = CongruenceFunction.random(model, g5, 5, rng)
    op = CongruenceOperator(lab, g5, 0.4, 5, a=0.02)
    _, masses = lab.cylinder_masses(5)
    bound = model.N * np.exp(consts.T0)
    vals = H.values
    prev = cf_l2_norm(H, masses)
    for _ in range(10):
        vals = op.apply(vals)
        cur = cf_l2_norm(CongruenceFunction(5, H.words, vals), masses)
        assert cur <= bound * prev
        prev = cur


def test_twisted_radius_b0_matches_gap(lab):
    rate = growth_rate(*_normalized_operator(lab, 0.0, lab.grid.m), mean_zero=True)
    assert abs(rate - lab.rpf(0.0).gap) <= 0.01 * lab.rpf(0.0).gap


@pytest.mark.parametrize("b", [5.0, 20.0, 80.0])
def test_twisted_radius_contracts(lab, b):
    assert twisted_radius(lab, b) < 1.0


@pytest.mark.parametrize("b", [5.0, 20.0])
def test_twisted_radius_matches_growth_oracle(lab, b):
    degree = max(24, int(2 * b))  # the default of twisted_radius
    rate = growth_rate(*_normalized_operator(lab, b, degree))
    assert abs(twisted_radius(lab, b, degree) - rate) <= 1e-6


def test_twisted_radius_conjugation_symmetry(lab):
    # the operator at -b is the complex conjugate of the one at b
    assert abs(twisted_radius(lab, 20.0) - twisted_radius(lab, -20.0)) <= 1e-6


def test_budget_exceeded(model, lab, groups, consts, expansion):
    from thinlab.errors import BudgetExceeded
    sched = make_schedule(5, consts, l=expansion["p"] + 1)
    with pytest.raises(BudgetExceeded):
        decay_small_b(lab, groups(5), sched, 0.0, seed=1, depth=4, step_budget=sched.s_q - 1)
