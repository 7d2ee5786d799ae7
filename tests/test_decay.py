import numpy as np
import pytest

from thinlab import (
    CongruenceFunction,
    decay_small_b,
    make_schedule,
    small_b_distortion,
    supnorm_lipschitz_check,
    twisted_radius,
)
from thinlab import decay as dc
from thinlab import symbolic as sym
from thinlab.errors import NotGenerating
from thinlab.thermo import CollocationGrid, NormalizedPotential, assemble_transfer, rpf_solve

from oracles import growth_rate


def _normalized_operator(lab, b, degree):
    """Collocation matrix of the normalized operator twisted by b at `degree`,
    with the nu_U quadrature weights of that grid."""
    grid = CollocationGrid(lab.model, degree)
    sol = rpf_solve(lab.model, grid, 0.0, delta=lab.delta)
    pot = NormalizedPotential(lab.model, grid, 0.0, lab.delta, sol.lam, sol.h)
    M = assemble_transfer(lab.model, grid, 1j * b, normalized=True, potential=pot)
    return M, (sol.nu * sol.h).reshape(-1)


def _random_word_and_pair(model, rng, s):
    pairs = sym.lip_quotient_pairs(model, rng, depths=[int(rng.integers(0, 5))], samples_per_depth=1)
    _, x, y = pairs[0]
    word = [int(np.flatnonzero(model.T[:, x.first])[rng.integers(3)])]
    for _ in range(s - 1):
        prev = np.flatnonzero(model.T[:, word[0]])
        word.insert(0, int(prev[rng.integers(len(prev))]))
    return tuple(word), x, y


def test_distortion_zero_at_equal_points(model, lab):
    x = sym.point((0,), (1,))
    assert small_b_distortion(lab, (1, 0), x, x, 0.5j) == 0.0


def test_distortion_bound_b0(model, lab, consts):
    # b = 0, a = 0, one-step words over 100 random point pairs
    rng = np.random.default_rng(20)
    t = consts.T0 * consts.theta_factor
    bound = t * np.exp(t)
    worst = 0.0
    for _ in range(100):
        word, x, y = _random_word_and_pair(model, rng, 1)
        if x.first != y.first:
            continue
        worst = max(worst, small_b_distortion(lab, word, x, y, 0.0))
    assert worst <= bound


@pytest.mark.parametrize("b", [0.0, 0.5, 1.0])
def test_distortion_linear_in_b(model, lab, consts, b):
    # the (1 + b) structure of the constant: ratios stay under (1 + b) L e^L
    rng = np.random.default_rng(21)
    t = consts.T0 * consts.theta_factor
    bound = (1.0 + b) * t * np.exp(t)
    worst = 0.0
    for _ in range(40):
        word, x, y = _random_word_and_pair(model, rng, int(rng.integers(1, 5)))
        if x.first != y.first:
            continue
        worst = max(worst, small_b_distortion(lab, word, x, y, complex(0.0, b)))
    assert worst <= bound


def test_schedule_validity(consts, expansion):
    l = expansion["p"] + 1
    for q in (5, 7, 11, 13):
        sched = make_schedule(q, consts, l=l)
        ok, detail = sched.validate()
        assert ok, detail


def test_sentinel_rate_matches_gap(lab):
    rate = dc.sentinel_decay_rate(lab)
    gap = lab.rpf(0.0).gap
    assert abs(rate - gap) <= 0.1 * gap


def test_sentinel_rate_is_rpf_gap(lab):
    # the q = 1 operator's second eigenvalue is the cylinder surrogate of the RPF gap
    assert abs(dc.sentinel_decay_rate(lab) - lab.rpf(0.0).gap) <= 1e-6


def test_consistency_of_regimes(lab):
    # word-model decay at b = 0 vs grid twisted radius at b = 0 within 10%
    rate = dc.sentinel_decay_rate(lab)
    base = growth_rate(*_normalized_operator(lab, 0.0, lab.grid.m), mean_zero=True)
    assert abs(rate - base) <= 0.1 * base


def test_fiber_constant_has_no_decay(model, lab, groups, consts, expansion):
    g5 = groups(5)
    sched = make_schedule(5, consts, l=expansion["p"] + 1)
    from thinlab.congruence import CongruenceOperator, cf_l2_norm
    H = CongruenceFunction.build(model, g5, 5, fill=1.0)
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


def test_decay_refuses_nongenerating(model, lab, groups, consts, expansion):
    sched = make_schedule(2, consts, l=expansion["p"] + 1)
    with pytest.raises(NotGenerating):
        decay_small_b(lab, groups(2), sched, 0.0, seed=1, depth=4,
                      certificate=(False, {"closure_size": 1}))


def test_supnorm_lipschitz_zero_input(model, lab, groups, consts, expansion):
    g5 = groups(5)
    sched = make_schedule(5, consts, l=expansion["p"] + 1)
    H = CongruenceFunction.build(model, g5, 4, fill=0.0)
    rep = supnorm_lipschitz_check(lab, g5, sched, 0.0, seed=0, H=H)
    assert rep["ratio_inf"] == 0.0 and rep["ratio_lip"] == 0.0


def test_supnorm_lipschitz_contracts(model, lab, groups, consts, expansion):
    g5 = groups(5)
    sched = make_schedule(5, consts, l=expansion["p"] + 1)
    rep = supnorm_lipschitz_check(lab, g5, sched, 0.01 + 0.3j, seed=3, depth=5)
    assert rep["ratio_inf"] < 1.0 and rep["ratio_lip"] < 1.0


def test_monotone_norm_chain(model, lab, groups, consts):
    from thinlab.congruence import CongruenceOperator, cf_l2_norm
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
        cur = cf_l2_norm(CongruenceFunction(5, H.words, g5, vals), masses)
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
