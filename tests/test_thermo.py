import copy
import warnings

import numpy as np
import pytest

from thinlab import CollocationGrid, ThermoLab, assemble_transfer, rpf_solve
from thinlab import symbolic as sym
from thinlab import thermo
from thinlab.errors import EnumerationTooLarge, NoConvergence
from thinlab.thermo import Walk, critical_exponent, dense_leading

from oracles import measure_constants_per_point, refinement_dimension, walk_step_per_symbol

WALK_ARRAYS = ("sym", "v", "logh", "f", "tau", "cidx")


def test_grid_polynomial_exactness(model):
    grid = CollocationGrid(model, 16)
    rng = np.random.default_rng(2)
    coeffs = rng.standard_normal(16)  # degree m - 1

    def poly(x):
        return np.polyval(coeffs, x)

    for j in range(model.N):
        lo, hi = model.intervals[j]
        xs = np.linspace(lo + 1e-9, hi - 1e-9, 37)
        got = grid.interp(j, poly(grid.nodes[j]), xs)
        assert np.abs(got - poly(xs)).max() <= 1e-12 * max(1.0, np.abs(poly(xs)).max())


def test_grid_nodes_strictly_inside(model):
    grid = CollocationGrid(model, 16)
    for j in range(model.N):
        lo, hi = model.intervals[j]
        assert grid.nodes[j].min() > lo and grid.nodes[j].max() < hi


def test_raw_operator_counts_branches(model, lab):
    M = assemble_transfer(model, lab.grid, 0.0)
    ones = np.ones(model.N * lab.grid.m)
    assert np.abs(M @ ones - (model.N - 1)).max() <= 1e-12


def test_normalized_fixes_constants(model, lab):
    pot = lab.potential(0.0)
    M = assemble_transfer(model, lab.grid, 0.0, potential=pot)
    ones = np.ones(model.N * lab.grid.m)
    assert np.abs(M @ ones - 1.0).max() <= 1e-10


def test_normalized_dual_fixed_point(model, lab):
    # nu_U(L_0 H) = nu_U(H) for smooth random H
    pot = lab.potential(0.0)
    M = assemble_transfer(model, lab.grid, 0.0, potential=pot)
    sol = lab.rpf(0.0)
    w_U = (sol.nu * sol.h).reshape(-1)
    rng = np.random.default_rng(3)
    for _ in range(5):
        coeffs = rng.standard_normal(6)
        H = np.concatenate([np.polyval(coeffs, lab.grid.nodes[j] / 7.0) for j in range(model.N)])
        assert abs(w_U @ (M @ H) - w_U @ H) <= 1e-10 * max(1.0, np.abs(H).max())


def test_rpf_normalization(lab):
    sol = lab.rpf(0.0)
    assert abs(sol.lam - 1.0) <= 1e-10
    assert abs(float(np.sum(sol.nu * sol.h)) - 1.0) <= 1e-12
    assert sol.h.min() > 0
    assert sol.gap < 1.0


def test_log_lambda_strictly_decreasing(lab):
    lams = [lab.rpf(a).lam for a in (-0.04, -0.02, 0.0, 0.02, 0.04)]
    assert all(a > b for a, b in zip(lams, lams[1:]))


def test_nu_positive_on_resolved_integrands(model, lab):
    # the left eigenvector is signed entrywise (fractal eigenmeasure), but it
    # must act as a positive functional on everything the grid resolves
    sol = lab.rpf(0.0)
    rng = np.random.default_rng(4)
    for _ in range(25):
        coeffs = rng.standard_normal(7)
        for j in range(model.N):
            lo, hi = model.intervals[j]
            t = (lab.grid.nodes[j] - (lo + hi) / 2) / ((hi - lo) / 2)
            vals = np.polyval(coeffs, t) ** 2 + 0.1
            assert float(sol.nu[j] @ vals) > 0.0
    assert abs(sol.nu.sum() - 1.0) <= 1e-12


def test_cylinder_masses_positive_and_normalized(lab):
    for depth in (2, 4, 6):
        _, masses = lab.cylinder_masses(depth)
        assert masses.min() > 0
        assert abs(masses.sum() - 1.0) <= 1e-9


def test_cylinder_data_match_per_word_loops(model, lab):
    # the vectorized prepend walk against one scalar pass per word
    pot = lab.potential(0.0)
    sol = lab.rpf(0.0)
    for depth in (1, 3, 5):
        words, anchors = lab.anchors(depth)
        _, masses = lab.cylinder_masses(depth)
        for i, w in enumerate(map(tuple, words.tolist())):
            x = sym.SymbolicPoint(w, sym.omega_tail(model.T, w[-1]).period)
            assert abs(anchors[i] - sym.eval_point(model, x)) <= 1e-12 * abs(anchors[i])
            k, v, f = w[-1], lab.grid.nodes[w[-1]], 0.0
            for j in reversed(w[:-1]):
                v2 = model.inv_branch(j, v)
                f = f + pot.f_step(j, k, v2, v)
                k, v = j, v2
            mass = float(np.sum(sol.nu[w[-1]] * sol.h[w[-1]] * np.exp(f)))
            assert abs(masses[i] - mass) <= 1e-12 * mass


def test_critical_exponent_range(lab):
    assert 0.0 < lab.delta <= 1.0 - 1e-6


def test_critical_exponent_vs_refinement_oracle(model, lab):
    oracle = refinement_dimension(model, depth=7)
    assert abs(lab.delta - oracle) <= 1e-4


def test_critical_exponent_degree_stability(model, lab):
    lab32 = ThermoLab(model, degree=32)
    assert abs(lab32.delta - lab.delta) <= 1e-8


def test_critical_exponent_raises_when_unconverged(model, lab):
    with pytest.raises(NoConvergence):
        critical_exponent(model, lab.grid, max_iter=2)


def test_potential_refuses_a_at_a0p(lab):
    # the measured constants cover |a| < a0' = 0.05 only
    lab.potential(0.04)
    for a in (0.05, -0.05):
        with pytest.raises(ValueError, match="a0'"):
            lab.potential(a)


def test_dense_leading_rejects_complex_leading_pair():
    # a real rotation has leading pair +-i; its real part is no eigenvector
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    with pytest.raises(NoConvergence):
        dense_leading(rot)


def test_dense_leading_rejects_a_zero_or_non_finite_matrix():
    # M = 0 passed the residual check as 0 <= 0 and then divided 0 by 0 with a
    # RuntimeWarning; a matrix with overflowed weights reached LAPACK's LinAlgError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in (np.zeros((4, 4)), np.full((4, 4), np.inf), np.diag([1.0, np.nan, 0.5])):
            with pytest.raises(NoConvergence):
                dense_leading(M)


def test_normalize_two_paths_agree(model, lab):
    # f^(a) from the potential object vs the raw formula recomputed here
    a = 0.02
    pot = lab.potential(a)
    sol0 = lab.rpf(0.0)
    for k in range(model.N):
        u = lab.grid.nodes[k]
        for j in range(model.N):
            if not model.T[j, k]:
                continue
            v = model.inv_branch(j, u)
            manual = (
                -(a + lab.delta) * model.tau(j, v)
                + np.log(lab.grid.interp(j, sol0.h[j], v))
                - np.log(lab.grid.interp(k, sol0.h[k], u))
                - np.log(lab.rpf(a).lam)
            )
            assert np.abs(pot.f_step(j, k, v, u) - manual).max() <= 1e-13


def test_a_f_bound_inside_radius(model, lab, consts):
    # measured A_f covers parameters not in the measurement set
    for a in (0.025, -0.025, 0.033):
        pot_a, pot_0 = lab.potential(a), lab.potential(0.0)
        worst = 0.0
        for k in range(model.N):
            u = lab.grid.nodes[k]
            for j in range(model.N):
                if model.T[j, k]:
                    v = model.inv_branch(j, u)
                    worst = max(worst, np.abs(pot_a.f_step(j, k, v, u) - pot_0.f_step(j, k, v, u)).max())
        assert worst <= consts.A_f * abs(a)


def test_one_step_mass_bound_random_points(model, lab, consts):
    rng = np.random.default_rng(6)
    pairs = sym.lip_quotient_pairs(model, rng, depths=[0], samples_per_depth=20)
    for a in (0.04, -0.04):
        for _, x, _ in pairs:
            # exp(f_1^(a)) summed over the one-step words prepended to x
            walk = Walk.from_point(model, lab.potential(a), x)
            walk.step(range(model.N))
            assert np.exp(walk.f).sum() <= consts.C_f


def test_gap_across_parameter_range(lab):
    for a in (-0.05, -0.02, 0.0, 0.02, 0.05):
        assert lab.rpf(a).gap < 1.0


def test_second_eigenvalue_stable_under_refinement(model, lab):
    lab32 = ThermoLab(model, degree=32)
    g16 = lab.rpf(0.0).gap
    g32 = lab32.rpf(0.0).gap
    assert abs(g16 - g32) <= 0.1 * g16


def test_gap_dense_above_dimension_256(model, lab):
    # degree 80 gives dimension 320, where a deflated power iteration once
    # converged to the third eigenvalue (gap 0.40867 instead of 0.49657)
    lab80 = ThermoLab(model, degree=80)
    sol = rpf_solve(model, lab80.grid, 0.0, delta=lab80.delta)
    M = assemble_transfer(model, lab80.grid, -lab80.delta)
    eig = np.sort(np.abs(np.linalg.eigvals(M)))[::-1]
    assert abs(sol.gap - eig[1] / eig[0]) <= 1e-10
    assert abs(sol.gap - lab.rpf(0.0).gap) <= 0.1 * sol.gap


def test_duality(model, lab):
    for a in (-0.03, 0.0, 0.03):
        sol = lab.rpf(a)
        M = assemble_transfer(model, lab.grid, -(lab.delta + a))
        rng = np.random.default_rng(8)
        for _ in range(5):
            H = np.concatenate([np.polyval(rng.standard_normal(5), lab.grid.nodes[j] / 7.0)
                                for j in range(model.N)])
            lhs = float(sol.nu.reshape(-1) @ (M @ H))
            rhs = sol.lam * float(sol.nu.reshape(-1) @ H)
            assert abs(lhs - rhs) <= 1e-9 * np.abs(H).max()


def test_pressure_consistency(model, lab):
    # leading eigenvalue of the raw operator at s vs the normalized assembly
    # at a = s - delta rescaled by lambda_a: two assembly paths, same number
    for a in (-0.02, 0.02):
        s = lab.delta + a
        raw = rpf_solve(model, lab.grid, a, delta=lab.delta).lam
        pot = lab.potential(a)
        Mn = assemble_transfer(model, lab.grid, complex(a, 0.0), potential=pot)
        eig = np.abs(np.linalg.eigvals(Mn)).max()
        assert abs(np.log(raw) - (np.log(eig) + np.log(lab.rpf(a).lam))) <= 1e-9


def _same_bits(a, b):
    if a is None or b is None:
        return a is b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("q", [None, 5])
def test_walk_step_matches_per_symbol_loop(model, lab, groups, q):
    group = None if q is None else groups(q)
    plans = [[range(model.N)] * 5,
             [range(model.N)] * 2 + [[s] for s in (0, 1, 1, 2, 3, 3, 0)] + [[0, 2]]]
    for plan in plans:
        walk = Walk.from_point(model, lab.potential(0.02), sym.point((0, 1), (2,)), group)
        old = copy.copy(walk)
        for symbols in plan:
            assert _same_bits(walk.step(symbols), walk_step_per_symbol(old, symbols))
            for name in WALK_ARRAYS:
                assert _same_bits(getattr(walk, name), getattr(old, name)), (plan, symbols, name)


@pytest.mark.parametrize("degree", [8, 16])
def test_constants_match_per_point_measurement(model, lab, degree):
    lab = lab if degree == lab.grid.m else ThermoLab(model, degree=degree)
    c = lab.constants()
    assert (c.theta, c.T0, c.A_f, c.C_f) == measure_constants_per_point(lab)


def test_walk_step_too_large_leaves_walk_untouched(model, lab, groups, monkeypatch):
    walk = Walk.from_point(model, lab.potential(0.0), sym.point((0,), (1,)), groups(5))
    for _ in range(4):
        walk.step(range(model.N))  # 81 leaves; the next step makes 243
    before = {name: getattr(walk, name) for name in WALK_ARRAYS}
    saved = {name: arr.copy() for name, arr in before.items()}
    monkeypatch.setattr(thermo, "MAX_LEAVES", 100)
    with pytest.raises(EnumerationTooLarge):
        walk.step(range(model.N))
    for name in WALK_ARRAYS:
        assert getattr(walk, name) is before[name]
        assert _same_bits(before[name], saved[name])
