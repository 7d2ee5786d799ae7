"""End-to-end decay experiments: contraction schedules, small-frequency decay
curves for new-vector inputs, and the twisted spectral radius of the base
operator at large frequencies."""

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .congruence import (CongruenceFunction, CongruenceOperator, cf_l2_norm, cf_lip_norm,
                         new_space_projector)
from .errors import BudgetExceeded
from .thermo import CollocationGrid, NormalizedPotential, assemble_transfer, dense_leading

C0 = 2.0  # r_q lies in [C0 log N, C0 log N + l)


@dataclass
class DecaySchedule:
    """Block lengths (r_q, s_q) and the constants that pin them."""

    q: int
    r_q: int
    s_q: int
    C0: float
    l: int
    C1: float
    C_f: float
    C_s: float
    theta: float
    kappa_hat: float = 0.05

    def norm_q(self):
        return float(self.q)

    def validate(self):
        N = self.norm_q()
        lo = self.C0 * log(N)
        ok_r = lo <= self.r_q < lo + self.l and self.r_q % self.l == 0
        ok_s = 4.0 * self.C1 * self.C_f * self.theta ** (self.s_q - self.r_q) <= 1.0 / N
        ok_window = self.r_q < self.s_q < self.C_s * log(N)
        return ok_r and ok_s and ok_window, {"r_in_range": ok_r, "s_condition": ok_s, "s_window": ok_window}


def make_schedule(q, consts, l=2, kappa_hat=0.05):
    """Integers r_q (multiple of l in [C0 log N, C0 log N + l)) and the smallest
    s_q past the theta-decay threshold; C_s leaves room for s_q by construction."""
    N = float(q)
    theta = consts.theta
    C1 = consts.small_b_C1()
    Cf = consts.C_f
    lo = C0 * log(N)
    r_q = l * ceil(lo / l)
    if r_q < lo:  # exact multiple boundary
        r_q += l
    gap = ceil(log(4.0 * C1 * Cf * N) / (-log(theta)))
    s_q = r_q + max(1, gap)
    lt, l2 = log(theta), log(2.0)
    C_s = C0 - 1.0 / lt + l / l2 - log(4.0 * C1 * Cf) / (lt * l2) + 1.0 / l2
    return DecaySchedule(q, r_q, s_q, C0, l, C1, Cf, C_s, theta, kappa_hat)


# ---- new-vector inputs ----

def random_new_vector(lab, group, depth, rng):
    """Complex Gaussian per (cylinder, group element), projected fiberwise onto
    the level-q new space; for q = 1 the projection is nu_U mean-zero over U."""
    H = CongruenceFunction.random(lab.model, group, depth, rng)
    if group.q == 1:
        _, masses = lab.cylinder_masses(depth)
        H.values -= np.sum(masses[:, None] * H.values, axis=0)
    else:
        H.values = new_space_projector(group)(H.values)
    return H


@dataclass
class DecayCurve:
    q: int
    s_q: int
    js: list
    norms: list
    norms_uniform: list
    bounds: list
    lip_norm: float
    per_step_factor: float
    passed: bool


def decay_small_b(lab, group, schedule, xi, seed, depth=6, step_budget=60):
    """Norms of M^{js} H for a seeded new-vector H, against N(q)^{-j kappa-hat}."""
    xi = complex(xi)
    if schedule.s_q > step_budget:
        raise BudgetExceeded(f"s_q = {schedule.s_q} exceeds step budget {step_budget}")
    rng = np.random.default_rng(seed)
    H = random_new_vector(lab, group, depth, rng)
    theta = lab.constants().theta
    lip_norm = cf_lip_norm(H, theta)
    H.values /= lip_norm
    _, masses = lab.cylinder_masses(depth)
    flat = np.full(len(H.words), 1.0 / len(H.words))
    op = CongruenceOperator(lab, group, xi.imag, depth, a=xi.real)
    N = schedule.norm_q()
    js, norms, norms_u, bounds = [], [], [], []
    values = H.values
    j = 0
    while j * schedule.s_q <= step_budget:
        cf = CongruenceFunction(depth, H.words, values)
        js.append(j)
        norms.append(cf_l2_norm(cf, masses))
        norms_u.append(cf_l2_norm(cf, flat))
        bounds.append(N ** (-j * schedule.kappa_hat))
        if (j + 1) * schedule.s_q > step_budget:
            break
        values = op.apply_k(values, schedule.s_q)
        j += 1
    total_steps = js[-1] * schedule.s_q
    per_step = (norms[-1] / norms[0]) ** (1.0 / total_steps) if total_steps else 1.0
    passed = all(n <= b * (1 + 1e-12) for n, b in zip(norms, bounds))
    return DecayCurve(group.q, schedule.s_q, js, norms, norms_u, bounds, float(lip_norm),
                      float(per_step), passed)


# ---- twisted radius of the base operator ----

def twisted_radius(lab, b, degree=None):
    """Spectral radius of the normalized twisted operator at xi = i b: the
    largest eigenvalue modulus of its collocation matrix, residual-checked.

    The collocation degree scales with |b| so the oscillation is resolved; h
    normalizes the potential only up to its (positive) scale.
    """
    model = lab.model
    if degree is None:
        degree = max(24, int(ceil(2.0 * abs(b))))
    grid = CollocationGrid(model, degree)
    lam0, h, _, _ = dense_leading(assemble_transfer(model, grid, -lab.delta))
    if h.sum() < 0:
        h = -h
    pot = NormalizedPotential(model, grid, 0.0, lab.delta, float(lam0), h.reshape(model.N, degree))
    lam = dense_leading(assemble_transfer(model, grid, 1j * float(b), normalized=True, potential=pot))[0]
    return float(abs(lam))
