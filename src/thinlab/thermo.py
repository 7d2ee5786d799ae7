"""Discretized transfer operators on the union of intervals: RPF eigendata,
pressure, critical exponent, the normalized potential, and the measured
constants every later bound is tested against.

Discretization is Chebyshev collocation (first-kind nodes, barycentric
interpolation) per interval; branch maps are analytic Moebius maps so the
leading eigendata converge spectrally in the degree.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import symbolic
from .errors import EnumerationTooLarge, InadmissibleWord, NoConvergence, RootNotBracketed
from .symbolic import MAX_LEAVES, lip_quotient_pairs, word_table


class CollocationGrid:
    """Per-symbol Chebyshev nodes with barycentric interpolation weights."""

    def __init__(self, model, degree=16):
        self.model = model
        self.m = degree
        i = np.arange(degree)
        ang = (2 * i + 1) * np.pi / (2 * degree)
        ref = np.cos(ang)                       # strictly inside (-1, 1)
        self.wbary = (-1.0) ** i * np.sin(ang)  # first-kind barycentric weights
        mid = self.model.intervals.mean(axis=1)
        half = np.diff(self.model.intervals, axis=1)[:, 0] / 2.0
        self.nodes = mid[:, None] + half[:, None] * ref[None, :]

    @property
    def dim(self):
        return self.model.N * self.m

    def bary_matrix(self, j, x):
        """Rows of interpolation weights from the nodes of interval j to points x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        diff = x[:, None] - self.nodes[j][None, :]
        hit = np.abs(diff) < 1e-300
        diff = np.where(hit, 1.0, diff)
        rows = self.wbary[None, :] / diff
        rows /= rows.sum(axis=1, keepdims=True)
        if hit.any():
            rows[hit.any(axis=1)] = 0.0
            rows[hit] = 1.0
        return rows

    def interp(self, j, values_j, x):
        return self.bary_matrix(j, x) @ values_j


def assemble_transfer(model, grid, xi, normalized=False, potential=None):
    """Dense collocation matrix of the transfer operator at parameter xi.

    Raw weight is exp(xi * tau); normalized weight is exp(f^(a) + i b tau) with
    a = Re(xi) pinned to the potential's parameter.
    """
    xi = complex(xi)
    if normalized:
        if potential is None:
            raise ValueError("normalized assembly needs a NormalizedPotential")
        if abs(xi.real - potential.a) > 1e-12:
            raise ValueError(f"Re(xi) = {xi.real} does not match potential a = {potential.a}")
    m, N = grid.m, model.N
    M = np.zeros((N * m, N * m), dtype=complex)
    for k in range(N):
        u = grid.nodes[k]
        for j in range(N):
            if not model.admissible(j, k):
                continue
            v = model.inv_branch(j, u)
            tau = model.tau(j, v)
            if normalized:
                w = np.exp(potential.f_step(j, k, v, u) + 1j * xi.imag * tau)
            else:
                w = np.exp(xi * tau)
            M[k * m:(k + 1) * m, j * m:(j + 1) * m] += w[:, None] * grid.bary_matrix(j, v)
    if np.abs(M.imag).max() == 0.0:
        return M.real.copy()
    return M


RESIDUAL_TOL = 1e-10


def dense_leading(M):
    """(lam, v, rho_2): the eigenvalue of largest modulus of M, its unit
    eigenvector and the second-largest eigenvalue modulus, from one dense
    LAPACK solve.  For a real M the pair comes back real, so a complex leading
    pair fails the residual check; NoConvergence when ||M v - lam v|| exceeds
    RESIDUAL_TOL * |lam|."""
    w, V = np.linalg.eig(M)
    order = np.argsort(np.abs(w))
    lam, v = w[order[-1]], V[:, order[-1]]
    if np.isrealobj(M):
        lam, v = lam.real, v.real
    residual = float(np.linalg.norm(M @ v - lam * v))
    if not residual <= RESIDUAL_TOL * abs(lam):
        raise NoConvergence(f"leading eigenpair residual {residual:.3e} exceeds {RESIDUAL_TOL:g} * |lambda|")
    return lam, v, float(abs(w[order[-2]]))


@dataclass
class RpfSolution:
    """Leading eigendata of the raw operator at potential -(delta + a) tau."""

    a: float
    lam: float
    h: np.ndarray        # (N, m) positive eigenfunction values
    nu: np.ndarray       # (N, m) nonnegative quadrature weights, total mass 1
    gap: float           # |second eigenvalue| / lam


def critical_exponent(model, grid, tol=1e-12, max_iter=200):
    """Bowen pressure root: the s in (0, 1) where log lambda(s) = 0 at potential
    -s tau, by Illinois regula falsi inside the [0, 1] bracket."""
    def loglam(s):
        return float(np.log(np.abs(np.linalg.eigvals(assemble_transfer(model, grid, -s))).max()))

    lo, hi = 0.0, 1.0
    f_lo, f_hi = loglam(lo), loglam(hi)
    if not (f_lo > 0.0 > f_hi):
        raise RootNotBracketed(f"leading eigenvalue is {np.exp(f_lo)} at 0 and {np.exp(f_hi)} at 1")
    side = 0
    for _ in range(max_iter):
        s = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        f = loglam(s)
        if abs(f) < tol:
            return s
        # Illinois: halve the stale endpoint's value when the same side moves twice
        if f > 0.0:
            lo, f_lo = s, f
            if side == 1:
                f_hi *= 0.5
            side = 1
        else:
            hi, f_hi = s, f
            if side == -1:
                f_lo *= 0.5
            side = -1
    raise NoConvergence(f"pressure root not within {tol:g} after {max_iter} steps (bracket [{lo}, {hi}])")


def rpf_solve(model, grid, a, delta=None):
    """RPF eigendata (lam_a, h_a, nu_a, gap) at the potential -(delta + a) tau."""
    if delta is None:
        delta = critical_exponent(model, grid)
    M = assemble_transfer(model, grid, -(delta + a))
    lam, h, rho2 = dense_leading(M)
    _, nu, _ = dense_leading(M.T)
    if h.sum() < 0:
        h = -h
    if nu.sum() < 0:
        nu = -nu
    nu = nu / nu.sum()
    h = h / (nu @ h)
    m = grid.m
    return RpfSolution(a, float(lam), h.reshape(model.N, m), nu.reshape(model.N, m), rho2 / lam)


class NormalizedPotential:
    """f^(a) = -(a + delta) tau + log h0 - log h0 o sigma - log lam_a, evaluated anywhere."""

    def __init__(self, model, grid, a, delta, lam_a, h0):
        self.model = model
        self.grid = grid
        self.a = a
        self.delta = delta
        self.lam_a = lam_a
        self.loglam = float(np.log(lam_a))
        self.h0 = h0

    def logh0_at(self, j, x):
        scalar = np.asarray(x).ndim == 0
        vals = np.log(self.grid.interp(j, self.h0[j], x))
        return float(vals[0]) if scalar else vals

    def f_from_parts(self, tau, logh_v, logh_parent):
        return -(self.a + self.delta) * tau + logh_v - logh_parent - self.loglam

    def f_step(self, j, k, v, parent=None):
        """f^(a) on the branch (j, k) at points v = sigma^{-(j,k)}(parent)."""
        if parent is None:
            parent = self.model.forward(j, v)
        return self.f_from_parts(self.model.tau(j, v), self.logh0_at(j, v), self.logh0_at(k, parent))

    def f_at_point(self, x, px=None):
        """One-step f^(a) at a symbolic point (pair (x_0, x_1) evaluated at zeta(x))."""
        j, k = x.symbol(0), x.symbol(1)
        if px is None:
            px = symbolic.eval_point(self.model, x)
        return float(self.f_step(j, k, np.atleast_1d(px))[0])


@dataclass
class PotentialConstants:
    """Measured constants feeding every later schedule and bound."""

    theta: float
    C_theta: float
    T0: float
    A_f: float
    C_f: float
    a0p: float
    tau_min: float
    tau_max: float
    b0: float = 1.0

    @property
    def theta_factor(self):
        return self.theta / (1.0 - self.theta)

    def small_b_C1(self):
        t = self.T0 * self.theta_factor
        return max(1.0, (1.0 + self.b0) * t * np.exp(t))

    def mu_hat_nu_C(self):
        return float(np.exp(self.T0 * self.theta_factor))

    def nearly_flat_C(self, p):
        return float(np.exp(self.T0 * (self.theta_factor + p)))

    def estimate_nu_C(self, p):
        return self.T0 * self.theta ** (1 - p) / (1.0 - self.theta)


class ThermoLab:
    """Caches one model's grid, critical exponent, RPF data, and constants."""

    def __init__(self, model, degree=16, a0p=0.05, theta=None, seed=0):
        self.model = model
        self.grid = CollocationGrid(model, degree)
        self.a0p = a0p
        self.theta = float(theta if theta is not None else model.theta)
        self.seed = seed
        self._rpf = {}
        self._potential = {}
        self._masses = {}
        self._anchors = {}
        self._constants = None

    @cached_property
    def delta(self):
        return critical_exponent(self.model, self.grid)

    def rpf(self, a):
        key = round(float(a), 14)
        if key not in self._rpf:
            self._rpf[key] = rpf_solve(self.model, self.grid, key, delta=self.delta)
        return self._rpf[key]

    def potential(self, a):
        key = round(float(a), 14)
        if key not in self._potential:
            sol = self.rpf(key)
            h0 = self.rpf(0.0).h
            self._potential[key] = NormalizedPotential(self.model, self.grid, key, self.delta, sol.lam, h0)
        return self._potential[key]

    # ---- measured constants ----

    def constants(self):
        if self._constants is None:
            self._constants = self._measure_constants()
        return self._constants

    def _measure_constants(self):
        model, grid = self.model, self.grid
        a_samples = [0.0, 0.01, -0.01, 0.04, -0.04, 0.8 * self.a0p, -0.8 * self.a0p]
        a_samples = sorted({round(a, 12) for a in a_samples if abs(a) < self.a0p})
        pots = {a: self.potential(a) for a in a_samples}

        # A_f: difference quotient of f^(a) against f^(0) over all branch nodes
        ratio = 0.0
        f_sup = 0.0
        for a in a_samples:
            for k in range(model.N):
                u = grid.nodes[k]
                for j in range(model.N):
                    if not model.admissible(j, k):
                        continue
                    v = model.inv_branch(j, u)
                    fa = pots[a].f_step(j, k, v, u)
                    f_sup = max(f_sup, np.abs(fa).max())
                    if a != 0.0:
                        f0 = pots[0.0].f_step(j, k, v, u)
                        ratio = max(ratio, np.abs(fa - f0).max() / abs(a))
        A_f = 1.05 * ratio

        # T0 and C_theta: empirical d_theta difference quotients of tau and f^(a)
        rng = np.random.default_rng(self.seed)
        pairs = lip_quotient_pairs(model, rng, depths=range(0, 9), samples_per_depth=60)
        t0 = 1.0
        c_theta = 0.0
        for m_agree, x, y in pairs:
            scale = self.theta**m_agree
            px = symbolic.eval_point(model, x)
            py = symbolic.eval_point(model, y)
            c_theta = max(c_theta, abs(px - py) / scale)
            tx = float(model.tau(x.symbol(0), px))
            ty = float(model.tau(y.symbol(0), py))
            t0 = max(t0, abs(tx - ty) / scale)
            for a in a_samples:
                fx = pots[a].f_at_point(x, px)
                fy = pots[a].f_at_point(y, py)
                t0 = max(t0, abs(fx - fy) / scale)
        T0 = 1.25 * max(t0, f_sup)
        C_f = float(np.exp(A_f * self.a0p))
        return PotentialConstants(
            theta=self.theta,
            C_theta=1.05 * c_theta,
            T0=T0,
            A_f=A_f,
            C_f=C_f,
            a0p=self.a0p,
            tau_min=model.tau_min,
            tau_max=model.tau_max,
        )

    # ---- cylinder data on depth-D words ----

    def anchors(self, depth):
        """(word_table, points): the point of every depth-D cylinder, its word
        prepended to the omega continuation of its last symbol."""
        if depth not in self._anchors:
            model = self.model
            base = [symbolic.eval_point(model, symbolic.SymbolicPoint((k,), symbolic.omega_tail(model.T, k).period),
                                        check=False) for k in range(model.N)]
            walk = Walk(model, self.potential(0.0), np.arange(model.N), base)
            for _ in range(depth - 1):
                walk.step(range(model.N))
            self._anchors[depth] = (word_table(model.T, depth), walk.v)
        return self._anchors[depth]

    def cylinder_masses(self, depth):
        """(word_table, masses): the nu_U mass of every depth-D cylinder, by
        quadrature pulled through the word."""
        if depth not in self._masses:
            model, m = self.model, self.grid.m
            sol = self.rpf(0.0)
            w_U = sol.nu * sol.h  # d nu_U = h0 d nu0, total mass nu0(h0) = 1
            walk = Walk(model, self.potential(0.0), np.repeat(np.arange(model.N), m), self.grid.nodes.reshape(-1))
            for _ in range(depth - 1):
                walk.step(range(model.N))
            words = word_table(model.T, depth)
            masses = np.sum(w_U[words[:, -1]] * np.exp(walk.f.reshape(-1, m)), axis=1)
            self._masses[depth] = (words, masses)
        return self._masses[depth]

    def sum_exp_f(self, k, x, a):
        """Sum over admissible k-step words prepended to x of exp(f_k^(a)); equals
        the normalized operator's k-th iterate applied to the constant one."""
        walk = Walk.from_point(self.model, self.potential(a), x)
        for _ in range(k):
            walk.step(range(self.model.N))
        return float(np.exp(walk.f).sum())


class Walk:
    """Vectorized prepend walk from an array of (symbol, point) leaves.

    Each step prepends symbols to every leaf they may precede, carrying the
    preimage point, the Birkhoff sums of f^(a) and tau and, when a group is
    given, the index of the ascending cocycle product.  New leaves are ordered
    by prepended symbol, then by parent, so the leaves always run in
    lexicographic order of the prepended word, then in starting order.
    """

    def __init__(self, model, pot, sym, v, group=None, track_words=False):
        self.model = model
        self.pot = pot
        self.group = group
        self.sym = np.asarray(sym)
        self.v = np.asarray(v, dtype=float)
        self.logh = np.empty(self.v.size)
        for k in np.unique(self.sym):
            sel = self.sym == k
            self.logh[sel] = pot.logh0_at(k, self.v[sel])
        self.f = np.zeros(self.v.size)
        self.tau = np.zeros(self.v.size)
        self.cidx = None if group is None else np.full(self.v.size, group.identity)
        self.words = np.zeros((self.v.size, 0), dtype=np.int8) if track_words else None

    @classmethod
    def from_point(cls, model, pot, x, group=None, track_words=False):
        """A walk whose only starting leaf is the symbolic point x."""
        return cls(model, pot, [x.first], [symbolic.eval_point(model, x)], group, track_words)

    def _perm(self, j):
        return self.group.left_mul_perm(self.group.reduce(self.model.gens[j]))

    def size(self):
        return self.sym.size

    def step(self, symbols, cap=MAX_LEAVES):
        """Prepend each admissible symbol from `symbols` to every current leaf;
        returns the parent index of each new leaf."""
        model, pot = self.model, self.pot
        parts = []
        for j in symbols:
            mask = np.flatnonzero(model.T[j, self.sym])
            if mask.size == 0:
                continue
            v2 = model.inv_branch(j, self.v[mask])
            tau2 = model.tau(j, v2)
            logh2 = pot.logh0_at(j, v2)
            f2 = self.f[mask] + pot.f_from_parts(tau2, logh2, self.logh[mask])
            parts.append((j, mask, v2, logh2, f2, self.tau[mask] + tau2))
        if not parts:
            raise InadmissibleWord("no admissible continuation for the requested symbols")
        parents = np.concatenate([p[1] for p in parts])
        if self.cidx is not None:
            self.cidx = np.concatenate([self._perm(j)[self.cidx[mask]] for j, mask, *_ in parts])
        self.sym = np.concatenate([np.full(p[1].size, p[0]) for p in parts])
        if self.words is not None:
            self.words = np.concatenate([self.words[parents], self.sym[:, None].astype(np.int8)], axis=1)
        self.v, self.logh, self.f, self.tau = (np.concatenate([p[i] for p in parts]) for i in range(2, 6))
        if self.size() > cap:
            raise EnumerationTooLarge(f"word enumeration grew past {cap} leaves")
        return parents
