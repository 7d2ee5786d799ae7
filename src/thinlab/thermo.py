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
from .errors import EnumerationTooLarge, InadmissibleWord, NoConvergence, RootNotBracketed, TooLarge
from .symbolic import MAX_LEAVES, lip_quotient_pairs, word_table

MAX_GRID_ROWS = 4096  # N * degree; one complex eig of 2,560 rows took 41 s on one thread


class CollocationGrid:
    """Per-symbol Chebyshev nodes with barycentric interpolation weights."""

    def __init__(self, model, degree=16):
        if model.N * degree > MAX_GRID_ROWS:
            raise TooLarge(f"degree {degree} on {model.N} intervals gives {model.N * degree} grid rows; "
                           f"the dense solves take at most {MAX_GRID_ROWS}")
        self.model = model
        self.m = degree
        i = np.arange(degree)
        ang = (2 * i + 1) * np.pi / (2 * degree)
        ref = np.cos(ang)                       # strictly inside (-1, 1)
        self.wbary = (-1.0) ** i * np.sin(ang)  # first-kind barycentric weights
        mid = self.model.intervals.mean(axis=1)
        half = np.diff(self.model.intervals, axis=1)[:, 0] / 2.0
        self.nodes = mid[:, None] + half[:, None] * ref[None, :]

    @cached_property
    def branches(self):
        """(k, i, j, u): every admissible branch (j, k) at every node i of U_k,
        in (k, j, i) order, with the node u = nodes[k, i]."""
        k, j = np.nonzero(self.model.T.T)
        k, j = np.repeat(k, self.m), np.repeat(j, self.m)
        i = np.tile(np.arange(self.m), k.size // self.m)
        return k, i, j, self.nodes[k, i]

    def bary_matrix(self, j, x):
        """Rows of interpolation weights from the nodes of U_j to points x; j is
        one symbol or one per point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        diff = x[:, None] - self.nodes[j]
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
    k, i, j, u = grid.branches
    v = model.inv_branch(j, u)
    tau = model.tau(j, v)
    if normalized:
        w = np.exp(potential.f_step(j, k, v, u) + 1j * xi.imag * tau)
    else:
        w = np.exp(xi * tau)
    M = np.zeros((N * m, N, m), dtype=complex)
    M[k * m + i, j] += w[:, None] * grid.bary_matrix(j, v)
    M = M.reshape(N * m, N * m)
    if np.abs(M.imag).max() == 0.0:
        return M.real.copy()
    return M


RESIDUAL_TOL = 1e-10
PRESSURE_TOL = 1e-12
# a0': every normalized potential f^(a) has |a| < A0P, the range the measured
# constants cover
A0P = 0.05
B0 = 1.0  # small_b_C1 covers the twist frequencies |b| <= B0


def dense_leading(M):
    """(lam, v, rho_2, residual): the eigenvalue of largest modulus of M, its
    unit eigenvector, the second-largest eigenvalue modulus and the relative
    residual ||M v - lam v|| / |lam|, from one dense LAPACK solve.  For a real
    M the pair comes back real, so a complex leading pair fails the residual
    check; NoConvergence when the residual exceeds RESIDUAL_TOL."""
    w, V = np.linalg.eig(M)
    order = np.argsort(np.abs(w))
    lam, v = w[order[-1]], V[:, order[-1]]
    if np.isrealobj(M):
        lam, v = lam.real, v.real
    residual = float(np.linalg.norm(M @ v - lam * v))
    if not residual <= RESIDUAL_TOL * abs(lam):
        raise NoConvergence(f"leading eigenpair residual {residual:.3e} exceeds {RESIDUAL_TOL:g} * |lambda|")
    return lam, v, float(abs(w[order[-2]])), residual / abs(lam)


@dataclass
class RpfSolution:
    """Leading eigendata of the raw operator at potential -(delta + a) tau."""

    lam: float           # positive
    h: np.ndarray        # (N, m) positive eigenfunction values
    nu: np.ndarray       # (N, m) signed quadrature weights, total mass 1
    gap: float           # |second eigenvalue| / lam
    residual: float      # ||M h - lam h|| / lam of the collocation eigenpair


def critical_exponent(model, grid, max_iter=200):
    """Bowen pressure root: the s in (0, 1) where |log lambda(s)| < PRESSURE_TOL
    at potential -s tau, by Illinois regula falsi inside the [0, 1] bracket."""
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
        if abs(f) < PRESSURE_TOL:
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
    raise NoConvergence(f"pressure root not within {PRESSURE_TOL:g} after {max_iter} steps (bracket [{lo}, {hi}])")


def rpf_solve(model, grid, a, delta):
    """RPF eigendata (lam_a, h_a, nu_a, gap) at the potential -(delta + a) tau;
    NoConvergence unless lam_a and every value of h_a are positive, as they are
    for the Perron root (far from delta the weights underflow, and the leading
    pair is rounding noise)."""
    M = assemble_transfer(model, grid, -(delta + a))
    lam, h, rho2, residual = dense_leading(M)
    nu = dense_leading(M.T)[1]
    if h.sum() < 0:
        h = -h
    if nu.sum() < 0:
        nu = -nu
    nu = nu / nu.sum()
    h = h / (nu @ h)
    if not (lam > 0 and (h > 0).all()):
        raise NoConvergence(f"leading eigenvalue {lam:.17g}, min h {h.min():.17g}: not a Perron pair at a = {a}")
    m = grid.m
    return RpfSolution(float(lam), h.reshape(model.N, m), nu.reshape(model.N, m), rho2 / lam, residual)


class NormalizedPotential:
    """f^(a) = -(a + delta) tau + log h0 - log h0 o sigma - log lam_a, evaluated anywhere."""

    def __init__(self, model, grid, a, delta, lam_a, h0):
        self.model = model
        self.grid = grid
        self.a = a
        self.delta = delta
        self.loglam = float(np.log(lam_a))
        self.h0 = h0

    def logh0_at(self, j, x):
        """log h0 at points x of U_j; j is one symbol or one per point.  Each
        symbol's points are interpolated as one batch, in point order: BLAS may
        round a row differently in batches of different sizes, and these are the
        batches the prepend walk has always used."""
        x = np.asarray(x, dtype=float)
        if np.ndim(j) == 0:
            return np.log(self.grid.interp(j, self.h0[j], x)).reshape(x.shape)[()]
        out = np.empty(x.shape)
        for s in np.flatnonzero(np.bincount(j)):
            sel = j == s
            out[sel] = self.logh0_at(s, x[sel])
        return out

    def f_from_parts(self, tau, logh_v, logh_parent):
        return -(self.a + self.delta) * tau + logh_v - logh_parent - self.loglam

    def f_step(self, j, k, v, parent=None):
        """f^(a) on the branches (j, k) at points v = sigma^{-(j,k)}(parent); j
        and k are one symbol or one per point."""
        if parent is None:
            parent = self.model.forward(j, v)
        return self.f_from_parts(self.model.tau(j, v), self.logh0_at(j, v), self.logh0_at(k, parent))


@dataclass
class PotentialConstants:
    """Measured constants feeding every later schedule and bound."""

    theta: float
    T0: float
    A_f: float

    @property
    def C_f(self):
        return float(np.exp(self.A_f * A0P))

    @property
    def theta_factor(self):
        return self.theta / (1.0 - self.theta)

    def small_b_C1(self):
        t = self.T0 * self.theta_factor
        return max(1.0, (1.0 + B0) * t * np.exp(t))

    def mu_hat_nu_C(self):
        return float(np.exp(self.T0 * self.theta_factor))

    def nearly_flat_C(self, p):
        return float(np.exp(self.T0 * (self.theta_factor + p)))

    def estimate_nu_C(self, p):
        return self.T0 * self.theta ** (1 - p) / (1.0 - self.theta)


class ThermoLab:
    """Caches one model's grid, critical exponent, RPF data, and constants."""

    def __init__(self, model, degree=16, theta=None):
        self.model = model
        self.grid = CollocationGrid(model, degree)
        self.theta = float(theta if theta is not None else model.theta)
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
        """The normalized potential f^(a); ValueError unless |a| < A0P."""
        if not abs(a) < A0P:
            raise ValueError(f"|Re xi| = {abs(a)} must stay below a0' = {A0P}")
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
        a_samples = [0.0, 0.01, -0.01, 0.04, -0.04, 0.8 * A0P, -0.8 * A0P]
        a_samples = sorted({round(a, 12) for a in a_samples if abs(a) < A0P})
        pots = {a: self.potential(a) for a in a_samples}

        # A_f: difference quotient of f^(a) against f^(0) over all branch nodes
        k, _, j, u = grid.branches
        v = model.inv_branch(j, u)
        f = {a: pots[a].f_step(j, k, v, u) for a in a_samples}
        f_sup = max(np.abs(fa).max() for fa in f.values())
        A_f = 1.05 * max(np.abs(f[a] - f[0.0]).max() / abs(a) for a in a_samples if a != 0.0)

        # T0: empirical theta-metric difference quotients of tau and f^(a) over
        # sampled pairs (x, y), stored interleaved x, y, x, y, ...
        rng = np.random.default_rng(0)
        pairs = lip_quotient_pairs(model, rng, depths=range(0, 9), samples_per_depth=60)
        scale = np.array([self.theta**m_agree for m_agree, _, _ in pairs])
        pts = [p for _, x, y in pairs for p in (x, y)]
        px = np.array([symbolic.eval_point(model, p) for p in pts])
        s0, s1 = np.array([p.symbols(2) for p in pts]).T

        def quotient(vals):
            return np.max(np.abs(vals[0::2] - vals[1::2]) / scale)

        t0 = max(1.0, quotient(model.tau(s0, px)),
                 *(quotient(pots[a].f_step(s0, s1, px)) for a in a_samples))
        return PotentialConstants(theta=self.theta, T0=1.25 * max(t0, f_sup), A_f=A_f)

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


class Walk:
    """Vectorized prepend walk from an array of (symbol, point) leaves.

    Each step prepends symbols to every leaf they may precede, carrying the
    preimage point, the Birkhoff sums of f^(a) and tau and, when a group is
    given, the index of the ascending cocycle product.  New leaves are ordered
    by prepended symbol, then by parent, so the leaves always run in
    lexicographic order of the prepended word, then in starting order.
    `step` rebinds the leaf arrays and never writes into them, so an array
    read from a walk keeps the values of the level it was read at.
    """

    def __init__(self, model, pot, sym, v, group=None):
        self.model = model
        self.pot = pot
        self.sym = np.asarray(sym)
        self.v = np.asarray(v, dtype=float)
        self.logh = pot.logh0_at(self.sym, self.v)
        self.f = np.zeros(self.v.size)
        self.tau = np.zeros(self.v.size)
        self.cidx = None if group is None else np.full(self.v.size, group.identity)
        self.perms = None if group is None else np.array([group.left_mul_perm(c) for c in group.reduce(model.gens)])

    @classmethod
    def from_point(cls, model, pot, x, group=None):
        """A walk whose only starting leaf is the symbolic point x."""
        return cls(model, pot, [x.first], [symbolic.eval_point(model, x)], group)

    def size(self):
        return self.sym.size

    def step(self, symbols):
        """Prepend each admissible symbol from `symbols` to every current leaf;
        returns the parent index of each new leaf.  On EnumerationTooLarge or
        InadmissibleWord the walk is left as it was."""
        model, pot = self.model, self.pot
        symbols = np.asarray(symbols)
        admissible = model.T[symbols][:, self.sym]
        n = np.count_nonzero(admissible)
        if n == 0:
            raise InadmissibleWord("no admissible continuation for the requested symbols")
        if n > MAX_LEAVES:
            raise EnumerationTooLarge(f"word enumeration grew past {MAX_LEAVES} leaves")
        row, parents = np.nonzero(admissible)
        sym = symbols[row]
        v = model.inv_branch(sym, self.v[parents])
        tau = model.tau(sym, v)
        logh = pot.logh0_at(sym, v)
        if self.cidx is not None:
            self.cidx = self.perms[sym, self.cidx[parents]]
        self.f = self.f[parents] + pot.f_from_parts(tau, logh, self.logh[parents])
        self.sym, self.v, self.logh, self.tau = sym, v, logh, self.tau[parents] + tau
        return parents
