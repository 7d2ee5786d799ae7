"""Schottky subgroups of SL2(Z) acting on the boundary line, and their Markov coding.

Conventions used throughout the package:

* Symbols are 0-based.  For a group of rank g, symbol j < g is the j-th given
  generator and symbol j + g is its inverse; ``bar(j) = (j + g) % 2g``.
* ``U_j`` is the real interval cut out by the isometric disk of the symbol-j
  matrix (center -d/c, radius 1/|c|).
* The expanding boundary map acts on U_j by the symbol-j matrix itself; the
  inverse branch from U_k into U_j (defined for k != bar(j)) is the symbol-j
  matrix inverted.  Its pole sits at the center of U_bar(j), never in U_k.
* Words are tuples of symbols in forward orbit order.  External serialization
  (CSV, JSON) is 1-based.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonHyperbolicGenerator,
    OverlappingDisks,
    PoleHit,
    ZeroLowerLeftEntry,
)

DISK_GAP_MARGIN = 1e-9
POLE_TOL = 1e-14


@dataclass(frozen=True)
class MobiusMap:
    """Integer 2x2 matrix of determinant one acting by fractional linear maps."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be exactly 1, got matrix {self.tuple()}")

    def tuple(self):
        return (self.a, self.b, self.c, self.d)

    @property
    def trace(self):
        return self.a + self.d

    def inverse(self):
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other):
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, x):
        """Evaluate the fractional linear map and its derivative modulus at x."""
        den = self.c * x + self.d
        if abs(den) <= POLE_TOL:
            raise PoleHit(x)
        return (self.a * x + self.b) / den, 1.0 / den**2


IDENTITY = MobiusMap(1, 0, 0, 1)


@dataclass(frozen=True)
class IsometricDisk:
    center: float
    radius: float

    @property
    def interval(self):
        return (self.center - self.radius, self.center + self.radius)


@dataclass(frozen=True)
class SchottkyData:
    """Rank-g Schottky data: the given generators plus derived symbol tables."""

    generators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))

    @property
    def rank(self):
        return len(self.generators)

    @property
    def n_symbols(self):
        return 2 * len(self.generators)

    def bar(self, j):
        return (j + self.rank) % self.n_symbols

    def symbol_matrix(self, j):
        g = self.rank
        return self.generators[j] if j < g else self.generators[j - g].inverse()

    def disk(self, j):
        m = self.symbol_matrix(j)
        if m.c == 0:
            raise ZeroLowerLeftEntry(j % self.rank)
        return IsometricDisk(-m.d / m.c, 1.0 / abs(m.c))

    @classmethod
    def from_matrices(cls, mats):
        return cls(tuple(MobiusMap(*m.tuple()) if isinstance(m, MobiusMap) else MobiusMap(*m) for m in mats))

    @classmethod
    def from_json_dict(cls, doc):
        gens = []
        for rows in doc["generators"]:
            (a, b), (c, d) = rows
            for entry in (a, b, c, d):
                if not isinstance(entry, int):
                    raise ValueError(f"generator entries must be integers, got {entry!r}")
            gens.append(MobiusMap(a, b, c, d))
        return cls(tuple(gens))


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)

    def raise_if_failed(self):
        if not self.ok:
            raise self.violations[0]


def validate_schottky(data):
    """Check disk disjointness and the ping-pong mapping law; list violations."""
    violations = []
    checks = {}

    if data.rank < 2:
        violations.append(ValueError(f"need at least 2 generators, got {data.rank}"))

    for i, gen in enumerate(data.generators):
        if gen.c == 0:
            violations.append(ZeroLowerLeftEntry(i))
        elif abs(gen.trace) <= 2:
            violations.append(NonHyperbolicGenerator(i, gen.trace))
    checks["hyperbolic"] = not violations

    if violations:
        return ValidationReport(False, violations, checks)

    intervals = [data.disk(j).interval for j in range(data.n_symbols)]
    order = sorted(range(data.n_symbols), key=lambda j: intervals[j][0])
    disjoint = True
    for prev, cur in zip(order, order[1:]):
        if intervals[cur][0] - intervals[prev][1] <= DISK_GAP_MARGIN:
            violations.append(OverlappingDisks(prev, cur))
            disjoint = False
    checks["disjoint_disks"] = disjoint

    # Ping-pong law: symbol j maps the boundary of disk j onto the boundary of
    # disk bar(j) isometrically, and infinity to its center (exact identity).
    pingpong = True
    if disjoint:
        for j in range(data.n_symbols):
            m = data.symbol_matrix(j)
            target = data.disk(data.bar(j))
            lo, hi = intervals[j]
            images = sorted(m.apply(x)[0] for x in (lo, hi))
            t_lo, t_hi = target.interval
            scale = max(1.0, abs(t_lo), abs(t_hi))
            if abs(images[0] - t_lo) > 1e-9 * scale or abs(images[1] - t_hi) > 1e-9 * scale:
                pingpong = False
            # image of infinity is a/c; algebraically equal to the target center
            if abs(m.a / m.c - target.center) > 1e-12 * scale:
                pingpong = False
        if not pingpong:
            violations.append(ValueError("ping-pong mapping law failed numerically"))
    checks["ping_pong"] = pingpong

    return ValidationReport(not violations, violations, checks)


class MarkovModel:
    """Markov coding of the boundary map: intervals, transitions, branches, roof, word cocycle."""

    def __init__(self, data):
        report = validate_schottky(data)
        report.raise_if_failed()
        self.N = data.n_symbols
        self.gens = [data.symbol_matrix(j) for j in range(self.N)]
        self.gens_inv = [m.inverse() for m in self.gens]
        # (4, N) coefficients (a, b, c, d) of each symbol's map, read per point
        # by the branch evaluators; stored as floats, which hold these small
        # integers exactly and which numpy mixes with float points faster
        self.coef = np.array([m.tuple() for m in self.gens], dtype=float).T
        self.coef_inv = np.array([m.tuple() for m in self.gens_inv], dtype=float).T
        self.intervals = np.array([data.disk(j).interval for j in range(self.N)])
        bar = np.array([data.bar(j) for j in range(self.N)])
        T = np.ones((self.N, self.N), dtype=np.int8)
        T[np.arange(self.N), bar] = 0
        self.T = T
        self.theta = self._max_contraction()

    # ---- branches ----

    # j is one symbol or an array of symbols, one per point; no pole guard

    def inv_branch(self, j, x):
        """sigma^{-(j,k)} applied to points x of U_k (k implicit, k != bar(j))."""
        a, b, c, d = self.coef_inv.take(j, axis=1)
        return (a * x + b) / (c * x + d)

    def forward(self, j, x):
        a, b, c, d = self.coef.take(j, axis=1)
        return (a * x + b) / (c * x + d)

    def tau(self, j, v):
        """Roof value log |forward derivative of symbol j| at points v of U_j."""
        c, d = self.coef[2:].take(j, axis=1)
        return -2.0 * np.log(np.abs(c * v + d))

    def word_cocycle(self, word):
        """Exact integer product of the step matrices of a word, in word order."""
        m = IDENTITY
        for j in word:
            m = m @ self.gens[j]
        return m

    # ---- measured geometry constants ----

    def _max_contraction(self):
        # inverse-branch derivatives are monotone on each source interval, so
        # endpoint evaluation is exact
        pairs = zip(*np.nonzero(self.T))
        return max(abs(self.gens_inv[j].apply(x)[1]) for j, k in pairs for x in self.intervals[k])

def build_markov_model(data):
    """Derive the Markov coding from validated Schottky data."""
    return MarkovModel(data)
