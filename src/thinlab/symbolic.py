"""Subshift-of-finite-type layer: admissibility, mixing, symbolic points, d_theta,
and Birkhoff sums of the roof and the normalized potential along words.

A word prepended to a symbolic point x contributes one orbit step per word
symbol; for word w = (w_0, ..., w_{k-1}) the concatenated sequence is
(w_0, ..., w_{k-1}, x_0, x_1, ...) and the last step uses the pair
(w_{k-1}, x_0).
"""

from dataclasses import dataclass
from math import gcd, sqrt

import numpy as np

from .errors import EnumerationTooLarge, InadmissibleWord, NotMixing
from .schottky import IDENTITY

MAX_LEAVES = 5_000_000


# ---- transition structure ----

def mixing_exponent(T):
    """Smallest k <= N^2 with T^k entrywise positive; NotMixing otherwise."""
    T = np.asarray(T)
    n = T.shape[0]
    if np.any(T.sum(axis=0) == 0) or np.any(T.sum(axis=1) == 0):
        raise NotMixing("transition matrix has an empty row or column")
    power = np.asarray(T, dtype=np.int64)
    for k in range(1, n * n + 1):
        if (power > 0).all():
            return k
        power = np.minimum(power, 1) @ T
    raise NotMixing(f"no power of T up to {n * n} is entrywise positive")


def admissible(T, word):
    return all(T[a, b] for a, b in zip(word, word[1:]))


def word_table(T, depth):
    """All admissible words of `depth` symbols as the rows of an (n, depth)
    int8 array, lexicographic (np.nonzero runs in row-major order).
    EnumerationTooLarge past MAX_LEAVES rows, the cap of the prepend walk."""
    table = np.arange(T.shape[0], dtype=np.int8)[:, None]
    for _ in range(depth - 1):
        succ = T[table[:, -1]]
        if np.count_nonzero(succ) > MAX_LEAVES:
            raise EnumerationTooLarge(f"depth-{depth} word table grew past {MAX_LEAVES} rows")
        parent, nxt = np.nonzero(succ)
        table = np.concatenate([table[parent], nxt[:, None].astype(np.int8)], axis=1)
    return table


def word_rank(table, words, n):
    """Row index in the word table `table` of every word in `words` (shape
    (..., depth)); the rows read as base-n integers are sorted, so one
    searchsorted finds them.  InadmissibleWord for a word not in the table."""
    words = np.asarray(words)
    digits = n ** np.arange(table.shape[1] - 1, -1, -1, dtype=np.int64)
    codes = table.astype(np.int64) @ digits
    keys = words.reshape(-1, table.shape[1]).astype(np.int64) @ digits
    pos = np.searchsorted(codes, keys)
    if np.any(pos >= codes.size) or np.any(codes[np.minimum(pos, codes.size - 1)] != keys):
        raise InadmissibleWord(f"word not in the depth-{table.shape[1]} table")
    return pos.reshape(words.shape[:-1])


def all_words(T, depth):
    """All admissible words of `depth` symbols as tuples, lexicographic."""
    return list(map(tuple, word_table(T, depth).tolist()))


def enumerate_words(T, y, z, p, max_steps=16):
    """All admissible words with p steps (p+1 symbols) from y to z, lexicographic.

    Word length here counts orbit steps; p = 0 degenerates to [(y,)] when y == z.
    """
    if p > max_steps:
        raise InadmissibleWord(f"refusing enumeration of {p}-step words (cap {max_steps})")
    table = word_table(T, p + 1)
    return list(map(tuple, table[(table[:, 0] == y) & (table[:, -1] == z)].tolist()))


# ---- symbolic points ----

@dataclass(frozen=True)
class SymbolicPoint:
    """Eventually periodic element of the one-sided shift."""

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")

    def symbol(self, i):
        k = len(self.preperiod)
        if i < k:
            return self.preperiod[i]
        return self.period[(i - k) % len(self.period)]

    def symbols(self, n):
        return tuple(self.symbol(i) for i in range(n))

    @property
    def first(self):
        return self.preperiod[0] if self.preperiod else self.period[0]

    def prepend(self, word):
        return SymbolicPoint(tuple(word) + self.preperiod, self.period)

    def normalized(self):
        per = _primitive(self.period)
        pre = self.preperiod
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        return SymbolicPoint(pre, per)


def _primitive(period):
    m = len(period)
    for d in range(1, m + 1):
        if m % d == 0 and period == period[: d] * (m // d):
            return period[: d]
    return period


def point(pre, period):
    return SymbolicPoint(tuple(pre), tuple(period)).normalized()


def assert_admissible(T, x):
    seq = x.preperiod + x.period + x.period[:1]
    if not admissible(T, seq):
        raise InadmissibleWord(f"symbolic point {x} is not admissible")


def omega_tail(T, y):
    """Deterministic continuation after symbol y: the smallest symbol admissible
    after y, repeated forever (constant words are always admissible here)."""
    n = T.shape[0]
    for k in range(n):
        if T[y, k] and T[k, k]:
            return SymbolicPoint((), (k,))
    for k in range(n):  # fall back to the smallest admissible 2-cycle
        if T[y, k]:
            for m in range(n):
                if T[k, m] and T[m, k]:
                    return SymbolicPoint((), (k, m))
    raise InadmissibleWord(f"symbol {y} has no admissible continuation")


def first_disagreement(x, y):
    """Index of the first differing symbol, or None if the points coincide."""
    xn, yn = x.normalized(), y.normalized()
    if xn == yn:
        return None
    bound = len(xn.preperiod) + len(yn.preperiod) + _lcm(len(xn.period), len(yn.period))
    for i in range(bound + 1):
        if xn.symbol(i) != yn.symbol(i):
            return i
    return None


def _lcm(a, b):
    return a * b // gcd(a, b)


def d_theta(x, y, theta):
    i = first_disagreement(x, y)
    return 0.0 if i is None else theta**i


def eval_point(model, x, check=True):
    """The real point coded by an eventually periodic symbolic sequence.

    The closed period composite is a hyperbolic integer Moebius map; its
    attracting fixed point is computed from the dominant eigenvalue, then
    pulled back through the preperiod branch by branch.
    """
    x = x.normalized()
    if check:
        assert_admissible(model.T, x)
    comp = IDENTITY
    for s in x.period:
        comp = comp @ model.gens_inv[s]
    t = comp.trace
    disc = t * t - 4
    if disc <= 0:
        raise ValueError(f"period composite is not hyperbolic (trace {t})")
    root = sqrt(float(disc))
    lam = (t + root) / 2.0 if t > 0 else (t - root) / 2.0
    if comp.c == 0:
        raise ValueError("period composite fixes infinity; invalid coding")
    v = (lam - comp.d) / comp.c
    for s in reversed(x.preperiod):
        v = model.gens_inv[s].apply_vec(v)
    return float(v)


# ---- Birkhoff sums ----

def birkhoff(potential, alpha, x):
    """Birkhoff sums (tau, cocycle matrix, f^(a)) of word alpha prepended to x.

    `potential` carries the normalized-potential data at its parameter a; the
    cocycle is the exact integer product of step matrices in ascending order
    (MarkovModel.word_cocycle).
    """
    model = potential.model
    alpha = tuple(alpha)
    if len(alpha) == 0:
        return 0.0, IDENTITY, 0.0
    seq = alpha + (x.first,)
    if not admissible(model.T, seq):
        raise InadmissibleWord(f"word {alpha} cannot be prepended to x starting at {x.first}")
    assert_admissible(model.T, x)

    v = eval_point(model, x)
    logh = potential.logh0_at(x.first, v)
    tau_sum = 0.0
    f_sum = 0.0
    for j in reversed(alpha):
        v = model.inv_branch(j, v)
        step_tau = float(model.tau(j, v))
        logh_new = potential.logh0_at(j, v)
        tau_sum += step_tau
        f_sum += potential.f_from_parts(step_tau, logh_new, logh)
        logh = logh_new
    return tau_sum, model.word_cocycle(alpha), f_sum


def lip_quotient_pairs(model, rng, depths, samples_per_depth):
    """Sampled pairs of symbolic points at prescribed agreement depths.

    Yields (m, x, y) with d_theta(x, y) = theta^m; used to measure d_theta
    Lipschitz surrogates for the roof and potential.
    """
    T = model.T
    n = T.shape[0]
    out = []
    for m in depths:
        for _ in range(samples_per_depth):
            if m == 0:
                a, b = rng.choice(n, size=2, replace=False)
                x = _random_point_from(T, int(a), rng)
                y = _random_point_from(T, int(b), rng)
                out.append((0, x, y))
                continue
            cur = int(rng.integers(n))
            w = [cur]
            for _ in range(m - 1):
                cur = _random_next(T, cur, rng)
                w.append(cur)
            succ = [k for k in range(n) if T[cur, k]]
            a, b = rng.choice(len(succ), size=2, replace=False)
            xa = _random_point_from(T, succ[a], rng)
            yb = _random_point_from(T, succ[b], rng)
            x = SymbolicPoint(tuple(w) + xa.preperiod, xa.period)
            y = SymbolicPoint(tuple(w) + yb.preperiod, yb.period)
            out.append((m, x, y))
    return out


def _random_next(T, cur, rng):
    succ = np.flatnonzero(T[cur])
    return int(succ[rng.integers(len(succ))])


def _random_point_from(T, start, rng, pre_len=3):
    pre = [start]
    cur = start
    for _ in range(pre_len):
        cur = _random_next(T, cur, rng)
        pre.append(cur)
    tail = omega_tail(T, cur)
    return SymbolicPoint(tuple(pre), tail.period)
