"""Finite quotients SL2(Z/q), congruence cocycles, fiber-valued transfer
operators on depth-D cylinders, and the new-vector decomposition.

Fibers are stored dense, indexed by the canonical (sorted-key) element order of
GroupModQ.  The fiber action of a branch step is the right-regular action of
the inverse cocycle matrix, i.e. convolution with the delta at the reduced
cocycle: (delta_c * phi)(g) = phi(g c^{-1}).  q = 1 is a sentinel with a
one-element group, so scalar and congruence code paths coincide.
"""

from dataclasses import dataclass

import numpy as np

from . import symbolic
from .errors import (
    BadPrime,
    DepthExhausted,
    InadmissibleWord,
    ModulusMismatch,
    NotInNewSpace,
    NotSquareFree,
    TooLarge,
)
from .thermo import Walk

MAX_ORDER = 10**6
MAX_DECOMP_ORDER = 10**5


def factorize(q):
    fac = []
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            fac.append((p, e))
        p += 1
    if n > 1:
        fac.append((n, 1))
    return fac


def sl2_order(q):
    order = 1
    for p, _ in factorize(q):
        order *= p * (p * p - 1)
    return order


def _enumerate_prime(p):
    """All of SL2(F_p) without filtering: solve the determinant for d."""
    a, b, c = np.meshgrid(np.arange(1, p), np.arange(p), np.arange(p), indexing="ij")
    a, b, c = a.ravel(), b.ravel(), c.ravel()
    ainv = np.array([pow(int(x), -1, p) for x in range(1, p)])
    d = (ainv[a - 1] * (1 + b * c)) % p
    part1 = np.stack([a, b, c, d], axis=1)
    c0 = np.arange(1, p)
    cinv = np.array([pow(int(x), -1, p) for x in range(1, p)])
    b0 = (-cinv[c0 - 1]) % p
    c0, d0 = np.meshgrid(c0, np.arange(p), indexing="ij")
    b0 = np.broadcast_to(b0[:, None], c0.shape)
    part2 = np.stack([np.zeros_like(c0).ravel(), b0.ravel(), c0.ravel(), d0.ravel()], axis=1)
    return np.concatenate([part1, part2], axis=0).astype(np.int64)


class GroupModQ:
    """Indexed element table of SL2(Z/q) for square-free q (q = 1 is trivial)."""

    def __init__(self, q, elems):
        self.q = q
        elems = np.asarray(elems, dtype=np.int64) % q
        keys = _encode_mats(elems, q)
        sort = np.argsort(keys)
        self.elems = elems[sort]
        self.keys = keys[sort]
        self.order = elems.shape[0]
        self._inv_perm = None
        self._perm_cache = {}
        self.identity = int(self.index_of(np.array([1, 0, 0, 1], dtype=np.int64)))

    @classmethod
    def build(cls, q, bad_primes=()):
        if q == 1:
            return cls(1, np.array([[1, 0, 0, 1]], dtype=np.int64))
        if q < 1:
            raise ValueError(f"modulus must be positive, got {q}")
        fac = factorize(q)
        if any(e > 1 for _, e in fac):
            raise NotSquareFree(q)
        for p, _ in fac:
            if p in bad_primes:
                raise BadPrime(q, p)
        if sl2_order(q) > MAX_ORDER:
            raise TooLarge(f"SL2(Z/{q}) has order {sl2_order(q)} > {MAX_ORDER}")
        tables = [(_enumerate_prime(p), p) for p, _ in fac]
        combined, mod = tables[0]
        for table, p in tables[1:]:
            m = mod * p
            # CRT coefficients for (mod, p)
            u = mod * pow(mod, -1, p)
            v = p * pow(p, -1, mod)
            lift = (combined[:, None, :] * v + table[None, :, :] * u) % m
            combined = lift.reshape(-1, 4)
            mod = m
        return cls(q, combined % q)

    # ---- lookups ----

    def index_of(self, flat):
        """Indices of matrices given as (..., 4) arrays of residues."""
        flat = np.asarray(flat, dtype=np.int64) % self.q
        keys = _encode_mats(flat.reshape(-1, 4), self.q)
        pos = np.searchsorted(self.keys, keys)
        if np.any(pos >= self.order) or np.any(self.keys[np.minimum(pos, self.order - 1)] != keys):
            raise KeyError("matrix not in SL2(Z/q) table")
        return pos.reshape(flat.shape[:-1])

    def reduce(self, m):
        """Index of an integer MobiusMap reduced mod q (entries of any size)."""
        return int(self.index_of(np.array([e % self.q for e in m.tuple()], dtype=np.int64)))

    def inv_perm(self):
        if self._inv_perm is None:
            e = self.elems
            inv = np.stack([e[:, 3], -e[:, 1], -e[:, 2], e[:, 0]], axis=1) % self.q
            self._inv_perm = self.index_of(inv)
        return self._inv_perm

    def _perm_cache_cap(self):
        # keep the cache under ~200 MB regardless of group size
        return max(64, min(4096, 25_000_000 // self.order))

    def left_mul_perm(self, i):
        """Permutation g -> elem_i * g as an index array (cached)."""
        key = ("l", int(i))
        if key not in self._perm_cache:
            if len(self._perm_cache) >= self._perm_cache_cap():
                self._perm_cache.clear()
            prod = self._compose(self.elems[i][None, :], self.elems)
            self._perm_cache[key] = self.index_of(prod)
        return self._perm_cache[key]

    def right_mul_perm(self, i):
        """Permutation g -> g * elem_i as an index array (cached)."""
        key = ("r", int(i))
        if key not in self._perm_cache:
            if len(self._perm_cache) >= self._perm_cache_cap():
                self._perm_cache.clear()
            prod = self._compose(self.elems, self.elems[i][None, :])
            self._perm_cache[key] = self.index_of(prod)
        return self._perm_cache[key]

    def _compose(self, x, y):
        a = x[..., 0] * y[..., 0] + x[..., 1] * y[..., 2]
        b = x[..., 0] * y[..., 1] + x[..., 1] * y[..., 3]
        c = x[..., 2] * y[..., 0] + x[..., 3] * y[..., 2]
        d = x[..., 2] * y[..., 1] + x[..., 3] * y[..., 3]
        return np.stack([a, b, c, d], axis=-1) % self.q

    # ---- convolution ----

    def convolve_fn(self, weights, phi):
        """(mu * phi)(g) = sum_h mu(h) phi(g h^{-1}) for a dense weight vector."""
        if weights.shape[0] != self.order or phi.shape[-1] != self.order:
            raise ModulusMismatch("measure and function live on different groups")
        out = np.zeros_like(phi, dtype=complex)
        support = np.flatnonzero(weights)
        inv = self.inv_perm()
        for h in support:
            perm = self.right_mul_perm(int(inv[h]))
            out += weights[h] * phi[..., perm]
        return out

    def convolution_matrix(self, weights):
        """Dense matrix of phi -> weights * phi."""
        M = np.zeros((self.order, self.order), dtype=complex)
        inv = self.inv_perm()
        for h in np.flatnonzero(weights):
            perm = self.right_mul_perm(int(inv[h]))
            M[np.arange(self.order), perm] += weights[h]
        return M


def _encode_mats(flat, q):
    f = np.asarray(flat, dtype=np.int64)
    return ((f[..., 0] * q + f[..., 1]) * q + f[..., 2]) * q + f[..., 3]


def cocycle_mod(model, word, group):
    """Ordered product of per-step cocycle matrices reduced mod q, as an index."""
    word = tuple(word)
    if not symbolic.admissible(model.T, word):
        raise InadmissibleWord(f"word {word} is not admissible")
    return group.reduce(model.word_cocycle(word))


# ---- fiber-valued functions on depth-D cylinders ----

@dataclass
class CongruenceFunction:
    """Function on depth-D cylinders with values in C^{F_q}, stored dense."""

    depth: int
    words: np.ndarray    # symbolic.word_table(T, depth)
    group: GroupModQ
    values: np.ndarray  # (n_cylinders, order) complex

    @classmethod
    def build(cls, model, group, depth, fill=None):
        words = symbolic.word_table(model.T, depth)
        vals = np.zeros((len(words), group.order), dtype=complex)
        if fill is not None:
            vals[:] = fill
        return cls(depth, words, group, vals)

    @classmethod
    def random(cls, model, group, depth, rng):
        words = symbolic.word_table(model.T, depth)
        shape = (len(words), group.order)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return cls(depth, words, group, vals)

    @classmethod
    def random_dtheta_lipschitz(cls, model, group, depth, rng, theta):
        """Random function with fluctuations of size theta^m at symbol depth m,
        i.e. d_theta-Lipschitz with its modulus saturated at every scale."""
        words = symbolic.word_table(model.T, depth)
        vals = np.zeros((len(words), group.order), dtype=complex)
        for m in range(depth):
            prefixes = symbolic.word_table(model.T, m + 1)
            g = rng.standard_normal((len(prefixes), group.order)) \
                + 1j * rng.standard_normal((len(prefixes), group.order))
            vals += theta**m * g[symbolic.word_rank(prefixes, words[:, : m + 1], model.N)]
        return cls(depth, words, group, vals)


def cf_l2_norm(H, masses):
    return float(np.sqrt(np.sum(masses * np.sum(np.abs(H.values) ** 2, axis=1))))


def cf_sup_norm(H):
    return float(np.sqrt(np.sum(np.abs(H.values) ** 2, axis=1)).max())


def cf_lip(H, theta):
    """Discrete Lipschitz seminorm over pairs of cylinders sharing >= 1 leading symbol.

    Pairs are scanned by shared-prefix depth; a pair first disagreeing at index
    k contributes its quotient at the class of depth k, where it is maximal.
    The rows are lexicographic, so each k-prefix class is a contiguous block.
    """
    vals = H.values
    words = H.words
    sq = np.sum(np.abs(vals) ** 2, axis=1).real
    best = 0.0
    for k in range(1, H.depth):
        starts = np.flatnonzero(np.any(words[1:, :k] != words[:-1, :k], axis=1)) + 1
        bounds = np.concatenate([[0], starts, [len(words)]])
        scale = theta**k
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo < 2:
                continue
            block = vals[lo:hi]
            gram = block @ block.conj().T
            nn = sq[lo:hi]
            d2 = nn[:, None] + nn[None, :] - 2.0 * gram.real
            best = max(best, float(np.sqrt(max(d2.max(), 0.0))) / scale)
    return best


def cf_lip_norm(H, theta):
    return cf_sup_norm(H) + cf_lip(H, theta)


class CongruenceOperator:
    """One step of the congruence transfer operator on depth-D cylinder functions.

    The sparse cylinder shift S is one step of the prepend walk from the
    cylinder anchors: the leaf that prepends j to the anchor of cylinder w sits
    in row w, column (j, w[:-1]), with weight exp(f^(a) + i b tau) at its exact
    preimage, so the operator is the depth-D locally constant surrogate of the
    normalized operator (error O(theta^D) against the continuum one).  A step
    permutes the fiber columns of each first-symbol block (the rows branch j
    reads), then applies S, which at q = 1 is the base operator.  The permuted
    fibers go to one buffer per operator, so two threads must not apply the
    same operator at once.
    """

    def __init__(self, lab, group, b, depth, a=0.0):
        from scipy import sparse
        model = lab.model
        words, anchors = lab.anchors(depth)
        self.words = words
        self.shape = (len(words), group.order)
        self._permuted = np.empty(self.shape, dtype=complex)
        walk = Walk(model, lab.potential(a), words[:, 0], anchors)
        rows = walk.step(range(model.N))
        cols = symbolic.word_rank(words, np.column_stack([walk.sym.astype(np.int8), words[rows, :-1]]), model.N)
        # no (row, column) pair repeats; a row's columns ascend with the branch j
        self.S = sparse.csr_matrix((np.exp(walk.f + 1j * float(b) * walk.tau), (rows, cols)),
                                   shape=(len(words), len(words)))
        bounds = np.searchsorted(words[:, 0], np.arange(model.N + 1))
        inv = group.inv_perm()
        self.blocks = [(bounds[j], bounds[j + 1], group.right_mul_perm(int(inv[group.reduce(g)])))
                       for j, g in enumerate(model.gens)]

    def apply(self, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != self.shape:
            raise ModulusMismatch(f"fiber values of shape {values.shape}, operator acts on {self.shape}")
        # mode="clip" (never clips: perms are in range) writes unbuffered into out
        for lo, hi, perm in self.blocks:
            np.take(values[lo:hi], perm, axis=1, out=self._permuted[lo:hi], mode="clip")
        return self.S @ self._permuted

    def apply_k(self, values, k):
        for _ in range(k):
            values = self.apply(values)
        return values


def congruence_apply(lab, group, H, xi, k, streaming=False):
    """k-fold application of the normalized congruence operator at xi = a + ib."""
    xi = complex(xi)
    if abs(xi.real) >= lab.a0p:
        raise ValueError(f"|Re xi| = {abs(xi.real)} must stay below a0' = {lab.a0p}")
    if k > H.depth and not streaming:
        raise DepthExhausted(f"k = {k} exceeds cylinder depth {H.depth}; pass streaming=True")
    op = CongruenceOperator(lab, group, xi.imag, H.depth, a=xi.real)
    return CongruenceFunction(H.depth, H.words, H.group, op.apply_k(H.values, k))


# ---- new-vector decomposition ----

def _divisors(q):
    fac = [p for p, _ in factorize(q)]
    divs = [1]
    for p in fac:
        divs += [d * p for d in divs]
    return sorted(divs)


def _moebius(n):
    fac = factorize(n)
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


class NewSpaceDecomposition:
    """Orthogonal decomposition of l^2_0(F_q) into new subspaces across divisors."""

    def __init__(self, group):
        q = group.q
        fac = factorize(q)
        if len(fac) > 3:
            raise TooLarge(f"decomposition limited to <= 3 prime factors, got {len(fac)}")
        if group.order > MAX_DECOMP_ORDER:
            raise TooLarge(f"group order {group.order} exceeds decomposition cap")
        self.group = group
        self.q = q
        self.divisors = _divisors(q)
        self.subgroups = {}
        self.labels = {}
        self.counts = {}
        for d in self.divisors:
            sub = GroupModQ.build(d)
            self.subgroups[d] = sub
            lab = sub.index_of(group.elems % d)
            self.labels[d] = lab
            self.counts[d] = np.bincount(lab, minlength=sub.order)

    def spade(self, d):
        return self.group.order // self.subgroups[d].order

    def dim_new(self, d):
        return sum(_moebius(d // e) * self.subgroups[e].order for e in _divisors(d))

    def _fiber_means(self, d, arr):
        lab = self.labels[d]
        nd = self.subgroups[d].order
        sums = np.zeros(arr.shape[:-1] + (nd,), dtype=arr.dtype)
        np.add.at(sums, (Ellipsis, lab), arr)
        return sums / self.counts[d]

    def average(self, d, phi):
        """Conditional expectation onto pullbacks from level d (pointwise in extra axes)."""
        arr = np.asarray(phi)
        if d == self.q:
            return arr.copy()
        return self._fiber_means(d, arr)[..., self.labels[d]]

    def project_new(self, d, phi):
        """Orthogonal projection onto the new space at divisor d (d > 1), or onto
        constants for d = 1; Moebius inclusion-exclusion over pullback levels."""
        arr = np.asarray(phi, dtype=complex)
        out = np.zeros_like(arr)
        for e in _divisors(d):
            mu = _moebius(d // e)
            if mu:
                out += mu * self.average(e, arr)
        return out

    def proj_down(self, d, phi, tol=1e-9):
        """Push a level-d-invariant vector down to F_d by coset evaluation."""
        arr = np.asarray(phi, dtype=complex)
        means = self._fiber_means(d, arr)
        spread = np.abs(arr - means[..., self.labels[d]]).max()
        scale = max(1.0, np.abs(arr).max())
        if spread > tol * scale:
            raise NotInNewSpace(f"fiber varies over ker by {spread}, tolerance {tol * scale}")
        return means

    def lift(self, d, psi):
        return np.asarray(psi)[..., self.labels[d]]


def mean_zero_projector(group):
    def proj(phi):
        return phi - phi.mean(axis=-1, keepdims=True)
    return proj


def new_space_projector(group, decomp=None):
    """Projector onto the level-q new space E^q_q (mean-zero for q = 1 and prime q)."""
    if len(factorize(group.q)) <= 1:
        return mean_zero_projector(group)
    if decomp is None:
        decomp = NewSpaceDecomposition(group)
    return lambda phi: decomp.project_new(group.q, phi)


def decomposition_table_csv(decomp, seed=0, trials=5):
    """CSV body of per-(q, q') dimensions, indices, and norm-identity residuals."""
    import csv as _csv
    import io as _io

    rng = np.random.default_rng(seed)
    buf = _io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["q", "q_prime", "dim_new", "spade", "norm_identity_residual"])
    for d in decomp.divisors:
        if d == 1:
            continue
        worst = 0.0
        for _ in range(trials):
            phi = rng.standard_normal(decomp.group.order) + 1j * rng.standard_normal(decomp.group.order)
            new = decomp.project_new(d, phi)
            if np.linalg.norm(new) == 0:
                continue
            down = decomp.proj_down(d, new)
            lhs = np.linalg.norm(new)
            rhs = np.sqrt(decomp.spade(d)) * np.linalg.norm(down)
            worst = max(worst, abs(lhs - rhs) / lhs)
        writer.writerow([decomp.q, d, decomp.dim_new(d), decomp.spade(d),
                         format(worst, ".17g")])
    return buf.getvalue()


def project_and_scale(decomp, H, d, lab=None, theta=None):
    """Push H (fibers in the new space at divisor d) down to level d.

    Returns the pushed-down CongruenceFunction, the index ratio spade, and the
    l2 norms of both sides (nu_U-weighted when lab is given, else flat masses).
    """
    sub = decomp.subgroups[d]
    down = decomp.proj_down(d, H.values)
    Hd = CongruenceFunction(H.depth, H.words, sub, down)
    spade = decomp.spade(d)
    if lab is not None:
        _, masses = lab.cylinder_masses(H.depth)
    else:
        masses = np.full(len(H.words), 1.0 / len(H.words))
    norms = {
        "l2": cf_l2_norm(H, masses),
        "l2_down": cf_l2_norm(Hd, masses),
    }
    if theta is not None:
        norms["lip"] = cf_lip_norm(H, theta)
        norms["lip_down"] = cf_lip_norm(Hd, theta)
    return Hd, spade, norms
