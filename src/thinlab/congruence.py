"""Finite quotients SL2(Z/q), congruence cocycles, fiber-valued transfer
operators on depth-D cylinders, and the new-vector decomposition.

Fibers are stored dense, indexed by the canonical (sorted-key) element order of
GroupModQ.  The fiber action of a branch step is GroupModQ.act: convolution
with the delta at the reduced cocycle, (delta_c * phi)(g) = phi(g c^{-1}), a
cached index permutation built in GroupModQ.coset_coords' coordinates.
q = 1 is a sentinel with a one-element group, so scalar and congruence code
paths coincide.
"""

from dataclasses import dataclass

import numpy as np

from . import symbolic
from .errors import InadmissibleWord, ModulusMismatch, NotInNewSpace, NotSquareFree, TooLarge
from .thermo import Walk

MAX_ORDER = 10**6
MAX_DECOMP_ORDER = 10**5
NEW_SPACE_TOL = 1e-9  # relative spread of a fiber that proj_down accepts as constant


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


def central_scalars(q):
    """The scalars s_a (a = 0, ..., nz - 1) of the central elements z_a = s_a I of SL2(Z/q)
    outside <-I>: s_a = -1 mod the odd primes p_b of q (all but the largest, b ascending)
    with bit b of a set, and 1 mod the rest of q, so z_a z_b = z_(a xor b) and
    nz = 2^(r - 1) for r >= 1 odd primes (nz = 1 for q = 1, prime q and q = 2p)."""
    odd = [p for p, _ in factorize(q) if p > 2][:-1]
    scalars = []
    for a in range(2 ** len(odd)):
        d = int(np.prod([p for b, p in enumerate(odd) if a >> b & 1]))
        e = q // d * pow(q // d, -1, d)  # 1 mod d, 0 mod q / d
        scalars.append((1 - 2 * e) % q)
    return scalars


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
        self._coords = self._cells2 = None
        self._perm_cache = {}
        self.identity = int(self.index_of(np.array([1, 0, 0, 1], dtype=np.int64)))

    @classmethod
    def build(cls, q):
        if q == 1:
            return cls(1, np.array([[1, 0, 0, 1]], dtype=np.int64))
        if q < 1:
            raise ValueError(f"modulus must be positive, got {q}")
        fac = factorize(q)
        if any(e > 1 for _, e in fac):
            raise NotSquareFree(q)
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

    def reduce(self, maps):
        """Indices of a sequence of integer MobiusMaps reduced mod q (entries of any size)."""
        return self.index_of(np.array([[e % self.q for e in m.tuple()] for m in maps], dtype=np.int64))

    def inv_perm(self):
        if self._inv_perm is None:
            e = self.elems
            inv = np.stack([e[:, 3], -e[:, 1], -e[:, 2], e[:, 0]], axis=1) % self.q
            self._inv_perm = self.index_of(inv)
        return self._inv_perm

    def coset_coords(self):
        """(cells, t, i) for c = [[-1, -1], [0, -1]] of order o (cached): element g = cells[t, i]
        is c^t k_i, and t[g] and i[g] are its coordinates; act works in them.  The m
        representatives run by the central scalars z_a of central_scalars(q): with m' = m / nz,
        k_(a m' + i) = z_a k_i, k_0 = e (the smallest element of <c>) and k_1 < ... < k_(m'-1)
        the smallest elements of the other cosets <c, z_1, ..., z_(nz-1)> g."""
        if self._coords is None:
            c = np.array([[-1, -1], [0, -1]])
            left_c = self.index_of((c @ self.elems.reshape(-1, 2, 2)).reshape(-1, 4))
            low, power = np.arange(self.order), left_c  # power[g] = index of c^t g, t = 1, 2, ...
            while power[self.identity] != self.identity:
                low, power = np.minimum(low, power), left_c[power]
            # left_z[a - 1][g] = index of z_a g; low is constant on <c>-cosets, so this takes the
            # minimum over <c> z_1 g, ..., <c> z_(nz-1) g as well
            left_z = [self.index_of(s * self.elems) for s in central_scalars(self.q)[1:]]
            for z in left_z:
                low = np.minimum(low, low[z])
            reps = np.flatnonzero(low == np.arange(self.order))
            reps = np.concatenate([[self.identity], reps[reps != self.identity]])
            cells = [np.concatenate([reps] + [z[reps] for z in left_z])]
            while left_c[cells[-1][0]] != self.identity:
                cells.append(left_c[cells[-1]])
            cells = np.stack(cells)
            self._cells2 = np.concatenate([cells, cells])  # [t, i] = c^t k_i for t < 2o, so shifts need no mod
            self._coords = (cells, *np.divmod(np.argsort(cells, axis=None), cells.shape[1]))
        return self._coords

    def act(self, c):
        """The fiber action of c: the index permutation p with
        (delta_c * phi)(g) = phi(g c^{-1}) = phi[p][g] (cached).  It commutes with the left
        action of coset_coords' <[[-1, -1], [0, -1]]>, so p takes only m lookups, of k_j c^{-1}."""
        key = int(c)
        perm = self._perm_cache.get(key)
        if perm is None:
            # at most 25,000,000 cached indices (200 MB) whatever the group size
            if len(self._perm_cache) >= max(64, min(4096, 25_000_000 // self.order)):
                self._perm_cache.clear()
            cells, t_of, i_of = self.coset_coords()
            h_inv = (self.elems[key][[3, 1, 2, 0]] * [1, -1, -1, 1]).reshape(2, 2)
            # shift[j] = k_j h^{-1} = c^{t'} k_{j'}, so c^t k_j h^{-1} = c^{t + t'} k_{j'}
            shift = self.index_of((self.elems[cells[0]].reshape(-1, 2, 2) @ h_inv).reshape(-1, 4))
            perm = self._cells2[t_of + t_of[shift][i_of], i_of[shift][i_of]]
            self._perm_cache[key] = perm
        return perm

    # ---- convolution ----

    def convolve_fn(self, weights, phi):
        """(mu * phi)(g) = sum_h mu(h) phi(g h^{-1}) for a dense weight vector."""
        if weights.shape[0] != self.order or phi.shape[-1] != self.order:
            raise ModulusMismatch("measure and function live on different groups")
        # group axis first, so that an atom gathers whole rows into one reused buffer
        phi = np.ascontiguousarray(np.moveaxis(phi, -1, 0), dtype=np.result_type(weights, phi))
        buf = np.empty_like(phi)
        out = np.zeros_like(phi, dtype=complex)
        for h in np.flatnonzero(weights):
            np.take(phi, self.act(h), axis=0, out=buf, mode="clip")
            np.multiply(weights[h], buf, out=buf)
            out += buf
        return np.moveaxis(out, 0, -1)


def _encode_mats(flat, q):
    f = np.asarray(flat, dtype=np.int64)
    return ((f[..., 0] * q + f[..., 1]) * q + f[..., 2]) * q + f[..., 3]


def cocycle_mod(model, word, group):
    """Ordered product of per-step cocycle matrices reduced mod q, as an index."""
    word = tuple(word)
    if not symbolic.admissible(model.T, word):
        raise InadmissibleWord(f"word {word} is not admissible")
    return int(group.reduce([model.word_cocycle(word)])[0])


# ---- fiber-valued functions on depth-D cylinders ----

@dataclass
class CongruenceFunction:
    """Function on depth-D cylinders with values in C^{F_q}, stored dense."""

    depth: int
    words: np.ndarray    # symbolic.word_table(T, depth)
    values: np.ndarray  # (n_cylinders, order) complex

    @classmethod
    def random(cls, model, group, depth, rng):
        words = symbolic.word_table(model.T, depth)
        shape = (len(words), group.order)
        vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return cls(depth, words, vals)

    @classmethod
    def random_dtheta_lipschitz(cls, model, group, depth, rng, theta):
        """Random function with fluctuations of size theta^m at symbol depth m,
        i.e. theta-Lipschitz with its modulus saturated at every scale."""
        words = symbolic.word_table(model.T, depth)
        vals = np.zeros((len(words), group.order), dtype=complex)
        for m in range(depth):
            prefixes = symbolic.word_table(model.T, m + 1)
            g = rng.standard_normal((len(prefixes), group.order)) \
                + 1j * rng.standard_normal((len(prefixes), group.order))
            vals += theta**m * g[symbolic.word_rank(prefixes, words[:, : m + 1], model.N)]
        return cls(depth, words, vals)


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
        self.blocks = [(bounds[j], bounds[j + 1], group.act(c)) for j, c in enumerate(group.reduce(model.gens))]

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
        nd = self.subgroups[d].order
        rows = arr.size // arr.shape[-1]
        # one bin per (row, fiber), summed in index order from 0.0 as np.add.at does
        bins = (np.arange(rows)[:, None] * nd + self.labels[d]).ravel()
        sums = np.empty(arr.shape[:-1] + (nd,), dtype=arr.dtype)
        sums.real = np.bincount(bins, arr.real.ravel(), rows * nd).reshape(sums.shape)
        if np.iscomplexobj(arr):
            sums.imag = np.bincount(bins, arr.imag.ravel(), rows * nd).reshape(sums.shape)
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

    def proj_down(self, d, phi):
        """Push a level-d-invariant vector down to F_d by coset evaluation."""
        arr = np.asarray(phi, dtype=complex)
        means = self._fiber_means(d, arr)
        spread = np.abs(arr - means[..., self.labels[d]]).max()
        scale = max(1.0, np.abs(arr).max())
        if spread > NEW_SPACE_TOL * scale:
            raise NotInNewSpace(f"fiber varies over ker by {spread}, tolerance {NEW_SPACE_TOL * scale}")
        return means


def mean_zero_projector(phi):
    """Orthogonal projection of each fiber onto the mean-zero functions."""
    return phi - phi.mean(axis=-1, keepdims=True)


def new_space_projector(group):
    """Projector onto the level-q new space E^q_q (mean-zero for q = 1 and prime q)."""
    if len(factorize(group.q)) <= 1:
        return mean_zero_projector
    decomp = NewSpaceDecomposition(group)
    return lambda phi: decomp.project_new(group.q, phi)

