"""Return-trajectory generating sets, Cayley-graph spectral gaps, the
transfer-operator approximating measures, and the L2-flattening pipeline.

Word orientation: a "head" word of r symbols and a "tail" word of s - r
symbols prepend to a symbolic point x as (tail, head, x); the walk below
(thermo.Walk) enumerates heads level by level (prepending), so the cocycle
index it carries after t steps is the ascending product of the t innermost
step matrices.
"""

from dataclasses import dataclass

import numpy as np

from . import congruence, symbolic
from .congruence import GroupModQ, cf_lip, cocycle_mod, mean_zero_projector, new_space_projector
from .errors import (DepthExhausted, EnumerationTooLarge, GroupTooSmall, InadmissibleWord, ModulusMismatch,
                     NoConvergence, NotGenerating, TooLarge)
from .symbolic import SymbolicPoint, all_words, enumerate_words, omega_tail
from .thermo import RESIDUAL_TOL, Walk

SVD_ORDER = 336           # |SL2(Z/7)|: the default of the unread svd_cap, and criterion 7's svd column
MAX_BLOCK_ENTRIES = 10**8  # conv_opnorm's order^2 / o block entries (1.6 GB complex; a real F plus its rfft alike)
RETURN_SET_CAP = 200_000  # word pairs of one return set
P_MAX = 4                 # highest return level detect_expansion tries


# ---- return trajectory sets ----

@dataclass(frozen=True)
class ReturnSet:
    elements: tuple          # integer MobiusMaps, deduplicated


def build_return_set(model, y, z, p):
    """All products c^{p+1}(alpha) c^{p+1}(alpha~)^{-1} over admissible word pairs
    from y to z with p+1 steps; symmetric and containing the identity by shape."""
    words = enumerate_words(model.T, y, z, p + 1)
    if len(words) ** 2 > RETURN_SET_CAP:
        raise EnumerationTooLarge(f"{len(words)}^2 return-set pairs exceed cap {RETURN_SET_CAP}")
    # one factor per step, final step pair (w[-2], z)
    cocs = [model.word_cocycle(w[:-1]) for w in words]
    seen = {}
    for ma in cocs:
        for mb in cocs:
            g = ma @ mb.inverse()
            seen.setdefault(g.tuple(), g)
    elements = tuple(seen[k] for k in sorted(seen))
    return ReturnSet(elements)


def reduced_generator_indices(S, group):
    """Sorted distinct indices of the return-set elements reduced mod q."""
    return np.unique(group.reduce(S.elements)).tolist()


def generates_full(S, group):
    """Closure of the reduced generators in SL2(Z/q), grown one generator at a time:
    each g outside the current subgroup H adds group.act(g), right multiplication by
    g^{-1}, and the closure grows from the coset H g^{-1}.  Exact: a finite set containing
    e and closed under right multiplication by the generators' inverses is their subgroup."""
    gens = [i for i in reduced_generator_indices(S, group) if i != group.identity]
    inside = np.zeros(group.order, dtype=bool)
    inside[group.identity] = True
    perms = []
    for g in gens:
        if inside[g]:  # also every g once the closure is the whole group
            continue
        perms.append(group.act(g))
        frontier = perms[-1][inside]  # H g^{-1}, disjoint from H
        while frontier.size:
            inside[frontier] = True
            nxt = np.unique(np.concatenate([perm[frontier] for perm in perms]))
            frontier = nxt[~inside[nxt]]
    closure = int(np.count_nonzero(inside))
    return closure == group.order, {"closure_size": closure}


def detect_expansion(model, qs):
    """Smallest level p <= P_MAX whose return sets generate mod every usable q.

    Primes dividing a failing modulus are reported in q0; only
    strong-approximation failures are detectable this way, so the reported set
    is a lower bound for the full bad-modulus obstruction.
    """
    pairs = [(y, z) for y in range(model.N) for z in range(model.N)]
    sets = {}
    bad = set()
    works = {}
    for q in qs:
        group = GroupModQ.build(q)
        # strong approximation: the Schottky generators must fill SL2(Z/q)
        if not generates_full(ReturnSet(tuple(model.gens)), group)[0]:
            bad.update(p for p, _ in congruence.factorize(q))
            continue
        smallest = None
        for p in range(1, P_MAX + 1):
            ok = True
            for yz in pairs:
                if (yz, p) not in sets:
                    sets[(yz, p)] = build_return_set(model, yz[0], yz[1], p)
                if not generates_full(sets[(yz, p)], group)[0]:
                    ok = False
                    break
            if ok:
                smallest = p
                break
        if smallest is None:
            bad.update(p for p, _ in congruence.factorize(q))
        else:
            works[q] = smallest
    if not works:
        raise NotGenerating("no tested modulus admits a generating return set")
    p = max(works.values())
    return {"p": p, "q0_primes": sorted(bad), "per_q_level": works}


def cayley_gap(S, group, seed=0):  # seed is unread; perfbench's expansion workload still passes it
    """(lambda_1, lambda_2, eps) of the Cayley graph of the reduced return set:
    lambda_1 is the degree exactly, lambda_2 the largest (signed) adjacency eigenvalue
    off the constants.  Adjacency commutes with left translation by the c of
    group.coset_coords(), so <c>'s characters chi split it into m x m blocks (block
    o - chi conjugate to block chi) whose entry (j, i) sums exp(2 pi i chi t / o) over
    the neighbours k_j s^{-1} = c^t k_i.  It commutes with the central z_a too, so
    _central_fold splits each block into nz blocks of size m' = m / nz, built from
    rows j < m' and solved in one stack.  Block (0, 0)'s top must be the degree and
    the lifted lambda_2 eigenvector must pass one adjacency residual check."""
    if group.order <= 2:
        raise GroupTooSmall(f"SL2(Z/{group.q}) has order {group.order}; a Cayley gap needs at least 3 elements")
    _block_cells(group)  # the size cap of both <c>-block solvers, checked before the closure
    ok, cert = generates_full(S, group)
    if not ok:
        raise NotGenerating(f"return set closes up at {cert['closure_size']} < {group.order}")
    gens = reduced_generator_indices(S, group)
    deg = len(gens)
    cells, t_of, i_of = group.coset_coords()
    o, m = cells.shape
    nz = len(congruence.central_scalars(group.q))
    rows = m // nz
    nb = np.stack([group.act(s)[cells[0, :rows]] for s in gens], axis=1)  # index of k_j s^{-1}, j < m'
    entry, t = (np.arange(rows)[:, None] * m + i_of[nb]).ravel(), t_of[nb].ravel()
    roots = np.exp(2j * np.pi * np.arange(o) / o)
    size = rows * m

    def block(chi):
        phase = roots[chi * t % o]
        return (np.bincount(entry, phase.real, size) + 1j * np.bincount(entry, phase.imag, size)).reshape(rows, m)

    blocks = np.empty((o // 2 + 1, nz, rows, rows), dtype=complex)  # folded chi by chi: no unfolded stack
    for chi in range(o // 2 + 1):
        blocks[chi], signs = _central_fold(block(chi), nz)
    tops = np.linalg.eigvalsh(blocks.reshape(-1, rows, rows))[:, -2:]  # block (chi, eps) at row chi nz + eps
    if not abs(tops[0][-1] - deg) <= RESIDUAL_TOL * deg:
        raise NoConvergence(f"top of block 0 is {tops[0][-1]:.17g}, not the degree {deg}")
    second = [tops[0][-2]] + [top[-1] for top in tops[1:]]  # block (0, 0)'s top is the constants
    chi, eps = divmod(int(np.argmax(second)), nz)
    lam2 = float(second[chi * nz + eps])
    vec = np.linalg.eigh(blocks[chi, eps])[1][:, -2 if chi == eps == 0 else -1]
    phi = np.empty(group.order, dtype=complex)
    phi[cells] = roots[chi * np.arange(o) % o][:, None] * np.kron(signs[eps], vec) / np.sqrt(nz)
    residual = float(np.linalg.norm(sum(phi[group.act(s)] for s in gens) - lam2 * phi)) / np.sqrt(o)
    if not residual <= RESIDUAL_TOL * deg:
        raise NoConvergence(f"lambda_2 block eigenvector residual {residual:.3e} exceeds {RESIDUAL_TOL:g} * {deg}")
    return float(deg), lam2, float(1.0 - lam2 / deg)


# ---- approximating measures ----

@dataclass
class MeasureOnFq:
    weights: np.ndarray

    def l1(self):
        return float(np.abs(self.weights).sum())

    def l2(self):
        return float(np.linalg.norm(self.weights))


def _walk(lab, group, x, r, tails, a):
    """r all-symbol prepend steps from x, then one step per tail position,
    innermost first, over the symbols the tails (rows of an int array) hold
    there.  Returns the walk, each leaf's prepended word, its atom (the
    cocycle index after r + 1 steps) and its Birkhoff f-sum after r steps."""
    model = lab.model
    walk = Walk.from_point(model, lab.potential(a), x, group)
    word = np.empty((1, 0), dtype=np.int64)
    for _ in range(r):
        parents = walk.step(range(model.N))
        word = np.column_stack([walk.sym, word[parents]])
    f_r, atoms = walk.f, None
    for symbols in tails.T[::-1]:
        parents = walk.step(np.flatnonzero(np.bincount(symbols)))
        f_r, word = f_r[parents], np.column_stack([walk.sym, word[parents]])
        atoms = walk.cidx if atoms is None else atoms[parents]
    return walk, word, atoms, f_r


def build_measures(lab, group, x, r, s, tail, xi):
    """The four approximating measures mu, nu0, mu-hat, nu for one tail word.

    tail is the word (alpha_s, ..., alpha_{r+1}) in forward order; atoms sit at
    the (r+1)-step cocycle indices, weights are exact Birkhoff sums evaluated
    through the collocation data."""
    xi = complex(xi)
    a, b = xi.real, xi.imag
    tail = tuple(tail)
    if len(tail) != s - r or not (0 < r < s):
        raise ValueError("need 0 < r < s and a tail of s - r symbols")
    if not symbolic.admissible(lab.model.T, tail):
        raise ValueError(f"tail {tail} is not admissible")
    walk, _, atoms, f_r = _walk(lab, group, x, r, np.array([tail]), a)
    mu, mu_hat, nu0 = np.zeros(group.order, dtype=complex), np.zeros(group.order), np.zeros(group.order)
    np.add.at(mu, atoms, np.exp(walk.f + 1j * b * walk.tau))
    np.add.at(mu_hat, atoms, np.exp(walk.f))
    np.add.at(nu0, atoms, np.exp(f_r))
    omega = omega_tail(lab.model.T, tail[-1])
    f_tail = symbolic.birkhoff(lab.potential(a), tail, omega)
    nu = float(np.exp(f_tail)) * nu0
    return {
        "mu": MeasureOnFq(mu),
        "nu0": MeasureOnFq(nu0),
        "mu_hat": MeasureOnFq(mu_hat),
        "nu": MeasureOnFq(nu),
        "n_words": walk.size(),
    }


# ---- exact s-step application at a point, and the convolution approximation ----

def transfer_apply_at(lab, group, H, xi, s, x):
    """M^s(H)(x) as the exact word sum, H read as a depth-D locally constant
    function; the fiber action of the cocycle is applied leaf by leaf."""
    if s < 1:
        raise ValueError(f"need s >= 1 steps, got s = {s}")
    walk, word, _, _ = _walk(lab, group, x, s, np.empty((1, 0), dtype=np.int64), xi.real)
    return _word_sum(lab, group, H, H.values, xi, x, walk, word)


def _word_sum(lab, group, H, values, xi, x, walk, word):
    """The word sum of M^s over the leaves of a walk from x that prepended every
    admissible s-symbol word, given as the rows of `word`: each leaf adds its
    weight exp(f + i b tau) times the fiber row of `values` (one row per depth-D
    cylinder of H) at the leaf's cylinder, under the fiber action of its cocycle."""
    if values.shape[1] != group.order:
        raise ModulusMismatch(f"fiber values of shape {values.shape}, group of order {group.order}")
    # a leaf's cylinder: its prepended word, then x's symbols
    fill = np.tile(np.array(x.symbols(H.depth)), (len(word), 1))
    cyl = symbolic.word_rank(H.words, np.concatenate([word, fill], axis=1)[:, : H.depth], lab.model.N)
    weights = np.exp(walk.f + 1j * xi.imag * walk.tau)
    out = np.zeros(group.order, dtype=complex)
    for leaf in range(walk.size()):
        out += weights[leaf] * values[cyl[leaf]][group.act(walk.cidx[leaf])]
    return out


def approx_transfer_check(lab, group, H, xi, r, s):
    """Residual of the measure-convolution approximation of M^s against the
    exact word sum at the anchors (w; omega) over all admissible 2-words w,
    compared to the bound C_f Lip(H) theta^{s-r}.  Each tail's mu (atoms at its
    leaves' (r+1)-step cocycles) convolved with H on the tail cylinder (tail +
    omega tail) under the fiber action of c(tail[:-1]) regroups its leaves, as
    c(tail[:-1]) times a leaf's atom is the leaf's s-step cocycle; so the residual
    at an anchor is one word sum, of H less H on each leaf's tail cylinder."""
    if not (0 < r < s):
        raise ValueError("need 0 < r < s and a tail of s - r symbols")
    if s - r > 8:
        raise ValueError("s - r capped at 8")
    if H.depth < s:
        raise DepthExhausted(f"need cylinder depth >= s = {s}, have {H.depth}")
    model = lab.model
    consts = lab.constants()
    anchors = [SymbolicPoint(w, omega_tail(model.T, w[-1]).period) for w in all_words(model.T, 2)]
    lip = cf_lip(H, consts.theta)
    bound = consts.C_f * lip * consts.theta ** (s - r)
    tails = all_words(model.T, s - r)
    table = np.array(tails)
    # each cylinder's tail cylinder: its first s - r symbols, continued by omega
    ext = [omega_tail(model.T, tail[-1]).prepend(tail).symbols(H.depth) for tail in tails]
    tail_cyl = symbolic.word_rank(H.words, ext, model.N)[symbolic.word_rank(table, H.words[:, : s - r], model.N)]
    diff = H.values - H.values[tail_cyl]
    residuals = np.zeros(len(anchors))
    for i, x in enumerate(anchors):
        walk, word, _, _ = _walk(lab, group, x, r, table, xi.real)
        residuals[i] = np.linalg.norm(_word_sum(lab, group, H, diff, xi, x, walk, word))
    sup = float(residuals.max())
    ratio = sup / bound if bound > 0 else np.inf if sup > 0 else 0.0
    return {"residuals": residuals, "sup": sup, "bound": bound, "ratio": ratio, "lip": lip}


# ---- operator norms of convolution operators on subspaces ----

def conv_opnorm(group, weights, projector, svd_cap=SVD_ORDER):  # svd_cap is unread; perfbench's tracer binds it
    """Operator norm of phi -> weights * phi restricted to the range of `projector`,
    which must commute with translations (the mean-zero and new-space projectors
    average over normal subgroups), so that the operator is phi -> P(weights) * phi.
    It commutes with left translation by the c of group.coset_coords(); the Fourier
    transform over <c> splits it into m x m blocks (at most MAX_BLOCK_ENTRIES
    entries, else TooLarge), and _central_fold splits each of those by the central
    z_a into nz blocks of size m' = m / nz, of which only the m' columns k_j, j < m',
    are filled.  The largest singular value of the folded blocks is the norm.  Lifted
    to the group, its singular vector must attain the norm, else NoConvergence.  Real
    (projected) weights keep real arithmetic: blocks chi <= o/2 only, from one rfft,
    since block o - chi is then the conjugate of block chi, with the same singular
    values.
    """
    n = group.order
    cells = _block_cells(group)
    o, m = cells.shape
    nz = len(congruence.central_scalars(group.q))
    cols = m // nz
    # F[t, j, i] = P(weights)(k_j^{-1} c^t k_i), j < m'; transformed, F[chi] is block chi's
    # first m' columns, transposed
    pw = projector(weights)
    F = np.empty((o, cols, m), dtype=pw.dtype)
    inv = group.inv_perm()
    pw_inv, inv_cells = pw[inv], inv[cells]
    for j, k_inv in enumerate(inv[cells[0, :cols]]):  # k_j^{-1} g = (g^{-1} k_j)^{-1}
        F[:, j, :] = pw_inv[group.act(k_inv)[inv_cells]]
    if np.iscomplexobj(F):
        np.fft.fft(F, axis=0, out=F)
    else:
        F = np.fft.rfft(F, axis=0)
    F, signs = _central_fold(F, nz)
    chi, eps = divmod(int(np.argmax(np.linalg.svd(F.reshape(-1, cols, cols), compute_uv=False)[:, 0])), nz)
    u, sv, _ = np.linalg.svd(F[chi, eps])
    del F  # before convolve_fn fills the permutation cache
    sigma = float(sv[0])
    phi = np.empty(n, dtype=complex)
    lifted = np.kron(signs[eps], np.conj(u[:, 0])) / np.sqrt(nz)
    phi[cells] = np.exp(2j * np.pi * chi * np.arange(o) / o)[:, None] * lifted / np.sqrt(o)
    attained = float(np.linalg.norm(projector(group.convolve_fn(weights, phi))))
    if not abs(attained - sigma) <= RESIDUAL_TOL * sigma:
        raise NoConvergence(f"block singular vector attains {attained:.17g}, not the block norm {sigma:.17g}")
    return sigma


def _central_fold(blocks, nz):
    """Split blocks commuting with the central z_a of congruence.central_scalars.  Given the
    first m' = m / nz rows (..., m', m) of blocks B[(a, i), (b, j)] = X_(a xor b)[i, j],
    indexed a m' + i, returns the (..., nz, m', m') stack of Y_eps = sum_d h[eps, d] X_d
    and the signs h[eps, d] = (-1)^|eps & d|.  The spectra of Y_0, ..., Y_(nz-1) together
    are B's, and a vector v of Y_eps lifts to B as kron(h[eps], v) / sqrt(nz)."""
    *lead, rows, m = blocks.shape
    signs = (-1) ** np.array([[bin(eps & d).count("1") for d in range(nz)] for eps in range(nz)])
    split = blocks.reshape(*lead, rows, nz, m // nz)
    if nz == 1:  # a view: nothing to add, and no -0.0 turned into 0.0
        return split.swapaxes(-3, -2), signs
    return np.einsum("ed,...rdi->...eri", signs, split), signs


def _block_cells(group):
    """group.coset_coords()'s cells, once conv_opnorm's o x m x m blocks fit in MAX_BLOCK_ENTRIES."""
    cells = group.coset_coords()[0]
    if (n := cells.size * cells.shape[1]) > MAX_BLOCK_ENTRIES:
        raise TooLarge(f"the <c>-blocks of SL2(Z/{group.q}) have {n} entries > {MAX_BLOCK_ENTRIES}")
    return cells


# ---- flattening pipeline ----

@dataclass
class FlatteningReport:
    q: int
    r: int
    s: int
    l: int
    p: int
    r_prime: int
    tail: tuple
    entries: dict
    values: dict

    def passed(self):
        return all(e["passed"] for e in self.entries.values())

    def to_json_dict(self):
        return {
            "q": self.q, "r": self.r, "s": self.s, "l": self.l, "p": self.p,
            "r_prime": self.r_prime, "tail": [int(t) + 1 for t in self.tail],
            "entries": {k: {kk: (bool(vv) if isinstance(vv, (bool, np.bool_)) else float(vv))
                            for kk, vv in e.items()} for k, e in self.entries.items()},
            "values": {k: float(v) for k, v in self.values.items()},
            "passed": bool(self.passed()),
        }


def flattening_pipeline(lab, group, x, r_prime, l, p, xi=0.3j, gaps=None, seed=0,
                        svd_cap=SVD_ORDER):  # svd_cap is unread; perfbench's flatten workload still passes it
    """Run the measure-flattening verification chain at one modulus.

    Checks, in order: the mu/mu-hat/nu comparison, the nu0 vs nu1 two-sided
    estimate with the block decomposition r = r' l, near-flatness of the block
    coefficients, per-block convolution contraction on mean-zero vectors, the
    walk-length contraction of nu, the new-space operator-norm scaling, and the
    headline flattening ratio.
    """
    xi = complex(xi)
    a = xi.real
    model = lab.model
    consts = lab.constants()
    theta = consts.theta
    if l <= p:
        raise ValueError(f"need l > p, got l = {l}, p = {p}")
    if r_prime < 2:
        raise ValueError("block decomposition needs r' >= 2")
    _block_cells(group)  # refuse a group too large for conv_opnorm before the walks and gaps
    r = r_prime * l
    s = r + 2  # the tail is the first admissible 2-symbol word
    tail = all_words(model.T, s - r)[0]

    gaps = gaps or {}
    meas = build_measures(lab, group, x, r, s, tail, xi)
    mu, nu0, mu_hat, nu = meas["mu"], meas["nu0"], meas["mu_hat"], meas["nu"]
    entries = {}
    values = {"n_words": meas["n_words"], "nu0_l1": nu0.l1(), "nu_l1": nu.l1(), "mu_l2": mu.l2()}

    # Lemma chain entry 1: |mu| <= mu-hat and C^{-1} nu <= mu-hat <= C nu atomwise
    C_cmp = consts.mu_hat_nu_C()
    sup_abs = float((np.abs(mu.weights) - mu_hat.weights).max())
    mask = mu_hat.weights > 0
    hi = float((mu_hat.weights[mask] / nu.weights[mask]).max())
    lo = float((mu_hat.weights[mask] / nu.weights[mask]).min())
    entries["mu_le_mu_hat"] = {"ratio": sup_abs, "bound": 1e-12 * mu_hat.weights.max(), "passed": sup_abs <= 1e-12 * mu_hat.weights.max()}
    entries["mu_hat_vs_nu"] = {"ratio": max(hi, 1.0 / lo), "bound": C_cmp, "passed": hi <= C_cmp and 1.0 / lo <= C_cmp}

    # nu1 from nearly flat blocks
    nu1, flat_ratio, block_measures = _build_nu1(lab, group, x, r_prime, l, p, tail, a)
    C_est = consts.estimate_nu_C(p)
    bound_est = r_prime * C_est * theta**l
    both = (nu0.weights > 0) | (nu1 > 0)
    pos = (nu0.weights > 0) & (nu1 > 0)
    if bool((pos == both).all()) and pos.any():
        dev = float(np.abs(np.log(nu0.weights[pos] / nu1[pos])).max())
    else:
        dev = np.inf
    entries["nu0_vs_nu1"] = {"ratio": dev, "bound": bound_est, "passed": dev <= bound_est}

    C0_flat = consts.nearly_flat_C(p)
    entries["nearly_flat"] = {"ratio": flat_ratio, "bound": C0_flat, "passed": flat_ratio <= C0_flat}

    # per-block contraction on mean-zero vectors; the bound's deficit below 1 is
    # tracked separately because sqrt(1 - deficit) rounds to 1.0 for tiny deficits
    eps_used = []
    c_meas_worst = 0.0
    c_bound_worst = 0.0
    deficit_min = np.inf
    for (yz, eta) in block_measures:
        # one block per key (y, z), so each gap is taken once
        eps = (gaps[yz] if yz in gaps else cayley_gap(build_return_set(model, *yz, p), group))[2]
        eps_used.append(eps)
        l1 = np.abs(eta).sum()
        if l1 == 0:
            continue
        deficit = eps**2 / (2.0 * C0_flat**2 * model.N ** (2 * p))
        deficit_min = min(deficit_min, deficit)
        c_bound = float(np.sqrt(max(0.0, 1.0 - deficit)))
        c_meas = conv_opnorm(group, eta, mean_zero_projector) / l1
        c_meas_worst = max(c_meas_worst, c_meas)
        c_bound_worst = max(c_bound_worst, c_bound)
    entries["eta_contraction"] = {
        "ratio": c_meas_worst, "bound": c_bound_worst,
        "passed": c_meas_worst <= c_bound_worst and deficit_min > 0.0,
    }
    values["eta_bound_deficit"] = float(deficit_min)

    # r-step contraction of nu0 on mean-zero vectors
    ratio_nu = conv_opnorm(group, nu0.weights, mean_zero_projector) / nu0.l1()
    C3 = -np.log(c_bound_worst) if c_bound_worst > 0 else np.inf
    C_walk = float(np.exp((2 * C_est * theta**l - C3) / l))
    entries["walk_contraction"] = {"ratio": ratio_nu, "bound": C_walk**r, "passed": ratio_nu <= C_walk**r}
    values["walk_C"] = C_walk

    # new-space operator norm of mu against sqrt(#F) ||mu||_2
    proj_new = new_space_projector(group)
    opnorm_new = conv_opnorm(group, mu.weights, proj_new)
    trivial = float(np.sqrt(group.order) * mu.l2())
    entries["new_space_opnorm"] = {
        "ratio": opnorm_new / trivial if trivial > 0 else 0.0, "bound": 1.0,
        "passed": opnorm_new <= trivial * (1 + 1e-9),
    }
    values["new_space_C_eff"] = opnorm_new * group.q ** (1.0 / 3.0) / trivial if trivial > 0 else 0.0
    values["flatten_opnorm"] = opnorm_new / nu.l1()

    # headline flattening value: rms of ||mu * phi||_2 / ||nu||_1 over seeded
    # random unit new-vector test functions; Young's bound is the ceiling
    rng = np.random.default_rng(seed)
    acc, n_probe = 0.0, 12
    probes = [proj_new(rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order))
              for _ in range(n_probe)]
    for row in group.convolve_fn(mu.weights, np.array([phi / np.linalg.norm(phi) for phi in probes])):
        acc += np.linalg.norm(row) ** 2  # row by row: a norm along an axis rounds differently
    flatten_value = float(np.sqrt(acc / n_probe)) / nu.l1()
    values["flatten_value"] = flatten_value
    entries["flattening"] = {"ratio": flatten_value, "bound": C_cmp, "passed": flatten_value <= C_cmp}
    values["min_block_eps"] = min(eps_used) if eps_used else 0.0

    return FlatteningReport(group.q, r, s, l, p, r_prime, tail, entries, values)


def _build_nu1(lab, group, x, r_prime, l, p, tail, a):
    """nu1, the sum over chains (u_{r'}, ..., u_1) of (l-p)-symbol second parts,
    u_1 admissible before x, of delta_{c(u_1[-1])} * eta_1 * ... * eta_{r'}, where
    eta_j is the block of u_j under u_{j+1} (under the tail for j = r').

    Convolution is linear, so the sum is taken one position at a time: after
    position j, partial[k] sums the chains with u_{j+1} = parts[k], and each
    distinct block (j, u_{j+1}, u_j) is built and convolved once.  A block with no
    p-word cuts the chains through it.  The block kept for a key (y, u_j[0]) is the
    one met first when the chains run in product order over (u_1, ..., u_{r'}),
    u_1 slowest, positions ascending; a partial carries the smallest chain that
    reaches it for this.  Returns (dense weights, worst within-block coefficient
    ratio, one measure per key in order of first meeting).
    """
    model = lab.model
    parts = all_words(model.T, l - p)
    # part index -> [smallest chain (of part indices) that reaches it, partial sum];
    # before position 1 the sum is the delta at c(u_1[-1])
    partial = {i: [(i,), np.eye(1, group.order, cocycle_mod(model, (u[-1],), group))[0]]
               for i, u in enumerate(parts) if model.T[u[-1], x.first]}
    flat_ratio, found = 1.0, {}
    for j in range(1, r_prime + 1):
        grown = {}  # partial runs in chain order, so the first chain to reach a part is its smallest
        for i, (chain, conv) in partial.items():
            for k in range(len(parts)) if j < r_prime else [None]:
                outer = (tail[-1],) if k is None else parts[k]
                eta, E = _nu1_block(lab, group, x, j, r_prime, parts[i], outer, p, a)
                if eta is None:
                    continue
                flat_ratio = max(flat_ratio, E.max() / E.min())
                reach = chain if k is None else chain + (k,)
                key = (outer[-1], parts[i][0])
                if key not in found or (reach, j) < found[key][0]:
                    found[key] = ((reach, j), eta)
                grown.setdefault(k, [reach, 0.0])[1] += group.convolve_fn(conv, eta)
        partial = grown
    nu1 = partial[None][1].real if partial else np.zeros(group.order)
    block_measures = [(key, eta) for key, (_, eta) in sorted(found.items(), key=lambda kv: kv[1][0])]
    return nu1, flat_ratio, block_measures


def _nu1_block(lab, group, x, j, r_prime, u, outer, p, a):
    """Block eta_j of part u under `outer`, the next part ((y,) for j = r'), from
    one walk: atoms c((y,) + pw + u[:-1]) and coefficients exp(f) over the
    admissible p-words pw from y = outer[-1] to u[0].  The walk starts at
    x.prepend(u) for j = 1, else at (u; omega(u[-1])), takes p all-symbol steps,
    then steps `outer`; f is its Birkhoff sum of outer + pw (of pw for j = r'), plus
    that of u on x for j = 1.  (None, None) when no p-word fits."""
    model = lab.model
    start = x.prepend(u) if j == 1 else omega_tail(model.T, u[-1]).prepend(u)
    try:
        walk, _, atoms, f_p = _walk(lab, group, start, p, np.array([outer]), a)
    except InadmissibleWord:
        return None, None
    f = f_p if j == r_prime else walk.f
    if j == 1:
        f = f + symbolic.birkhoff(lab.potential(a), u, x)
    E = np.exp(f)
    eta = np.zeros(group.order)
    # right multiplication by c(u[:-1]) is the fiber action of its inverse
    np.add.at(eta, group.act(group.inv_perm()[cocycle_mod(model, u[:-1], group)])[atoms], E)
    return eta, E
