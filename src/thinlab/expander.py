"""Return-trajectory generating sets, Cayley-graph spectral gaps, the
transfer-operator approximating measures, and the L2-flattening pipeline.

Word orientation: a "head" word of r symbols and a "tail" word of s - r
symbols prepend to a symbolic point x as (tail, head, x); the walk below
(thermo.Walk) enumerates heads level by level (prepending), so the cocycle
index it carries after t steps is the ascending product of the t innermost
step matrices.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from . import congruence, symbolic
from .congruence import GroupModQ, cf_lip, cocycle_mod, mean_zero_projector, new_space_projector
from .errors import DepthExhausted, EnumerationTooLarge, GroupTooSmall, ModulusMismatch, NoConvergence, NotGenerating
from .symbolic import SymbolicPoint, all_words, enumerate_words, omega_tail
from .thermo import RESIDUAL_TOL, Walk

SVD_ORDER = 2000
LANCZOS_TOL = 1e-12


# ---- return trajectory sets ----

@dataclass(frozen=True)
class ReturnSet:
    y: int
    z: int
    p: int
    elements: tuple          # integer MobiusMaps, deduplicated
    symmetrized: bool = True


def build_return_set(model, y, z, p, cap=200_000):
    """All products c^{p+1}(alpha) c^{p+1}(alpha~)^{-1} over admissible word pairs
    from y to z with p+1 steps; symmetric and containing the identity by shape."""
    words = enumerate_words(model.T, y, z, p + 1)
    if len(words) ** 2 > cap:
        raise EnumerationTooLarge(f"{len(words)}^2 return-set pairs exceed cap {cap}")
    # one factor per step, final step pair (w[-2], z)
    cocs = [model.word_cocycle(w[:-1]) for w in words]
    seen = {}
    for ma in cocs:
        for mb in cocs:
            g = ma @ mb.inverse()
            seen.setdefault(g.tuple(), g)
    elements = tuple(seen[k] for k in sorted(seen))
    return ReturnSet(y, z, p, elements)


def reduced_generator_indices(S, group):
    """Sorted distinct indices of the return-set elements reduced mod q."""
    flat = np.array([[e % group.q for e in m.tuple()] for m in S.elements], dtype=np.int64)
    return np.unique(group.index_of(flat)).tolist()


def generates_full(S, group):
    """Breadth-first closure of the reduced generators inside SL2(Z/q)."""
    gens = [i for i in reduced_generator_indices(S, group) if i != group.identity]
    visited = np.zeros(group.order, dtype=bool)
    visited[group.identity] = True
    frontier = np.array([group.identity])
    perms = [group.left_mul_perm(i) for i in gens]
    diameter = 0
    while frontier.size:
        nxt = np.unique(np.concatenate([perm[frontier] for perm in perms])) if perms else np.array([], dtype=int)
        new = nxt[~visited[nxt]] if nxt.size else nxt
        if new.size:
            visited[new] = True
            diameter += 1
        frontier = new
    closure = int(visited.sum())
    return closure == group.order, {"closure_size": closure, "diameter": diameter, "n_generators": len(gens)}


def check_surjective(model, group):
    """Strong-approximation probe: do the Schottky generators fill SL2(Z/q)?"""
    fake = ReturnSet(-1, -1, 0, tuple(model.gens))
    return generates_full(fake, group)


def detect_expansion(model, qs, p_max=4, cap=200_000):
    """Smallest level p whose return sets generate mod every usable q.

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
        ok_surj, _ = check_surjective(model, group)
        if not ok_surj:
            bad.update(p for p, _ in congruence.factorize(q))
            continue
        smallest = None
        for p in range(1, p_max + 1):
            ok = True
            for yz in pairs:
                if (yz, p) not in sets:
                    sets[(yz, p)] = build_return_set(model, yz[0], yz[1], p, cap=cap)
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


def _lanczos_top(matvec, n, k, dtype, seed):
    """The k largest (algebraic) eigenvalues, ascending, of the symmetric or
    Hermitian operator `matvec` on n-vectors, from one ARPACK Lanczos solve.

    Each returned pair must satisfy ||A v - lam v|| <= RESIDUAL_TOL * max|lam|;
    otherwise, or when ARPACK stops unconverged, NoConvergence.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    if np.dtype(dtype).kind == "c":
        v0 = v0 + 1j * rng.standard_normal(n)
    try:
        vals, vecs = eigsh(LinearOperator((n, n), matvec=matvec, dtype=dtype), k=k, which="LA",
                           tol=LANCZOS_TOL, v0=v0)
    except ArpackNoConvergence as exc:
        raise NoConvergence(f"Lanczos did not converge: {exc}") from exc
    scale = float(np.abs(vals).max())
    for lam, v in zip(vals, vecs.T):
        residual = float(np.linalg.norm(matvec(v) - lam * v))
        if not residual <= RESIDUAL_TOL * scale:
            raise NoConvergence(f"Lanczos residual {residual:.3e} exceeds {RESIDUAL_TOL:g} * {scale:.6g}")
    return vals


def cayley_gap(S, group, seed=0):
    """(lambda_1, lambda_2, eps) of the Cayley graph of the reduced return set.

    lambda_1 is the degree exactly; lambda_2 is the largest (signed) adjacency
    eigenvalue on the orthocomplement of constants, from a Lanczos solve of the
    (symmetric) adjacency operator.
    """
    if group.order <= 2:
        raise GroupTooSmall(f"SL2(Z/{group.q}) has order {group.order}; a Cayley gap needs at least 3 elements")
    ok, cert = generates_full(S, group)
    if not ok:
        raise NotGenerating(f"return set closes up at {cert['closure_size']} < {group.order}")
    gens = reduced_generator_indices(S, group)
    deg = len(gens)
    inv = group.inv_perm()
    perms = np.stack([group.right_mul_perm(int(inv[i])) for i in gens])
    lam2 = float(_lanczos_top(lambda v: v[perms].sum(axis=0), group.order, 2, float, seed)[0])
    eps = 1.0 - lam2 / deg
    return float(deg), lam2, float(eps)


# ---- approximating measures ----

@dataclass
class MeasureOnFq:
    group: GroupModQ
    weights: np.ndarray
    tag: str
    params: dict = field(default_factory=dict)

    def l1(self):
        return float(np.abs(self.weights).sum())

    def l2(self):
        return float(np.linalg.norm(self.weights))


# ((lab, group, x, r, a), walk) of the last r-step head walk build_measures made
_head_memo = None


def build_measures(lab, group, x, r, s, tail, xi):
    """The four approximating measures mu, nu0, mu-hat, nu for one tail word.

    tail is the word (alpha_s, ..., alpha_{r+1}) in forward order; atoms sit at
    the (r+1)-step cocycle indices, weights are exact Birkhoff sums evaluated
    through the collocation data.  The r-step head walk does not depend on the
    tail: it is walked once per (x, r) and a shallow copy is branched per tail.
    """
    global _head_memo
    xi = complex(xi)
    a, b = xi.real, xi.imag
    tail = tuple(tail)
    if len(tail) != s - r or not (0 < r < s):
        raise ValueError("need 0 < r < s and a tail of s - r symbols")
    if not symbolic.admissible(lab.model.T, tail):
        raise ValueError(f"tail {tail} is not admissible")
    key = (lab, group, x, r, a)
    entry = _head_memo  # read once, so a thread sees one whole entry
    if entry is None or entry[0] != key:
        head = Walk.from_point(lab.model, lab.potential(a), x, group)
        for _ in range(r):
            head.step(range(lab.model.N))
        entry = _head_memo = (key, head)
    walk = copy.copy(entry[1])
    f_r = entry[1].f[walk.step([tail[-1]])]
    cidx_atoms = walk.cidx
    for j in reversed(tail[:-1]):
        f_r = f_r[walk.step([j])]
    mu, mu_hat, nu0 = np.zeros(group.order, dtype=complex), np.zeros(group.order), np.zeros(group.order)
    np.add.at(mu, cidx_atoms, np.exp(walk.f + 1j * b * walk.tau))
    np.add.at(mu_hat, cidx_atoms, np.exp(walk.f))
    np.add.at(nu0, cidx_atoms, np.exp(f_r))
    omega = omega_tail(lab.model.T, tail[-1])
    _, _, f_tail = symbolic.birkhoff(lab.potential(a), tail, omega)
    nu = float(np.exp(f_tail)) * nu0
    params = {"x": (x.preperiod, x.period), "r": r, "s": s, "tail": tail, "xi": (a, b)}
    return {
        "mu": MeasureOnFq(group, mu, "mu", params),
        "nu0": MeasureOnFq(group, nu0, "nu0", params),
        "mu_hat": MeasureOnFq(group, mu_hat, "mu_hat", params),
        "nu": MeasureOnFq(group, nu, "nu", params),
        "n_words": walk.size(),
    }


# ---- exact s-step application at a point, and the convolution approximation ----

def transfer_apply_at(lab, group, H, xi, s, x):
    """M^s(H)(x) as the exact word sum, H read as a depth-D locally constant
    function; the fiber action of the cocycle is applied leaf by leaf."""
    if H.values.shape[1] != group.order:
        raise ModulusMismatch(f"fiber values of shape {H.values.shape}, group of order {group.order}")
    xi = complex(xi)
    model = lab.model
    depth = H.depth
    walk = Walk.from_point(model, lab.potential(xi.real), x, group, track_words=True)
    for _ in range(s):
        walk.step(range(model.N))
    # cylinder of each leaf: word symbols (reversed prepend order) then x's
    words = walk.words[:, ::-1]
    if s < depth:
        fill = np.tile(np.array(x.symbols(depth - s), dtype=np.int8), (walk.size(), 1))
        words = np.concatenate([words, fill], axis=1)
    else:
        words = words[:, :depth]
    cyl = symbolic.word_rank(H.words, words, model.N)
    weights = np.exp(walk.f + 1j * xi.imag * walk.tau)
    out = np.zeros(group.order, dtype=complex)
    inv = group.inv_perm()
    for leaf in range(walk.size()):
        perm = group.right_mul_perm(int(inv[walk.cidx[leaf]]))
        out += weights[leaf] * H.values[cyl[leaf]][perm]
    return out


def approx_transfer_check(lab, group, H, xi, r, s):
    """Residual of the measure-convolution approximation of M^s against the
    exact word sum at the anchors (w; omega) over all admissible 2-words w,
    compared to the bound C_f Lip(H) theta^{s-r}."""
    if H.values.shape[1] != group.order:
        raise ModulusMismatch(f"fiber values of shape {H.values.shape}, group of order {group.order}")
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
    # a tail's cylinder (tail + omega tail) and fiber permutation do not depend on x
    ext, perms = [], []
    inv = group.inv_perm()
    for tail in tails:
        period = omega_tail(model.T, tail[-1]).period
        ext.append((tail + period * ((H.depth - len(tail)) // len(period) + 1))[: H.depth])
        perms.append(group.right_mul_perm(int(inv[cocycle_mod(model, tail[:-1], group)])))
    cyls = symbolic.word_rank(H.words, ext, model.N)
    residuals = np.zeros(len(anchors))
    for i, x in enumerate(anchors):
        exact = transfer_apply_at(lab, group, H, xi, s, x)
        approx = np.zeros(group.order, dtype=complex)
        for tail, cyl, perm in zip(tails, cyls, perms):
            meas = build_measures(lab, group, x, r, s, tail, xi)
            approx += group.convolve_fn(meas["mu"].weights, H.values[cyl][perm])
        residuals[i] = np.linalg.norm(exact - approx)
    sup = float(residuals.max())
    ratio = sup / bound if bound > 0 else np.inf if sup > 0 else 0.0
    return {"residuals": residuals, "sup": sup, "bound": bound, "ratio": ratio, "lip": lip}


# ---- operator norms of convolution operators on subspaces ----

def conv_opnorm(group, weights, projector, svd_cap=SVD_ORDER, seed=0):
    """Operator norm of phi -> weights * phi restricted to the range of `projector`.

    Dense SVD up to svd_cap; above it, the square root of the top eigenvalue of
    the Hermitian P mu~* mu P by Lanczos.
    """
    n = group.order
    if n <= svd_cap:
        M = group.convolution_matrix(weights)
        # projecting the rows right-multiplies by the (symmetric) projector matrix
        MP = projector(M)
        return float(np.linalg.svd(MP, compute_uv=False)[0])
    star = np.conj(weights[group.inv_perm()])

    def gram(v):
        return projector(group.convolve_fn(star, group.convolve_fn(weights, projector(v))))

    lam = float(_lanczos_top(gram, n, 1, complex, seed)[0])
    return float(np.sqrt(max(lam, 0.0)))


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


def flattening_pipeline(lab, group, x, r_prime, l, p, s_extra=2, tail=None, xi=0.3j,
                        gaps=None, decomp=None, seed=0, svd_cap=SVD_ORDER):
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
    r = r_prime * l
    s = r + s_extra
    if tail is None:
        tail = all_words(model.T, s - r)[0]
    tail = tuple(tail)

    gap_cache = dict(gaps) if gaps else {}

    def gap_eps(y, z):
        if (y, z) not in gap_cache:
            S = build_return_set(model, y, z, p)
            gap_cache[(y, z)] = cayley_gap(S, group, seed=seed)
        return gap_cache[(y, z)][2]

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
    nu1, flat_ratio, block_measures, block_pairs = _build_nu1(lab, group, x, r_prime, l, p, tail, a)
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
    mz = mean_zero_projector(group)
    eps_used = []
    c_meas_worst = 0.0
    c_bound_worst = 0.0
    deficit_min = np.inf
    for (yz, eta) in block_measures:
        eps = gap_eps(*yz)
        eps_used.append(eps)
        l1 = np.abs(eta).sum()
        if l1 == 0:
            continue
        deficit = eps**2 / (2.0 * C0_flat**2 * model.N ** (2 * p))
        deficit_min = min(deficit_min, deficit)
        c_bound = float(np.sqrt(max(0.0, 1.0 - deficit)))
        c_meas = conv_opnorm(group, eta.astype(complex), mz, svd_cap=svd_cap, seed=seed) / l1
        c_meas_worst = max(c_meas_worst, c_meas)
        c_bound_worst = max(c_bound_worst, c_bound)
    entries["eta_contraction"] = {
        "ratio": c_meas_worst, "bound": c_bound_worst,
        "passed": c_meas_worst <= c_bound_worst and deficit_min > 0.0,
    }
    values["eta_bound_deficit"] = float(deficit_min)

    # r-step contraction of nu0 on mean-zero vectors
    ratio_nu = conv_opnorm(group, nu0.weights.astype(complex), mz, svd_cap=svd_cap, seed=seed) / nu0.l1()
    C3 = -np.log(c_bound_worst) if c_bound_worst > 0 else np.inf
    C_walk = float(np.exp((2 * C_est * theta**l - C3) / l))
    entries["walk_contraction"] = {"ratio": ratio_nu, "bound": C_walk**r, "passed": ratio_nu <= C_walk**r}
    values["walk_C"] = C_walk

    # new-space operator norm of mu against sqrt(#F) ||mu||_2
    proj_new = new_space_projector(group, decomp)
    opnorm_new = conv_opnorm(group, mu.weights, proj_new, svd_cap=svd_cap, seed=seed)
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
    acc = 0.0
    n_probe = 12
    for _ in range(n_probe):
        phi = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
        phi = proj_new(phi)
        phi /= np.linalg.norm(phi)
        acc += np.linalg.norm(group.convolve_fn(mu.weights, phi)) ** 2
    flatten_value = float(np.sqrt(acc / n_probe)) / nu.l1()
    values["flatten_value"] = flatten_value
    entries["flattening"] = {"ratio": flatten_value, "bound": C_cmp, "passed": flatten_value <= C_cmp}
    values["min_block_eps"] = min(eps_used) if eps_used else 0.0

    return FlatteningReport(group.q, r, s, l, p, r_prime, tail, entries, values)


def _build_nu1(lab, group, x, r_prime, l, p, tail, a):
    """nu1 as a sum over second-part chains of convolutions of nearly flat blocks.

    A chain fixes the (l-p)-symbol second parts (u_{r'}, ..., u_1) of all r'
    blocks; each block then sums over its admissible p-word first parts with
    the dependence on neighboring blocks cut by the omega continuation.
    Returns (dense weights, worst within-block coefficient ratio, one measure
    per distinct block endpoint pair, number of chains).
    """
    model = lab.model
    T = model.T
    parts = all_words(T, l - p)
    chains = [(u,) for u in parts if T[u[-1], x.first]]
    for _ in range(r_prime - 1):
        chains = [(u,) + ch for ch in chains for u in parts]
    nu1 = np.zeros(group.order)
    flat_ratio = 1.0
    block_measures = []
    seen_blocks = set()
    for chain in chains:
        # chain = (u_{r'}, ..., u_1): forward order of the final word
        conv = np.zeros(group.order, dtype=complex)
        conv[cocycle_mod(model, (chain[-1][-1],), group)] = 1.0  # eta_0 = delta at c(alpha_1, x)
        ok = True
        for j in range(1, r_prime + 1):
            u_j = chain[r_prime - j]
            y_j = tail[-1] if j == r_prime else chain[r_prime - j - 1][-1]
            u_next = None if j >= r_prime else chain[r_prime - j - 1]
            eta, evals = _eta_weights(lab, group, a, y_j, u_j, u_next, p, j, r_prime, x)
            if not evals:
                ok = False
                break
            flat_ratio = max(flat_ratio, max(evals) / min(evals))
            key = (y_j, u_j[0])
            if key not in seen_blocks:
                seen_blocks.add(key)
                block_measures.append((key, eta))
            conv = group.convolve_fn(conv, eta.astype(complex))
        if ok:
            nu1 += conv.real
    return nu1, flat_ratio, block_measures, len(chains)


def _eta_weights(lab, group, a, y, u_part, u_next, p, j, r_prime, x):
    """Block measure eta^q: weights over the admissible p-word first parts.

    The atom of a p-word choice is the l-step cocycle (y, p-word, u_part[:-1]);
    the coefficient E is the Birkhoff f-sum prescribed for the block position
    (full dependence on x for the innermost block, omega-cut otherwise).
    """
    model = lab.model
    pot = lab.potential(a)
    pwords = enumerate_words(model.T, y, u_part[0], p + 1)
    eta = np.zeros(group.order)
    evals = []
    base = SymbolicPoint(tuple(u_part), omega_tail(model.T, u_part[-1]).period)
    for w in pwords:
        pw = w[1:-1]
        if j == 1:
            _, _, fE = symbolic.birkhoff(pot, u_next + pw + u_part, x)
        elif j < r_prime:
            _, _, fE = symbolic.birkhoff(pot, u_next + pw, base)
        else:
            _, _, fE = symbolic.birkhoff(pot, pw, base)
        E = float(np.exp(fE))
        evals.append(E)
        atom_word = (y,) + pw + u_part[:-1]
        eta[cocycle_mod(model, atom_word, group)] += E
    return eta, evals

