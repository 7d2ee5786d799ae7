"""Independent oracles used by the tests: brute-force enumerations and a
refinement-based limit-set dimension estimate.  These deliberately avoid the
library's own code paths wherever the value they check is produced."""

import itertools

import numpy as np


def brute_force_words(T, y, z, steps):
    """All admissible words from y to z with `steps` steps, by raw filtering."""
    n = T.shape[0]
    if steps == 0:
        return [(y,)] if y == z else []
    out = []
    for mid in itertools.product(range(n), repeat=steps - 1):
        w = (y,) + mid + (z,)
        if all(T[a, b] for a, b in zip(w, w[1:])):
            out.append(w)
    return sorted(out)


def intervals_disjoint(intervals, margin=1e-9):
    ivs = sorted(intervals)
    return all(b[0] - a[1] > margin for a, b in zip(ivs, ivs[1:]))


def constant_function(model, group, depth, value):
    """The depth-D CongruenceFunction equal to `value` on every cylinder and fiber."""
    from thinlab import CongruenceFunction, symbolic
    words = symbolic.word_table(model.T, depth)
    return CongruenceFunction(depth, words, np.full((len(words), group.order), value, dtype=complex))


def mobius_pair(mat, x):
    a, b, c, d = mat
    return (a * x + b) / (c * x + d)


def refinement_dimension(model, depth=7, tol=1e-12):
    """McMullen-style refinement estimate of the limit-set dimension.

    Each depth-`depth` cylinder is represented by its midpoint; the weighted
    refinement matrix B(s)[w, w'] = |branch derivative at sample of w'|^{-s}
    over allowed transitions has spectral radius 1 exactly at the dimension.
    Only elementary Moebius arithmetic is shared with the library.
    """
    n = model.N
    words = [(j,) for j in range(n)]
    for _ in range(depth - 1):
        words = [w + (s,) for w in words for s in range(n) if model.T[w[-1], s]]
    index = {w: i for i, w in enumerate(words)}

    mids = np.empty(len(words))
    for w, i in index.items():
        lo, hi = model.intervals[w[-1]]
        for j in reversed(w[:-1]):
            g = model.gens_inv[j]
            lo, hi = sorted((mobius_pair(g.tuple(), lo), mobius_pair(g.tuple(), hi)))
        mids[i] = 0.5 * (lo + hi)

    # transition w -> w' iff w' = (w[1:], s); weight |sigma'(mid(w))|^{-s_exp}
    # where sigma on the cylinder of w applies the symbol w[0]
    src = []
    dst = []
    logw = []
    for w, i in index.items():
        g = model.gens[w[0]]
        ld = -2.0 * np.log(abs(g.c * mids[i] + g.d))  # log |forward derivative|
        for s in range(n):
            w2 = w[1:] + (s,)
            if model.T[w[-1], s]:
                src.append(index[w2])
                dst.append(i)
                logw.append(ld)
    src = np.array(src)
    dst = np.array(dst)
    logw = np.array(logw)

    def radius(s_exp):
        weights = np.exp(-s_exp * logw)
        v = np.ones(len(words))
        rho = 1.0
        for _ in range(4000):
            u = np.zeros(len(words))
            np.add.at(u, dst, weights * v[src])
            rho_new = u.max()
            u /= rho_new
            if abs(rho_new - rho) < tol * rho_new and np.abs(u - v).max() < 1e-13:
                return rho_new
            rho, v = rho_new, u
        return rho

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if radius(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sl2_count_bruteforce(q):
    """Count SL2(Z/q) by filtering all residue tuples."""
    grid = np.arange(q)
    a, b, c, d = np.meshgrid(grid, grid, grid, grid, indexing="ij")
    return int(np.count_nonzero((a * d - b * c) % q == 1))


def compose_mod(x, y, q):
    """Entrywise 2 x 2 products of (..., 4) residue arrays, reduced mod q."""
    a = x[..., 0] * y[..., 0] + x[..., 1] * y[..., 2]
    b = x[..., 0] * y[..., 1] + x[..., 1] * y[..., 3]
    c = x[..., 2] * y[..., 0] + x[..., 3] * y[..., 2]
    d = x[..., 2] * y[..., 1] + x[..., 3] * y[..., 3]
    return np.stack([a, b, c, d], axis=-1) % q


def fiber_perms_full_group(group, h):
    """(act(h), left multiplication by h) from one explicit product per group
    element: g -> g elem_h^{-1} and g -> elem_h g, each located by index_of."""
    a, b, c, d = group.elems[h]
    h_inv = np.array([d, -b, -c, a]) % group.q
    act = group.index_of(compose_mod(group.elems, h_inv[None, :], group.q))
    left = group.index_of(compose_mod(group.elems[h][None, :], group.elems, group.q))
    return act, left


def min_nontrivial_irrep_dim(group, seed=0):
    """Smallest nontrivial irreducible dimension of the regular representation,
    from the eigenspace multiplicities of a generic symmetric class-sum operator
    (each isotypic component has dimension d_i^2 and class sums act by scalars)."""
    n = group.order
    inv = group.inv_perm()
    # full conjugation table: conj[g, x] = index of elem_g elem_x elem_g^{-1}
    conj = np.empty((n, n), dtype=np.int64)
    for g in range(n):
        right = group.act(g)  # x -> x elem_g^{-1}, so x -> elem_g x is inv[right[inv]]
        conj[g] = right[inv[right[inv]]]
    cls = -np.ones(n, dtype=int)
    n_cls = 0
    for i in range(n):
        if cls[i] >= 0:
            continue
        orbit = np.unique(conj[:, i])
        cls[orbit] = n_cls
        n_cls += 1
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(n_cls) + 1j * rng.standard_normal(n_cls)
    # Hermitian class function: the class of g^{-1} carries the conjugate
    # coefficient, so conjugate irreducibles get distinct real eigenvalues
    for i in range(n):
        a, b = cls[i], cls[int(inv[i])]
        if a == b:
            coeff[a] = coeff[a].real
        else:
            coeff[b] = np.conj(coeff[a])
    weights = coeff[cls]
    M = np.zeros((n, n), dtype=complex)
    rows = np.arange(n)
    for h in range(n):
        M[rows, group.act(h)] += weights[h]
    vals = np.sort(np.linalg.eigvalsh(M))
    dims = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(vals[j + 1] - vals[i]) < 1e-7 * max(1.0, abs(vals[i])):
            j += 1
        dims.append(j - i + 1)
        i = j + 1
    nontrivial = [int(round(np.sqrt(d))) for d in dims if d > 1]
    return min(nontrivial) if nontrivial else 1


def cayley_lambda2_power(group, gens, tol=1e-12, max_iter=100_000, seed=0):
    """Second adjacency eigenvalue of the Cayley graph on `gens` by a shifted
    power iteration projected off the constants.  Independent of the character
    blocks of cayley_gap, but slow when lambda_2 and lambda_3 are close."""
    deg = len(gens)
    perms = np.stack([group.act(i) for i in gens])

    def shifted(v):
        return v[perms].sum(axis=0) + deg * v

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(group.order)
    v -= v.mean()
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        u = shifted(v)
        u -= u.mean()
        u /= np.linalg.norm(u)
        lam_new = u @ shifted(u)
        if abs(lam_new - lam) <= tol * deg:
            return lam_new - deg
        lam, v = lam_new, u
    raise AssertionError(f"power iteration did not reach tolerance {tol}")


def growth_rate(M, w, k_max=300, seed=0, mean_zero=False):
    """Per-step growth rate of ||M^k H||_w on a random complex input: the
    least-squares slope of the log-norms over the second half of k_max steps,
    exponentiated.  This is the spectral radius of M when H has a component
    along the leading eigenvector.  With mean_zero, the w-weighted mean is
    removed every step, which for a normalized transfer operator (eigenfunction
    1, eigenmeasure w) leaves the second eigenvalue modulus."""
    rng = np.random.default_rng(seed)
    H = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
    if mean_zero:
        H -= np.sum(w * H)
    logs = []
    acc = 0.0
    for _ in range(k_max):
        H = M @ H
        if mean_zero:
            H -= np.sum(w * H)
        nrm = float(np.sqrt(np.sum(w * np.abs(H) ** 2)))
        acc += np.log(nrm)
        logs.append(acc)
        H /= nrm
    lo = k_max // 2
    fit = np.polyfit(np.arange(lo + 1, k_max + 1), np.array(logs)[lo:], 1)
    return float(np.exp(fit[0]))


def congruence_apply_branches(lab, group, b, a, depth, values):
    """One congruence-operator step as a sum over branches: branch j gathers
    its source rows, permutes their fibers, weights them and adds them into
    the rows it maps to.  A regression oracle for the factored operator."""
    from thinlab import symbolic

    model = lab.model
    pot = lab.potential(a)
    words, anchors = lab.anchors(depth)
    first = words[:, 0]
    logh_anchor = np.empty(len(words))
    for s in range(model.N):
        sel = np.flatnonzero(first == s)
        if sel.size:
            logh_anchor[sel] = pot.logh0_at(s, anchors[sel])
    out = np.zeros_like(values, dtype=complex)
    for j in range(model.N):
        mask = np.flatnonzero(model.T[j, first])
        shifted = np.column_stack([np.full(mask.size, j, dtype=np.int8), words[mask, :-1]])
        src = symbolic.word_rank(words, shifted, model.N)
        v = model.inv_branch(j, anchors[mask])
        tau = model.tau(j, v)
        weight = np.exp(pot.f_from_parts(tau, pot.logh0_at(j, v), logh_anchor[mask]) + 1j * b * tau)
        if group.q == 1:
            perm = np.array([0])
        else:
            perm = group.act(group.reduce([model.gens[j]])[0])
        out[mask] += weight[:, None] * values[src][:, perm]
    return out


def build_measures_fresh(lab, group, x, r, s, tail, xi):
    """The approximating measures with a fresh s-step walk for this one tail:
    r all-symbol head steps, then the tail symbols one by one.  A regression
    oracle for build_measures, whose walk is the one-tail case of the tail
    walk that approx_transfer_check steps over all tails at once."""
    from thinlab import symbolic
    from thinlab.thermo import Walk

    xi = complex(xi)
    a, b = xi.real, xi.imag
    tail = tuple(tail)
    walk = Walk.from_point(lab.model, lab.potential(a), x, group)
    f_r = None
    cidx_atoms = None
    for t in range(1, s + 1):
        if t <= r:
            walk.step(range(lab.model.N))
            if t == r:
                f_r = walk.f.copy()
        else:
            f_r = f_r[walk.step([tail[s - t]])]
            if t == r + 1:
                cidx_atoms = walk.cidx.copy()
    mu = np.zeros(group.order, dtype=complex)
    mu_hat = np.zeros(group.order)
    nu0 = np.zeros(group.order)
    np.add.at(mu, cidx_atoms, np.exp(walk.f + 1j * b * walk.tau))
    np.add.at(mu_hat, cidx_atoms, np.exp(walk.f))
    np.add.at(nu0, cidx_atoms, np.exp(f_r))
    f_tail = symbolic.birkhoff(lab.potential(a), tail, symbolic.omega_tail(lab.model.T, tail[-1]))
    nu = float(np.exp(f_tail)) * nu0
    return {"mu": mu, "nu0": nu0, "mu_hat": mu_hat, "nu": nu, "n_words": walk.size()}


def approx_residuals_per_tail(lab, group, H, xi, r, s):
    """(residuals, exact sums) of approx_transfer_check computed tail by tail:
    at each anchor the exact sum from transfer_apply_at, then for each tail its
    mu from a fresh walk (build_measures_fresh), convolved with H on the tail's
    cylinder through the tail's fiber action.  A regression oracle for
    approx_transfer_check, which sums H less H on each leaf's tail cylinder
    over the leaves of one walk per anchor."""
    from thinlab import symbolic
    from thinlab.congruence import cocycle_mod
    from thinlab.expander import transfer_apply_at

    model = lab.model
    anchors = [symbolic.SymbolicPoint(w, symbolic.omega_tail(model.T, w[-1]).period)
               for w in symbolic.all_words(model.T, 2)]
    residuals, exacts = [], []
    for x in anchors:
        exact = transfer_apply_at(lab, group, H, xi, s, x)
        approx = np.zeros(group.order, dtype=complex)
        for tail in symbolic.all_words(model.T, s - r):
            period = symbolic.omega_tail(model.T, tail[-1]).period
            ext = (tail + period * H.depth)[: H.depth]
            cyl = symbolic.word_rank(H.words, [ext], model.N)[0]
            mu = build_measures_fresh(lab, group, x, r, s, tail, xi)["mu"]
            approx += group.convolve_fn(mu, H.values[cyl][group.act(cocycle_mod(model, tail[:-1], group))])
        residuals.append(np.linalg.norm(exact - approx))
        exacts.append(exact)
    return np.array(residuals), exacts


def approx_residuals_longdouble(lab, group, H, xi, r, s):
    """approx_transfer_check's residuals in the per-tail form, accumulated in
    np.clongdouble: at each anchor one s-step walk over all symbols gives every
    leaf's weight exp(f + i b tau); the exact sum adds them times H on the leaf's
    cylinder under its s-step fiber action, each tail's mu adds them at the leaf's
    (r+1)-step atom, and mu is convolved with H on the tail's cylinder through the
    fiber action of c(tail[:-1]).  The residual is the norm of exact - approx,
    whose cancellation long double keeps 3 digits further than double."""
    from thinlab import symbolic
    from thinlab.congruence import cocycle_mod
    from thinlab.thermo import Walk

    model, n = lab.model, group.order
    values = H.values.astype(np.clongdouble)
    act = np.array([group.act(h) for h in range(n)])
    tails = symbolic.all_words(model.T, s - r)
    tail_fiber = []
    for tail in tails:
        ext = (tail + symbolic.omega_tail(model.T, tail[-1]).period * H.depth)[: H.depth]
        cyl = symbolic.word_rank(H.words, [ext], model.N)[0]
        tail_fiber.append(values[cyl][act[cocycle_mod(model, tail[:-1], group)]])
    residuals = []
    for w in symbolic.all_words(model.T, 2):
        x = symbolic.SymbolicPoint(w, symbolic.omega_tail(model.T, w[-1]).period)
        walk = Walk.from_point(model, lab.potential(xi.real), x, group)
        word = np.empty((1, 0), dtype=np.int64)
        for t in range(s):
            parents = walk.step(range(model.N))
            word = np.column_stack([walk.sym, word[parents]])
            atoms = walk.cidx if t == r else atoms[parents] if t > r else None
        weights = np.exp(walk.f.astype(np.longdouble) + 1j * np.longdouble(xi.imag) * walk.tau)
        fill = np.tile(np.array(x.symbols(H.depth)), (len(word), 1))
        cyl = symbolic.word_rank(H.words, np.concatenate([word, fill], axis=1)[:, : H.depth], model.N)
        exact = (weights[:, None] * values[cyl[:, None], act[walk.cidx]]).sum(axis=0)
        mu = np.zeros((len(tails), n), dtype=np.clongdouble)
        np.add.at(mu, (symbolic.word_rank(np.array(tails), word[:, : s - r], model.N), atoms), weights)
        approx = np.zeros(n, dtype=np.clongdouble)
        for weights_t, fiber in zip(mu, tail_fiber):
            for h in np.flatnonzero(weights_t):
                approx += weights_t[h] * fiber[act[h]]
        residuals.append(float(np.sqrt((np.abs(exact - approx) ** 2).sum())))
    return np.array(residuals)


def birkhoff_scalar(potential, alpha, x):
    """(tau, f): the Birkhoff sums of the roof and of symbolic.birkhoff's f^(a)
    by a scalar loop over the symbols of alpha, innermost first: the preimage
    point, the step roof and the step f, one evaluation each."""
    from thinlab import symbolic

    model = potential.model
    v = symbolic.eval_point(model, x)
    logh = potential.logh0_at(x.first, v)
    tau_sum = 0.0
    f_sum = 0.0
    for j in reversed(tuple(alpha)):
        v = model.inv_branch(j, v)
        step_tau = float(model.tau(j, v))
        logh_new = potential.logh0_at(j, v)
        tau_sum += step_tau
        f_sum += potential.f_from_parts(step_tau, logh_new, logh)
        logh = logh_new
    return tau_sum, f_sum


def closure_size_bfs(mats, q):
    """Order of the subgroup of SL2(Z/q) generated by the integer matrices
    `mats` (4-tuples (a, b, c, d)): a breadth-first closure under left
    multiplication by all of them at once, with 2x2 products taken mod q and
    elements keyed by their residues; no group table is used."""
    gens = np.unique(np.array([[e % q for e in m] for m in mats], dtype=np.int64), axis=0)
    g = gens[:, None, :]

    def key(x):
        return ((x[:, 0] * q + x[:, 1]) * q + x[:, 2]) * q + x[:, 3]

    seen = np.zeros(q**4, dtype=bool)
    frontier = np.array([[1, 0, 0, 1]], dtype=np.int64) % q
    seen[key(frontier)] = True
    size = 1
    while frontier.size:
        x = frontier[None, :, :]
        prod = np.stack([g[..., 0] * x[..., 0] + g[..., 1] * x[..., 2],
                         g[..., 0] * x[..., 1] + g[..., 1] * x[..., 3],
                         g[..., 2] * x[..., 0] + g[..., 3] * x[..., 2],
                         g[..., 2] * x[..., 1] + g[..., 3] * x[..., 3]], axis=-1).reshape(-1, 4) % q
        keys, first = np.unique(key(prod), return_index=True)
        new = ~seen[keys]
        seen[keys[new]] = True
        frontier = prod[first[new]]
        size += int(new.sum())
    return size


def walk_step_per_symbol(walk, symbols):
    """One prepend step of a thermo.Walk as a loop over the prepended symbols:
    each symbol pulls back the leaves it may precede as its own batch, and the
    batches are concatenated in symbol order.  A regression oracle for
    Walk.step; like the step it replaces, it rebinds the walk's arrays."""
    from thinlab.errors import InadmissibleWord

    model, pot = walk.model, walk.pot
    parts = []
    for j in symbols:
        mask = np.flatnonzero(model.T[j, walk.sym])
        if mask.size == 0:
            continue
        v2 = model.inv_branch(j, walk.v[mask])
        tau2 = model.tau(j, v2)
        logh2 = pot.logh0_at(j, v2)
        f2 = walk.f[mask] + pot.f_from_parts(tau2, logh2, walk.logh[mask])
        parts.append((j, mask, v2, logh2, f2, walk.tau[mask] + tau2))
    if not parts:
        raise InadmissibleWord("no admissible continuation for the requested symbols")
    parents = np.concatenate([p[1] for p in parts])
    if walk.cidx is not None:
        walk.cidx = np.concatenate([walk.perms[j][walk.cidx[mask]] for j, mask, *_ in parts])
    walk.sym = np.concatenate([np.full(p[1].size, p[0]) for p in parts])
    walk.v, walk.logh, walk.f, walk.tau = (np.concatenate([p[i] for p in parts]) for i in range(2, 6))
    return parents


def measure_constants_per_point(lab):
    """(theta, T0, A_f, C_f) measured branch by branch and pair by
    pair: f^(a) on each admissible branch (j, k) at the nodes of U_k, then at
    each sampled symbolic point on its own.  A regression oracle for
    ThermoLab.constants, which measures all branches and points at once."""
    from thinlab import symbolic
    from thinlab.thermo import A0P

    model, grid = lab.model, lab.grid
    a_samples = [0.0, 0.01, -0.01, 0.04, -0.04, 0.8 * A0P, -0.8 * A0P]
    a_samples = sorted({round(a, 12) for a in a_samples if abs(a) < A0P})
    pots = {a: lab.potential(a) for a in a_samples}

    def f_at(pot, x, px):
        return float(pot.f_step(x.symbol(0), x.symbol(1), np.atleast_1d(px))[0])

    ratio = 0.0
    f_sup = 0.0
    for a in a_samples:
        for k in range(model.N):
            u = grid.nodes[k]
            for j in range(model.N):
                if not model.T[j, k]:
                    continue
                v = model.inv_branch(j, u)
                fa = pots[a].f_step(j, k, v, u)
                f_sup = max(f_sup, np.abs(fa).max())
                if a != 0.0:
                    f0 = pots[0.0].f_step(j, k, v, u)
                    ratio = max(ratio, np.abs(fa - f0).max() / abs(a))
    A_f = 1.05 * ratio

    rng = np.random.default_rng(0)
    pairs = symbolic.lip_quotient_pairs(model, rng, depths=range(0, 9), samples_per_depth=60)
    t0 = 1.0
    for m_agree, x, y in pairs:
        scale = lab.theta**m_agree
        px = symbolic.eval_point(model, x)
        py = symbolic.eval_point(model, y)
        tx = float(model.tau(x.symbol(0), px))
        ty = float(model.tau(y.symbol(0), py))
        t0 = max(t0, abs(tx - ty) / scale)
        for a in a_samples:
            t0 = max(t0, abs(f_at(pots[a], x, px) - f_at(pots[a], y, py)) / scale)
    T0 = 1.25 * max(t0, f_sup)
    return lab.theta, T0, A_f, float(np.exp(A_f * A0P))


def conv_opnorm_dense(group, weights, projector):
    """Operator norm of phi -> weights * phi on the range of `projector`, as the
    top singular value of one dense SVD of the whole projected convolution
    matrix.  An oracle for the <c>-character blocks of expander.conv_opnorm."""
    M = np.zeros((group.order, group.order), dtype=np.result_type(weights, float))
    for h in np.flatnonzero(weights):
        M[np.arange(group.order), group.act(h)] += weights[h]
    # projecting the rows right-multiplies by the (symmetric) projector matrix
    MP = projector(M)
    return float(np.linalg.svd(MP, compute_uv=False)[0])


def conv_opnorm_lanczos(group, weights, projector, seed=0):
    """Operator norm of phi -> weights * phi on the range of `projector`, as the
    square root of the top eigenvalue of the Hermitian P mu~* mu P from one
    ARPACK Lanczos solve of group convolutions, residual-checked.  An oracle for
    the block SVDs of expander.conv_opnorm, which use neither the Gram operator
    nor Lanczos."""
    from scipy.sparse.linalg import LinearOperator, eigsh

    star = np.conj(weights[group.inv_perm()])

    def gram(v):
        return projector(group.convolve_fn(star, group.convolve_fn(weights, projector(v))))

    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    n = group.order
    vals, vecs = eigsh(LinearOperator((n, n), matvec=gram, dtype=complex), k=1, which="LA", tol=1e-12, v0=v0)
    lam, v = float(vals[0]), vecs[:, 0]
    residual = float(np.linalg.norm(gram(v) - lam * v))
    assert residual <= 1e-10 * abs(lam), f"Lanczos residual {residual:.3e} at eigenvalue {lam:.6g}"
    return float(np.sqrt(max(lam, 0.0)))


def cayley_blocks_unfolded(group, gens):
    """The m x m <c>-character blocks chi = 0, ..., o/2 of the Cayley adjacency on `gens`,
    every row built and none split by the centre: entry (j, i) of block chi sums
    exp(2 pi i chi t / o) over the neighbours k_j s^{-1} = c^t k_i.  An oracle for the
    folded blocks of expander.cayley_gap."""
    cells, t_of, i_of = group.coset_coords()
    o, m = cells.shape
    mats = group.elems.reshape(-1, 2, 2)
    nb = group.index_of((mats[cells[0]][:, None] @ _adjugate(mats[list(gens)])[None]).reshape(m, -1, 4))
    entry, t = (np.arange(m)[:, None] * m + i_of[nb]).ravel(), t_of[nb].ravel()
    blocks = np.zeros((o // 2 + 1, m * m), dtype=complex)
    for chi in range(o // 2 + 1):
        np.add.at(blocks[chi], entry, np.exp(2j * np.pi * (chi * t % o) / o))
    return blocks.reshape(-1, m, m)


def conv_blocks_unfolded(group, weights, projector):
    """The o transposed m x m <c>-character blocks of phi -> P(weights) * phi, every
    column k_j filled and none split by the centre: F[t, j, i] = P(weights)(k_j^{-1} c^t k_i),
    Fourier transformed over t.  An oracle for the folded blocks of expander.conv_opnorm."""
    cells = group.coset_coords()[0]
    o, m = cells.shape
    mats = group.elems.reshape(-1, 2, 2)
    prods = _adjugate(mats[cells[0]])[None, :, None] @ mats[cells][:, None, :]  # [t, j, i] = k_j^{-1} c^t k_i
    return np.fft.fft(projector(weights)[group.index_of(prods.reshape(o, m, m, 4))].astype(complex), axis=0)


def _adjugate(mats):
    """The inverses of (..., 2, 2) matrices of determinant 1, unreduced."""
    return np.stack([mats[..., 1, 1], -mats[..., 0, 1], -mats[..., 1, 0], mats[..., 0, 0]], axis=-1).reshape(mats.shape)


def lip_quotient_pairs_per_draw(model, rng, depths, samples_per_depth):
    """symbolic.lip_quotient_pairs with each symbol's successors looked up again
    at every draw; the draws from rng must be the same, in the same order."""
    from thinlab.symbolic import SymbolicPoint, omega_tail

    T = model.T
    n = T.shape[0]

    def random_next(cur):
        succ = np.flatnonzero(T[cur])
        return int(succ[rng.integers(len(succ))])

    def random_point_from(start, pre_len=3):
        pre = [start]
        cur = start
        for _ in range(pre_len):
            cur = random_next(cur)
            pre.append(cur)
        return SymbolicPoint(tuple(pre), omega_tail(T, cur).period)

    out = []
    for m in depths:
        for _ in range(samples_per_depth):
            if m == 0:
                a, b = rng.choice(n, size=2, replace=False)
                out.append((0, random_point_from(int(a)), random_point_from(int(b))))
                continue
            cur = int(rng.integers(n))
            w = [cur]
            for _ in range(m - 1):
                cur = random_next(cur)
                w.append(cur)
            succ = [k for k in range(n) if T[cur, k]]
            a, b = rng.choice(len(succ), size=2, replace=False)
            xa = random_point_from(succ[a])
            yb = random_point_from(succ[b])
            out.append((m, SymbolicPoint(tuple(w) + xa.preperiod, xa.period),
                        SymbolicPoint(tuple(w) + yb.preperiod, yb.period)))
    return out


def build_nu1_chains(lab, group, x, r_prime, l, p, tail, a):
    """nu1 as a sum over second-part chains of convolutions of nearly flat blocks.
    A regression oracle for expander._build_nu1, which sums the chains one
    position at a time and builds each block from one walk; this one lists every
    chain and evaluates every block word by word.

    A chain fixes the (l-p)-symbol second parts (u_{r'}, ..., u_1) of all r'
    blocks; each block then sums over its admissible p-word first parts with
    the dependence on neighboring blocks cut by the omega continuation.
    Returns (dense weights, worst within-block coefficient ratio, one measure
    per distinct block endpoint pair, number of chains).
    """
    from thinlab.congruence import cocycle_mod
    from thinlab.symbolic import all_words

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
    from thinlab import symbolic
    from thinlab.congruence import cocycle_mod
    from thinlab.symbolic import SymbolicPoint, enumerate_words, omega_tail

    model = lab.model
    pot = lab.potential(a)
    pwords = enumerate_words(model.T, y, u_part[0], p + 1)
    eta = np.zeros(group.order)
    evals = []
    base = SymbolicPoint(tuple(u_part), omega_tail(model.T, u_part[-1]).period)
    for w in pwords:
        pw = w[1:-1]
        if j == 1:
            fE = symbolic.birkhoff(pot, u_next + pw + u_part, x)
        elif j < r_prime:
            fE = symbolic.birkhoff(pot, u_next + pw, base)
        else:
            fE = symbolic.birkhoff(pot, pw, base)
        E = float(np.exp(fE))
        evals.append(E)
        atom_word = (y,) + pw + u_part[:-1]
        eta[cocycle_mod(model, atom_word, group)] += E
    return eta, evals
