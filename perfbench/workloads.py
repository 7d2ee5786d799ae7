"""The four workloads: their sizes, their operations and the checks of their outputs.

Every workload runs on the example group [(2,3,1,2),(6,35,1,6)] and calls
thinlab's public functions the way the CLI subcommands do.  thinlab is looked
up through module attributes at call time (`expander.cayley_gap(...)`), never
imported by name, so that the tracer's wrappers see every call.

Only random inputs depend on the seed; the amount of work in a round does not.
The checks compare outputs with independent computations or with properties
the method must have, never with stored output.
"""

from math import prod

import numpy as np

from thinlab import congruence, decay, expander, schottky, symbolic, thermo

EXAMPLE_GENERATORS = [(2, 3, 1, 2), (6, 35, 1, 6)]
DEGREE = 16
P = 3          # return level of the example group, given as the CLI's --p
L = P + 1      # block length l = p + 1, the CLI default


class Context:
    """Set-up state shared by the operations and the checks of one round."""

    def __init__(self, seed):
        self.seed = seed
        self.model = schottky.build_markov_model(
            schottky.SchottkyData.from_matrices(EXAMPLE_GENERATORS))
        self.lab = thermo.ThermoLab(self.model, degree=DEGREE)
        self.lab.delta
        self.lab.constants()
        self.groups = {}

    def build_groups(self, qs):
        for q in qs:
            self.groups[q] = congruence.GroupModQ.build(q)


def _rng(seed, *stream):
    return np.random.default_rng(np.random.SeedSequence([seed, *stream]))


def _flat(obj):
    """Every number of an output, in order."""
    if isinstance(obj, dict):
        return [v for k in sorted(obj) for v in _flat(obj[k])]
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [v for item in obj for v in _flat(item)]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return [float(obj)]


def numbers(outputs):
    """Every number output by the operations that did not fail, in order."""
    return [x for out in outputs if out is not None for x in _flat(out)]


def _check(name, ok, detail):
    return {"name": name, "ok": bool(ok), "detail": detail}


# ---- decay ----

class Decay:
    """decay_small_b at several moduli, as `thinlab decay` does."""

    XI = 0.02 + 0.5j
    KAPPA_HAT = 0.05
    SIZES = {"full": {"qs": (5, 7, 11), "depth": 6, "step_budget": 16},
             "tiny": {"qs": (5, 7), "depth": 4, "step_budget": 16}}

    def __init__(self, size):
        self.qs = self.SIZES[size]["qs"]
        self.depth = self.SIZES[size]["depth"]
        self.step_budget = self.SIZES[size]["step_budget"]

    def setup(self, ctx):
        ctx.build_groups(self.qs)

    def inputs(self, ctx):
        return None

    def operations(self, ctx, inputs):
        def curve(q):
            sched = decay.make_schedule(q, ctx.lab.constants(), l=L, kappa_hat=self.KAPPA_HAT)
            c = decay.decay_small_b(ctx.lab, ctx.groups[q], sched, self.XI, ctx.seed,
                                    depth=self.depth, step_budget=self.step_budget)
            return {"q": q, "s_q": sched.s_q, "js": list(c.js), "norms": list(c.norms),
                    "norms_uniform": list(c.norms_uniform), "lip_norm": c.lip_norm,
                    "per_step_factor": c.per_step_factor}
        return [lambda q=q: curve(q) for q in self.qs]

    def check(self, ctx, outputs):
        curves = [c for c in outputs if c is not None]
        out = []
        worst = max(n / float(c["q"]) ** (-j * self.KAPPA_HAT)
                    for c in curves for j, n in zip(c["js"], c["norms"]))
        out.append(_check("decay.under_shape", worst <= 1 + 1e-12,
                          f"max norm / N^(-j kappa_hat) = {worst:.3e}"))
        factors = [(c["norms"][-1] / c["norms"][0]) ** (1.0 / (c["js"][-1] * c["s_q"]))
                   for c in curves]
        spread = max(factors) / min(factors)
        out.append(_check("decay.factor_spread", spread <= 2.0,
                          f"per-step factors {[round(f, 5) for f in factors]}, spread {spread:.4f}"))
        lab, model, depth = ctx.lab, ctx.model, self.depth
        g1 = congruence.GroupModQ.build(1)
        base0 = congruence.CongruenceOperator(lab, g1, 0.0, depth, a=0.0)
        ncyl = len(base0.words)
        err = float(np.abs(base0.apply(np.ones((ncyl, 1), dtype=complex)) - 1.0).max())
        out.append(_check("decay.normalized", err <= 1e-9, f"max |M_1 1 - 1| = {err:.3e}"))
        base = congruence.CongruenceOperator(lab, g1, self.XI.imag, depth, a=self.XI.real)
        worst = 0.0
        for q in self.qs:
            group = ctx.groups[q]
            op = congruence.CongruenceOperator(lab, group, self.XI.imag, depth, a=self.XI.real)
            rng = _rng(ctx.seed, 1, q)
            vals = rng.standard_normal((ncyl, group.order)) + 1j * rng.standard_normal((ncyl, group.order))
            lhs = op.apply(vals).sum(axis=1)
            rhs = base.apply(vals.sum(axis=1, keepdims=True))[:, 0]
            worst = max(worst, float(np.abs(lhs - rhs).max() / np.abs(rhs).max()))
        out.append(_check("decay.intertwines", worst <= 1e-9,
                          f"max |sum M_q H - M_1 sum H| / |M_1 sum H| = {worst:.3e}"))
        return out


# ---- expansion ----

def _reduced(elements, q):
    """Distinct reductions mod q of integer matrices, by integer arithmetic."""
    return sorted({(m.a % q, m.b % q, m.c % q, m.d % q) for m in elements})


def _mul(x, y, q):
    """Products mod q of 2x2 matrices stored as (..., 4) arrays (a, b, c, d)."""
    return np.stack([x[..., 0] * y[..., 0] + x[..., 1] * y[..., 2],
                     x[..., 0] * y[..., 1] + x[..., 1] * y[..., 3],
                     x[..., 2] * y[..., 0] + x[..., 3] * y[..., 2],
                     x[..., 2] * y[..., 1] + x[..., 3] * y[..., 3]], axis=-1) % q


def _inv(x, q):
    return np.stack([x[..., 3], -x[..., 1], -x[..., 2], x[..., 0]], axis=-1) % q


def _indexer(elems, q):
    """Position in `elems` of each matrix of an (..., 4) array, by a dense lookup table."""
    def key(x):
        return ((x[..., 0] * q + x[..., 1]) * q + x[..., 2]) * q + x[..., 3]
    table = np.full(q**4, -1)
    table[key(elems)] = np.arange(len(elems))

    def index(x):
        pos = table[key(x)]
        if (pos < 0).any():
            raise ValueError("product left the element list")
        return pos
    return index


def _sl2_elements(q):
    """All of SL2(Z/q), enumerated by brute force over (Z/q)^4."""
    a, b, c, d = np.meshgrid(*[np.arange(q)] * 4, indexing="ij")
    ok = (a * d - b * c) % q == 1
    return np.stack([a[ok], b[ok], c[ok], d[ok]], axis=1)


def _cayley_lambda2(gens, q):
    """Second-largest adjacency eigenvalue of the Cayley graph, from a dense matrix."""
    elems = _sl2_elements(q)
    index = _indexer(elems, q)
    n = len(elems)
    A = np.zeros((n, n))
    for s in gens:
        A[np.arange(n), index(_mul(elems, np.array(s), q))] += 1.0
    return float(np.linalg.eigvalsh(A)[-2])


def _primes(q):
    return [p for p in range(2, q + 1) if q % p == 0 and all(p % k for k in range(2, p))]


def _sl2_order(q):
    return round(q**3 * prod(1.0 - 1.0 / p**2 for p in _primes(q)))


class Expansion:
    """Detect the return level, then Cayley gaps of one return set, as `thinlab cayley` does."""

    SIZES = {"full": {"detect_qs": (5, 7, 11, 13, 15), "gap_qs": (5, 7, 11, 13, 15)},
             "tiny": {"detect_qs": (5, 7), "gap_qs": (5, 7)}}
    DENSE_CHECK_MAX_Q = 11

    def __init__(self, size):
        self.detect_qs = self.SIZES[size]["detect_qs"]
        self.gap_qs = self.SIZES[size]["gap_qs"]

    def setup(self, ctx):
        ctx.build_groups(self.gap_qs)

    def inputs(self, ctx):
        return None

    def operations(self, ctx, inputs):
        state = {}

        def detect():
            det = expander.detect_expansion(ctx.model, list(self.detect_qs))
            state["p"] = det["p"]
            return det

        def return_set():
            state["S"] = expander.build_return_set(ctx.model, 0, 0, state["p"])
            return [list(m.tuple()) for m in state["S"].elements]

        def gap(q):
            lam1, lam2, eps = expander.cayley_gap(state["S"], ctx.groups[q], seed=ctx.seed)
            return {"q": q, "lam1": lam1, "lam2": lam2, "eps": eps}

        self.state = state
        return [detect, return_set] + [lambda q=q: gap(q) for q in self.gap_qs]

    def check(self, ctx, outputs):
        out = []
        S = self.state.get("S")
        gaps = [g for g in outputs[2:] if g is not None]
        if S is None:
            return [_check("expansion.return_set", False, "no return set was built")]
        bad = []
        for q in self.gap_qs:
            _, cert = expander.generates_full(S, ctx.groups[q])
            if cert["closure_size"] != _sl2_order(q):
                bad.append((q, cert["closure_size"], _sl2_order(q)))
        out.append(_check("expansion.closure_order", not bad,
                          f"closure sizes that differ from q^3 prod(1 - p^-2): {bad}"))
        bad = [(g["q"], g["lam1"]) for g in gaps if g["lam1"] != len(_reduced(S.elements, g["q"]))]
        out.append(_check("expansion.lambda1_degree", not bad,
                          f"lambda_1 unequal to the number of reduced generators: {bad}"))
        worst = 0.0
        for g in gaps:
            if g["q"] <= self.DENSE_CHECK_MAX_Q:
                dense = _cayley_lambda2(_reduced(S.elements, g["q"]), g["q"])
                worst = max(worst, abs(dense - g["lam2"]))
        out.append(_check("expansion.lambda2_dense", worst <= 1e-9,
                          f"max |lambda_2 - dense eigvalsh| = {worst:.3e} for q <= {self.DENSE_CHECK_MAX_Q}"))
        eps = min(g["eps"] for g in gaps)
        out.append(_check("expansion.gap_positive", eps > 0, f"min eps = {eps:.6f}"))
        return out


# ---- flatten ----

def _fiber_average(X, labels):
    """X E: each column of X replaced by its mean over the columns with the same label."""
    counts = np.bincount(labels)
    onehot = np.zeros((len(labels), len(counts)))
    onehot[np.arange(len(labels)), labels] = 1.0
    return ((X @ onehot) / counts)[:, labels]


def _new_space_opnorm(group, weights):
    """Norm of phi -> weights * phi on the level-q new space, by a dense Hermitian eigensolve.

    (mu * phi)(g) = sum_h mu(h) phi(g h^-1).  C^* C is convolution by
    gamma(k h^-1) = sum mu(k) conj(mu(h)); the new-space projector is the product
    over primes p | q of (I - E_{q/p}), E_d the mean over fibers of reduction
    mod d.  The norm is the square root of the top eigenvalue of P C^* C P,
    found by dense eigensolves of its blocks.
    """
    elems, q, n = group.elems, group.q, group.order
    index = _indexer(elems, q)
    supp = np.flatnonzero(weights)
    gamma = np.zeros(n, dtype=complex)
    for k in supp:
        np.add.at(gamma, index(_mul(elems[k], _inv(elems[supp], q), q)),
                  weights[k] * np.conj(weights[supp]))
    G = np.zeros((n, n), dtype=complex)
    rows = np.arange(n)
    for m in np.flatnonzero(gamma):
        G[rows, index(_mul(elems, _inv(elems[m], q), q))] += gamma[m]
    for p in _primes(q):
        labels = np.unique(elems % (q // p), axis=0, return_inverse=True)[1].ravel()
        G = G - _fiber_average(G, labels)
        G = G - _fiber_average(G.T, labels).T
    # G commutes with left translations, so the cyclic subgroup A of the
    # [[1, t], [0, 1]] splits it into q Hermitian blocks, one per character of A:
    # block_chi[i, j] = sum_t G[a_t g_i, g_j] exp(-2 pi i chi t / q), g_i over A\G
    A = np.array([[1, t, 0, 1] for t in range(q)])
    coset = np.full(n, -1)
    reps = []
    for x in range(n):
        if coset[x] < 0:
            coset[index(_mul(A, elems[x], q))] = len(reps)
            reps.append(x)
    rows = index(_mul(A[:, None, :], elems[reps][None, :, :], q))
    blocks = np.fft.fft(G[rows][:, :, reps], axis=0)
    top = max(np.linalg.eigvalsh(b)[-1] for b in blocks)
    return float(np.sqrt(max(top, 0.0)))


class Flatten:
    """flattening_pipeline at several moduli, as `thinlab flatten` does."""

    XI = 0.3j
    R_PRIME = 2
    # tiny passes a small svd_cap so that q = 5 (order 120) takes the dense
    # branch; q = 15 is the smallest modulus on which the return set generates
    # and the new-space projector has more than one divisor (q = 10 closes up
    # at 120 < 720).  full leaves the program's default, as the CLI does
    SIZES = {"full": {"qs": (7, 15), "svd_cap": None},
             "tiny": {"qs": (5, 15), "svd_cap": 200}}

    def __init__(self, size):
        self.qs = self.SIZES[size]["qs"]
        self.svd_cap = self.SIZES[size]["svd_cap"]

    def setup(self, ctx):
        ctx.build_groups(self.qs)

    def inputs(self, ctx):
        return symbolic.point((0,), (1,))

    def operations(self, ctx, x):
        self.reports = {}

        def pipeline(q):
            extra = {} if self.svd_cap is None else {"svd_cap": self.svd_cap}
            rep = expander.flattening_pipeline(ctx.lab, ctx.groups[q], x, self.R_PRIME, L, P,
                                               xi=self.XI, seed=ctx.seed, **extra)
            self.reports[q] = rep
            return rep.to_json_dict()
        self.x = x
        return [lambda q=q: pipeline(q) for q in self.qs]

    def check(self, ctx, outputs):
        out = []
        reps = self.reports
        failed = [q for q, r in reps.items() if not r.passed()]
        out.append(_check("flatten.passed", not failed, f"moduli whose report failed: {failed}"))
        worst = max(r.values["flatten_value"] / r.values["flatten_opnorm"] for r in reps.values())
        out.append(_check("flatten.value_le_opnorm", worst <= 1 + 1e-9,
                          f"max flatten_value / flatten_opnorm = {worst:.6f}"))
        cap = self.svd_cap or expander.SVD_ORDER
        iterative = [q for q in reps if ctx.groups[q].order > cap]
        if not iterative:
            out.append(_check("flatten.iterative_opnorm", False, "no modulus took the iterative branch"))
            return out
        q = iterative[-1]
        rep, group = reps[q], ctx.groups[q]
        meas = expander.build_measures(ctx.lab, group, self.x, rep.r, rep.s, rep.tail, self.XI)
        got = rep.values["flatten_opnorm"] * meas["nu"].l1()
        want = _new_space_opnorm(group, meas["mu"].weights)
        rel = abs(got - want) / want
        out.append(_check("flatten.iterative_opnorm", rel <= 1e-6,
                          f"q = {q}: iterative {got:.12g}, dense {want:.12g}, rel {rel:.2e}"))
        return out


# ---- approx ----

class Approx:
    """approx_transfer_check on d_theta-Lipschitz inputs at q = 5, as criterion 5 does."""

    XI = 0.3j
    Q = 5
    SIZES = {"full": {"depth": 6, "inputs": 1, "s_minus_r": (2, 3, 4)},
             "tiny": {"depth": 5, "inputs": 1, "s_minus_r": (2, 3, 4)}}

    def __init__(self, size):
        self.depth = self.SIZES[size]["depth"]
        self.n_inputs = self.SIZES[size]["inputs"]
        self.s_minus_r = self.SIZES[size]["s_minus_r"]

    def setup(self, ctx):
        ctx.build_groups([self.Q])

    def inputs(self, ctx):
        theta = ctx.lab.constants().theta
        return [congruence.CongruenceFunction.random_dtheta_lipschitz(
                    ctx.model, ctx.groups[self.Q], self.depth, _rng(ctx.seed, 2, i), theta)
                for i in range(self.n_inputs)]

    def operations(self, ctx, inputs):
        def one(H, sr):
            rep = expander.approx_transfer_check(ctx.lab, ctx.groups[self.Q], H, self.XI,
                                                 self.depth - sr, self.depth)
            return {"s_minus_r": sr, "residuals": list(rep["residuals"]), "sup": rep["sup"],
                    "bound": rep["bound"], "ratio": rep["ratio"], "lip": rep["lip"]}
        return [lambda H=H, sr=sr: one(H, sr) for H in inputs for sr in self.s_minus_r]

    def check(self, ctx, outputs):
        out = []
        reps = [r for r in outputs if r is not None]
        worst = max(r["ratio"] for r in reps)
        out.append(_check("approx.ratio_le_1", worst <= 1.0, f"max ratio = {worst:.4f}"))
        theta = ctx.lab.constants().theta
        means = [np.mean([r["sup"] for r in reps if r["s_minus_r"] == sr]) for sr in self.s_minus_r]
        rate = float(np.exp(np.polyfit(self.s_minus_r, np.log(means), 1)[0]))
        out.append(_check("approx.decay_rate", theta / 2 <= rate <= 2 * theta,
                          f"rate {rate:.4f} in [{theta / 2:.4f}, {2 * theta:.4f}]"))
        model, group = ctx.model, ctx.groups[self.Q]
        x = symbolic.SymbolicPoint((0, 0), symbolic.omega_tail(model.T, 0).period)
        r, s = self.depth - self.s_minus_r[0], self.depth
        total = sum(expander.build_measures(ctx.lab, group, x, r, s, tail, self.XI)["mu_hat"].l1()
                    for tail in symbolic.all_words(model.T, s - r))
        out.append(_check("approx.mass_one", abs(total - 1.0) <= 1e-9,
                          f"|sum over tails of |mu_hat|_1 - 1| = {abs(total - 1.0):.3e}"))
        return out


WORKLOADS = {"decay": Decay, "expansion": Expansion, "flatten": Flatten, "approx": Approx}
