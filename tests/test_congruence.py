import numpy as np
import pytest

from thinlab import (
    CongruenceFunction,
    GroupModQ,
    NewSpaceDecomposition,
    cocycle_mod,
)
from thinlab import congruence as cg
from thinlab import symbolic as sym
from thinlab.errors import ModulusMismatch, NotInNewSpace, NotSquareFree, TooLarge
from thinlab.thermo import Walk

from oracles import (compose_mod, congruence_apply_branches, constant_function, conv_opnorm_dense,
                     fiber_perms_full_group, sl2_count_bruteforce)


@pytest.mark.parametrize("q", [2, 3, 5, 6, 7, 10, 15])
def test_group_order_formula_and_bruteforce(q, groups):
    g = groups(q)
    assert g.order == cg.sl2_order(q)
    assert g.order == sl2_count_bruteforce(q)


def test_group_order_examples(groups):
    assert groups(5).order == 120
    # CRT product of the separately enumerated prime orders
    assert groups(6).order == sl2_count_bruteforce(2) * sl2_count_bruteforce(3) == 144


def test_group_closed_under_multiplication_and_inverse(groups):
    g = groups(7)
    rng = np.random.default_rng(0)
    i = rng.integers(g.order, size=200)
    j = rng.integers(g.order, size=200)
    prod = compose_mod(g.elems[i], g.elems[j], g.q)
    g.index_of(prod)  # raises if any product is missing
    g.index_of(g.elems[g.inv_perm()])


def test_not_square_free():
    with pytest.raises(NotSquareFree):
        GroupModQ.build(4)


def test_too_large():
    with pytest.raises(TooLarge):
        GroupModQ.build(101)  # order 1_030_200 > 1e6


def test_cocycle_mod_empty_and_sentinel(model, groups):
    g5 = groups(5)
    assert cocycle_mod(model, (), g5) == g5.identity
    g1 = groups(1)
    assert g1.order == 1
    assert cocycle_mod(model, (0, 1, 2), g1) == g1.identity


def test_cocycle_mod_long_word(model, groups):
    # the exact integer product of 40 steps is far outside int64
    g = groups(7)
    word = (0, 1) * 20
    idx = g.identity
    for j in word:
        idx = int(g.index_of(compose_mod(g.elems[idx], g.elems[cocycle_mod(model, (j,), g)], g.q)))
    assert cocycle_mod(model, word, g) == idx


def test_cocycle_reduction_is_homomorphism(model, groups):
    # reduce(c^alpha . c^beta) == reduce(c^alpha) * reduce(c^beta) mod q
    g = groups(7)
    rng = np.random.default_rng(1)
    for _ in range(20):
        word = [int(rng.integers(model.N))]
        for _ in range(7):
            nxt = np.flatnonzero(model.T[word[-1]])
            word.append(int(nxt[rng.integers(len(nxt))]))
        cut = int(rng.integers(1, len(word)))
        alpha, beta = tuple(word[:cut]), tuple(word[cut:])
        ia = cocycle_mod(model, alpha, g)
        ib = cocycle_mod(model, beta, g)
        combined = g.index_of(compose_mod(g.elems[ia], g.elems[ib], g.q))
        assert combined == cocycle_mod(model, tuple(word), g)


def test_apply_sentinel_matches_manual_sum(model, lab, groups):
    # q = 1 reduces to the scalar normalized operator; compare against the
    # direct branch sum recomputed here at every cylinder anchor
    g1 = groups(1)
    depth = 4
    rng = np.random.default_rng(2)
    H = CongruenceFunction.random(model, g1, depth, rng)
    out = cg.CongruenceOperator(lab, g1, 0.4, depth).apply(H.values)
    words, anchors = lab.anchors(depth)
    index = {w: i for i, w in enumerate(map(tuple, words.tolist()))}
    pot = lab.potential(0.0)
    for i, w in enumerate(map(tuple, words.tolist())):
        acc = 0.0
        for j in range(model.N):
            if not model.T[j, w[0]]:
                continue
            v = float(model.inv_branch(j, anchors[i]))
            f = pot.f_step(j, w[0], np.array([v]), np.array([anchors[i]]))[0]
            tau = float(model.tau(j, np.array([v]))[0])
            acc += np.exp(f + 0.4j * tau) * H.values[index[(j,) + w[:-1]], 0]
        assert abs(out[i, 0] - acc) <= 1e-12 * max(1.0, abs(acc))


@pytest.mark.parametrize("q, depth", [pytest.param(q, depth, id=str(q) if depth == 5 else f"{q}-depth{depth}")
                                      for depth in (5, 2, 1) for q in (1, 5, 6, 15)])
@pytest.mark.parametrize("xi", [0.0, 0.02 + 0.5j])
def test_apply_matches_branch_oracle(lab, groups, q, xi, depth):
    # the block permutations into P[k, u] and the batched matmul with the weights W[u, x, k]
    # give the branch sum; at depth 1, u is empty and W is zero where j may not precede x
    g = groups(q)
    op = cg.CongruenceOperator(lab, g, xi.imag, depth, a=xi.real)
    rng = np.random.default_rng(q)
    x = rng.standard_normal(op.shape) + 1j * rng.standard_normal(op.shape)
    once = congruence_apply_branches(lab, g, xi.imag, xi.real, depth, x)
    thrice = once
    for _ in range(2):
        thrice = congruence_apply_branches(lab, g, xi.imag, xi.real, depth, thrice)
    for got, want in [(op.apply(x), once), (op.apply_k(x, 3), thrice)]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("shape", ["one_column", "extra_column", "missing_row"])
def test_apply_rejects_wrong_fiber_shape(lab, groups, shape):
    g5 = groups(5)
    op = cg.CongruenceOperator(lab, g5, 0.3, 3)
    n = len(op.words)
    dims = {"one_column": (n, 1), "extra_column": (n, g5.order + 1), "missing_row": (n - 1, g5.order)}
    with pytest.raises(ModulusMismatch):
        op.apply(np.ones(dims[shape], dtype=complex))


def test_fiber_constant_fixed_at_zero(model, lab, groups):
    g5 = groups(5)
    H = constant_function(model, g5, 4, 1.0)
    out = cg.CongruenceOperator(lab, g5, 0.0, 4).apply_k(H.values, 4)
    assert np.abs(out - 1.0).max() <= 1e-10


def test_operator_norm_bound(model, lab, groups, consts):
    # one-step growth factors of ||M H||_2 / ||H||_2 on five seeded depth-5 inputs
    rng = np.random.default_rng(0)
    op = cg.CongruenceOperator(lab, groups(5), 0.3, 5, a=0.02)
    _, masses = lab.cylinder_masses(5)
    worst = 0.0
    for _ in range(5):
        H = CongruenceFunction.random(model, groups(5), 5, rng)
        after = cg.cf_l2_norm(CongruenceFunction(5, H.words, op.apply(H.values)), masses)
        worst = max(worst, after / cg.cf_l2_norm(H, masses))
    assert worst <= model.N * np.exp(consts.T0)


def test_fiber_action_unitary(model, groups):
    # the cocycle acts by an index permutation: the multiset of fiber values is
    # preserved exactly, hence so is every l^p norm
    g = groups(7)
    rng = np.random.default_rng(3)
    phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    for j in range(model.N):
        idx = g.reduce([model.gens[j]])[0]
        perm = g.act(idx)
        assert len(np.unique(perm)) == g.order
        assert np.array_equal(np.sort(np.abs(phi[perm])), np.sort(np.abs(phi)))


@pytest.mark.parametrize("q", [1, 5, 6, 15])
def test_act_is_right_multiplication_by_the_inverse(q):
    # (delta_c * phi)(g) = phi(g c^{-1}) = phi[act(c)][g], against explicit 2 x 2 products
    g = GroupModQ.build(q)
    mats = g.elems.reshape(-1, 2, 2)
    rng = np.random.default_rng(q)
    phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    for c in range(g.order):
        (a, b), (cc, d) = mats[c]
        c_inv = np.array([[d, -b], [-cc, a]])
        assert np.array_equal(g.act(c), g.index_of((mats @ c_inv).reshape(-1, 4)))
        delta = np.zeros(g.order)
        delta[c] = 1.0
        assert np.array_equal(g.convolve_fn(delta, phi), phi[g.act(c)])


@pytest.mark.parametrize("q", [5, 6])
def test_convolution_matrix_keeps_real_weights_real(groups, q):
    # the dense oracle's matrix of integer counts is the convolution: the projector
    # argument hands over the matrix that the oracle takes the SVD of
    g = groups(q)
    rng = np.random.default_rng(q)
    counts = rng.integers(0, 3, size=g.order)
    seen = []
    conv_opnorm_dense(g, counts, lambda M: seen.append(M) or M)
    real, = seen
    phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
    assert np.allclose(real @ phi, g.convolve_fn(counts, phi), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("q, n_sampled", [(1, None), (2, None), (3, None), (5, None), (6, None),
                                            (10, None), (15, None), (35, 200)])
def test_fiber_perms_match_full_group_products(q, n_sampled, model, lab):
    # act, built in coset coordinates, against one explicit product per element
    # (every h, or n_sampled seeded h), and the left multiplications by the
    # generators that a Walk reads off act through inversion against theirs
    g = GroupModQ.build(q)
    hs = range(g.order) if n_sampled is None else np.random.default_rng(q).integers(g.order, size=n_sampled)
    for h in hs:
        assert np.array_equal(g.act(h), fiber_perms_full_group(g, h)[0])
    walk = Walk.from_point(model, lab.potential(0.0), sym.point((0,), (1,)), g)
    for perm, c in zip(walk.perms, g.reduce(model.gens), strict=True):
        assert np.array_equal(perm, fiber_perms_full_group(g, c)[1])


@pytest.mark.parametrize("q, nz", [(1, 1), (5, 1), (6, 1), (15, 2), (35, 2)])
def test_coset_representatives_run_by_the_centre(q, nz):
    # k_(a m' + i) = z_a k_i for the central z_a = s_a I, by explicit scalar products mod q
    g = GroupModQ.build(q)
    cells, t, i = g.coset_coords()
    scalars = cg.central_scalars(q)
    assert len(scalars) == nz
    largest = max([p for p, _ in cg.factorize(q)], default=1)
    for a, s in enumerate(scalars):
        assert s % largest == 1 % largest
        for b, s_b in enumerate(scalars):
            assert s * s_b % q == scalars[a ^ b]
    o, m = cells.shape
    mp = m // nz
    assert mp * nz == m
    assert cells[0, 0] == g.identity
    assert np.array_equal(np.sort(cells, axis=None), np.arange(g.order))
    assert np.array_equal(cells[t, i], np.arange(g.order))
    reps = g.elems[cells[0]]
    for a, s in enumerate(scalars):
        assert np.array_equal(reps[a * mp:(a + 1) * mp], s * reps[:mp] % q)
    # after e, the first run ascends through the smallest elements of the cosets
    # <c, z_1, ..., z_(nz-1)> k_i, which are the columns i, i + m', ... of cells
    assert np.all(np.diff(cells[0, 1:mp]) > 0)
    assert all(cells[0, j] == cells[:, j::mp].min() for j in range(1, mp))


def test_act_looks_up_one_product_per_coset(monkeypatch):
    # with the coordinates built, one act at q = 15 looks up m = 2880 / 30 = 96
    # matrices, not one per element
    g = GroupModQ.build(15)
    cells = g.coset_coords()[0]
    assert cells.shape == (30, 96)
    sizes = []
    index_of = g.index_of

    def counted(flat):
        sizes.append(np.asarray(flat).size // 4)
        return index_of(flat)

    monkeypatch.setattr(g, "index_of", counted)
    g.act(1234)
    assert sizes and max(sizes) <= 96


def test_prime_decomposition_is_mean_zero(groups):
    g = groups(7)
    dec = NewSpaceDecomposition(g)
    assert dec.divisors == [1, 7]
    rng = np.random.default_rng(4)
    phi = rng.standard_normal(g.order)
    new = dec.project_new(7, phi)
    assert np.abs(new - (phi - phi.mean())).max() <= 1e-12


def test_fiber_means_match_add_at(groups):
    """The bincount fiber sums are bitwise those of np.add.at, on 96 x order
    batches, real input, one vector and a 3-d batch."""
    g = groups(15)
    dec = NewSpaceDecomposition(g)
    rng = np.random.default_rng(3)
    batch = rng.standard_normal((96, g.order)) + 1j * rng.standard_normal((96, g.order))
    for d in dec.divisors:
        for arr in (batch, batch.real, batch[0], batch[:6].reshape(2, 3, g.order)):
            sums = np.zeros(arr.shape[:-1] + (dec.subgroups[d].order,), dtype=arr.dtype)
            np.add.at(sums, (Ellipsis, dec.labels[d]), arr)
            want = sums / dec.counts[d]
            got = dec._fiber_means(d, arr)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_decomposition_dimensions_q15(groups):
    g = groups(15)
    dec = NewSpaceDecomposition(g)
    dims = {d: dec.dim_new(d) for d in dec.divisors if d > 1}
    assert sum(dims.values()) + 1 == g.order
    # rank oracle: trace of each projector built on a full basis
    rng = np.random.default_rng(5)
    for d, expected in dims.items():
        # trace via Hutchinson-free exact sum over basis vectors in blocks
        total = 0.0
        eye = np.eye(g.order)
        proj = dec.project_new(d, eye)
        total = float(np.trace(proj).real)
        assert abs(total - expected) <= 1e-6


def test_projectors_idempotent_selfadjoint_orthogonal(groups):
    g = groups(15)
    dec = NewSpaceDecomposition(g)
    rng = np.random.default_rng(6)
    for _ in range(50):
        phi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        psi = rng.standard_normal(g.order) + 1j * rng.standard_normal(g.order)
        e3 = dec.project_new(3, phi)
        assert np.abs(dec.project_new(3, e3) - e3).max() <= 1e-10
        # self-adjoint
        lhs = np.vdot(psi, e3)
        rhs = np.vdot(dec.project_new(3, psi), phi)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        # mutual orthogonality
        for d1, d2 in ((3, 5), (3, 15), (5, 15), (1, 15)):
            assert abs(np.vdot(dec.project_new(d1, phi), dec.project_new(d2, phi))) <= 1e-10
        parts = sum(dec.project_new(d, phi) for d in dec.divisors)
        assert np.abs(parts - phi).max() <= 1e-10


def test_project_and_scale_identity(model, groups):
    g = groups(5)
    dec = NewSpaceDecomposition(g)
    rng = np.random.default_rng(7)
    H = CongruenceFunction.random(model, g, 3, rng)
    H.values = dec.project_new(5, H.values)
    assert dec.spade(5) == 1
    assert np.abs(dec.proj_down(5, H.values) - H.values).max() <= 1e-12


def test_project_and_scale_spade(model, lab, groups, consts):
    g = groups(15)
    dec = NewSpaceDecomposition(g)
    rng = np.random.default_rng(8)
    H = CongruenceFunction.random(model, g, 3, rng)
    H.values = dec.project_new(5, H.values)
    Hd = CongruenceFunction(3, H.words, dec.proj_down(5, H.values))
    spade = dec.spade(5)
    _, masses = lab.cylinder_masses(3)
    l2, l2_down = cg.cf_l2_norm(H, masses), cg.cf_l2_norm(Hd, masses)
    lip, lip_down = cg.cf_lip_norm(H, consts.theta), cg.cf_lip_norm(Hd, consts.theta)
    assert spade == 2880 // 120 == 24
    assert abs(l2 - np.sqrt(spade) * l2_down) <= 1e-9 * l2
    assert abs(lip - np.sqrt(spade) * lip_down) <= 1e-8 * lip


def test_project_and_scale_rejects_outsiders(model, groups):
    g = groups(15)
    dec = NewSpaceDecomposition(g)
    rng = np.random.default_rng(9)
    H = CongruenceFunction.random(model, g, 3, rng)
    with pytest.raises(NotInNewSpace):
        dec.proj_down(5, H.values)


def test_commutation_and_equivariance(model, lab, groups):
    g = groups(15)
    dec = NewSpaceDecomposition(g)
    xi = 0.02 + 0.4j
    rng = np.random.default_rng(10)
    op = cg.CongruenceOperator(lab, g, xi.imag, 4, a=xi.real)
    for _ in range(3):
        H = CongruenceFunction.random(model, g, 4, rng)
        H.values -= H.values.mean(axis=1, keepdims=True)
        MH = op.apply(H.values)
        for d in (3, 5, 15):
            left = dec.project_new(d, MH)
            He = CongruenceFunction(4, H.words, dec.project_new(d, H.values))
            right = op.apply(He.values)
            scale = max(1.0, np.abs(H.values).max())
            assert np.abs(left - right).max() <= 1e-9 * scale
            if d < 15:
                sub = dec.subgroups[d]
                down = CongruenceFunction(4, H.words, dec.proj_down(d, right))
                Hd = CongruenceFunction(4, H.words, dec.proj_down(d, He.values))
                Md = cg.CongruenceOperator(lab, sub, xi.imag, 4, a=xi.real).apply(Hd.values)
                assert np.abs(down.values - Md).max() <= 1e-9 * scale



def test_pythagoras_across_decomposition(model, lab, groups):
    # || M^k H ||_2^2 = sum over divisors of spade * || M^k proj e H ||_2^2
    # (the reduction identity behind passing to new vectors at each level)
    g = groups(15)
    dec = NewSpaceDecomposition(g)
    xi = 0.01 + 0.3j
    rng = np.random.default_rng(11)
    _, masses = lab.cylinder_masses(4)
    H = CongruenceFunction.random(model, g, 4, rng)
    H.values -= H.values.mean(axis=1, keepdims=True)
    op = cg.CongruenceOperator(lab, g, xi.imag, 4, a=xi.real)
    Mk = CongruenceFunction(4, H.words, op.apply_k(H.values, 2))
    total = cg.cf_l2_norm(Mk, masses) ** 2
    parts = 0.0
    for d in (3, 5, 15):
        e_part = dec.project_new(d, Mk.values)
        down = dec.proj_down(d, e_part)
        piece = CongruenceFunction(4, H.words, down)
        parts += dec.spade(d) * cg.cf_l2_norm(piece, masses) ** 2
    assert abs(total - parts) <= 1e-8 * total


def test_decomposition_size_guard():
    # q = 105 builds (order 967680 <= 1e6) but exceeds the decomposition cap
    g = GroupModQ.build(105)
    with pytest.raises(TooLarge):
        NewSpaceDecomposition(g)
