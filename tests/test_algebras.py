import random
from fractions import Fraction

import pytest
from oracles import apply, basis_vector, bracket, supertranspose

from superinv.algebras import LieElement, build_algebra, phi_k
from superinv.scalars import HALF, MINUS_ONE, ONE, Scalar
from superinv.spaces import SuperSpace, dimension
from superinv.tensors import Tensor, compose

SIZES = [
    ("gl", 1, 1),
    ("gl", 2, 1),
    ("osp", 1, 1),
    ("osp", 2, 1),
    ("osp", 3, 1),
    ("p", 0, 2),
    ("p", 0, 3),
    ("q", 0, 2),
    ("q", 0, 3),
]


def expected_dim(family, m, n):
    if family == "gl":
        return (m + n) ** 2
    if family == "osp":
        return m * (m - 1) // 2 + n * (2 * n + 1) + 2 * m * n
    return 2 * n * n  # p and q


def row_reduce_rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


@pytest.mark.parametrize("family,m,n", SIZES)
def test_dimension_and_independence(family, m, n):
    alg = build_algebra(family, m, n)
    assert alg.dim == expected_dim(family, m, n)
    space = alg.space
    assert dimension(family, m, n) == space.dim == len(space.indices) == len(space._parity)
    idx = {v: i for i, v in enumerate(alg.space.indices)}
    rows = []
    for mat in alg.embed:
        row = [Fraction(0)] * (alg.space.dim ** 2)
        for ((r, c),), coeff in mat.entries.items():
            assert coeff.im == 0
            row[idx[r] * alg.space.dim + idx[c]] = coeff.re
        rows.append(row)
    assert row_reduce_rank(rows) == alg.dim


def test_space_rejects_sizes_it_would_ignore():
    # q(n) and p(n) have no m; a nonzero m is refused, not dropped
    for family in ("q", "p"):
        with pytest.raises(ValueError, match="requires m = 0"):
            SuperSpace(family, 1, 1)
    for family, m, n in (("gl", 0, 0), ("osp", 0, 0), ("q", 0, 0), ("gl", -1, 2)):
        with pytest.raises(ValueError):
            dimension(family, m, n)
    # the dimension of a space too large to build is still a number
    assert dimension("osp", 10**9, 10**9) == 3 * 10**9


@pytest.mark.parametrize("family,m,n", SIZES)
def test_split_projection_is_section(family, m, n):
    alg = build_algebra(family, m, n)
    for g in range(alg.dim):
        acc = LieElement(alg)
        for ((a, b),), coeff in alg.embed[g].entries.items():
            idx, c = alg.pi_table[(a, b)]
            acc = acc + LieElement(alg, {idx: c * coeff})
        assert acc == alg.unit(g)


@pytest.mark.parametrize("family,m,n", SIZES)
def test_bracket_matches_matrix_realization(family, m, n):
    alg = build_algebra(family, m, n)
    rng = random.Random(hash((family, m, n)) & 0xFFFF)
    pairs = [
        (rng.randrange(alg.dim), rng.randrange(alg.dim)) for _ in range(25)
    ]
    for x, y in pairs:
        xe, ye = alg.unit(x), alg.unit(y)
        br = bracket(xe, ye)
        sign = MINUS_ONE if alg.parity[x] and alg.parity[y] else ONE
        mat = compose(alg.embed[x], alg.embed[y]) - compose(
            alg.embed[y], alg.embed[x]
        ).scale(sign)
        assert br.matrix() == mat
        # super-antisymmetry
        assert bracket(ye, xe) == br.scale(sign).scale(MINUS_ONE)


@pytest.mark.parametrize("family,m,n", SIZES)
def test_graded_jacobi_exhaustive(family, m, n):
    alg = build_algebra(family, m, n)
    par = alg.parity
    units = [alg.unit(i) for i in range(alg.dim)]
    for x in range(alg.dim):
        for y in range(alg.dim):
            xy = bracket(units[x], units[y])
            for z in range(alg.dim):
                lhs = bracket(units[x], bracket(units[y], units[z]))
                rhs = bracket(xy, units[z]) + bracket(
                    units[y], bracket(units[x], units[z])
                ).scale(MINUS_ONE if par[x] and par[y] else ONE)
                assert lhs == rhs, (family, alg.gens[x], alg.gens[y], alg.gens[z])


def test_gl_bracket_examples():
    g = build_algebra("gl", 1, 1)
    e12, e21 = g.unit("E[1,2]"), g.unit("E[2,1]")
    e11, e22 = g.unit("E[1,1]"), g.unit("E[2,2]")
    assert bracket(e12, e21) == e11 + e22
    assert bracket(e11, e12) == e12
    assert bracket(e11, e11).is_zero()


def test_pi_table_examples():
    g = build_algebra("gl", 1, 1)
    assert g.pi_table[(1, 2)] == (g.gen_index["E[1,2]"], ONE)
    p2 = build_algebra("p", 0, 2)
    assert p2.pi_table[(1, 3)] == (p2.gen_index["G[1,3]"], HALF)
    # osp(1|2): the middle diagonal has vanishing defining combination
    o = build_algebra("osp", 1, 1)
    assert o.pi_table[(2, 2)] is None
    # osp(2|2): the even-block diagonal survives as a Cartan generator
    o22 = build_algebra("osp", 2, 1)
    assert o22.pi_table[(2, 2)] == (o22.gen_index["F[2,2]"], HALF)
    assert o22.tri_class[o22.gen_index["F[2,2]"]] == "C"
    # one entry per matrix unit of End(V), and no other
    assert set(g.pi_table) == {(a, b) for a in (1, 2) for b in (1, 2)}


def test_osp_membership_relation():
    # every generator matrix A = [a_ij] preserves the form:
    # a_ij = -(-1)^{|j|(|i|+|j|)} eps_i eps_j a_{j'i'}, which in matrix form
    # (with this package's supertranspose) reads T A = -(-1)^{|A|} A^st T
    for m, n in [(1, 1), (2, 1), (3, 1)]:
        alg = build_algebra("osp", m, n)
        space = alg.space
        par = space.parity
        t = Tensor(
            space,
            1,
            {((i, space.prime(i)),): Scalar(space.epsilon(i)) for i in space.indices},
        )
        for g, mat in enumerate(alg.embed):
            entry = {key[0]: c for key, c in mat.entries.items()}
            for (i, j), a_ij in entry.items():
                mirror = entry.get((space.prime(j), space.prime(i)), Scalar(0))
                sign = Scalar(
                    -space.epsilon(i)
                    * space.epsilon(j)
                    * (-1) ** (par(j) * ((par(i) + par(j)) % 2))
                )
                assert a_ij == sign * mirror
            lhs = compose(t, mat)
            rhs = compose(supertranspose(mat), t)
            if alg.parity[g] == 0:
                rhs = rhs.scale(MINUS_ONE)
            assert lhs == rhs


def test_triangular_classification():
    for family, m, n in [("gl", 2, 1), ("osp", 3, 1)]:
        alg = build_algebra(family, m, n)
        for (i, j), cls in zip(alg.gen_pairs, alg.tri_class):
            want = "C" if i == j else ("U" if i < j else "L")
            assert cls == want
    # the global order is LOWER < CARTAN < UPPER
    for family, m, n in SIZES:
        alg = build_algebra(family, m, n)
        order = [{"L": 0, "C": 1, "U": 2}[c] for c in alg.tri_class]
        assert order == sorted(order)


def test_cartan_is_abelian_for_gl_osp():
    for family, m, n in [("gl", 2, 1), ("osp", 3, 1), ("osp", 2, 1)]:
        alg = build_algebra(family, m, n)
        cartan = [i for i, c in enumerate(alg.tri_class) if c == "C"]
        for a in cartan:
            for b in cartan:
                assert bracket(alg.unit(a), alg.unit(b)).is_zero()


def test_phi_k():
    g = build_algebra("gl", 1, 1)
    x = g.unit("E[1,1]")
    assert phi_k(g, x, 1) == x.matrix()
    act = phi_k(g, x, 2)
    v = basis_vector(g.space, (1, 2))
    assert apply(act, v) == v  # E11 counts the e1 slots: one of them
    assert phi_k(g, LieElement(g), 2).is_zero()


def test_phi_k_is_lie_homomorphism():
    rng = random.Random(23)
    for family, m, n in [("gl", 1, 1), ("q", 0, 2), ("p", 0, 2), ("osp", 1, 1)]:
        alg = build_algebra(family, m, n)
        for _ in range(6):
            gx, gy = rng.randrange(alg.dim), rng.randrange(alg.dim)
            x, y = alg.unit(gx), alg.unit(gy)
            k = rng.choice((1, 2))
            lhs = phi_k(alg, bracket(x, y), k)
            sign = MINUS_ONE if alg.parity[gx] and alg.parity[gy] else ONE
            rhs = compose(phi_k(alg, x, k), phi_k(alg, y, k)) - compose(
                phi_k(alg, y, k), phi_k(alg, x, k)
            ).scale(sign)
            assert lhs == rhs


def test_rho_values():
    assert build_algebra("gl", 1, 1).rho_coords == (Fraction(-1, 2), Fraction(1, 2))
    assert build_algebra("gl", 2, 0).rho_coords == (Fraction(1, 2), Fraction(-1, 2))
    # no Harish-Chandra data for q and p
    assert build_algebra("q", 0, 3).rho_coords is None
    assert build_algebra("p", 0, 2).rho_coords is None


def test_q_block_bijection():
    # H[i,j] = e_ij + e_{-i,-j} lands in the gl(n|n) block picture through
    # the signed-to-block index map e_{-i} <-> e_{n+i}
    q = build_algebra("q", 0, 2)
    n = q.space.n
    block_index = lambda i: i if i > 0 else n - i
    for (i, j), mat in zip(q.gen_pairs, q.embed):
        keys = {key for (key,) in mat.entries}
        assert keys == {(i, j), (-i, -j)}
        blocks = {(block_index(a), block_index(b)) for a, b in keys}
        bi, bj = block_index(i), block_index(j)
        # the two entries sit at (bi, bj) and its opposite block
        opp = (bi + n if bi <= n else bi - n, bj + n if bj <= n else bj - n)
        assert blocks == {(bi, bj), opp}


@pytest.mark.parametrize(
    "family, m, n", [("gl", 2, 1), ("osp", 3, 1), ("q", 0, 2), ("p", 0, 2)]
)
def test_bracket_table_is_projected_supercommutator(family, m, n):
    # every entry, in its own order, as [x, y] = pi(xy - (-1)^{|x||y|} yx)
    alg = build_algebra(family, m, n)
    e = alg.embed
    for x in range(alg.dim):
        for y in range(alg.dim):
            sign = MINUS_ONE if alg.parity[x] and alg.parity[y] else ONE
            br = compose(e[x], e[y]) - compose(e[y], e[x]).scale(sign)
            want = alg._project_matrix(br).terms
            assert list(alg.bracket_table[(x, y)].items()) == list(want.items())


# |S| besides the even Cartan, as measured when generating-set centrality
# was designed; q(n) adds one odd Cartan generator to its 2(n - 1) pairs
GENERATING_SET_SIZES = [
    ("gl", 3, 3, 10),
    ("gl", 2, 1, 4),
    ("osp", 3, 1, 4),
    ("osp", 3, 2, 6),
    ("osp", 2, 1, 4),
    ("p", 0, 2, 4),
    ("p", 0, 3, 6),
    ("q", 0, 3, 9),
]


def _matrix_closure_dim(alg, gens):
    """dim of the span of the right-nested brackets of gens, each bracket a
    supercommutator of matrices in End(V), by exact elimination."""
    pivots = {}

    def reduce(vec):
        while vec and min(vec) in pivots:
            key = min(vec)
            f = vec[key]
            for k, c in pivots[key].items():
                vec[k] = vec.get(k, 0) - f * c
                if not vec[k]:
                    del vec[k]
        return vec

    level = [(alg.embed[g], alg.parity[g]) for g in gens]
    while level:
        new = []
        for mat, par in level:
            vec = reduce({k: c.re for k, c in mat.terms.items()})
            if vec:
                lead = vec[min(vec)]
                pivots[min(vec)] = {k: c / lead for k, c in vec.items()}
                new.append((mat, par))
        level = []
        for s in gens:
            for mat, par in new:
                sign = MINUS_ONE if alg.parity[s] and par else ONE
                br = compose(alg.embed[s], mat) - compose(mat, alg.embed[s]).scale(sign)
                level.append((br, (alg.parity[s] + par) & 1))
    return len(pivots)


@pytest.mark.parametrize("family, m, n, size", GENERATING_SET_SIZES)
def test_generating_set_spans_under_matrix_brackets(family, m, n, size):
    alg = build_algebra(family, m, n)
    assert "generating_set" not in vars(alg)  # built lazily, not with the algebra
    gens = alg.generating_set
    assert "generating_set" in vars(alg)
    assert len(gens.probes) == size
    odd_cartan = [g for g in gens.probes if alg.tri_class[g] == "C"]
    assert [alg.parity[g] for g in odd_cartan] == ([1] if family == "q" else [])
    assert _matrix_closure_dim(alg, gens.cartan + gens.probes) == alg.dim


@pytest.mark.parametrize(
    "family, m, n", SIZES + [("gl", 1, 0), ("osp", 1, 0), ("q", 0, 1), ("p", 0, 1)]
)
def test_generators_are_weight_vectors_of_the_even_cartan(family, m, n):
    alg = build_algebra(family, m, n)
    gens = alg.generating_set
    assert all(alg.tri_class[h] == "C" and not alg.parity[h] for h in gens.cartan)
    assert len(gens.cartan) == (m + n if family == "gl" else n + m // 2)
    for g, mat in enumerate(alg.embed):
        for h, weight in zip(gens.cartan, gens.weights[g], strict=True):
            br = compose(alg.embed[h], mat) - compose(mat, alg.embed[h])
            assert br == mat.scale(Scalar(weight)), (alg.gens[h], alg.gens[g])
