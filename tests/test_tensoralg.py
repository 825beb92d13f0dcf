import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import (
    DegreeCapExceeded,
    adjoint_act,
    all_types,
    bracket,
    is_invariant,
    is_invariant_reference,
    omega_k,
    sym_monomial,
)

from superinv.algebras import build_algebra
from superinv.brauer import closure_type, coset_reps
from superinv.scalars import HALF, MINUS_ONE, ONE, Scalar
from superinv.schurweyl import invariant_tensor
from superinv.signs import Permutation, symmetric_group
from superinv.sparse import add_into
from superinv.tensoralg import SymElement, TensorAlgebraElement, eta, project_tensor
from superinv.tensors import compose

GL11 = build_algebra("gl", 1, 1)
E21, E11, E22, E12 = map(GL11.gens.index, ("E[2,1]", "E[1,1]", "E[2,2]", "E[1,2]"))


def t_elem(algebra, terms):
    return TensorAlgebraElement(algebra, terms)


def test_eta_kills_odd_symmetric_combination():
    t = t_elem(GL11, {(E12, E21): ONE, (E21, E12): ONE})
    assert eta(t).is_zero()


def test_eta_degree_one_and_odd_square():
    t = t_elem(GL11, {(E12,): Scalar(3)})
    assert eta(t) == SymElement(GL11, {(E12,): Scalar(3)})
    assert eta(t_elem(GL11, {(E12, E12): ONE})).is_zero()


def test_eta_sorting_sign():
    # odd-odd transposition picks up one minus sign
    assert eta(t_elem(GL11, {(E12, E21): ONE})) == sym_monomial(GL11, (E12, E21))
    assert sym_monomial(GL11, (E12, E21)) == SymElement(
        GL11, {(E21, E12): MINUS_ONE}
    )


SORT_ALGEBRAS = [
    build_algebra(*spec) for spec in (("gl", 1, 1), ("osp", 3, 1), ("q", 0, 2), ("p", 0, 2))
]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_eta_matches_adjacent_swap_oracle(data):
    # sym_monomial sorts by adjacent swaps, one sign per odd-odd swap, and
    # zeroes a word with equal odd letters adjacent after the sort; eta
    # counts the inversions of the odd letters and zeroes a word whose odd
    # letters repeat, so the two share no sorting code
    alg = data.draw(st.sampled_from(SORT_ALGEBRAS), label="algebra")
    words = data.draw(
        st.lists(st.lists(st.integers(0, alg.dim - 1), max_size=8), min_size=1, max_size=3)
    )
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(words), max_size=len(words)))
    t, expected = TensorAlgebraElement(alg), SymElement(alg)
    for word, c in zip(words, coeffs):
        t = t + t_elem(alg, {tuple(word): Scalar(c)})
        expected = expected + sym_monomial(alg, word, Scalar(c))
    assert eta(t) == expected


def test_eta_zeroes_an_odd_letter_repeated_apart():
    p2 = SORT_ALGEBRAS[3]
    x, y, z, e = map(p2.gens.index, ("G[1,3]", "G[1,4]", "G[3,2]", "G[1,1]"))
    assert p2.parity[x] and p2.parity[y] and p2.parity[z] and not p2.parity[e]
    # (x, y, x): the two copies of x are not adjacent in the word
    for word in ((x, e, x), (x, y, x), (y, x, e, y), (z, x, e, y, z)):
        assert eta(t_elem(p2, {word: ONE})).is_zero()
        assert sym_monomial(p2, word).is_zero()
    # distinct odd letters: the sign is the parity of their inversions
    assert eta(t_elem(p2, {(y, e, x): ONE})) == SymElement(p2, {(e, x, y): MINUS_ONE})
    assert eta(t_elem(p2, {(y, z, e, x): ONE})) == SymElement(p2, {(z, e, x, y): ONE})
    assert eta(t_elem(p2, {(y, x, e, z): ONE})) == SymElement(p2, {(z, e, x, y): MINUS_ONE})


@pytest.mark.parametrize("family, m, n", [("p", 0, 2), ("gl", 1, 1), ("q", 0, 1)])
def test_eta_reads_its_sym_form_table(family, m, n):
    # on a freshly built algebra: pi(theta) up to degree 3, each element seen
    # twice, rescaled copies, and an element with a repeated odd letter
    alg = build_algebra(family, m, n)
    sigmas = [s for k in (1, 2, 3) for s in
              (coset_reps(k) if family == "p" else symmetric_group(k))]
    ts = [project_tensor(alg, invariant_tensor(alg, s)) for s in sigmas]
    assert "sym_forms" not in vars(alg)
    odd, even = alg.parity.index(1), alg.parity.index(0)
    dead = (odd, even, odd)
    squared = t_elem(alg, {dead: ONE, (even, odd): Scalar(3), (odd, even): HALF})
    rescaled = [t.scale(Scalar(j - 7)) for j, t in enumerate(ts)]
    for t in ts + [squared] + rescaled + ts:
        assert list(eta(t).terms.items()) == list(oracles.eta_reference(t).terms.items())
    assert set(alg.sym_forms) == {w for t in ts + [squared] for w in t.terms}
    assert alg.sym_forms[dead] is None


def test_omega_examples():
    s = sym_monomial(GL11, (E11,))
    assert omega_k(s, 1) == t_elem(GL11, {(E11,): ONE})
    s2 = sym_monomial(GL11, (E11, E22))
    assert omega_k(s2, 2) == t_elem(GL11, {(E11, E22): HALF, (E22, E11): HALF})
    with pytest.raises(ValueError):
        omega_k(s2, 3)


def test_omega_mixed_parity():
    # one odd factor: the even-odd swap carries no sign
    s = sym_monomial(GL11, (E11, E12))
    assert omega_k(s, 2) == t_elem(GL11, {(E11, E12): HALF, (E12, E11): HALF})


@pytest.mark.parametrize(
    "family,m,n", [("gl", 1, 1), ("gl", 2, 1), ("osp", 1, 1), ("q", 0, 2), ("p", 0, 2)]
)
def test_eta_omega_is_identity(family, m, n):
    # over every sorted monomial of degree <= 3: a spanning set of S^k
    import itertools

    alg = build_algebra(family, m, n)
    for k in (1, 2, 3):
        for word in itertools.combinations_with_replacement(range(alg.dim), k):
            s = sym_monomial(alg, word)
            if s.is_zero():
                continue
            assert eta(omega_k(s, k)) == s


def test_adjoint_derivation_law():
    rng = random.Random(99)
    for _ in range(20):
        ga, gb = rng.randrange(4), rng.randrange(4)
        a, b = t_elem(GL11, {(ga,): ONE}), t_elem(GL11, {(gb,): ONE})
        word = tuple(rng.randrange(4) for _ in range(rng.choice((1, 2, 3))))
        t = t_elem(GL11, {word: ONE})
        lhs = adjoint_act(bracket(a, b), t)
        sign = MINUS_ONE if GL11.parity[ga] and GL11.parity[gb] else ONE
        rhs = adjoint_act(a, adjoint_act(b, t)) - adjoint_act(
            b, adjoint_act(a, t)
        ).scale(sign)
        assert lhs == rhs


def test_eta_intertwines_adjoint():
    rng = random.Random(4)
    for _ in range(20):
        a = t_elem(GL11, {(rng.randrange(4),): ONE})
        word = tuple(rng.randrange(4) for _ in range(rng.choice((2, 3))))
        t = t_elem(GL11, {word: ONE})
        assert eta(adjoint_act(a, t)) == adjoint_act(a, eta(t))


def test_adjoint_on_scalars():
    one = t_elem(GL11, {(): ONE})
    assert adjoint_act(t_elem(GL11, {(E11,): ONE}), one).is_zero()
    deg1 = t_elem(GL11, {(E12,): ONE})
    assert adjoint_act(t_elem(GL11, {(E11,): ONE}), deg1) == t_elem(GL11, {(E12,): ONE})


def test_is_invariant():
    assert is_invariant(t_elem(GL11, {(): Scalar(7)}))
    assert not is_invariant(t_elem(GL11, {(E12,): ONE}))
    for k in (1, 2, 3):
        for sigma in symmetric_group(k):
            t = project_tensor(GL11, invariant_tensor(GL11, sigma))
            assert is_invariant(t), sigma
            assert is_invariant(eta(t)), sigma


@pytest.mark.parametrize(
    "family,m,n", [("gl", 1, 1), ("osp", 3, 1), ("q", 0, 2), ("p", 0, 2)]
)
def test_is_invariant_matches_full_basis_reference(family, m, n):
    # h0 and S stand in for g: the verdict is the full basis's
    alg = build_algebra(family, m, n)
    if family in ("gl", "q"):
        sigmas = [s for k in (1, 2, 3) for s in symmetric_group(k)]
    else:
        sigmas = [s for k in (1, 2) for s in coset_reps(k)]
    for i, sigma in enumerate(sigmas):
        t = project_tensor(alg, invariant_tensor(alg, sigma))
        for inv in (t, eta(t)):
            # no single generator is central, so adding one breaks invariance
            plus_gen = inv + inv._like({(i % alg.dim,): ONE})
            for x, want in ((inv, True), (plus_gen, False)):
                assert is_invariant_reference(x) is want, (sigma, x)
                assert is_invariant(x) is want, (sigma, x)


def test_is_invariant_tests_the_even_cartan_by_weight():
    # x = E12 I - I E12, I = E11 + E22: the probes E12, E21 kill it, h0 does not
    x = t_elem(GL11, {(E12, E11): ONE, (E12, E22): ONE, (E11, E12): MINUS_ONE,
                      (E22, E12): MINUS_ONE})
    probes = GL11.generating_set.probes
    assert all(adjoint_act(t_elem(GL11, {(g,): ONE}), x).is_zero() for g in probes)
    assert not is_invariant(x)
    assert not is_invariant_reference(x)


WEIGHT_ALGEBRAS = [build_algebra(*size) for size in
                   (("gl", 2, 1), ("osp", 3, 1), ("q", 0, 2), ("p", 0, 2))]


def _killed_by_h0(alg, word):
    t = t_elem(alg, {word: ONE})
    cartan = alg.generating_set.cartan
    return all(adjoint_act(t_elem(alg, {(h,): ONE}), t).is_zero() for h in cartan)


@pytest.mark.parametrize(
    "alg", WEIGHT_ALGEBRAS, ids=lambda alg: "%s-%d-%d" % (alg.family, alg.m, alg.n)
)
def test_weight_zero_is_the_h0_kernel_on_short_words(alg):
    gens = alg.generating_set
    killed = 0
    for length in (0, 1, 2):
        for word in itertools.product(range(alg.dim), repeat=length):
            assert gens.weight_zero(word) is _killed_by_h0(alg, word), word
            killed += gens.weight_zero(word)
    # the empty word, the even Cartan and the pairs of opposite weights
    assert 1 + len(gens.cartan) < killed < 1 + alg.dim + alg.dim**2


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weight_zero_is_the_h0_kernel_on_drawn_words(data):
    alg = data.draw(st.sampled_from(WEIGHT_ALGEBRAS))
    word = tuple(data.draw(st.lists(st.integers(0, alg.dim - 1), max_size=4)))
    assert alg.generating_set.weight_zero(word) is _killed_by_h0(alg, word)


def test_cycle_factorization_of_invariants():
    # eta pi theta_sigma factors over the disjoint cycles of sigma
    for alg in (GL11, build_algebra("q", 0, 2)):
        for k, min_cycles in ((3, 1), (4, 2)):
            for sigma in symmetric_group(k):
                cycles = sigma.cycles()
                n_cycles = len(cycles) + (k - sum(len(c) for c in cycles))
                if k == 4 and n_cycles < 2:
                    continue
                lhs = eta(project_tensor(alg, invariant_tensor(alg, sigma)))
                # each length-t cycle contributes the invariant of the
                # standard t-cycle (invariants are conjugation-invariant),
                # and each fixed point that of the one-slot identity
                fixed = [
                    i
                    for i in range(1, k + 1)
                    if all(i not in c for c in cycles)
                ]
                factors = [
                    eta(
                        project_tensor(
                            alg,
                            invariant_tensor(
                                alg,
                                Permutation.from_cycles(
                                    [tuple(range(1, len(c) + 1))], len(c)
                                ),
                            ),
                        )
                    )
                    for c in cycles
                ]
                factors.extend(
                    eta(project_tensor(alg, invariant_tensor(alg, Permutation.identity(1))))
                    for _ in fixed
                )
                rhs = factors[0]
                for f in factors[1:]:
                    rhs = rhs * f
                assert lhs == rhs, (alg.family, sigma)


def symbol_signs_by_type(alg, d):
    """Per type, how many sigma of degree d give eta pi theta equal to, and
    opposite to, the first sigma of that type.

    The type is the cycle type of sigma in S_d for gl and q, and the
    closure type of each coset representative of degree d for osp and p.
    """
    if alg.family in ("gl", "q"):
        sigmas = symmetric_group(d)
        type_of = lambda sigma: tuple(sorted(map(len, sigma.cycles())))
    else:
        sigmas = coset_reps(d)
        type_of = lambda sigma: closure_type(sigma).type_vector
    first, counts = {}, {}
    for sigma in sigmas:
        t = type_of(sigma)
        s = eta(project_tensor(alg, invariant_tensor(alg, sigma)))
        r = first.setdefault(t, s)
        same, opposite = counts.get(t, (0, 0))
        if s == r:
            counts[t] = (same + 1, opposite)
        else:
            assert s == -r, (alg, sigma)
            counts[t] = (same, opposite + 1)
    return counts


@pytest.mark.parametrize(
    "family, m, n, d",
    [("gl", 2, 1, 4), ("q", 0, 2, 4), ("gl", 1, 2, 3), ("osp", 3, 1, 3),
     ("osp", 2, 1, 3), ("p", 0, 2, 3), ("osp", 1, 1, 4)],
)
def test_symbol_of_theta_is_constant_up_to_sign_on_each_type(family, m, n, d):
    # one sigma per type spans what all of them span (ROADMAP item 16)
    counts = symbol_signs_by_type(build_algebra(family, m, n), d)
    assert len(counts) == len(all_types(d))


def test_symbol_signs_split_evenly_on_two_osp12_types():
    counts = symbol_signs_by_type(build_algebra("osp", 1, 1), 4)
    assert counts == {
        (1, 1, 1, 1): (1, 0),
        (1, 1, 2): (12, 0),
        (1, 3): (32, 0),
        (2, 2): (6, 6),
        (4,): (24, 24),
    }


def test_tensor_algebra_product_concatenates():
    a = t_elem(GL11, {(E11,): Scalar(2)})
    b = t_elem(GL11, {(E22, E12): Scalar(3)})
    assert a * b == t_elem(GL11, {(E11, E22, E12): Scalar(6)})


def test_degree_cap(monkeypatch):
    s = sym_monomial(GL11, (E11,) * 4)
    monkeypatch.setattr(oracles, "MAX_DEGREE", 3)
    with pytest.raises(DegreeCapExceeded):
        omega_k(s, 4)
    monkeypatch.setattr(oracles, "MAX_DEGREE", 4)
    assert not omega_k(s, 4).is_zero()


def test_project_tensor_splits_through_pi_tilde():
    # pi respects slot-wise application of the split projection
    from superinv.tensors import Tensor

    t = Tensor(GL11.space, 2, {((1, 2), (2, 1)): Scalar(5)})
    assert project_tensor(GL11, t) == t_elem(GL11, {(E12, E21): Scalar(5)})
    q = build_algebra("q", 0, 2)
    tq = Tensor(q.space, 1, {((-1, -2),): ONE})
    assert project_tensor(q, tq) == TensorAlgebraElement(
        q, {(q.gens.index("H[1,2]"),): HALF}
    )


# -- pi_tilde as a sign per matrix unit times one family scale ---------------

PI_CASES = (
    # (family, m, n, the permutations whose theta is projected)
    ("p", 0, 2, [s for k in (1, 2, 3) for s in coset_reps(k)]),
    ("osp", 3, 1, [s for k in (1, 2) for s in coset_reps(k)]),
    ("gl", 2, 1, list(symmetric_group(3))),
    ("q", 0, 2, list(symmetric_group(3))),
)


@pytest.mark.parametrize("family,m,n,sigmas", PI_CASES, ids=[c[0] for c in PI_CASES])
def test_project_tensor_matches_per_slot_product_reference(family, m, n, sigmas):
    alg = build_algebra(family, m, n)
    for sigma in sigmas:
        theta = invariant_tensor(alg, sigma)
        got = project_tensor(alg, theta).terms
        want = oracles.project_tensor_reference(alg, theta)
        assert list(got.items()) == list(want.items()), (family, sigma.images)
    # the bracket table's entries are projected through the same loop
    for x in range(alg.dim):
        for y in range(alg.dim):
            sign = MINUS_ONE if alg.parity[x] and alg.parity[y] else ONE
            mx, my = alg.embed[x], alg.embed[y]
            mat = compose(mx, my) - compose(my, mx).scale(sign)
            want = {}
            for (g,), c in oracles.pi_tilde_reference(alg, mat.terms):
                add_into(want, g, c)
            got = alg._project_matrix(mat)
            assert list(got.items()) == list(want.items())
            assert got == alg.bracket_table[(x, y)]


def test_project_tensor_makes_at_most_one_product_per_key(monkeypatch):
    # work counter: pi_tilde multiplies a key once by +-(1/2)^k, not once per
    # slot; theta is built before counting starts
    p2 = build_algebra("p", 0, 2)
    thetas = [invariant_tensor(p2, sigma) for sigma in coset_reps(3)]
    calls = 0
    mul = Scalar.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    monkeypatch.setattr(Scalar, "__rmul__", counted)
    keys = 0
    for theta in thetas:
        keys += len(theta.terms)
        project_tensor(p2, theta)
    assert 0 < calls <= keys
