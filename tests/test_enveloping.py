import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    is_central_reference,
    is_J_poly_reference,
    is_Q_poly_reference,
    is_supersymmetric_reference,
    rho_shift_reference,
    supercommutator_reference,
    sym_monomial,
    u_multiply_reference,
)

from superinv.algebras import build_algebra
from superinv.enveloping import (
    CartanPolynomial,
    PBWElement,
    eta_prime,
    harish_chandra_image,
    is_central,
    is_J_poly,
    is_Q_poly,
    is_supersymmetric,
    pbw_normalize,
    psi_map,
    rho_shift,
    supercommutator,
    u_multiply,
    zeta_project,
)
from superinv.scalars import HALF, MINUS_ONE, ONE, Scalar
from superinv.schurweyl import invariant_tensor, sergeev_Z, str_gelfand, z_sigma
from superinv.signs import Permutation, symmetric_group
from superinv.tensoralg import TensorAlgebraElement, adjoint_act, eta, project_tensor

GL11 = build_algebra("gl", 1, 1)
IX = GL11.gen_index
E21, E11, E22, E12 = (IX[k] for k in ("E[2,1]", "E[1,1]", "E[2,2]", "E[1,2]"))


def cartan_vars(names):
    """Each variable of the Cartan polynomial ring on names, as a polynomial."""
    n = len(names)
    return [
        CartanPolynomial(names, {tuple(int(i == v) for i in range(n)): ONE}) for v in range(n)
    ]


def cartan_const(names, coeff):
    return CartanPolynomial(names, {(0,) * len(names): coeff})


def test_pbw_examples():
    u = pbw_normalize(GL11, (E12, E21))
    expected = PBWElement(
        GL11, {(E21, E12): MINUS_ONE, (E11,): ONE, (E22,): ONE}
    )
    assert u == expected
    assert pbw_normalize(GL11, (E12, E12)).is_zero()
    ordered = (E21, E11, E12)
    assert pbw_normalize(GL11, ordered) == PBWElement(GL11, {ordered: ONE})


def one_rewrite(alg, word, i):
    """The terms that one rewrite of the pair at positions i, i+1 gives:
    x y -> (-1)^{|x||y|} y x + [x, y], or x x -> (1/2)[x, x] for odd x."""
    a, b = word[i], word[i + 1]
    head, tail = word[:i], word[i + 2 :]
    half = HALF if a == b else ONE
    terms = [(head + (g,) + tail, c * half) for g, c in alg.bracket_table[(a, b)].items()]
    if a != b:
        sign = MINUS_ONE if alg.parity[a] and alg.parity[b] else ONE
        terms.append((head + (b, a) + tail, sign))
    return terms


def test_pbw_confluence():
    # the normal form of a word equals the normal form of what one rewrite
    # gives, at each position where a rewrite applies, not only the leftmost
    rng = random.Random(101)
    for family, m, n in [("gl", 1, 1), ("gl", 2, 1), ("osp", 1, 1), ("q", 0, 2), ("p", 0, 2)]:
        alg = build_algebra(family, m, n)
        par = alg.parity
        rewrites = 0
        for _ in range(40):
            word = tuple(rng.randrange(alg.dim) for _ in range(rng.choice((2, 3, 4, 5))))
            nf = pbw_normalize(alg, word)
            for i in range(len(word) - 1):
                a, b = word[i], word[i + 1]
                if a < b or (a == b and not par[a]):
                    continue
                step = PBWElement(alg)
                for w, c in one_rewrite(alg, word, i):
                    step = step + pbw_normalize(alg, w, c)
                assert nf == step, (family, word, i)
                rewrites += 1
            if all(a < b or (a == b and not par[a]) for a, b in zip(word, word[1:])):
                assert nf == PBWElement(alg, {word: ONE})
        assert rewrites > 40, family


def test_u_multiply():
    one = PBWElement.unit(GL11)
    a = PBWElement.generator(GL11, E11)
    assert u_multiply(one, a) == a
    b = PBWElement.generator(GL11, E12)
    ab = u_multiply(a, b)
    assert ab == PBWElement(GL11, {(E11, E12): ONE})
    rng = random.Random(55)
    for family, m, n in [("gl", 1, 1), ("osp", 1, 1), ("q", 0, 2), ("p", 0, 2)]:
        alg = build_algebra(family, m, n)
        for _ in range(10):
            xs = [
                PBWElement.generator(alg, rng.randrange(alg.dim)) for _ in range(3)
            ]
            assert u_multiply(u_multiply(xs[0], xs[1]), xs[2]) == u_multiply(
                xs[0], u_multiply(xs[1], xs[2])
            )


# the algebras the random U(g) elements are drawn over: gl(1|1), gl(2|1),
# osp(3|2), q(2), p(2)
PRODUCT_ALGEBRAS = [
    build_algebra(*spec)
    for spec in [("gl", 1, 1), ("gl", 2, 1), ("osp", 3, 1), ("q", 0, 2), ("p", 0, 2)]
]
# signed integers and Gaussians, each with its negative, so repeated words cancel
PBW_COEFFS = [Scalar(c, d) for c, d in ((1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (2, -1))]
PBW_COEFFS += [-c for c in PBW_COEFFS]


@st.composite
def pbw_elements(draw, alg):
    """A sparse element of mixed parity: 1-4 terms on normal words of length 0-3.

    A term may reuse an earlier word, so its coefficient adds to or cancels
    the earlier one."""
    words = []
    for _ in range(draw(st.integers(1, 4))):
        if words and draw(st.booleans()):
            words.append(draw(st.sampled_from(words)))
            continue
        word = tuple(sorted(draw(st.lists(st.integers(0, alg.dim - 1), max_size=3))))
        # a normal word holds no odd generator twice
        odd = [g for g in word if alg.parity[g]]
        words.append(word if len(set(odd)) == len(odd) else tuple(sorted(set(word))))
    return PBWElement(alg, [(w, draw(st.sampled_from(PBW_COEFFS))) for w in words])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_product_and_supercommutator_match_references(data):
    alg = data.draw(st.sampled_from(PRODUCT_ALGEBRAS))
    a, b = data.draw(pbw_elements(alg)), data.draw(pbw_elements(alg))
    assert u_multiply(a, b) == u_multiply_reference(a, b)
    assert supercommutator(a, b) == supercommutator_reference(a, b)


def test_psi_examples():
    assert psi_map(sym_monomial(GL11, (E12,))) == PBWElement.generator(GL11, E12)
    assert psi_map(sym_monomial(GL11, (E11, E22))) == PBWElement(
        GL11, {(E11, E22): ONE}
    )
    # psi(E12 E21): gamma((1,1),(12)) = -1 so the two orderings average
    # with a sign; normalized this is E21.E12 + (E11+E22)/2 up to the
    # sorting sign already absorbed into the monomial
    s = sym_monomial(GL11, (E12, E21))
    val = psi_map(s)
    half = Scalar(Fraction(1, 2))
    assert val == PBWElement(
        GL11, {(E21, E12): MINUS_ONE, (E11,): half, (E22,): half}
    )


def test_psi_intertwines_adjoint():
    rng = random.Random(77)
    for _ in range(15):
        a = GL11.unit(rng.randrange(4))
        word = tuple(rng.randrange(4) for _ in range(rng.choice((1, 2, 3))))
        s = sym_monomial(GL11, word)
        if s.is_zero():
            continue
        lhs = psi_map(adjoint_act(a, s))
        u = psi_map(s)
        x = PBWElement(GL11, {(g,): c for g, c in a.terms.items()})
        rhs = supercommutator(x, u)
        assert lhs == rhs


def test_eta_prime_examples():
    t = TensorAlgebraElement(GL11, {(E11, E12): ONE})
    assert eta_prime(t) == PBWElement(GL11, {(E11, E12): ONE})
    # the supersymmetric relation element maps to the bracket, not zero
    rel = TensorAlgebraElement(GL11, {(E12, E21): ONE, (E21, E12): ONE})
    assert eta_prime(rel) == PBWElement(GL11, {(E11,): ONE, (E22,): ONE})


def test_is_central():
    assert is_central(PBWElement.unit(GL11))
    z = PBWElement.generator(GL11, E11) + PBWElement.generator(GL11, E22)
    assert is_central(z)
    assert not is_central(PBWElement.generator(GL11, E12))


def _central_element(alg):
    if alg.family == "q":
        return sergeev_Z(alg, 3)
    if alg.family == "p":
        # the centre of U(p(n)) is the scalars: every z_sigma and str_gelfand
        # of p(2) is 0, so a nonzero scalar stands in
        return PBWElement.unit(alg, 3)
    return str_gelfand(alg, 2)


@pytest.mark.parametrize(
    "family,m,n", [("gl", 2, 1), ("osp", 3, 1), ("q", 0, 2), ("p", 0, 2)]
)
def test_is_central_rejects_perturbed_central_elements(family, m, n):
    alg = build_algebra(family, m, n)
    u = _central_element(alg)
    assert is_central(u) and not u.is_zero()
    raising = PBWElement.generator(alg, alg.tri_class.index("U"))
    assert not is_central(u * raising + u)
    # an odd part next to the even central one
    for y in range(alg.dim):
        if alg.parity[y]:
            assert not is_central(u + PBWElement.generator(alg, y)), alg.gens[y]


def _verdict_inputs(alg):
    """Central and non-central elements of U(g), the same on every run."""
    rng = random.Random(19)
    gens = [PBWElement.generator(alg, g) for g in range(alg.dim)]
    odd = [x for g, x in enumerate(gens) if alg.parity[g]]
    out = [PBWElement.unit(alg)] + gens
    out += [rng.choice(gens) * rng.choice(gens) for _ in range(4 if gens else 0)]
    if alg.family in ("gl", "q"):
        sigmas = [Permutation((2, 1)), Permutation((2, 3, 1)), Permutation((1, 3, 2))]
    else:
        sigmas = [Permutation((2, 1)), Permutation((3, 4, 1, 2)), Permutation((2, 3, 4, 1))]
    invariants = [z_sigma(alg, s) for s in sigmas] + [str_gelfand(alg, k) for k in (1, 2, 3)]
    if alg.family == "q":
        # Z_k is central for odd k only
        invariants += [sergeev_Z(alg, k) for k in (1, 2, 3)]
    for u in invariants:
        out.append(u)
        if gens:
            out.append(u * rng.choice(gens) + u)
        if odd:
            out.append(u + rng.choice(odd))
    return out


@pytest.mark.parametrize(
    "family, m, n",
    [("gl", 2, 1), ("osp", 3, 1), ("q", 0, 2), ("p", 0, 2),
     ("gl", 1, 0), ("osp", 1, 0), ("q", 0, 1), ("p", 0, 1)],
)
def test_is_central_matches_full_basis_reference(family, m, n):
    alg = build_algebra(family, m, n)
    verdicts = [is_central(u) for u in _verdict_inputs(alg)]
    assert verdicts == [is_central_reference(u) for u in _verdict_inputs(alg)]
    # both verdicts occur, except where every element is central
    assert any(verdicts)
    assert all(verdicts) == (alg.dim <= 1)


def test_conjugacy_average_identity_small():
    # psi eta pi(theta) equals the class average of the z's
    for alg in (GL11, build_algebra("q", 0, 2)):
        for k in (1, 2):
            perms = list(symmetric_group(k))
            inv_fact = Scalar(Fraction(1, math.factorial(k)))
            for sigma in perms:
                lhs = psi_map(eta(project_tensor(alg, invariant_tensor(alg, sigma))))
                rhs = PBWElement(alg)
                for tau in perms:
                    rhs = rhs + z_sigma(alg, tau.inverse() * sigma * tau)
                assert lhs == rhs.scale(inv_fact)


def test_zeta_examples():
    u = PBWElement(GL11, {(E11, E22): ONE})
    assert zeta_project(u) == CartanPolynomial(GL11.var_names, {(1, 1): ONE})
    nf = pbw_normalize(GL11, (E12, E21))
    assert zeta_project(nf) == CartanPolynomial(
        GL11.var_names, {(1, 0): ONE, (0, 1): ONE}
    )
    assert zeta_project(PBWElement.generator(GL11, E21)).is_zero()
    with pytest.raises(ValueError):
        zeta_project(PBWElement.unit(build_algebra("q", 0, 2)))


def test_rho_shift_examples():
    h1, hp1 = cartan_vars(GL11.var_names)
    shifted = rho_shift(h1, GL11)
    assert shifted == h1 + cartan_const(GL11.var_names, HALF)
    assert rho_shift(hp1, GL11) == hp1 + cartan_const(
        GL11.var_names, Scalar(Fraction(-1, 2))
    )
    const = cartan_const(GL11.var_names, Scalar(42))
    assert rho_shift(const, GL11) == const
    # shifts cancel on h1 + h'1
    assert rho_shift(h1 + hp1, GL11) == h1 + hp1


def test_hc_is_algebra_map_on_center():
    for alg in (GL11, build_algebra("gl", 2, 1)):
        z1 = str_gelfand(alg, 1)
        z2 = str_gelfand(alg, 2)
        lhs = harish_chandra_image(u_multiply(z1, z2))
        rhs = harish_chandra_image(z1) * harish_chandra_image(z2)
        assert lhs == rhs


def test_supersymmetric_predicate():
    names = ("h1", "h'1")
    h, hp = cartan_vars(names)
    assert is_supersymmetric(h + hp, 1, 1)
    assert not is_supersymmetric(h * h + hp * hp, 1, 1)
    assert is_supersymmetric(h * h - hp * hp, 1, 1)
    assert is_supersymmetric(cartan_const(names, Scalar(5)), 1, 1)
    # power sums with the alternating sign pass for every degree
    names2 = ("h1", "h2", "h'1")
    for r in (1, 2, 3, 4):
        p = CartanPolynomial(names2, {})
        for v in range(2):
            e = [0, 0, 0]
            e[v] = r
            p = p + CartanPolynomial(names2, {tuple(e): ONE})
        sgn = ONE if (r - 1) % 2 == 0 else MINUS_ONE
        p = p + CartanPolynomial(names2, {(0, 0, r): sgn})
        assert is_supersymmetric(p, 2, 1), r
    # asymmetric polynomial fails
    assert not is_supersymmetric(CartanPolynomial(names2, {(1, 0, 0): ONE}), 2, 1)


def test_J_predicate():
    names = ("h1", "h'1")
    h, hp = cartan_vars(names)
    assert not is_J_poly(h * h + hp * hp, 1, 1)
    assert is_J_poly(h * h - hp * hp, 1, 1)
    assert not is_J_poly(h + hp, 1, 1)  # odd exponents
    assert is_J_poly(cartan_const(names, ONE), 1, 1)


def test_Q_predicate():
    names = ("h1", "h2")
    x1, x2 = cartan_vars(names)
    cube = x1 * x1 * x1 + x2 * x2 * x2
    assert is_Q_poly(cube, 2)
    assert is_Q_poly(x1 + x2, 2)
    assert not is_Q_poly(x1 * x1 + x2 * x2, 2)
    assert not is_Q_poly(x1, 2)  # not symmetric


def _by_variable_count(specs):
    out = {}
    for spec in specs:
        alg = build_algebra(*spec)
        out.setdefault(len(alg.var_names), []).append(alg)
    return out


# algebras whose rho shift the random polynomials go through, by variable count
RHO_ALGEBRAS = _by_variable_count([
    ("gl", 1, 0), ("gl", 0, 1), ("osp", 3, 0), ("osp", 1, 1),
    ("gl", 1, 1), ("osp", 2, 1), ("osp", 3, 1), ("osp", 1, 2),
    ("gl", 2, 1), ("gl", 1, 2), ("gl", 3, 0), ("osp", 5, 1),
    ("gl", 2, 2), ("gl", 3, 1), ("gl", 1, 3),
])
# (m, n) with 1 <= m + n <= 4, the splits with both blocks first: sampling
# favours the head of the list
BLOCK_SPLITS = sorted(
    ((m, n) for m in range(5) for n in range(5) if 1 <= m + n <= 4), key=lambda s: 0 in s
)
POLY_COEFFS = [Scalar(c) for c in (1, -1, 2, -3)] + [HALF, Scalar(1, 1)]


def power_sum(names, m, kind, r):
    """The degree-r power sum of kind: the generators of the super, J and Q
    rings, and for "sym" the plain power sum, symmetric but in none of them."""
    terms = {}
    for v in range(len(names)):
        e = [0] * len(names)
        e[v] = 2 * r if kind == "J" else r
        if kind == "J":
            coeff = ONE if v < m else MINUS_ONE
        elif kind == "super":
            coeff = ONE if v < m or r % 2 else MINUS_ONE
        else:
            coeff = ONE
        terms[tuple(e)] = coeff
    return CartanPolynomial(names, terms)


@st.composite
def cartan_cases(draw):
    """(names, m, n, kind, a product of kind's power sums, a sparse random polynomial)."""
    m, n = draw(st.sampled_from(BLOCK_SPLITS))
    nvars = m + n
    names = tuple("x%d" % v for v in range(nvars))
    kind = draw(st.sampled_from(("super", "J", "Q", "sym")))
    member = cartan_const(names, draw(st.sampled_from(POLY_COEFFS)))
    for r in draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)):
        if kind == "Q":
            r = 2 * r - 1  # the odd power sums generate the Q-polynomials
        elif kind == "sym":
            r = 2 * r  # even: outside all three rings once both blocks are there
        member = member * power_sum(names, m, kind, r)
    exponent = st.tuples(*[st.integers(0, 4)] * nvars)
    noise = CartanPolynomial(
        names, draw(st.lists(st.tuples(exponent, st.sampled_from(POLY_COEFFS)), max_size=5))
    )
    return names, m, n, kind, member, noise


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(cartan_cases(), st.data())
def test_hc_predicates_and_rho_shift_match_references(case, data):
    names, m, n, kind, member, noise = case
    ring_of = {
        "super": lambda p: is_supersymmetric_reference(p, m, n),
        "J": lambda p: is_J_poly_reference(p, m, n),
        "Q": lambda p: is_Q_poly_reference(p, m + n),
    }
    assert kind == "sym" or ring_of[kind](member)
    for p in (member, noise, member + noise):
        assert is_supersymmetric(p, m, n) == is_supersymmetric_reference(p, m, n)
        assert is_J_poly(p, m, n) == is_J_poly_reference(p, m, n)
        assert is_Q_poly(p, m + n) == is_Q_poly_reference(p, m + n)
        alg = data.draw(st.sampled_from(RHO_ALGEBRAS[len(names)]))
        q = CartanPolynomial(alg.var_names, p.terms)
        assert rho_shift(q, alg) == rho_shift_reference(q, alg)


@pytest.mark.parametrize("family,m,n", [("gl", 1, 1), ("gl", 2, 1), ("osp", 3, 1)])
def test_hc_image_matches_reference(family, m, n):
    alg = build_algebra(family, m, n)
    for k in (1, 2, 3):
        u = str_gelfand(alg, k)
        image = harish_chandra_image(u)
        assert image == rho_shift_reference(zeta_project(u), alg)
        if family == "gl":
            assert is_supersymmetric(image, m, n) is is_supersymmetric_reference(image, m, n)
        else:
            assert is_J_poly(image, m // 2, n) is is_J_poly_reference(image, m // 2, n)


def test_pbw_json_graded_lex():
    u = pbw_normalize(GL11, (E12, E21)) + PBWElement.unit(GL11, Scalar(2))
    words = [tuple(t["gens"]) for t in u.to_json()["terms"]]
    assert words == sorted(words, key=lambda w: (len(w), w))


def test_pbw_json_golden():
    # byte-stable serialization of a fixed central element
    import json

    from superinv.schurweyl import z_sigma
    from superinv.signs import Permutation

    z = z_sigma(GL11, Permutation((2, 1)))
    # graded-lex: degree first, then the global generator order (lowering
    # generators sort before Cartan before raising)
    golden = (
        '{"terms": ['
        '{"coeff": {"im": ["0", "1"], "re": ["-1", "1"]}, "gens": ["E[1,1]"]}, '
        '{"coeff": {"im": ["0", "1"], "re": ["-1", "1"]}, "gens": ["E[2,2]"]}, '
        '{"coeff": {"im": ["0", "1"], "re": ["2", "1"]}, "gens": ["E[2,1]", "E[1,2]"]}, '
        '{"coeff": {"im": ["0", "1"], "re": ["1", "1"]}, "gens": ["E[1,1]", "E[1,1]"]}, '
        '{"coeff": {"im": ["0", "1"], "re": ["-1", "1"]}, "gens": ["E[2,2]", "E[2,2]"]}]}'
    )
    assert json.dumps(z.to_json(), sort_keys=True) == golden
