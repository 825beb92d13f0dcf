import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    adjoint_act,
    gl_trace_images_closed_form,
    is_central_reference,
    is_J_poly_reference,
    is_Q_poly_reference,
    is_supersymmetric_reference,
    psi_map,
    rho_shift_reference,
    supercommutator_reference,
    sym_monomial,
    u_multiply_reference,
)

from superinv import enveloping
from superinv.algebras import build_algebra
from superinv.brauer import coset_reps
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
    rho_shift,
    supercommutator,
    u_multiply,
    zeta_project,
)
from superinv.scalars import HALF, MINUS_ONE, ONE, Scalar
from superinv.schurweyl import invariant_tensor, sergeev_Z, str_gelfand, z_sigma
from superinv.signs import Permutation, symmetric_group
from superinv.sparse import add_terms
from superinv.tensoralg import TensorAlgebraElement, eta, project_tensor

GL11 = build_algebra("gl", 1, 1)
E21, E11, E22, E12 = map(GL11.gens.index, ("E[2,1]", "E[1,1]", "E[2,2]", "E[1,2]"))


def cartan_vars(names):
    """Each variable of the Cartan polynomial ring on names, as a polynomial."""
    n = len(names)
    return [
        CartanPolynomial(names, {tuple(int(i == v) for i in range(n)): ONE}) for v in range(n)
    ]


def cartan_const(names, coeff):
    return CartanPolynomial(names, {(0,) * len(names): coeff})


def test_pbw_examples():
    u = pbw_normalize(GL11, [((E12, E21), ONE)])
    expected = PBWElement(
        GL11, {(E21, E12): MINUS_ONE, (E11,): ONE, (E22,): ONE}
    )
    assert u == expected
    assert pbw_normalize(GL11, [((E12, E12), ONE)]).is_zero()
    ordered = (E21, E11, E12)
    assert pbw_normalize(GL11, [(ordered, ONE)]) == PBWElement(GL11, {ordered: ONE})


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
            nf = pbw_normalize(alg, [(word, ONE)])
            for i in range(len(word) - 1):
                a, b = word[i], word[i + 1]
                if a < b or (a == b and not par[a]):
                    continue
                step = PBWElement(alg)
                for w, c in one_rewrite(alg, word, i):
                    step = step + pbw_normalize(alg, [(w, c)])
                assert nf == step, (family, word, i)
                rewrites += 1
            if all(a < b or (a == b and not par[a]) for a, b in zip(word, word[1:])):
                assert nf == PBWElement(alg, {word: ONE})
        assert rewrites > 40, family


@pytest.mark.parametrize("spec", [("gl", 1, 1), ("osp", 3, 1), ("q", 0, 2), ("p", 0, 2)])
def test_pbw_normalize_of_terms_is_the_sum_of_their_forms(spec):
    # one call on a list of terms gives the sum, in the list's order, of the
    # single-term normal forms.  The same keys and coefficients, but not
    # always in the same order: a key that cancels part way through one
    # term's rewrites and comes back moves to the end of the one dict, where
    # that term's own form hid the cancellation.  Every render sorts its keys.
    alg = build_algebra(*spec)
    rng = random.Random(202)
    assert pbw_normalize(alg, []).is_zero()
    for _ in range(40):
        terms = [
            (tuple(rng.randrange(alg.dim) for _ in range(rng.randrange(5))),
             rng.choice(PBW_COEFFS))
            for _ in range(rng.randrange(1, 5))
        ]
        # a repeated word that cancels an earlier term, and a zero coefficient
        terms.append((terms[0][0], -terms[0][1]))
        terms.insert(rng.randrange(len(terms) + 1), (terms[-1][0], 0))
        rng.shuffle(terms)
        total = {}
        for w, c in terms:
            add_terms(total, pbw_normalize(alg, [(w, c)]).terms)
        assert pbw_normalize(alg, terms).terms == total, terms


def test_product_and_supercommutator_build_one_element(monkeypatch):
    # u_multiply and supercommutator hand all their words to one
    # pbw_normalize call, which builds the one element they return
    calls, built = [], []
    normalize, init = enveloping.pbw_normalize, PBWElement.__init__

    def counting_normalize(alg, terms):
        calls.append(len(terms))
        return normalize(alg, terms)

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    a = PBWElement(GL11, {(E12,): ONE, (E11,): Scalar(2)})
    b = PBWElement(GL11, {(E21,): ONE, (E22,): MINUS_ONE, (): ONE})
    monkeypatch.setattr(enveloping, "pbw_normalize", counting_normalize)
    monkeypatch.setattr(PBWElement, "__init__", counting_init)
    ab = u_multiply(a, b)
    assert calls == [6] and built == [ab]
    del calls[:], built[:]
    comm = supercommutator(ab, E12)
    assert len(calls) == 1 and calls[0] > 1 and built == [comm]


def test_u_multiply():
    one = PBWElement(GL11, {(): ONE})
    a = PBWElement(GL11, {(E11,): ONE})
    assert u_multiply(one, a) == a
    b = PBWElement(GL11, {(E12,): ONE})
    ab = u_multiply(a, b)
    assert ab == PBWElement(GL11, {(E11, E12): ONE})
    rng = random.Random(55)
    for family, m, n in [("gl", 1, 1), ("osp", 1, 1), ("q", 0, 2), ("p", 0, 2)]:
        alg = build_algebra(family, m, n)
        for _ in range(10):
            xs = [
                PBWElement(alg, {(rng.randrange(alg.dim),): ONE}) for _ in range(3)
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
    # [u, y] against uy - (-1)^{|u||y|} yu for every generator y, odd and even
    for y in range(alg.dim):
        assert supercommutator(a, y) == supercommutator_reference(
            a, PBWElement(alg, {(y,): ONE})
        ), alg.gens[y]


def test_psi_examples():
    assert psi_map(sym_monomial(GL11, (E12,))) == PBWElement(GL11, {(E12,): ONE})
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
    par = GL11.parity
    for _ in range(15):
        x = rng.randrange(4)
        word = tuple(rng.randrange(4) for _ in range(rng.choice((1, 2, 3))))
        s = sym_monomial(GL11, word)
        if s.is_zero():
            continue
        lhs = psi_map(adjoint_act(TensorAlgebraElement(GL11, {(x,): ONE}), s))
        # [x, u] = -(-1)^{|x||u|} [u, x], u = psi(s) homogeneous of the word's parity
        odd = par[x] and sum(par[g] for g in word) % 2
        rhs = supercommutator(psi_map(s), x).scale(ONE if odd else MINUS_ONE)
        assert lhs == rhs


def test_eta_prime_examples():
    t = TensorAlgebraElement(GL11, {(E11, E12): ONE})
    assert eta_prime(t) == PBWElement(GL11, {(E11, E12): ONE})
    # the supersymmetric relation element maps to the bracket, not zero
    rel = TensorAlgebraElement(GL11, {(E12, E21): ONE, (E21, E12): ONE})
    assert eta_prime(rel) == PBWElement(GL11, {(E11,): ONE, (E22,): ONE})


def _eta_prime_reference(t):
    """Sum of pbw_normalize(alg, [(w, c)]) over the terms (w, c) of t, in t's order."""
    out = {}
    for word, coeff in t.terms.items():
        add_terms(out, pbw_normalize(t.algebra, [(word, coeff)]).terms)
    return PBWElement(t.algebra, out)


def _theta_words(family, m, n):
    """A fresh algebra and pi(theta) of its permutations up to degree 3: every
    coset representative for p, every sigma in S_k (the z_sigma words) else."""
    alg = build_algebra(family, m, n)
    sigmas = [s for k in (1, 2, 3) for s in
              (coset_reps(k) if family == "p" else symmetric_group(k))]
    return alg, [project_tensor(alg, invariant_tensor(alg, s)) for s in sigmas]


@pytest.mark.parametrize("family, m, n", [("p", 0, 2), ("gl", 1, 1), ("q", 0, 1)])
def test_eta_prime_reads_its_normal_form_table(family, m, n):
    alg, ts = _theta_words(family, m, n)
    assert "normal_forms" not in vars(alg)
    ts = [t for t in ts if t.terms]
    assert ts
    # on a freshly built algebra, whose table fills as the elements go by;
    # their words repeat from one element to the next
    for t in ts:
        assert list(eta_prime(t).terms.items()) == list(_eta_prime_reference(t).terms.items())
    alg, ts = _theta_words(family, m, n)
    ts = [t for t in ts if t.terms]
    # fill the table first from overlapping elements with other coefficients:
    # every other word of each element, rescaled, and the relation
    # u x y v - (-1)^{|x||y|} u y x v - u [x, y] v on a word u x y v of
    # theta, whose image cancels to zero
    par = alg.parity
    w, i = next((w, i) for t in ts for w in t.terms for i in range(len(w) - 1)
                if w[i] != w[i + 1] or par[w[i]])
    head, (x, y), tail = w[:i], w[i : i + 2], w[i + 2 :]
    sign = MINUS_ONE if par[x] and par[y] else ONE
    relation = TensorAlgebraElement(alg, [(w, ONE), (head + (y, x) + tail, -sign)] + [
        (head + (g,) + tail, -c) for g, c in alg.bracket_table[(x, y)].items()
    ])
    assert relation.terms
    fillers = [relation] + [
        TensorAlgebraElement(alg, {v: c * Scalar(j - 2) for j, (v, c) in
                                   enumerate(t.terms.items()) if j % 2 == 0 and j != 2})
        for t in ts
    ]
    # twice: a word's form is stored at its second use
    for u in fillers + fillers:
        assert list(eta_prime(u).terms.items()) == list(_eta_prime_reference(u).terms.items())
    assert eta_prime(relation).is_zero()
    stored = {w: dict(form.terms) for w, form in alg.normal_forms.items() if form is not None}
    assert stored
    for t in ts + ts:
        assert list(eta_prime(t).terms.items()) == list(_eta_prime_reference(t).terms.items())
    # the forms stored before stay as they were, each the normal form of its word
    assert all(alg.normal_forms[w].terms == terms for w, terms in stored.items())
    assert None not in alg.normal_forms.values()
    for w, form in alg.normal_forms.items():
        assert list(form.terms.items()) == list(pbw_normalize(alg, [(w, ONE)]).terms.items())


def test_is_central():
    assert is_central(PBWElement(GL11, {(): ONE}))
    z = PBWElement(GL11, {(E11,): ONE}) + PBWElement(GL11, {(E22,): ONE})
    assert is_central(z)
    assert not is_central(PBWElement(GL11, {(E12,): ONE}))


def _central_element(alg):
    if alg.family == "q":
        return sergeev_Z(alg, 3)
    if alg.family == "p":
        # the centre of U(p(n)) is the scalars: every z_sigma and str_gelfand
        # of p(2) is 0, so a nonzero scalar stands in
        return PBWElement(alg, {(): 3})
    return str_gelfand(alg, 2)


@pytest.mark.parametrize(
    "family,m,n", [("gl", 2, 1), ("osp", 3, 1), ("q", 0, 2), ("p", 0, 2)]
)
def test_is_central_rejects_perturbed_central_elements(family, m, n):
    alg = build_algebra(family, m, n)
    u = _central_element(alg)
    assert is_central(u) and not u.is_zero()
    raising = PBWElement(alg, {(alg.tri_class.index("U"),): ONE})
    assert not is_central(u * raising + u)
    # an odd part next to the even central one
    for y in range(alg.dim):
        if alg.parity[y]:
            assert not is_central(u + PBWElement(alg, {(y,): ONE})), alg.gens[y]


def _verdict_inputs(alg):
    """Central and non-central elements of U(g), the same on every run."""
    rng = random.Random(19)
    gens = [PBWElement(alg, {(g,): ONE}) for g in range(alg.dim)]
    odd = [x for g, x in enumerate(gens) if alg.parity[g]]
    out = [PBWElement(alg, {(): ONE})] + gens
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
    nf = pbw_normalize(GL11, [((E12, E21), ONE)])
    assert zeta_project(nf) == CartanPolynomial(
        GL11.var_names, {(1, 0): ONE, (0, 1): ONE}
    )
    assert zeta_project(PBWElement(GL11, {(E21,): ONE})).is_zero()
    with pytest.raises(ValueError):
        zeta_project(PBWElement(build_algebra("q", 0, 2), {(): ONE}))


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


def test_rho_shift_leaves_a_q_polynomial_unchanged():
    # rho = 0 on q(n); a polynomial in another algebra's variables is still refused
    q2 = build_algebra("q", 0, 2)
    h1, h2 = cartan_vars(q2.var_names)
    poly = h1 * h1 * h2 + h2 + cartan_const(q2.var_names, Scalar(3))
    assert rho_shift(poly, q2) == poly
    with pytest.raises(ValueError, match="variable mismatch"):
        rho_shift(cartan_vars(GL11.var_names)[0], q2)


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


@pytest.mark.parametrize(
    "predicate,sizes",
    [(is_supersymmetric, (1, 0)), (is_J_poly, (1, 0)), (is_J_poly, (0, 0)), (is_Q_poly, (1,))],
)
def test_predicates_reject_sizes_that_do_not_cover_the_variables(predicate, sizes):
    h, _ = cartan_vars(("h1", "h'1"))
    with pytest.raises(ValueError):
        predicate(h * h, *sizes)


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


@pytest.mark.parametrize(
    "m, n",
    [(1, 0), (2, 0), (3, 0), (0, 2), (1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (3, 3)],
)
def test_hc_image_of_traces_matches_closed_form(m, n):
    # the product formula shares no code with the Cartan projection, the rho
    # shift or the PBW layer, so it checks both against the U(g) computation
    closed = gl_trace_images_closed_form(m, n, 5)
    assert closed[0] == CartanPolynomial(closed[0].names, {(0,) * (m + n): Scalar(m - n)})
    alg = build_algebra("gl", m, n)
    for k in range(1, 6):
        assert harish_chandra_image(str_gelfand(alg, k)) == closed[k], k


def test_pbw_json_graded_lex():
    u = pbw_normalize(GL11, [((E12, E21), ONE)]) + PBWElement(GL11, {(): Scalar(2)})
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
