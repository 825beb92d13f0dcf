import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    apply,
    basis_vector,
    partial_supertrace,
    permute_word_reference,
    supertranspose,
)

from superinv.algebras import build_algebra
from superinv.enveloping import PBWElement
from superinv.scalars import MINUS_ONE, ONE, Scalar
from superinv.schurweyl import generator_matrix
from superinv.signs import Permutation, symmetric_group
from superinv.spaces import SuperSpace
from superinv.sparse import add_into
from superinv.tensors import (
    Tensor,
    VectorTensor,
    _sign_view,
    compose,
    full_supertrace,
    identity_tensor,
    matrix_unit,
    permute_word,
    slot_embed,
)

GL11 = SuperSpace("gl", 1, 1)


def tensor_word(space, pairs, coeff=ONE):
    return Tensor(space, len(pairs), {tuple(pairs): coeff})


def rand_tensor(space, k, rng, terms=3):
    entries = {}
    for _ in range(terms):
        key = tuple(
            (rng.choice(space.indices), rng.choice(space.indices)) for _ in range(k)
        )
        entries[key] = Scalar(rng.randint(-3, 3))
    return Tensor(space, k, entries)


def test_k1_matrix_units():
    e11, e12 = matrix_unit(GL11, 1, 1), matrix_unit(GL11, 1, 2)
    assert compose(e11, e12) == e12
    assert compose(e12, e11).is_zero()
    ident = identity_tensor(GL11, 1)
    assert compose(ident, e12) == e12 and compose(e12, ident) == e12


def test_compose_odd_sign_example():
    # (e12 x e21) o (e21 x e12) = -(e11 x e22) in gl(1|1)
    a = tensor_word(GL11, [(1, 2), (2, 1)])
    b = tensor_word(GL11, [(2, 1), (1, 2)])
    expected = tensor_word(GL11, [(1, 1), (2, 2)], MINUS_ONE)
    assert compose(a, b) == expected
    # oracle: compare entrywise application on all four basis words
    for word in itertools.product(GL11.indices, repeat=2):
        v = basis_vector(GL11, word)
        assert apply(compose(a, b), v) == apply(a, apply(b, v))


def test_apply_examples():
    ident = identity_tensor(GL11, 2)
    v = basis_vector(GL11, (1, 2))
    assert apply(ident, v) == v
    # (1 x e12)(e1 x e2) = e1 x e1, no sign since |e1| = 0
    t = Tensor(GL11, 2, {((1, 1), (1, 2)): ONE, ((2, 2), (1, 2)): ONE})
    assert apply(t, v) == basis_vector(GL11, (1, 1))
    assert apply(Tensor(GL11, 2, {}), v).is_zero()


def test_apply_compose_exhaustive_small():
    # all matrix-unit words, all pairs, all basis vectors
    for space in (GL11, SuperSpace("osp", 1, 1)):
        for k in (1, 2):
            words = list(itertools.product(space.indices, repeat=k))
            units = [
                Tensor(space, k, {tuple(zip(r, c)): ONE})
                for r in words
                for c in words
            ]
            vecs = [basis_vector(space, w) for w in words]
            for a in units:
                for b in units:
                    ab = compose(a, b)
                    for v in vecs:
                        assert apply(ab, v) == apply(a, apply(b, v))


def test_compose_associative_random():
    rng = random.Random(3)
    for k in (1, 2, 3):
        for _ in range(15):
            a, b, c = (rand_tensor(GL11, k, rng) for _ in range(3))
            assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_supertrace():
    assert full_supertrace(matrix_unit(GL11, 1, 1)) == ONE
    assert full_supertrace(matrix_unit(GL11, 2, 2)) == MINUS_ONE
    assert full_supertrace(matrix_unit(GL11, 1, 2)).is_zero()
    for m, n in [(1, 1), (2, 1), (3, 2)]:
        space = SuperSpace("gl", m, n)
        for k in (1, 2):
            assert full_supertrace(identity_tensor(space, k)) == Scalar((m - n) ** k)


def _trace_by_partials(t):
    while t.k:
        t = partial_supertrace(t, 1)
    return t.coefficient(())


def test_full_supertrace_is_the_iterated_partial_trace():
    # every diagonal word is present with a positive coefficient, so a
    # dropped sign on an odd row changes the trace
    rng = random.Random(11)
    for space in (GL11, SuperSpace("gl", 2, 1)):
        for k in range(4):
            for _ in range(4):
                diag = Tensor(space, k, {
                    tuple((d, d) for d in word): Scalar(rng.randint(1, 5))
                    for word in itertools.product(space.indices, repeat=k)
                })
                t = diag + rand_tensor(space, k, rng)
                trace = full_supertrace(t)
                assert isinstance(trace, Scalar)
                assert trace == _trace_by_partials(t), (space, k)
    for alg in (build_algebra("gl", 1, 1), build_algebra("q", 0, 1)):
        x = generator_matrix(alg)
        x1, x2 = slot_embed(x, 1, 2), slot_embed(x, 2, 2)
        for t in (x, x * x, x1 * x2, x2 * x1 * x2):
            trace = full_supertrace(t)
            assert isinstance(trace, PBWElement)
            assert trace == _trace_by_partials(t), (alg, t.k)


def test_partial_supertrace():
    t = tensor_word(GL11, [(1, 1), (1, 1)])
    assert partial_supertrace(t, 2) == matrix_unit(GL11, 1, 1)
    t2 = tensor_word(GL11, [(2, 2), (1, 2)])
    assert partial_supertrace(t2, 1) == matrix_unit(GL11, 1, 2).scale(MINUS_ONE)
    # Str_1(id x A) = (m - n) A
    rng = random.Random(5)
    a = rand_tensor(GL11, 1, rng)
    idA = Tensor(
        GL11,
        2,
        {
            ((d, d),) + key: coeff
            for d in GL11.indices
            for key, coeff in a.entries.items()
        },
    )
    assert partial_supertrace(idA, 1) == a.scale(Scalar(0))
    sp21 = SuperSpace("gl", 2, 1)
    b = rand_tensor(sp21, 1, rng)
    idB = Tensor(
        sp21,
        2,
        {
            ((d, d),) + key: coeff
            for d in sp21.indices
            for key, coeff in b.entries.items()
        },
    )
    assert partial_supertrace(idB, 1) == b.scale(Scalar(2 - 1))
    with pytest.raises(ValueError):
        partial_supertrace(t, 3)


def test_iterated_partial_supertrace_is_full():
    rng = random.Random(9)
    t = rand_tensor(GL11, 3, rng, terms=6)
    full = partial_supertrace(partial_supertrace(partial_supertrace(t, 1), 1), 1)
    other = partial_supertrace(partial_supertrace(partial_supertrace(t, 3), 2), 1)
    assert full == other


def test_supertranspose():
    assert supertranspose(matrix_unit(GL11, 1, 2)) == matrix_unit(GL11, 2, 1)
    assert supertranspose(matrix_unit(GL11, 2, 1)) == matrix_unit(GL11, 1, 2).scale(
        MINUS_ONE
    )
    ident = identity_tensor(GL11, 2)
    assert supertranspose(ident) == ident


def test_supertranspose_anti_automorphism():
    # (AB)^st = (-1)^{|A||B|} B^st A^st on homogeneous tensors
    rng = random.Random(13)
    space = SuperSpace("gl", 2, 1)
    words = list(itertools.product(space.indices, repeat=2))
    pool = [
        Tensor(space, 2, {tuple(zip(r, c)): Scalar(rng.randint(1, 3))})
        for r in words
        for c in words
    ]
    pairs = 0
    while pairs < 100:
        a = rng.choice(pool)
        b = rng.choice(pool)
        (ka,), (kb,) = a.terms, b.terms
        pa, pb = a.key_parity(ka), b.key_parity(kb)
        ab_st = supertranspose(compose(a, b))
        rhs = compose(supertranspose(b), supertranspose(a))
        if pa and pb:
            rhs = rhs.scale(MINUS_ONE)
        assert ab_st == rhs
        pairs += 1


def test_permute_word_action():
    v = basis_vector(GL11, (1, 2))
    s = Permutation((2, 1))
    assert permute_word(s, v) == basis_vector(GL11, (2, 1))
    v22 = basis_vector(GL11, (2, 2))
    assert permute_word(s, v22) == v22.scale(MINUS_ONE)
    assert permute_word(Permutation.identity(2), v) == v


def test_permute_word_group_action_exhaustive():
    for word in itertools.product(GL11.indices, repeat=3):
        v = basis_vector(GL11, word)
        for s in symmetric_group(3):
            for t in symmetric_group(3):
                assert permute_word(s * t, v) == permute_word(s, permute_word(t, v))


PERMUTE_SPACES = tuple(
    SuperSpace(*spec)
    for spec in (("gl", 1, 1), ("q", 0, 1), ("osp", 1, 1), ("p", 0, 1), ("p", 0, 2))
)


@st.composite
def permuted_vectors(draw):
    """(sigma, w): w a VectorTensor of degree k <= 4, built from terms in
    which a drawn key may come back with the opposite coefficient and cancel."""
    space = draw(st.sampled_from(PERMUTE_SPACES))
    k = draw(st.integers(0, 4))
    key = st.tuples(*[st.sampled_from(space.indices)] * k)
    terms = draw(st.lists(st.tuples(key, st.integers(-3, 3).map(Scalar)), max_size=16))
    cancel = draw(st.lists(st.sampled_from(terms), max_size=3)) if terms else []
    terms += [(key, -c) for key, c in cancel]
    terms += draw(st.lists(st.sampled_from(terms), max_size=2)) if terms else []
    sigma = Permutation(draw(st.permutations(range(1, k + 1))))
    return sigma, VectorTensor(space, k, terms)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(permuted_vectors())
# the parity words (1,1,0) and (1,0,1) have equal sums but opposite signs
# under (1 2); the key (2,1,1) cancels, then comes back last
@example((Permutation((2, 1, 3)), VectorTensor(GL11, 3, [
    ((2, 2, 1), ONE), ((2, 1, 1), ONE), ((2, 1, 2), ONE), ((2, 1, 1), MINUS_ONE),
    ((1, 1, 1), Scalar(2)), ((2, 1, 1), Scalar(3)),
])))
def test_permute_word_matches_adjacent_swap_reference_in_order(case):
    sigma, w = case
    got, want = permute_word(sigma, w), permute_word_reference(sigma, w)
    assert list(got.terms.items()) == list(want.terms.items())


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(permuted_vectors())
def test_permute_word_through_a_sign_view_matches_reference_in_order(case):
    # a view read twice gives the same terms in the same order as the
    # reference, and the view leaves w as it was
    sigma, w = case
    before = list(w.terms.items())
    view = _sign_view(w)
    want = list(permute_word_reference(sigma, w).terms.items())
    for _ in range(2):
        assert list(permute_word(sigma, w, view).terms.items()) == want
    assert list(w.terms.items()) == before


@pytest.mark.parametrize("k", (0, 1, 2))
def test_permute_word_at_low_degree_matches_adjacent_swap_reference(k):
    # itemgetter of one index returns a bare letter and of none raises, so
    # every key of degree 0, 1 and 2 goes through, each coming out a k-tuple
    space = SuperSpace("p", 0, 2)
    words = list(itertools.product(space.indices, repeat=k))
    w = VectorTensor(space, k, {word: Scalar(c) for c, word in enumerate(words, 1)})
    for sigma in symmetric_group(k):
        got, want = permute_word(sigma, w), permute_word_reference(sigma, w)
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(type(key) is tuple and len(key) == k for key in got.terms)


def test_degree_zero_tensor_is_scalar():
    t = Tensor(GL11, 0, {(): Scalar(5)})
    assert t.coefficient(()) == Scalar(5)
    assert (t + t).coefficient(()) == Scalar(10)


def test_json_shapes():
    t = tensor_word(GL11, [(1, 2), (2, 1)], Scalar(2))
    data = t.to_json()
    assert data["k"] == 2
    assert data["space"] == {"family": "gl", "m": 1, "n": 1}
    assert data["entries"][0]["key"] == [[1, 2], [2, 1]]


# -- the indexed compose against the pair loop it replaced --------------------


def _compose_reference(a: Tensor, b: Tensor) -> Tensor:
    """The product of a and b in the superalgebra End(V)^(x k).

    The pair loop `compose` replaced: every key pair of a x b is tested.

    With odd values (U(g)-valued tensors), a's value also crosses b's word.
    """
    a._check(b)
    par = a.space.parity
    odd_values = a._odd_values
    out = {}
    for ka, va in a.terms.items():
        apar = [(par[r] + par[c]) & 1 for r, c in ka]
        if odd_values:
            # the value, as odd as its key, stands left of all k slots
            apar.append(sum(apar) & 1)
        steps = range(len(apar))
        for kb, vb in b.terms.items():
            key = []
            for (ra, ca), (rb, cb) in zip(ka, kb):
                if ca != rb:
                    key = None
                    break
                key.append((ra, cb))
            if key is None:
                continue
            # sign: each b_t crosses a_s for t < s
            exp = 0
            run = 0
            for s in steps:
                if s > 0:
                    rb, cb = kb[s - 1]
                    run ^= (par[rb] + par[cb]) & 1
                if apar[s] and run:
                    exp ^= 1
            val = va * vb
            if odd_values and not val:
                continue
            add_into(out, tuple(key), -val if exp else val)
    return a._like(out)


# gl(1|1), gl(2|1), osp(3|2), q(2), p(2)
COMPOSE_SPACES = [
    SuperSpace("gl", 1, 1),
    SuperSpace("gl", 2, 1),
    SuperSpace("osp", 3, 1),
    SuperSpace("q", 0, 2),
    SuperSpace("p", 0, 2),
]
# signed pairs, so that terms cancel and a cancelled key may come back later
COMPOSE_COEFFS = [Scalar(c) for c in (1, -1, 2, -2)] + [Scalar(1, 1), Scalar(-1, -1)]


@st.composite
def tensor_pairs(draw):
    space = draw(st.sampled_from(COMPOSE_SPACES))
    k = draw(st.integers(0, 3))
    # a few indices only, so that keys of a and b meet
    alphabet = draw(st.lists(st.sampled_from(space.indices), min_size=1, max_size=3))
    slot = st.tuples(st.sampled_from(alphabet), st.sampled_from(alphabet))
    term = st.tuples(st.tuples(*[slot] * k), st.sampled_from(COMPOSE_COEFFS))
    a, b = (Tensor(space, k, draw(st.lists(term, max_size=12))) for _ in range(2))
    return a, b


def _gl21_unit_sum(*keys):
    sp = COMPOSE_SPACES[1]
    return Tensor(sp, 1, [(((r, c),), Scalar(v)) for r, c, v in keys])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(tensor_pairs())
# e11 e11 gives e11, e11 e12 adds e12, e12 e21 cancels e11 and e13 e31 brings
# it back after e12: the order is [e12, e11]
@example((_gl21_unit_sum((1, 1, 1), (1, 2, 1), (1, 3, 1)),
          _gl21_unit_sum((1, 1, 1), (1, 2, 1), (2, 1, -1), (3, 1, 1))))
def test_compose_matches_reference_in_order(pair):
    a, b = pair
    assert list(compose(a, b).terms.items()) == list(_compose_reference(a, b).terms.items())


def test_uvalued_compose_matches_reference_in_order():
    # odd PBW values: the value of a crosses b's word
    x = generator_matrix(build_algebra("q", 0, 2))
    pairs = [(x, x), (slot_embed(x, 1, 2), slot_embed(x, 2, 2)),
             (slot_embed(x, 2, 2), slot_embed(x, 1, 2))]
    for a, b in pairs:
        got, want = compose(a, b), _compose_reference(a, b)
        assert got.terms and got._odd_values
        assert list(got.terms.items()) == list(want.terms.items())
        assert [v.to_json() for v in got.terms.values()] == [
            v.to_json() for v in want.terms.values()
        ]


def test_slot_embed_places_degree_j_and_rejects_slots_that_do_not_fit():
    x = matrix_unit(GL11, 1, 2)
    two = tensor_word(GL11, [(1, 2), (2, 2)], Scalar(3))
    for j, t in ((1, x), (2, two)):
        for k in (2, 3, 4):
            for slot in (0, k - j + 2):
                with pytest.raises(ValueError):
                    slot_embed(t, slot, k)
    with pytest.raises(ValueError):
        slot_embed(two, 1, 1)
    assert slot_embed(two, 1, 2) == two
    # 1 x (e12 x e22) x 1 on V^(x 4)
    placed = slot_embed(two, 2, 4)
    assert set(placed.terms) == {
        ((a, a), (1, 2), (2, 2), (b, b)) for a in GL11.indices for b in GL11.indices
    }
    assert set(placed.terms.values()) == {Scalar(3)}
    # a degree-2 tensor placed at once equals its two factors placed one by one
    pair = compose(slot_embed(x, 2, 3), slot_embed(x, 3, 3))
    assert slot_embed(compose(slot_embed(x, 1, 2), slot_embed(x, 2, 2)), 2, 3) == pair


def test_identity_tensor_keys_in_word_order():
    for k in range(5):
        ident = identity_tensor(GL11, k)
        words = itertools.product(GL11.indices, repeat=k)
        assert list(ident.terms) == [tuple((d, d) for d in w) for w in words]
        assert set(ident.terms.values()) == {ONE}
