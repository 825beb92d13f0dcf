import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from oracles import (
    apply,
    basis_vector,
    dualize_even_slots_reference,
    form_flip_tensor,
    h_elements,
    noncommuting_generators_reference,
    omega_iso_reference,
    p_exponent,
    partial_supertrace,
    perm_operator_reference,
    permute_word_reference,
    sergeev_elements_reference,
    sergeev_Z_reference,
    str_gelfand_reference,
    super_transposition_tensor,
    supertranspose,
)

from superinv import schurweyl
from superinv.algebras import build_algebra, phi_k
from superinv.brauer import coset_canonical, coset_reps
from superinv.cli import main
from superinv.enveloping import PBWElement, eta_prime, is_central
from superinv.scalars import I as IMAG
from superinv.scalars import MINUS_ONE, ONE, ZERO, Scalar
from superinv.schurweyl import (
    _generator_operators,
    _measure_multiple,
    _noncommuting_generators,
    _power,
    _read_side,
    check_duality_relations,
    generator_matrix,
    invariant_tensor,
    invariant_vector,
    molev_element,
    omega_iso,
    scalar_tensor,
    sergeev_Z,
    sergeev_elements,
    slot_embed,
    str_gelfand,
    tensor_is_invariant,
    z_sigma,
)
from superinv.signs import Permutation, symmetric_group
from superinv.tensoralg import eta, project_tensor
from superinv.tensors import (
    Tensor,
    VectorTensor,
    compose,
    full_supertrace,
    identity_tensor,
    matrix_unit,
    permute_word,
)

GL11 = build_algebra("gl", 1, 1)


def test_theta_of_permutation_examples():
    sp = GL11.space
    assert invariant_tensor(GL11, Permutation.identity(2)) == identity_tensor(sp, 2)
    s = invariant_tensor(GL11, Permutation((2, 1)))
    assert apply(s, basis_vector(sp, (2, 2))) == basis_vector(sp, (2, 2)).scale(
        MINUS_ONE
    )
    assert compose(s, s) == identity_tensor(sp, 2)


def test_theta_of_permutations_represents_group():
    g21 = build_algebra("gl", 2, 1)
    for a in symmetric_group(3):
        for b in symmetric_group(3):
            assert compose(invariant_tensor(g21, a), invariant_tensor(g21, b)) == (
                invariant_tensor(g21, a * b)
            )


def test_theta_of_permutations_commutes_with_action():
    for alg in (GL11, build_algebra("q", 0, 2)):
        for sigma in symmetric_group(2):
            op = invariant_tensor(alg, sigma)
            assert tensor_is_invariant(alg, op)


def test_omega_iso_identity_and_inverse():
    sp = GL11.space
    ident_fn = lambda word: basis_vector(sp, word)
    assert omega_iso_reference(sp, 2, ident_fn) == identity_tensor(sp, 2)
    # k = 1: omega is the identity on matrix units
    e12 = Tensor(sp, 1, {((1, 2),): ONE})
    fn = lambda word: apply(e12, basis_vector(sp, word))
    assert omega_iso_reference(sp, 1, fn) == e12


def operator_of(t: Tensor):
    """The operator view of t: a callable taking an index word to its image."""
    return lambda word: apply(t, basis_vector(t.space, word))


def test_omega_iso_roundtrip():
    # omega_iso_reference inverts the operator view given by apply on basis words
    rng = random.Random(8)
    sp = build_algebra("q", 0, 1).space
    for _ in range(10):
        entries = {}
        for _ in range(4):
            key = tuple(
                (rng.choice(sp.indices), rng.choice(sp.indices)) for _ in range(2)
            )
            entries[key] = Scalar(rng.randint(-2, 2))
        t = Tensor(sp, 2, entries)
        assert omega_iso_reference(sp, 2, operator_of(t)) == t


def test_omega_iso_multiplicative():
    rng = random.Random(42)
    for family, m, n in [("gl", 1, 1), ("q", 0, 1), ("osp", 1, 1), ("p", 0, 1)]:
        alg = build_algebra(family, m, n)
        sp = alg.space
        words = list(itertools.product(sp.indices, repeat=2))
        for _ in range(50):
            # two random operators on V^(x 2), given by images of basis words
            fa = {
                w: VectorTensor(
                    sp, 2, {rng.choice(words): Scalar(rng.randint(-2, 2))}
                )
                for w in words
            }
            fb = {
                w: VectorTensor(
                    sp, 2, {rng.choice(words): Scalar(rng.randint(-2, 2))}
                )
                for w in words
            }

            def compose_fn(w):
                out = VectorTensor(sp, 2, {})
                for w2, c in fb[w].entries.items():
                    out = out + fa[w2].scale(c)
                return out

            lhs = omega_iso_reference(sp, 2, compose_fn)
            rhs = compose(
                omega_iso_reference(sp, 2, lambda w: fa[w]),
                omega_iso_reference(sp, 2, lambda w: fb[w]),
            )
            assert lhs == rhs


def test_omega_iso_reads_slot_pairs_as_matrix_units():
    sp = GL11.space
    ident = VectorTensor(sp, 2, {(i, i): ONE for i in sp.indices})
    power = VectorTensor(sp, 4, {
        (a, a, b, b): ONE for a in sp.indices for b in sp.indices
    })
    assert omega_iso(ident) == identity_tensor(sp, 1)
    assert omega_iso(power) == identity_tensor(sp, 2)
    # an odd pair is read as it stands: no sign, wherever it sits
    assert omega_iso(VectorTensor(sp, 4, {(1, 1, 1, 2): ONE})) == Tensor(
        sp, 2, {((1, 1), (1, 2)): ONE}
    )
    assert omega_iso(VectorTensor(sp, 4, {(2, 1, 1, 2): ONE})) == Tensor(
        sp, 2, {((2, 1), (1, 2)): ONE}
    )
    with pytest.raises(ValueError):
        omega_iso(VectorTensor(sp, 3, {(1, 1, 1): ONE}))


PERM_OPERATOR_GRID = [
    ("gl", 1, 1, 5), ("q", 0, 1, 5),
    ("gl", 2, 1, 4), ("gl", 1, 2, 4), ("gl", 2, 2, 4), ("gl", 3, 0, 4),
    ("q", 0, 2, 4), ("osp", 1, 1, 4), ("p", 0, 1, 4),
    ("osp", 3, 1, 3), ("p", 0, 2, 3),
]


# theta of a permutation's diagram against the signed place permutation, in
# symmetric_group order: for p(n), theta carries these signs (measured)
P_DIAGRAM_SIGNS = {1: "+", 2: "--", 3: "-----+", 4: "+++++-+++++-++---++--+-+"}


def _diagram(sigma):
    """sigma in S_k as a (k,k)-diagram in S_2k: the points 2sigma(s)-1 and 2s pair up."""
    return Permutation(
        x for s in range(1, sigma.size + 1) for x in (2 * sigma(s) - 1, 2 * s)
    )


@pytest.mark.parametrize("family, m, n, k_max", PERM_OPERATOR_GRID)
def test_theta_of_permutations_matches_reference(family, m, n, k_max):
    # gl, q: equal in key order; osp, p: key order differs, so by value
    alg = build_algebra(family, m, n)
    for k in range(1, k_max + 1):
        signs = P_DIAGRAM_SIGNS[k] if family == "p" else "+" * math.factorial(k)
        for sigma, sign in zip(symmetric_group(k), signs, strict=True):
            want = perm_operator_reference(alg.space, sigma)
            if family in ("gl", "q"):
                got = invariant_tensor(alg, sigma)
                assert list(got.terms.items()) == list(want.terms.items()), sigma
            else:
                got = invariant_tensor(alg, _diagram(sigma))
                assert got == (want if sign == "+" else -want), sigma


def test_theta_glq_closed_formula():
    # Omega_2(Psi((12))) equals the direct signed double sum
    sp = GL11.space
    from superinv.signs import gamma_exponent

    sigma = Permutation((2, 1))
    expected = {}
    par = sp.parity
    for i1 in sp.indices:
        for i2 in sp.indices:
            x = (par[i1], par[i2])
            xs = (par[i2], par[i1])
            exp = (
                p_exponent(x, x)
                + p_exponent(xs, x)
                + gamma_exponent(x, sigma)
            ) % 2
            key = ((i2, i1), (i1, i2))
            expected[key] = expected.get(key, ZERO) + (
                ONE if exp == 0 else MINUS_ONE
            )
    assert invariant_tensor(GL11, sigma) == Tensor(sp, 2, expected)


def test_theta_cycle_example():
    # sigma = (12...k): theta = sum (-1)^{|i1|+...+|i_{k-1}|} e_{ik i1} x e_{i1 i2} x ...
    for alg in (GL11, build_algebra("gl", 2, 1)):
        sp = alg.space
        k = 3
        sigma = Permutation((2, 3, 1))
        expected = {}
        for word in itertools.product(sp.indices, repeat=k):
            exp = sum(sp.parity[i] for i in word[:-1]) % 2
            key = ((word[-1], word[0]),) + tuple(
                (word[t], word[t + 1]) for t in range(k - 1)
            )
            expected[key] = ONE if exp == 0 else MINUS_ONE
        assert invariant_tensor(alg, sigma) == Tensor(sp, k, expected)
        # and z of the full cycle is the trace of the k-th matrix power
        assert z_sigma(alg, sigma) == str_gelfand(alg, k)


def test_theta_k1():
    assert invariant_tensor(GL11, Permutation.identity(1)) == identity_tensor(GL11.space, 1)


def test_gelfand_orientation_is_pinned():
    # Str E^3 equals z of the 3-cycle (123), and differs from z of (132):
    # the two conventions are distinguishable and the forward one is used
    c123 = Permutation((2, 3, 1))
    g21 = build_algebra("gl", 2, 1)
    for alg in (GL11, g21):
        assert str_gelfand(alg, 3) == z_sigma(alg, c123)
        assert str_gelfand(alg, 3) != z_sigma(alg, c123.inverse())


def test_str_gelfand_k1():
    z = str_gelfand(GL11, 1)
    assert z == PBWElement(
        GL11, {(GL11.gens.index("E[1,1]"),): ONE, (GL11.gens.index("E[2,2]"),): ONE}
    )


def test_z_sigma_gl_k2_example():
    # z_(12) = sum (-1)^{|i1|} E_{i2 i1} E_{i1 i2}
    sp = GL11.space
    expected = PBWElement(GL11)
    for i1 in sp.indices:
        for i2 in sp.indices:
            word = (
                GL11.gens.index("E[%d,%d]" % (i2, i1)),
                GL11.gens.index("E[%d,%d]" % (i1, i2)),
            )
            coeff = ONE if sp.parity[i1] == 0 else MINUS_ONE
            from superinv.enveloping import pbw_normalize

            expected = expected + pbw_normalize(GL11, [(word, coeff)])
    assert z_sigma(GL11, Permutation((2, 1))) == expected


def test_pairing_vector_and_contraction():
    o = build_algebra("osp", 1, 1)
    e1 = _generator_operators(o, 2)["e1"]
    assert compose(e1, e1) == e1.scale(Scalar(-1))  # delta = m - 2n = -1
    p2 = build_algebra("p", 0, 2)
    f1 = _generator_operators(p2, 2)["e1"]
    assert compose(f1, f1).is_zero()
    s1 = _generator_operators(p2, 2)["s1"]
    assert compose(s1, f1) == f1.scale(MINUS_ONE)
    assert compose(f1, s1) == f1
    # gl's invariant vector is the identity sum_i e_i x e_i
    assert invariant_vector(GL11.space) == VectorTensor(
        GL11.space, 2, {(1, 1): ONE, (2, 2): ONE}
    )


def test_contraction_commutes_with_action():
    for family, m, n in [("osp", 2, 1), ("p", 0, 2)]:
        alg = build_algebra(family, m, n)
        op = _generator_operators(alg, 3)["e1"]
        assert tensor_is_invariant(alg, op)


def test_clifford_examples():
    q1 = build_algebra("q", 0, 1)
    c1 = _generator_operators(q1, 1)["c1"]
    assert apply(c1, basis_vector(q1.space, (1,))) == basis_vector(
        q1.space, (-1,)
    ).scale(-IMAG)
    assert apply(c1, basis_vector(q1.space, (-1,))) == basis_vector(
        q1.space, (1,)
    ).scale(IMAG)
    q2 = build_algebra("q", 0, 2)
    ops = _generator_operators(q2, 2)
    c1, c2 = ops["c1"], ops["c2"]
    ident = identity_tensor(q2.space, 2)
    assert compose(c1, c1) == ident
    assert (compose(c1, c2) + compose(c2, c1)).is_zero()
    # sigma c_i = c_{sigma(i)} sigma
    s = ops["s1"]
    assert compose(s, c1) == compose(c2, s)
    assert sorted(_generator_operators(GL11, 2)) == ["s1"]


def test_clifford_supercommutes_with_action():
    q2 = build_algebra("q", 0, 2)
    c1 = _generator_operators(q2, 2)["c1"]
    assert tensor_is_invariant(q2, c1)


def test_theta_brauer_identity_perm():
    for family, m, n in [("osp", 1, 1), ("osp", 2, 1), ("p", 0, 2)]:
        alg = build_algebra(family, m, n)
        th = invariant_tensor(alg, Permutation.identity(2))
        assert th == identity_tensor(alg.space, 1)
        assert eta(project_tensor(alg, th)).is_zero()


def test_theta_brauer_coset_stability():
    rng = random.Random(5)
    hs = list(h_elements(2))
    for family, m, n in [("osp", 2, 1), ("p", 0, 2)]:
        alg = build_algebra(family, m, n)
        for sigma in rng.sample(list(symmetric_group(4)), 6):
            base = invariant_tensor(alg, sigma)
            for h in rng.sample(hs, 3):
                assert invariant_tensor(alg, sigma * h) == base


def test_theta_invariance_sweeps():
    for alg in (GL11, build_algebra("q", 0, 2)):
        for k in (1, 2, 3):
            for sigma in symmetric_group(k):
                assert tensor_is_invariant(alg, invariant_tensor(alg, sigma))
    for family, m, n in [("osp", 1, 1), ("osp", 2, 1), ("p", 0, 2)]:
        alg = build_algebra(family, m, n)
        for k in (1, 2):
            for sigma in symmetric_group(2 * k):
                assert tensor_is_invariant(alg, invariant_tensor(alg, sigma))


def test_theta_brauer_closed_formula_osp():
    # independent oracle: theta_sigma as the signed double sum over index
    # words (j1, j1', j2, j2'), with gamma and the two epsilon factors
    from superinv.signs import gamma_exponent
    from superinv.brauer import coset_canonical

    rng = random.Random(77)
    for m, n in [(1, 1), (2, 1)]:
        alg = build_algebra("osp", m, n)
        sp = alg.space
        k = 2
        for sigma in rng.sample(list(symmetric_group(2 * k)), 8):
            canon = coset_canonical(sigma)
            inv = canon.inverse()
            entries = {}
            for odds in itertools.product(sp.indices, repeat=k):
                word = []
                for i in odds:
                    word.extend((i, sp.prime(i)))
                parities = tuple(sp.parity[j] for j in word)
                exp = gamma_exponent(parities, inv)
                coeff = ONE if exp == 0 else MINUS_ONE
                for s in range(k):
                    coeff = coeff * Scalar(
                        sp.epsilon(word[2 * s + 1])
                        * sp.epsilon(word[inv(2 * s + 2) - 1])
                    )
                key = tuple(
                    (word[inv(2 * s + 1) - 1], sp.prime(word[inv(2 * s + 2) - 1]))
                    for s in range(k)
                )
                acc = entries.get(key)
                entries[key] = coeff if acc is None else acc + coeff
            expected = Tensor(sp, k, entries)
            assert invariant_tensor(alg, sigma) == expected, (m, n, sigma)


def test_theta_brauer_matches_two_step_construction():
    # the closed construction agrees with: permute c^k, then dualize
    rng = random.Random(31)
    for family, m, n in [("osp", 2, 1), ("p", 0, 3)]:
        alg = build_algebra(family, m, n)
        from superinv.brauer import coset_canonical

        for sigma in rng.sample(list(symmetric_group(4)), 8):
            canon = coset_canonical(sigma)
            vec = permute_word(canon, _power(invariant_vector(alg.space), 2))
            assert invariant_tensor(alg, sigma) == dualize_even_slots_reference(alg, vec)


def test_p2_crossing_invariant_frozen_formula():
    # sigma = (23)(45): pi(theta_{sigma^{-1}}) equals the signed triple
    # product sum over all index words, with the 1/8 from the projection
    p2 = build_algebra("p", 0, 2)
    sp = p2.space
    sigma = Permutation.from_cycles([(2, 3), (4, 5)], 6)
    actual = project_tensor(p2, invariant_tensor(p2, sigma.inverse()))
    from superinv.tensoralg import TensorAlgebraElement

    eighth = Scalar(Fraction(1, 8))
    expected = {}
    for i1, i2, i3 in itertools.product(sp.indices, repeat=3):
        pr, par = sp.prime, sp.parity
        exp = par[pr(i2)] + par[i3] + par[i1] * par[i2] + par[i2] * par[i3]
        coeff = eighth if exp % 2 == 0 else -eighth
        word = []
        for a, b in [(i1, pr(i2)), (pr(i1), pr(i3)), (pr(i2), i3)]:
            hit = p2.pi_table[(a, b)]
            if hit is None:  # the G combination vanishes, the word drops
                word = None
                break
            idx, neg = hit
            factor = -p2.pi_scale if neg else p2.pi_scale
            word.append(idx)
            coeff = coeff * factor * Scalar(2)  # G_ab = 2 pi(e_ab)
        if word is None:
            continue
        key = tuple(word)
        expected[key] = expected.get(key, ZERO) + coeff
    assert actual == TensorAlgebraElement(p2, expected)
    assert not actual.is_zero()
    assert eta(actual).is_zero()


def test_theta_brauer_error_paths():
    p2 = build_algebra("p", 0, 2)
    with pytest.raises(ValueError):
        invariant_tensor(p2, Permutation((2, 3, 1)))  # odd total degree


def test_q3_family_checks():
    q3 = build_algebra("q", 0, 3)
    assert z_sigma(q3, Permutation((2, 1, 3))).is_zero()
    z1 = sergeev_Z(q3, 1)
    assert is_central(z1)
    assert z1 == z_sigma(q3, Permutation((1,)))
    z3 = sergeev_Z(q3, 3)
    assert z3 == z_sigma(q3, Permutation((2, 3, 1))).scale(Scalar(4))


def test_osp32_full_s4_sweep():
    o32 = build_algebra("osp", 3, 1)
    for sigma in symmetric_group(4):
        th = invariant_tensor(o32, sigma)
        assert tensor_is_invariant(o32, th)
        assert is_central(z_sigma(o32, sigma))


def test_molev_osp():
    o = build_algebra("osp", 1, 1)
    s = invariant_tensor(o, Permutation.from_cycles([(1, 3)], 4))
    me = molev_element(o, s, [Scalar(Fraction(1, 2)), Scalar(-2)])
    assert is_central(me)


def test_p_averaging_collapses_to_zero():
    # with a trivial center both sides of the averaging identity vanish:
    # the scalar z's over a doubled-subgroup orbit cancel
    import math

    from superinv.brauer import overline_embed
    from oracles import psi_eta_pi

    p2 = build_algebra("p", 0, 2)
    bars = [overline_embed(t) for t in symmetric_group(2)]
    fact = Scalar(Fraction(1, math.factorial(2)))
    for sigma in symmetric_group(4):
        lhs = psi_eta_pi(p2, invariant_tensor(p2, sigma))
        assert lhs.is_zero()
        rhs = PBWElement(p2)
        for tb in bars:
            rhs = rhs + z_sigma(p2, tb * sigma)
        assert rhs.scale(fact) == lhs


def test_q_even_cycle_z_vanishes():
    q2 = build_algebra("q", 0, 2)
    assert z_sigma(q2, Permutation((2, 1))).is_zero()
    assert z_sigma(q2, Permutation((2, 3, 4, 1))).is_zero()


def test_p_z_are_scalars():
    p2 = build_algebra("p", 0, 2)
    for sigma in symmetric_group(4):
        z = z_sigma(p2, sigma)
        assert z.is_scalar(), sigma


def test_osp_gelfand_central():
    o = build_algebra("osp", 1, 1)
    z2 = str_gelfand(o, 2)
    assert not z2.is_zero()
    assert is_central(z2)


def test_sergeev_elements():
    q2 = build_algebra("q", 0, 2)
    x1 = sergeev_elements(q2, 1)
    assert x1.coefficient(((1, 2),)) == PBWElement(q2, {(q2.gens.index("H[1,2]"),): ONE})
    assert -x1.coefficient(((2, -1),)) == PBWElement(q2, {(q2.gens.index("H[2,-1]"),): ONE})
    z1 = sergeev_Z(q2, 1)
    assert z1 == z_sigma(q2, Permutation((1,)))
    z3 = sergeev_Z(q2, 3)
    assert is_central(z3)
    assert z3 == z_sigma(q2, Permutation((2, 3, 1))).scale(Scalar(4))


@pytest.mark.parametrize("n, top", [(1, 6), (2, 6), (3, 4)])
def test_sergeev_elements_are_the_positive_rows_of_the_generator_power(n, top):
    # e^(m)_ij is the (i, j) entry and f^(m)_ij minus the (i, -j) entry;
    # the negative rows complete X^m, whose supertrace is 2 Z_m or 0
    q = build_algebra("q", 0, n)
    x = generator_matrix(q)
    power = x
    for m in range(1, top + 1):
        rows = sergeev_elements(q, m)
        e, f = sergeev_elements_reference(q, m)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert rows.coefficient(((i, j),)) == e[(i, j)], (m, i, j)
                assert -rows.coefficient(((i, -j),)) == f[(i, j)], (m, i, j)
        assert all(key[0][0] > 0 for key in rows.terms)
        z = sergeev_Z(q, m)
        assert z == sum((e[(i, i)] for i in range(2, n + 1)), e[(1, 1)])
        expected = z.scale(Scalar(2)) if m % 2 else PBWElement(q)
        assert full_supertrace(power) == expected, m
        power = power * x


def test_matrix_presentation_identities():
    for family, m, n in [("gl", 1, 1), ("gl", 2, 1)]:
        alg = build_algebra(family, m, n)
        x = generator_matrix(alg)
        x1, x2 = slot_embed(x, 1, 2), slot_embed(x, 2, 2)
        p = scalar_tensor(alg, super_transposition_tensor(alg.space))
        assert (x1 * x2 - x2 * x1) == (p * x2 - x2 * p)
    o = build_algebra("osp", 1, 1)
    f = generator_matrix(o)
    f1, f2 = slot_embed(f, 1, 2), slot_embed(f, 2, 2)
    pq = scalar_tensor(
        o, super_transposition_tensor(o.space) - form_flip_tensor(o.space)
    )
    assert (f1 * f2 - f2 * f1) == (pq * f2 - f2 * pq)


def test_traced_pipeline_identity():
    # eta' pi (S^st) = Str_{1..k} E_1 ... E_k S for invariant S
    for k in (1, 2):
        for sigma in symmetric_group(k):
            s = invariant_tensor(GL11, sigma)
            lhs = eta_prime(project_tensor(GL11, supertranspose(s)))
            x = generator_matrix(GL11)
            acc = None
            for a in range(1, k + 1):
                term = slot_embed(x, a, k)
                acc = term if acc is None else acc * term
            rhs = full_supertrace(acc * scalar_tensor(GL11, s))
            assert lhs == rhs


def test_molev_k1_expansion():
    g21 = build_algebra("gl", 2, 1)
    u1 = Scalar(Fraction(5, 3))
    elem = molev_element(g21, identity_tensor(g21.space, 1), [u1])
    expected = PBWElement(g21, {(): u1 * Scalar(2 - 1)})
    for i in g21.space.indices:
        expected = expected + PBWElement(g21, {(g21.gens.index("E[%d,%d]" % (i, i)),): ONE})
    assert elem == expected
    assert is_central(elem)


def test_molev_centrality_and_errors():
    sigma = Permutation((2, 1))
    s = invariant_tensor(GL11, sigma)
    elem = molev_element(GL11, s, [Scalar(1), Scalar(Fraction(1, 2))])
    assert is_central(elem)
    zero = Tensor(GL11.space, 2, {})
    assert molev_element(GL11, zero, [ZERO, ZERO]).is_zero()
    bad = Tensor(GL11.space, 1, {((1, 2),): ONE})
    with pytest.raises(ValueError):
        molev_element(GL11, bad, [ZERO])


@pytest.mark.parametrize(
    "family, m, n, top", [("gl", 2, 2, 5), ("osp", 3, 1, 5), ("q", 0, 2, 5), ("gl", 3, 3, 4)]
)
def test_trace_families_match_their_full_product_references(family, m, n, top):
    # the last product is read on its diagonal only; the reference builds it
    alg = build_algebra(family, m, n)
    pairs = [(str_gelfand, str_gelfand_reference)]
    if family == "q":
        pairs.append((sergeev_Z, sergeev_Z_reference))
    for k in range(1, top + 1):
        for fn, reference in pairs:
            got, want = fn(alg, k), reference(alg, k)
            assert list(got.terms.items()) == list(want.terms.items()), (fn.__name__, k)


def test_uvalued_tensor_traces():
    x = generator_matrix(GL11)
    # Str of the generator matrix is the degree-one Gelfand element
    assert full_supertrace(x) == str_gelfand(GL11, 1)
    two = slot_embed(x, 1, 2)
    # the partial trace over the identity slot multiplies by Str(1) = m - n = 0
    assert partial_supertrace(two, 2).is_zero()


def test_relation_reports():
    rep = check_duality_relations(GL11, 3)
    assert rep["all_relations_hold"] and rep["supercommutes_with_action"]
    rep = check_duality_relations(build_algebra("q", 0, 2), 3)
    assert rep["all_relations_hold"] and rep["supercommutes_with_action"]
    rep = check_duality_relations(build_algebra("osp", 3, 1), 2)
    assert rep["all_relations_hold"] and rep["supercommutes_with_action"]
    assert rep["delta_measured"] == "1" and rep["delta_matches_m_minus_2n"]
    assert rep["delta_table_m_minus_2n"] == 1
    assert rep["delta_text_2m_plus_1_minus_2n"] == 5
    rep = check_duality_relations(build_algebra("p", 0, 2), 3)
    assert rep["all_relations_hold"] and rep["supercommutes_with_action"]
    names = {r["name"] for r in rep["relations"]}
    assert "e1 e2 e1 = -e1" in names and "s1 e1 = -e1" in names


def test_measure_multiple():
    space = GL11.space

    def tensor(terms):
        return Tensor(space, 1, {(pair,): c for pair, c in terms})

    # b's first-inserted key (2, 2) is not its least key (1, 2)
    b = tensor([((2, 2), Scalar(3)), ((1, 2), Scalar(-6))])
    c = Scalar(Fraction(-2, 5), 1)
    assert _measure_multiple(b.scale(c), b) == c
    assert _measure_multiple(b, b) == ONE
    # not a multiple: the ratio differs between the keys, or a key is extra
    assert _measure_multiple(tensor([((2, 2), ONE), ((1, 2), ONE)]), b) is None
    assert _measure_multiple(b + tensor([((2, 1), ONE)]), b) is None
    # a key below b's pivot
    assert _measure_multiple(b + tensor([((1, 1), ONE)]), b) is None
    assert _measure_multiple(b, Tensor(space, 1)) is None
    assert _measure_multiple(Tensor(space, 1), Tensor(space, 1)) is None
    zero = _measure_multiple(Tensor(space, 1), b)
    assert zero == ZERO and zero is not None


@pytest.mark.parametrize(
    "family,m,n,count",
    [("gl", 1, 1, 6), ("osp", 1, 1, 23), ("p", 0, 1, 25), ("q", 0, 1, 28)],
)
def test_relation_report_at_k4(family, m, n, count):
    rep = check_duality_relations(build_algebra(family, m, n), 4)
    assert len(rep["relations"]) == count
    assert all(r["holds"] for r in rep["relations"]) and rep["supercommutes_with_action"]
    names = {r["name"] for r in rep["relations"]}
    far = {"s1 s3 = s3 s1"}
    if family in ("osp", "p"):
        far |= {"s1 e3 = e3 s1", "e1 e3 = e3 e1"}
    assert far <= names


def test_relation_reader_reads_false_identities_as_false():
    ops = _generator_operators(GL11, 3)
    ident = identity_tensor(GL11.space, 3)
    assert not (_read_side("s1 s2", ops, ident) - _read_side("s2 s1", ops, ident)).is_zero()
    assert (_read_side("s1^2", ops, ident) - _read_side("1", ops, ident)).is_zero()
    assert _read_side("0", ops, ident).is_zero()


def test_relation_reader_matches_hand_built_products():
    p1 = build_algebra("p", 0, 1)
    ops = _generator_operators(p1, 3)
    ident = identity_tensor(p1.space, 3)
    e1s2 = compose(ops["e1"], ops["s2"])
    assert not e1s2.is_zero() and _read_side("-e1 s2", ops, ident) == -e1s2
    q1 = build_algebra("q", 0, 1)
    ops = _generator_operators(q1, 2)
    c1 = ops["c1"]
    assert _read_side("c1^2", ops, identity_tensor(q1.space, 2)) == compose(c1, c1)


# -- test-only references: the centralizer generators built word by word ------


def _form(space, i, j):
    """B(e_i, e_j) for osp and p."""
    if j != space.prime(i):
        return 0
    return space.epsilon(i) if space.family == "osp" else 1


def _contraction_reference(alg, i, k):
    """e_i sends v_i x v_{i+1} to B(v_i, v_{i+1}) times the pairing vector."""
    space = alg.space
    pair = invariant_vector(space)

    def fn(word):
        coeff = Scalar(_form(space, word[i - 1], word[i]))
        out = {}
        if coeff:
            for (a, b), pc in pair.terms.items():
                out[word[: i - 1] + (a, b) + word[i + 1 :]] = coeff * pc
        return VectorTensor(space, k, out)

    return omega_iso_reference(space, k, fn)


def _clifford_reference(alg, i, k):
    """c_i acts on slot i, with the sign of crossing the slots before it."""
    space = alg.space

    def fn(word):
        prefix = sum(space.parity[word[t]] for t in range(i - 1)) & 1
        v = word[i - 1]
        coeff = -IMAG if v > 0 else IMAG
        if prefix:
            coeff = -coeff
        return VectorTensor(space, k, {word[: i - 1] + (-v,) + word[i:]: coeff})

    return omega_iso_reference(space, k, fn)


def _generator_reference(alg, name, k):
    kind, i = name[0], int(name[1:])
    if kind == "s":
        return perm_operator_reference(alg.space, Permutation.from_cycles([(i, i + 1)], k))
    if kind == "e":
        return _contraction_reference(alg, i, k)
    return _clifford_reference(alg, i, k)


GENERATOR_ALGEBRAS = [
    ("gl", 0, 2), ("gl", 2, 0), ("gl", 1, 0), ("gl", 1, 1), ("gl", 2, 1),
    ("osp", 1, 0), ("osp", 0, 1), ("osp", 1, 1), ("osp", 2, 1), ("osp", 3, 1),
    ("osp", 2, 2), ("osp", 1, 2), ("p", 0, 1), ("p", 0, 2), ("p", 0, 3),
    ("q", 0, 1), ("q", 0, 2), ("q", 0, 3),
]


@pytest.mark.parametrize("family,m,n", GENERATOR_ALGEBRAS)
def test_generator_operators_match_word_by_word_references(family, m, n):
    alg = build_algebra(family, m, n)
    for k in (2, 3, 4):
        ops = _generator_operators(alg, k)
        kinds = {"gl": "s", "osp": "se", "p": "se", "q": "sc"}[family]
        assert sorted(ops) == sorted(
            "%s%d" % (kind, i) for kind in kinds for i in range(1, k + (kind == "c"))
        )
        for name, op in ops.items():
            assert op == _generator_reference(alg, name, k), (name, k)


@pytest.mark.parametrize("family,m,n", GENERATOR_ALGEBRAS)
def test_flip_formulas_match_the_generators(family, m, n):
    alg = build_algebra(family, m, n)
    assert super_transposition_tensor(alg.space) == _generator_operators(alg, 2)["s1"]
    if family == "osp":
        assert form_flip_tensor(alg.space) == _generator_operators(alg, 2)["e1"]


def test_generator_positions_out_of_range_raise():
    p2 = build_algebra("p", 0, 2)
    q1 = build_algebra("q", 0, 1)
    # only the slots a local tensor fits on carry a generator
    assert sorted(_generator_operators(p2, 3)) == ["e1", "e2", "s1", "s2"]
    assert sorted(_generator_operators(q1, 3)) == ["c1", "c2", "c3", "s1", "s2"]


# -- the Koszul signs of theta and of supercommutation, against their first form


@pytest.mark.parametrize(
    "family, m, n",
    [("osp", 1, 1), ("osp", 2, 1), ("osp", 3, 1), ("osp", 2, 0),
     ("p", 0, 1), ("p", 0, 2), ("p", 0, 3),
     ("gl", 1, 1), ("gl", 2, 1), ("q", 0, 1), ("q", 0, 2)],
)
def test_omega_iso_matches_dualize_reference_in_key_order(family, m, n):
    alg = build_algebra(family, m, n)
    for k in (1, 2, 3):
        power = _power(invariant_vector(alg.space), k)
        for sigma in symmetric_group(2 * k):
            vec = permute_word(sigma, power)
            got = omega_iso(vec).terms.items()
            if family in ("gl", "q"):
                # gl and q read the pair (a, b) as e_ab with no sign
                want = {tuple(zip(w[::2], w[1::2])): c for w, c in vec.terms.items()}
            else:
                want = dualize_even_slots_reference(alg, vec).terms
            assert list(got) == list(want.items()), sigma


def test_omega_iso_builds_its_slot_tables_once_per_space_and_degree():
    # the 105 theta of pn-trivial p(2), k = 4 share one set of slot tables,
    # and each still reads its pairs as the family-tested reference does
    alg = build_algebra("p", 0, 2)
    power = _power(invariant_vector(alg.space), 4)
    schurweyl._slot_tables.cache_clear()
    reps = coset_reps(4)
    assert len(reps) == 105
    for sigma in reps:
        want = dualize_even_slots_reference(alg, permute_word(coset_canonical(sigma), power))
        got = invariant_tensor(alg, sigma)
        assert list(got.terms.items()) == list(want.terms.items()), sigma
    info = schurweyl._slot_tables.cache_info()
    assert (info.misses, info.hits) == (1, 104)


@pytest.mark.parametrize("family, m, n, k", [("p", 0, 2, 4), ("osp", 3, 1, 3)])
def test_pairing_power_keeps_one_sign_view_per_space_and_degree(family, m, n, k):
    # every coset representative permutes the cached power through its sign
    # view as the adjacent-swap reference permutes a fresh power, in key
    # order; the power and its view are built once and left as built
    alg = build_algebra(family, m, n)
    fresh = _power(invariant_vector(alg.space), k)
    schurweyl._pairing_power.cache_clear()
    reps = coset_reps(k)
    wants = [permute_word_reference(coset_canonical(sigma), fresh) for sigma in reps]
    for sigma, want in zip(reps, wants):
        got = invariant_tensor(alg, sigma)
        assert list(got.terms.items()) == list(omega_iso(want).terms.items()), sigma
    info = schurweyl._pairing_power.cache_info()
    assert (info.misses, info.hits) == (1, len(reps) - 1)
    power, view = schurweyl._pairing_power(alg.space, k)
    for sigma, want in zip(reps, wants):
        got = permute_word(coset_canonical(sigma), power, view)
        assert list(got.terms.items()) == list(want.terms.items()), sigma
    assert list(power.terms.items()) == list(fresh.terms.items())


@pytest.mark.parametrize("family, m, n", [("gl", 2, 1), ("q", 0, 2)])
def test_identity_power_stays_a_temporary(family, m, n):
    # gl and q permute a fresh identity power per call (279,936 keys at
    # q(3), k = 7), so theta over S_3 caches no power
    alg = build_algebra(family, m, n)
    before = schurweyl._pairing_power.cache_info().currsize
    for sigma in symmetric_group(3):
        assert invariant_tensor(alg, sigma) == perm_operator_reference(alg.space, sigma)
    assert schurweyl._pairing_power.cache_info().currsize == before


@pytest.mark.parametrize(
    "family, m, n",
    [("gl", 1, 1), ("osp", 1, 1), ("osp", 3, 1), ("p", 0, 1), ("p", 0, 2),
     ("q", 0, 1), ("q", 0, 2)],
)
def test_noncommuting_generators_matches_reference(family, m, n):
    # each generator alone, and made inhomogeneous or non-invariant by a
    # second summand: s1 (even), the action of an odd generator, c1 (odd, q)
    alg = build_algebra(family, m, n)
    odd = alg.parity.index(1)
    failing = 0
    for k in (2, 3):
        actions = [(g, phi_k(alg, g, k)) for g in range(alg.dim)]
        ops = _generator_operators(alg, k)
        summands = [ops["s1"], phi_k(alg, odd, k)]
        if family == "q":
            summands.append(ops["c1"])
        for op in ops.values():
            for t in [op] + [op + x for x in summands]:
                got = _noncommuting_generators(alg, t, actions)
                assert got == noncommuting_generators_reference(alg, t, actions)
                # the generating set gives the full list's verdict
                assert tensor_is_invariant(alg, t) == (not got)
                failing += bool(got)
    assert failing


@pytest.mark.parametrize(
    "family, m, n", [("gl", 1, 1), ("osp", 3, 1), ("q", 0, 2), ("p", 0, 2)]
)
def test_relations_names_the_generators_a_stray_operator_fails_on(
    capsys, monkeypatch, family, m, n
):
    # e_12 on the first slot joins the centralizer generators; it does not
    # supercommute with g, and the report names the members of h0 and S it
    # fails on, each also failing over the full basis
    k = 2
    generator_operators = schurweyl._generator_operators

    def with_stray(alg, k):
        stray = slot_embed(matrix_unit(alg.space, 1, 2), 1, k)
        return dict(generator_operators(alg, k), x1=stray)

    monkeypatch.setattr(schurweyl, "_generator_operators", with_stray)
    argv = ["relations", "--family", family, "--m", str(m), "--n", str(n), "--k", str(k)]
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["supercommutes_with_action"] is False
    assert doc["all_relations_hold"] is True
    alg = build_algebra(family, m, n)
    gens = alg.generating_set
    tested = sorted(gens.cartan + gens.probes)
    full = [(g, phi_k(alg, g, k)) for g in range(alg.dim)]
    want = []
    for name, op in sorted(with_stray(alg, k).items()):
        failing = noncommuting_generators_reference(alg, op, full)
        assert bool(failing) is (name == "x1"), name
        want += [[name, alg.gens[g]] for g in tested if g in failing]
    assert doc["supercommute_failures"] == want
