"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an exact equality of rational/Gaussian-rational objects, so
all tolerances are zero.  Each test prints one PASS/FAIL line (visible
with pytest -s); a FAIL line is always followed by the assertion failure.
"""

import itertools
import math
import time
from fractions import Fraction

from oracles import (
    all_types,
    form_flip_tensor,
    p_exponent,
    psi_map,
    super_transposition_tensor,
)

from superinv.algebras import build_algebra
from superinv.brauer import (
    closure_type,
    coset_reps,
    count_by_type,
    double_coset_size_formula,
    double_coset_sizes,
    double_factorial,
    key_lemma_witness,
    type_count_formula,
    witness_holds,
)
from superinv.enveloping import (
    CartanPolynomial,
    PBWElement,
    eta_prime,
    harish_chandra_image,
    is_central,
    is_J_poly,
    is_supersymmetric,
)
from superinv.scalars import MINUS_ONE, ONE, Scalar
from superinv.schurweyl import (
    check_duality_relations,
    generator_matrix,
    invariant_tensor,
    scalar_tensor,
    sergeev_Z,
    slot_embed,
    str_gelfand,
    z_sigma,
)
from superinv.signs import (
    Permutation,
    gamma_exponent,
    symmetric_group,
)
from superinv.tensoralg import eta, project_tensor
from superinv.brauer import overline_embed


def report(number, label, ok):
    print("ACCEPTANCE %02d %-58s %s" % (number, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (number, label)


def full_cycle(k):
    return Permutation(tuple(range(2, k + 1)) + (1,)) if k > 1 else Permutation((1,))


def test_criterion_01_gl_centrality():
    start = time.time()
    ok = True
    for m, n in [(1, 1), (2, 1)]:
        alg = build_algebra("gl", m, n)
        for k in (1, 2, 3):
            for sigma in symmetric_group(k):
                ok = ok and is_central(z_sigma(alg, sigma))
            # Str E^k equals the z of the full cycle (12...k)
            ok = ok and str_gelfand(alg, k) == z_sigma(alg, full_cycle(k))
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    report(1, "gl centrality + Gelfand identity (%.1fs)" % elapsed, ok)


def test_criterion_02_gl_harish_chandra():
    ok = True
    for m, n in [(1, 1), (2, 1)]:
        alg = build_algebra("gl", m, n)
        for k in (1, 2, 3):
            image = harish_chandra_image(str_gelfand(alg, k))
            ok = ok and is_supersymmetric(image, m, n)
            want = CartanPolynomial(alg.var_names)
            for v in range(m):
                e = [0] * (m + n)
                e[v] = k
                want = want + CartanPolynomial(alg.var_names, {tuple(e): ONE})
            sgn = ONE if (k - 1) % 2 == 0 else MINUS_ONE
            for v in range(m, m + n):
                e = [0] * (m + n)
                e[v] = k
                want = want + CartanPolynomial(alg.var_names, {tuple(e): sgn})
            top = {e: c for e, c in image.terms.items() if sum(e) == k}
            ok = ok and CartanPolynomial(alg.var_names, top) == want
    report(2, "gl HC images supersymmetric with power-sum top degree", ok)


def test_criterion_03_conjugacy_average():
    ok = True
    for alg in (build_algebra("gl", 1, 1), build_algebra("q", 0, 2)):
        for k in (1, 2, 3):
            perms = list(symmetric_group(k))
            inv_fact = Scalar(Fraction(1, math.factorial(k)))
            for sigma in perms:
                lhs = psi_map(eta(project_tensor(alg, invariant_tensor(alg, sigma))))
                rhs = PBWElement(alg)
                for tau in perms:
                    rhs = rhs + z_sigma(alg, tau.inverse() * sigma * tau)
                ok = ok and lhs == rhs.scale(inv_fact)
    # the osp form averages over the doubled subgroup
    for m, n in [(1, 1), (2, 1)]:
        alg = build_algebra("osp", m, n)
        k = 2
        bars = [overline_embed(t) for t in symmetric_group(k)]
        inv_fact = Scalar(Fraction(1, math.factorial(k)))
        for sigma in symmetric_group(2 * k):
            lhs = psi_map(eta(project_tensor(alg, invariant_tensor(alg, sigma))))
            rhs = PBWElement(alg)
            for tb in bars:
                rhs = rhs + z_sigma(alg, tb * sigma)
            ok = ok and lhs == rhs.scale(inv_fact)
    report(3, "conjugacy-average identities (gl, q, osp)", ok)


def test_criterion_04_queer_family():
    q2 = build_algebra("q", 0, 2)
    ok = z_sigma(q2, full_cycle(2)).is_zero()
    ok = ok and z_sigma(q2, full_cycle(4)).is_zero()
    z1 = sergeev_Z(q2, 1)
    z3 = sergeev_Z(q2, 3)
    ok = ok and z1 == z_sigma(q2, Permutation((1,)))
    ok = ok and z3 == z_sigma(q2, full_cycle(3)).scale(Scalar(4))
    ok = ok and is_central(z1) and is_central(z3)
    report(4, "q(2): even cycles vanish; Z1, Z3 match and are central", ok)


def test_criterion_05_osp_gelfand():
    start = time.time()
    alg = build_algebra("osp", 3, 1)
    ok = True
    for k in (2, 4):
        u = str_gelfand(alg, k)
        ok = ok and is_central(u)
        ok = ok and is_J_poly(harish_chandra_image(u), alg.m // 2, alg.n)
    elapsed = time.time() - start
    ok = ok and elapsed < 300
    report(5, "osp(3|2): Str F^2, Str F^4 central with J images (%.1fs)" % elapsed, ok)


def test_criterion_06_p_triviality():
    start = time.time()
    ok = True
    for n in (2, 3):
        alg = build_algebra("p", 0, n)
        for k in (1, 2, 3):
            for sigma in coset_reps(k):
                pt = project_tensor(alg, invariant_tensor(alg, sigma))
                ok = ok and eta(pt).is_zero()
                ok = ok and eta_prime(pt).is_scalar()
    p2 = build_algebra("p", 0, 2)
    sigma = Permutation.from_cycles([(2, 3), (4, 5)], 6)
    nonzero = not project_tensor(p2, invariant_tensor(p2, sigma.inverse())).is_zero()
    ok = ok and nonzero
    elapsed = time.time() - start
    ok = ok and elapsed < 600
    report(
        6,
        "p(n) triviality sweeps + nonzero tensor invariant (%.1fs)" % elapsed,
        ok,
    )


def test_criterion_07_key_lemma():
    ok = True
    for k in (2, 3):
        for sigma in symmetric_group(2 * k):
            w = key_lemma_witness(sigma)
            ok = ok and witness_holds(sigma, w)
    seen = set()
    for sigma in coset_reps(4):
        t = closure_type(sigma).type_vector
        if t in seen:
            continue
        seen.add(t)
        w = key_lemma_witness(sigma)
        ok = ok and witness_holds(sigma, w)
    ok = ok and seen == set(all_types(4))
    sigma = Permutation.from_cycles([(2, 3), (4, 5)], 6)
    w = key_lemma_witness(sigma)
    ok = ok and w.tau == Permutation.from_cycles([(5, 6)], 6)
    ok = ok and w.g == Permutation((2, 1, 3))
    ok = ok and w.tau1 == Permutation.from_cycles([(1, 2)], 6)
    ok = ok and w.g1 == Permutation((1, 3, 2))
    report(7, "Key Lemma witnesses: S4, S6 exhaustive; S8 per type", ok)


def test_criterion_08_brauer_counting():
    ok = True
    for k in range(1, 13):
        res = count_by_type(k)
        ok = ok and res["total"] == double_factorial(2 * k - 1)
        for t, count in res["counts"].items():
            ok = ok and count == type_count_formula(k, t)
    for k in range(1, 5):
        sizes = double_coset_sizes(k)
        for t, size in sizes.items():
            ok = ok and size == double_coset_size_formula(k, t)
        ok = ok and sum(sizes.values()) == math.factorial(2 * k)
    report(8, "diagram type counts (k<=12) and double cosets (k<=4)", ok)


def test_criterion_09_relation_suites():
    ok = True
    flagged = None
    for family, m, n, k in [
        ("gl", 1, 1, 3),
        ("q", 0, 1, 3),
        ("osp", 1, 1, 3),
        ("p", 0, 1, 3),
        ("q", 0, 2, 3),
        ("p", 0, 2, 3),
        ("osp", 3, 1, 2),
    ]:
        rep = check_duality_relations(build_algebra(family, m, n), k)
        ok = ok and rep["all_relations_hold"]
        ok = ok and rep["supercommutes_with_action"]
        if family == "osp":
            ok = ok and rep["delta_matches_m_minus_2n"]
            flagged = rep["parameter_discrepancy_note"]
    ok = ok and bool(flagged)
    report(9, "centralizer relation suites + measured delta = m-2n", ok)


def test_criterion_10_matrix_presentations():
    ok = True
    for family, m, n in [("gl", 1, 1), ("gl", 2, 1)]:
        alg = build_algebra(family, m, n)
        x = generator_matrix(alg)
        x1, x2 = slot_embed(x, 1, 2), slot_embed(x, 2, 2)
        p = scalar_tensor(alg, super_transposition_tensor(alg.space))
        ok = ok and (x1 * x2 - x2 * x1) == (p * x2 - x2 * p)
    o = build_algebra("osp", 1, 1)
    f = generator_matrix(o)
    f1, f2 = slot_embed(f, 1, 2), slot_embed(f, 2, 2)
    pq = scalar_tensor(
        o, super_transposition_tensor(o.space) - form_flip_tensor(o.space)
    )
    ok = ok and (f1 * f2 - f2 * f1) == (pq * f2 - f2 * pq)
    report(10, "matrix presentations: [X1,X2] = [P(-Q), X2]", ok)


def test_criterion_11_sign_calculus():
    ok = True

    def permuted(x, s):
        return tuple(x[s(t) - 1] for t in range(1, len(x) + 1))

    for k in (1, 2, 3, 4):
        words = list(itertools.product((0, 1), repeat=k))
        perms = list(symmetric_group(k))
        for sigma in perms:
            for u in words:
                gu = gamma_exponent(u, sigma)
                us = permuted(u, sigma)
                ok = ok and p_exponent(u, u) == p_exponent(us, us)
                for v in words:
                    uv = tuple((a + b) % 2 for a, b in zip(u, v))
                    vs = permuted(v, sigma)
                    lhs = gamma_exponent(uv, sigma)
                    rhs = (
                        p_exponent(u, v)
                        + p_exponent(us, vs)
                        + gu
                        + gamma_exponent(v, sigma)
                    ) % 2
                    ok = ok and lhs == rhs
        # cocycle law over all pairs on all words of this length
        for s in perms:
            for t in perms:
                st = s * t
                for v in words:
                    vs = permuted(v, s)
                    lhs = gamma_exponent(v, st)
                    rhs = (gamma_exponent(vs, t) + gamma_exponent(v, s)) % 2
                    ok = ok and lhs == rhs
    report(11, "sign calculus: compatibility, cocycle, p(v,v) laws", ok)
